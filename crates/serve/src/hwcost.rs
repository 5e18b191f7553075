//! Serving costs: the [`CostModel`] that charges simulated service time,
//! and its calibration from the cycle-level hardware simulator.
//!
//! The discrete-event simulator ([`crate::fleet::simulate_traffic`])
//! runs every batch through the real solver but charges its service time
//! by [`CostModel::service_us`], so simulated latencies are
//! bit-reproducible on any host. [`table_spec`] reduces a policy's
//! degradation ladder to the sweep spec `enode_hw::table` understands,
//! [`shipped_cost_table`] builds the deterministic per-(tier, batch)
//! latency/energy table for every shipped policy (the committed
//! `COST_TABLE.json`), and [`CostModel::from_table`] calibrates the
//! abstract per-NFE cost from those simulated numbers, so `serve_bench`'s
//! `hw_sweep` runs on simulator-derived service times instead of a
//! guessed constant.
//!
//! [`fingerprint`] content-hashes exactly the policy fields the sweep
//! depends on (name + ladder), so the static lints (`E093`) can prove a
//! committed table was generated from the ladder it is being applied to
//! — without the fingerprint changing when unrelated envelope fields
//! (deadlines, budgets) are tuned.

use crate::policies::ServeConfig;
use enode_hw::config::LayerDims;
use enode_hw::fingerprint::Fnv64;
use enode_hw::table::{build_table, tableau_cost, CostTable, TableSpec, TierSim};
use enode_tensor::parallel;

/// The serving-scale model profile a policy deploys: feature-map
/// dimensions and conv depth of the integration layer the simulator is
/// swept with. The edge policy serves a 16×16×8 two-conv classifier
/// head; the always-on keyword spotter runs an 8×8×8 front-end.
pub fn serve_profile(cfg: &ServeConfig) -> (LayerDims, usize) {
    match cfg.name {
        "streaming_keyword" => (LayerDims::new(8, 8, 8), 2),
        _ => (LayerDims::new(16, 16, 8), 2),
    }
}

/// FNV-1a 64-bit content hash (hex) of the policy fields the cost sweep
/// depends on: the name and, per tier, the tolerance scale (exact bit
/// pattern), trial budget, integrator stage count, and slack threshold.
/// Envelope fields (rates, deadlines, budgets) and batching knobs are
/// deliberately excluded — they do not change the simulated rows.
pub fn fingerprint(cfg: &ServeConfig) -> String {
    let mut h = Fnv64::new();
    h.write(cfg.name.as_bytes());
    for t in &cfg.tiers {
        h.write_f64_bits(t.tolerance_scale);
        h.write_u64(t.max_trials as u64);
        h.write_u64(tableau_cost(t.tableau).0 as u64);
        h.write_u64(t.min_slack_us);
    }
    h.hex()
}

/// The sweep spec for one policy.
pub fn table_spec(cfg: &ServeConfig) -> TableSpec {
    let (layer, n_conv) = serve_profile(cfg);
    TableSpec {
        policy: cfg.name.to_string(),
        fingerprint: fingerprint(cfg),
        layer,
        n_conv,
        max_batch: cfg.max_batch,
        tiers: cfg
            .tiers
            .iter()
            .map(|t| TierSim {
                tableau: t.tableau,
                tolerance_scale: t.tolerance_scale,
                max_trials: t.max_trials,
            })
            .collect(),
    }
}

/// Builds the cost table for every shipped policy — the exact content of
/// the committed `COST_TABLE.json` (`cost_table_json` renders it;
/// `ci.sh` diff-checks the bytes).
pub fn shipped_cost_table() -> CostTable {
    let specs: Vec<TableSpec> = ServeConfig::shipped().iter().map(table_spec).collect();
    build_table(&specs)
}

/// Converts a solved batch's function-evaluation counts into simulated
/// service time, mirroring how [`enode_tensor::parallel::parallel_map`]
/// actually schedules the per-sample solves: samples are split into
/// balanced contiguous chunks across `lanes`, and the batch takes as long
/// as its slowest lane (the makespan), plus a fixed dispatch overhead.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Simulated cost of one function evaluation (µs).
    pub per_nfe_us: f64,
    /// Fixed per-batch dispatch cost (µs).
    pub dispatch_overhead_us: u64,
    /// Parallel lanes the batch solve fans out over.
    pub lanes: usize,
}

impl CostModel {
    /// Simulated service time (µs) for a batch with the given per-sample
    /// NFE counts: dispatch overhead plus the slowest-lane makespan under
    /// the pool's balanced contiguous decomposition ([`parallel::chunk`]).
    ///
    /// Fed [`crate::server::SolvedBatch::per_sample_nfe`], which lists
    /// only the samples that solved, a partly failed batch is priced as a
    /// smaller batch: its lanes are re-split over the successes and the
    /// work of a failed solve costs nothing, so the model undercounts it.
    pub fn service_us(&self, per_sample_nfe: &[u64]) -> u64 {
        let n = per_sample_nfe.len();
        if n == 0 {
            return self.dispatch_overhead_us;
        }
        let ways = self.lanes.max(1).min(n);
        let makespan = (0..ways)
            .map(|lane| {
                let lane_nfe: u64 = per_sample_nfe[parallel::chunk(n, ways, lane)].iter().sum();
                (lane_nfe as f64 * self.per_nfe_us).ceil() as u64
            })
            .max()
            .unwrap_or(0);
        self.dispatch_overhead_us + makespan
    }

    /// Calibrates a cost model from a policy's simulated tier-0 rows:
    /// the marginal per-f-evaluation cost is read off the
    /// batch-1 → batch-2 latency difference (pure compute growth), and
    /// whatever the batch-1 latency holds beyond `f_evals` marginal
    /// costs is charged as fixed dispatch overhead.
    ///
    /// Returns `None` if the table has no tier-0 rows at batches 1 and 2
    /// for `policy`.
    pub fn from_table(policy: &str, table: &CostTable, lanes: usize) -> Option<CostModel> {
        let b1 = table.lookup(policy, 0, 1)?;
        let b2 = table.lookup(policy, 0, 2)?;
        let f_evals = b1.f_evals.max(1) as f64;
        let marginal = b2.latency_us.saturating_sub(b1.latency_us);
        let per_nfe_us = if marginal > 0 {
            marginal as f64 / f_evals
        } else {
            b1.latency_us as f64 / f_evals
        };
        let modeled = (f_evals * per_nfe_us).round() as u64;
        Some(CostModel {
            per_nfe_us,
            dispatch_overhead_us: b1.latency_us.saturating_sub(modeled),
            lanes: lanes.max(1),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_makespan_matches_chunking() {
        let cost = CostModel {
            per_nfe_us: 1.0,
            dispatch_overhead_us: 10,
            lanes: 2,
        };
        // 3 samples over 2 lanes: chunks [0..2] and [2..3].
        assert_eq!(cost.service_us(&[5, 5, 7]), 10 + 10);
        // One lane dominates.
        assert_eq!(cost.service_us(&[100, 1, 1]), 10 + 101);
        // Empty batch is just overhead.
        assert_eq!(cost.service_us(&[]), 10);
    }

    #[test]
    fn fingerprint_tracks_ladder_not_envelope() {
        let base = ServeConfig::edge_default();
        let fp = fingerprint(&base);
        assert_eq!(fp.len(), 16);

        // Envelope tuning must not invalidate the table...
        let mut envelope = base.clone();
        envelope.min_deadline_us /= 2;
        envelope.energy_budget_uj += 1;
        envelope.max_batch = 4;
        assert_eq!(fingerprint(&envelope), fp);

        // ...but any ladder change must.
        let mut ladder = base.clone();
        ladder.tiers[1].max_trials -= 1;
        assert_ne!(fingerprint(&ladder), fp);
        let mut ladder = base;
        ladder.tiers[2].min_slack_us += 1;
        assert_ne!(fingerprint(&ladder), fp);
    }

    /// The shipped ladders' digests, pinned to the values recorded in
    /// the committed `COST_TABLE.json`. A failure here means the shared
    /// FNV-1a helper (`enode_hw::fingerprint`) or the hashed field order
    /// drifted — which would silently invalidate every committed table
    /// and published registry version.
    #[test]
    fn shipped_fingerprints_are_pinned() {
        let shipped = ServeConfig::shipped();
        assert_eq!(fingerprint(&shipped[0]), "85ed0d4c8528085a");
        assert_eq!(fingerprint(&shipped[1]), "d5df13b27c1d51cd");
    }

    #[test]
    fn shipped_table_covers_every_tier_and_batch() {
        let t = shipped_cost_table();
        for cfg in ServeConfig::shipped() {
            for tier in 0..cfg.tiers.len() {
                let rows = t.rows_for(cfg.name, tier);
                assert!(!rows.is_empty(), "{} tier {tier} missing", cfg.name);
                assert!(
                    rows.iter().any(|r| r.batch == cfg.max_batch),
                    "{} tier {tier} lacks the max_batch row",
                    cfg.name
                );
            }
        }
        // edge: 3 tiers x 4 batches; streaming: 2 tiers x 3 batches.
        assert_eq!(t.rows.len(), 12 + 6);
    }

    #[test]
    fn from_table_reconstructs_the_batch_rows() {
        let t = shipped_cost_table();
        for cfg in ServeConfig::shipped() {
            let cm = CostModel::from_table(cfg.name, &t, 4).expect("tier-0 rows exist");
            assert!(cm.per_nfe_us > 0.0);
            // Charging f_evals identical per-sample NFEs through the
            // model must land within rounding of the simulated batch-8
            // (or max_batch) latency: the calibration is faithful, not a
            // curve fit.
            let row = t.lookup(cfg.name, 0, cfg.max_batch).unwrap();
            let nfe = vec![row.f_evals as u64; cfg.max_batch];
            let lanes1 = CostModel { lanes: 1, ..cm };
            let modeled = lanes1.service_us(&nfe);
            let sim = row.latency_us;
            let err = modeled.abs_diff(sim);
            assert!(
                err * 100 <= sim.max(1),
                "{}: modeled {modeled}µs vs simulated {sim}µs",
                cfg.name
            );
        }
    }

    #[test]
    fn from_table_missing_policy_is_none() {
        let t = shipped_cost_table();
        assert!(CostModel::from_table("no_such_policy", &t, 4).is_none());
    }
}
