//! Deterministic per-(policy, tier, batch) latency/energy cost tables.
//!
//! The serving stack charges service time through an abstract
//! `CostModel` (in `enode_serve::hwcost`) while the calibrated
//! cycle-level simulator sits one crate away. This module closes the
//! gap: it sweeps [`simulate_enode`] once per (degradation
//! tier × batch size) of a serving policy and emits a versioned,
//! **byte-stable** [`CostTable`] — cycles become µs through the 28 nm
//! clock model, pJ become µJ through [`EnergyModel`], DRAM stalls are
//! included because the simulator takes `max(compute, dram)`.
//!
//! Determinism contract: every number in the table is produced by plain
//! IEEE f64 arithmetic (`+ - * /`, `ceil`, `round`) on exactly
//! representable inputs — no `powf`, no clocks, no host queries — so two
//! generation runs are byte-identical on any host
//! (`ci.sh` diff-checks the committed `COST_TABLE.json` against a fresh
//! regeneration).
//!
//! The derivation of the workload counts is shared with the static
//! scheduler lints (`analysis::schedcheck`): [`points_for`] maps an
//! effective tolerance scale to the evaluation-point count of the
//! adaptive controller ([`BASE_POINTS`] at scale 1.0, shrinking like
//! `scale^(-1/(p+1))` for an embedded order `p` — the classic step-count
//! law, evaluated by integer search instead of `powf`), and
//! [`trials_for`] charges the paper's ~1.5 trials per accepted point.

use crate::config::{HwConfig, LayerDims, WorkloadRun};
use crate::energy::EnergyModel;
use crate::json::{self, escape, Value};
use crate::perf::simulate_enode;
use enode_node::inference::TableauKind;

/// Schema/version tag of the emitted table. Bump on any change to the
/// derivation (lint `E093` pins consumers to the matching generator).
pub const TABLE_VERSION: &str = "enode-cost-table/v1";

/// Evaluation points the adaptive controller spends at tolerance scale
/// 1.0 (the full-quality tier on a Standard-class request).
pub const BASE_POINTS: usize = 24;

/// Batch sizes swept per tier (clamped to the policy's `max_batch`).
pub const BATCH_GRID: [usize; 4] = [1, 2, 4, 8];

/// Integrator cost parameters of a tableau: `(stages, embedded_order)`.
///
/// Stages is the f-evaluation count of one trial step (matching
/// `HwConfig::stages` for RK23); the embedded order drives the
/// step-count law in [`points_for`].
pub fn tableau_cost(kind: TableauKind) -> (usize, usize) {
    match kind {
        TableauKind::HeunEuler => (2, 1),
        TableauKind::Rk23 => (4, 2),
        TableauKind::Rkf45 => (6, 4),
        TableauKind::Dopri5 => (7, 4),
    }
}

/// `x^n` by repeated multiplication (exact for the small integer bases
/// used here; keeps the derivation off `powf`/libm).
fn ipow(x: f64, n: u32) -> f64 {
    let mut acc = 1.0;
    for _ in 0..n {
        acc *= x;
    }
    acc
}

/// Evaluation points at effective tolerance scale `scale_eff` for an
/// embedded order-`p` pair: the largest `k` with
/// `k^(p+1) · scale_eff ≤ BASE_POINTS^(p+1)` (i.e. `k ≈ BASE_POINTS ·
/// scale_eff^(-1/(p+1))`), floored at 4 points so even the coarsest tier
/// pays the controller's startup steps.
///
/// `scale_eff` combines the tier's `tolerance_scale` with the request
/// class's tolerance relative to Standard (`1e-4`), so a Strict request
/// (`1e-6`) has `scale_eff = tolerance_scale × 0.01`.
pub fn points_for(embedded_order: usize, scale_eff: f64) -> usize {
    debug_assert!(scale_eff > 0.0 && scale_eff.is_finite());
    let p1 = embedded_order as u32 + 1;
    let budget = ipow(BASE_POINTS as f64, p1);
    let mut k = 1usize;
    while k < 100_000 && ipow((k + 1) as f64, p1) * scale_eff <= budget {
        k += 1;
    }
    k.max(4)
}

/// Trials (accepted + rejected) for `points` accepted evaluation points:
/// the paper's ~1.5 trials/point, rounded up, clamped to a per-point
/// budget of `max_trials`.
pub fn trials_for(points: usize, max_trials: usize) -> usize {
    (points * 3)
        .div_ceil(2)
        .min(points.saturating_mul(max_trials))
}

/// One degradation tier, reduced to what the simulator sweep needs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TierSim {
    /// Integrator at this tier.
    pub tableau: TableauKind,
    /// Multiplier on the request class's base tolerance (≥ 1.0).
    pub tolerance_scale: f64,
    /// Trial budget per evaluation point.
    pub max_trials: usize,
}

/// Everything the sweep needs to know about one serving policy.
#[derive(Clone, Debug, PartialEq)]
pub struct TableSpec {
    /// Policy name (row key).
    pub policy: String,
    /// Content fingerprint of the policy's ladder (hex), recorded in the
    /// table so consumers can detect a stale table (lint `E093`).
    pub fingerprint: String,
    /// Feature-map dimensions of the deployed model's integration layer.
    pub layer: LayerDims,
    /// Convolution layers in the embedded network `f`.
    pub n_conv: usize,
    /// Largest batch the policy's batcher coalesces (caps the grid).
    pub max_batch: usize,
    /// The degradation ladder, tier 0 first.
    pub tiers: Vec<TierSim>,
}

/// One simulated `(policy, tier, batch)` design point. `latency_us` and
/// `energy_uj` are **per batch** (one dispatch of `batch` requests).
#[derive(Clone, Debug, PartialEq)]
pub struct CostRow {
    /// Policy name.
    pub policy: String,
    /// Ladder index (0 = full quality).
    pub tier: usize,
    /// Batch size of this dispatch.
    pub batch: usize,
    /// Accepted evaluation points per sample (Standard class).
    pub points: usize,
    /// f-evaluations per sample (`trials × stages`, Standard class).
    pub f_evals: usize,
    /// Simulated wall-clock of the batch, µs (ceiling).
    pub latency_us: u64,
    /// Simulated total energy of the batch, µJ (rounded).
    pub energy_uj: u64,
}

/// A versioned sweep over one or more policies.
#[derive(Clone, Debug, PartialEq)]
pub struct CostTable {
    /// [`TABLE_VERSION`] at generation time.
    pub version: String,
    /// `(policy, fingerprint)` pairs, in sweep order.
    pub policies: Vec<(String, String)>,
    /// All rows, in `(policy, tier, batch)` sweep order.
    pub rows: Vec<CostRow>,
}

/// The serving hardware profile for a policy's model: Table I
/// Configuration A scaled down to the serving layer (edge feature maps,
/// two-conv `f`), with the ring link provisioned at 2 GB/s so the
/// 8-channel profile is not link-starved, and the integrator stage count
/// matching the tier under sweep.
pub fn serving_profile(layer: LayerDims, n_conv: usize, stages: usize) -> HwConfig {
    let mut cfg = HwConfig::config_a();
    cfg.layer = layer;
    cfg.n_conv = n_conv;
    cfg.stages = stages;
    cfg.stages_backward = 1;
    cfg.link_bandwidth = 2.0e9;
    cfg
}

/// Sweeps the simulator over `spec`'s (tier × batch) grid.
pub fn sweep_policy(spec: &TableSpec) -> Vec<CostRow> {
    let energy = EnergyModel::default();
    let mut rows = Vec::new();
    for (tier, t) in spec.tiers.iter().enumerate() {
        let (stages, order) = tableau_cost(t.tableau);
        let points = points_for(order, t.tolerance_scale);
        let trials = trials_for(points, t.max_trials);
        let cfg = serving_profile(spec.layer, spec.n_conv, stages);
        for &batch in BATCH_GRID.iter().filter(|&&b| b <= spec.max_batch) {
            let run = WorkloadRun {
                n_layers: 1,
                points: points * batch,
                trials: trials * batch,
                rows_fraction: 1.0,
                training: false,
            };
            let sim = simulate_enode(&cfg, &run, &energy);
            rows.push(CostRow {
                policy: spec.policy.clone(),
                tier,
                batch,
                points,
                f_evals: trials * stages,
                latency_us: (sim.seconds * 1e6).ceil() as u64,
                energy_uj: (sim.energy_j() * 1e6).round() as u64,
            });
        }
    }
    rows
}

/// Builds the full table over several policies.
pub fn build_table(specs: &[TableSpec]) -> CostTable {
    CostTable {
        version: TABLE_VERSION.to_string(),
        policies: specs
            .iter()
            .map(|s| (s.policy.clone(), s.fingerprint.clone()))
            .collect(),
        rows: specs.iter().flat_map(sweep_policy).collect(),
    }
}

impl CostTable {
    /// The ladder fingerprint recorded for `policy`, if any.
    pub fn fingerprint(&self, policy: &str) -> Option<&str> {
        self.policies
            .iter()
            .find(|(p, _)| p == policy)
            .map(|(_, fp)| fp.as_str())
    }

    /// The row for an exact `(policy, tier, batch)` design point.
    pub fn lookup(&self, policy: &str, tier: usize, batch: usize) -> Option<&CostRow> {
        self.rows
            .iter()
            .find(|r| r.policy == policy && r.tier == tier && r.batch == batch)
    }

    /// All rows of one `(policy, tier)`, in batch order.
    pub fn rows_for(&self, policy: &str, tier: usize) -> Vec<&CostRow> {
        self.rows
            .iter()
            .filter(|r| r.policy == policy && r.tier == tier)
            .collect()
    }

    /// Renders the table as the committed `COST_TABLE.json` format, one
    /// policy or row per line, which [`Self::from_json`] reads back.
    /// Deliberately carries **no** host metadata — the bytes depend only
    /// on the specs.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("\"schema\": \"{}\",\n", escape(&self.version)));
        out.push_str("\"policies\": [\n");
        for (i, (name, fp)) in self.policies.iter().enumerate() {
            let comma = if i + 1 < self.policies.len() { "," } else { "" };
            out.push_str(&format!(
                "{{ \"policy\": \"{}\", \"fingerprint\": \"{}\" }}{comma}\n",
                escape(name),
                escape(fp)
            ));
        }
        out.push_str("],\n");
        out.push_str("\"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            out.push_str(&format!(
                "{{ \"policy\": \"{}\", \"tier\": {}, \"batch\": {}, \"points\": {}, \
                 \"f_evals\": {}, \"latency_us\": {}, \"energy_uj\": {} }}{comma}\n",
                escape(&r.policy),
                r.tier,
                r.batch,
                r.points,
                r.f_evals,
                r.latency_us,
                r.energy_uj
            ));
        }
        out.push_str("]\n");
        out.push_str("}\n");
        out
    }

    /// Reads a table back from the JSON [`Self::render_json`] writes, in
    /// any layout. The `schema` string is kept as found, so a consumer
    /// pinned to [`TABLE_VERSION`] can report a foreign version itself
    /// (lint `E093`). Malformed JSON, a missing field or a table with no
    /// rows is an error.
    pub fn from_json(text: &str) -> Result<CostTable, String> {
        let doc = json::parse(text)?;
        let name = |v: &Value, key: &str| v.field(key, Value::as_str).map(str::to_string);
        let policies = doc
            .field("policies", Value::as_array)?
            .iter()
            .map(|p| Ok((name(p, "policy")?, name(p, "fingerprint")?)))
            .collect::<Result<_, String>>()?;
        let rows: Vec<CostRow> = doc
            .field("rows", Value::as_array)?
            .iter()
            .map(|r| {
                Ok(CostRow {
                    policy: name(r, "policy")?,
                    tier: r.field("tier", Value::as_usize)?,
                    batch: r.field("batch", Value::as_usize)?,
                    points: r.field("points", Value::as_usize)?,
                    f_evals: r.field("f_evals", Value::as_usize)?,
                    latency_us: r.field("latency_us", Value::as_u64)?,
                    energy_uj: r.field("energy_uj", Value::as_u64)?,
                })
            })
            .collect::<Result<_, String>>()?;
        if rows.is_empty() {
            return Err("the table has no rows".to_string());
        }
        Ok(CostTable {
            version: name(&doc, "schema")?,
            policies,
            rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge_spec() -> TableSpec {
        TableSpec {
            policy: "test_edge".to_string(),
            fingerprint: "0".repeat(16),
            layer: LayerDims::new(16, 16, 8),
            n_conv: 2,
            max_batch: 8,
            tiers: vec![
                TierSim {
                    tableau: TableauKind::Rk23,
                    tolerance_scale: 1.0,
                    max_trials: 64,
                },
                TierSim {
                    tableau: TableauKind::HeunEuler,
                    tolerance_scale: 256.0,
                    max_trials: 16,
                },
            ],
        }
    }

    #[test]
    fn points_follow_the_step_count_law() {
        // Scale 1.0 spends the base budget; order-2 at 16x tolerance
        // shrinks like 16^(-1/3); the floor catches the coarsest tiers.
        assert_eq!(points_for(2, 1.0), 24);
        assert_eq!(points_for(2, 16.0), 9);
        assert_eq!(points_for(1, 256.0), 4);
        assert_eq!(points_for(1, 64.0), 4);
        // Tighter-than-Standard classes grow the budget (Strict = 0.01).
        assert_eq!(points_for(2, 0.01), 111);
    }

    #[test]
    fn trials_charge_three_halves_per_point() {
        assert_eq!(trials_for(24, 64), 36);
        assert_eq!(trials_for(9, 32), 14); // ceil(13.5)
        assert_eq!(trials_for(4, 16), 6);
        // The per-point budget clamps a pathological request.
        assert_eq!(trials_for(10, 1), 10);
    }

    #[test]
    fn latency_scales_linearly_with_batch() {
        let rows = sweep_policy(&edge_spec());
        let b1 = rows.iter().find(|r| r.tier == 0 && r.batch == 1).unwrap();
        let b8 = rows.iter().find(|r| r.tier == 0 && r.batch == 8).unwrap();
        // Compute-bound at this profile: 8x the samples, ~8x the time.
        assert!(b8.latency_us >= 7 * b1.latency_us);
        assert!(b8.latency_us <= 8 * b1.latency_us + 8);
        // And cheaper tiers are strictly faster.
        let t1 = rows.iter().find(|r| r.tier == 1 && r.batch == 8).unwrap();
        assert!(t1.latency_us < b8.latency_us);
        assert!(t1.energy_uj < b8.energy_uj);
    }

    #[test]
    fn render_is_reproducible_and_parses_shape() {
        let t = build_table(&[edge_spec()]);
        let a = t.render_json();
        let b = build_table(&[edge_spec()]).render_json();
        assert_eq!(a, b, "two sweeps must be byte-identical");
        assert_eq!(CostTable::from_json(&a), Ok(t.clone()), "reads back");
        assert_eq!(t.version, "enode-cost-table/v1");
        assert_eq!(t.fingerprint("test_edge"), Some("0000000000000000"));
        assert_eq!(t.fingerprint("other"), None);
        assert_eq!(t.rows.len(), 2 * 4); // 2 tiers x full batch grid
        assert!(t.lookup("test_edge", 0, 8).is_some());
        assert!(t.lookup("test_edge", 2, 8).is_none());
    }

    #[test]
    fn from_json_keeps_foreign_versions_and_refuses_broken_tables() {
        let json = build_table(&[edge_spec()]).render_json();
        // A future version still reads; the consumer decides it is E093.
        let future = json.replace("enode-cost-table/v1", "enode-cost-table/v9");
        let t = CostTable::from_json(&future).expect("foreign version reads");
        assert_eq!(t.version, "enode-cost-table/v9");
        let rowless = format!("{}\"rows\": []}}", &json[..json.find("\"rows\"").unwrap()]);
        for broken in [
            "",
            "{\"schema\": \"enode-cost-table/v1\"}",
            &rowless,
            &json.replace("\"batch\": 8, ", ""),
            &json.replace("\"energy_uj\": ", "\"energy_uj\": -"),
        ] {
            assert!(CostTable::from_json(broken).is_err(), "{broken}");
        }
    }

    #[test]
    fn tableau_costs_match_hw_stage_model() {
        // RK23 is the paper's integrator: HwConfig::config_a models it
        // with 4 stages; the tableau map must agree.
        assert_eq!(
            tableau_cost(TableauKind::Rk23).0,
            HwConfig::config_a().stages
        );
        let (heun_stages, heun_order) = tableau_cost(TableauKind::HeunEuler);
        assert!(heun_stages < 4 && heun_order == 1);
    }
}
