//! The machine-readable serving benchmark baseline (`BENCH_serve.json`).
//!
//! Sweeps offered load × batch window over every shipped serving policy
//! using the deterministic discrete-event simulation in
//! [`enode_serve::fleet`], each cell a one-instance fleet
//! ([`run_single`]): batches really run through the solver (true outputs
//! and NFE counts), but service time is charged by a fixed [`CostModel`]
//! with an explicit lane count, so a rerun with the same seed produces
//! the same bytes on any host — only `host_cpus` and
//! `enode_threads_default` are host metadata and may differ.
//!
//! # JSON format (`schema: "enode-bench-serve/v1"`)
//!
//! ```json
//! {
//!   "schema": "enode-bench-serve/v1",
//!   "lanes": 4,                    // CostModel lanes (fixed, not host-derived)
//!   "host_cpus": 1,                // available_parallelism() on the host
//!   "enode_threads_default": 1,    // pool width this host would default to
//!   "quick": false,                // true when run with the reduced grid (--quick)
//!   "seed": 24301,                 // master seed for arrivals and inputs
//!   "cost_model": { "per_nfe_us": 20.0, "dispatch_overhead_us": 150, "lanes": 4 },
//!   "rows": [
//!     {
//!       "policy": "edge_default",  // ServeConfig name
//!       "offered_rps": 200.0,      // open-loop offered load
//!       "batch_window_us": 2000,   // batch window this cell ran with
//!       "deadline_us": 50000,      // relative deadline on every request
//!       "offered": 400,            // requests offered (admitted + rejected)
//!       "makespan_us": 1234,       // virtual time of the last event
//!       "tier_counts": [380,15,5], // completed requests per degradation tier
//!       "metrics": {               // drained MetricsSnapshot: the identity
//!         "submitted": 400,        //   submitted == completed+shed+failed+cancelled
//!         "completed": 400,        //   holds exactly
//!         "degraded": 20, "shed": 0, "rejected_full": 0, "failed": 0,
//!         "cancelled": 0, "batches": 58,
//!         "latency_p50_us": 4096,  // bucket upper bounds (powers of two)
//!         "latency_p95_us": 8192, "latency_p99_us": 8192,
//!         "latency_mean_us": 3512.625, "mean_batch": 6.897
//!       }
//!     }
//!   ]
//! }
//! ```
//!
//! Latency percentiles are *simulated virtual-clock* latencies under the
//! cost model, not wall time: they characterise the queueing and batching
//! policy, not the emitting host's CPU.
//!
//! # Simulator-backed Pareto section
//!
//! Two further sections tie the sweep to the cycle-level hardware
//! simulator through `COST_TABLE.json` (the paper's Figs 14–17 story):
//!
//! * `"pareto"` — the static latency×energy frontier: one point per
//!   `(policy, tier)` at the policy's `max_batch`, straight from the
//!   simulated table (µs and µJ *per request*). Deeper tiers must be
//!   strictly cheaper on both axes.
//! * `"hw_sweep"` — the measured ladder walk: the same one-instance
//!   fleet runs, but with service time charged by
//!   [`CostModel::from_table`] (simulator-calibrated, not the guessed
//!   constant above), run per policy at a descending deadline grid.
//!   As deadlines tighten, tier selection walks down the ladder and the
//!   tier-count-weighted `energy_uj_per_req` falls with it.
//!
//! `"cost_table_version"` records which table generation produced both.

use crate::report::host_cpus;
use enode_hw::json::escape;
use enode_node::inference::NodeSolveOptions;
use enode_node::model::NodeModel;
use enode_serve::fleet::InstanceStats;
use enode_serve::{
    shipped_cost_table, simulate_traffic, Arrivals, CostModel, FleetConfig, ServeConfig,
    TenantTraffic, ToleranceClass,
};
use enode_tensor::parallel;
use enode_tensor::rng::Rng64;

/// Lane count the cost model charges batches against. Fixed (rather than
/// host-derived) so the committed JSON is byte-identical across hosts.
pub const LANES: usize = 4;

/// Master seed for arrival jitter and request inputs.
pub const SEED: u64 = 24301;

/// The fixed service-time model every sweep cell runs under. 20 µs per
/// function evaluation models an edge-class core (a dim-2 solve lands
/// around 2–4 ms), which puts the top of the rate grid past saturation so
/// the sweep actually exercises shedding, degradation and backpressure.
pub fn cost_model() -> CostModel {
    CostModel {
        per_nfe_us: 20.0,
        dispatch_overhead_us: 150,
        lanes: LANES,
    }
}

/// The model every request solves: the van-der-Pol-sized dynamic system
/// (2 state dims, hidden width 16), cheap enough to sweep thousands of
/// requests yet exercising the adaptive stepsize search.
pub fn bench_model() -> NodeModel {
    NodeModel::dynamic_system(2, 16, 2, 42)
}

/// State dimension of [`bench_model`] (request input shape `[1, dim]`).
const INPUT_DIM: usize = 2;

/// One single-server cell: a policy at one batch window and offered load.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeRow {
    /// The policy's batch window during the run (µs).
    pub batch_window_us: u64,
    /// Open-loop offered load (requests/s).
    pub offered_rps: f64,
    /// Requests offered (submitted + rejected at the door).
    pub offered: u64,
    /// Virtual time of the last event (µs).
    pub makespan_us: u64,
    /// The server: completions per tier and drained metrics.
    pub server: InstanceStats,
}

/// Runs `policy` serving [`bench_model`] as a one-instance fleet: one
/// Standard client stamping `deadline_us`, with a quota of its whole
/// budget, offers `requests` open-loop at `rate_rps`. This artifact's
/// seed derivation: from the [`SEED`] master, the input stream is forked
/// first, then the arrival jitter is drawn from the master itself.
pub fn run_single(
    policy: &ServeConfig,
    rate_rps: f64,
    deadline_us: u64,
    requests: usize,
    cost: &CostModel,
) -> ServeRow {
    let mut master = Rng64::seed_from_u64(SEED);
    let mut input_rng = master.fork();
    let arrivals = Arrivals::OpenLoop { rate_rps };
    let traffic = TenantTraffic::draw(arrivals, requests, &mut master, &mut input_rng);
    let config = FleetConfig::single(policy, ToleranceClass::Standard, deadline_us, requests);
    let models = [(policy.name, bench_model())];
    let opts = NodeSolveOptions::new(1e-4);
    let mut run = simulate_traffic(&config, &models, &opts, &[traffic], INPUT_DIM, cost);
    ServeRow {
        batch_window_us: policy.batch_window_us,
        offered_rps: rate_rps,
        offered: run.tenants[0].offered,
        makespan_us: run.makespan_us,
        server: run.instances.remove(0),
    }
}

/// One (policy, deadline) slice of the sweep grid.
#[derive(Clone, Debug)]
pub struct PolicySweep {
    /// The swept policy (its `batch_window_us` is overridden per row).
    pub policy: ServeConfig,
    /// Relative deadline stamped on every request. The full sweep runs
    /// each policy at two deadlines: its design floor (`min_deadline_us`,
    /// where lint E090 proves a request behind a full queue still meets
    /// its deadline under `COST_TABLE.json`) and a tight 40% of that
    /// floor — clients violating the envelope, which is what forces the
    /// degradation ladder and load shedding to actually fire.
    pub deadline_us: u64,
    /// One result per (batch window, offered load) cell.
    pub rows: Vec<ServeRow>,
}

/// Runs the full sweep over every shipped policy: per (policy, deadline),
/// one [`run_single`] per (batch window, offered load) cell with the
/// policy's window overridden. `quick` shrinks the grid and the request
/// count (`--quick`, and the unit tests).
pub fn sweep_shipped(quick: bool) -> Vec<PolicySweep> {
    let cost = cost_model();
    let (requests, rates, windows): (usize, Vec<f64>, Vec<u64>) = if quick {
        (40, vec![200.0], vec![0, 2_000])
    } else {
        (
            400,
            vec![50.0, 200.0, 800.0, 2_400.0, 8_000.0],
            vec![0, 2_000, 8_000],
        )
    };
    let mut out = Vec::new();
    for policy in ServeConfig::shipped() {
        let floor = policy.min_deadline_us;
        let deadlines = if quick {
            vec![floor]
        } else {
            vec![floor, floor * 2 / 5]
        };
        for deadline_us in deadlines {
            let mut rows = Vec::with_capacity(rates.len() * windows.len());
            for &batch_window_us in &windows {
                let p = ServeConfig {
                    batch_window_us,
                    ..policy.clone()
                };
                for &rate in &rates {
                    rows.push(run_single(&p, rate, deadline_us, requests, &cost));
                }
            }
            out.push(PolicySweep {
                policy: policy.clone(),
                deadline_us,
                rows,
            });
        }
    }
    out
}

/// One point of the simulator-backed latency×energy Pareto frontier:
/// a `(policy, tier)` dispatch at the policy's `max_batch`, normalised
/// per request.
#[derive(Clone, Debug)]
pub struct ParetoPoint {
    /// Policy name.
    pub policy: String,
    /// Degradation-ladder index (0 = full quality).
    pub tier: usize,
    /// Batch size of the underlying simulated dispatch.
    pub batch: usize,
    /// Accepted evaluation points per sample (accuracy proxy).
    pub points: usize,
    /// Simulated latency per request, µs.
    pub latency_us_per_req: f64,
    /// Simulated energy per request, µJ.
    pub energy_uj_per_req: f64,
}

/// The static frontier from the committed cost table: per shipped policy,
/// one point per tier at the policy's `max_batch`. The eNODE efficiency
/// claim (paper Figs 14–17) is that walking down the ladder buys *both*
/// latency and energy — `analysis::schedcheck` lints it (E095/W091), and
/// a test below asserts it on the emitted points.
pub fn pareto_frontier() -> Vec<ParetoPoint> {
    let table = shipped_cost_table();
    let mut out = Vec::new();
    for policy in ServeConfig::shipped() {
        for tier in 0..policy.tiers.len() {
            let row = table
                .lookup(policy.name, tier, policy.max_batch)
                .expect("shipped sweep grid covers every max_batch");
            out.push(ParetoPoint {
                policy: policy.name.to_string(),
                tier,
                batch: row.batch,
                points: row.points,
                latency_us_per_req: row.latency_us as f64 / row.batch as f64,
                energy_uj_per_req: row.energy_uj as f64 / row.batch as f64,
            });
        }
    }
    out
}

/// One measured row of the hardware-calibrated ladder walk: a
/// single-server run under [`CostModel::from_table`] at one deadline.
#[derive(Clone, Debug)]
pub struct HwSweepRow {
    /// Policy name.
    pub policy: String,
    /// Relative deadline stamped on every request (µs).
    pub deadline_us: u64,
    /// The discrete-event run (tier counts, latency percentiles, …).
    pub result: ServeRow,
    /// Tier-count-weighted simulated energy per completed request, µJ
    /// (each completion charged its serving tier's frontier cost).
    pub energy_uj_per_req: f64,
}

/// Runs the ladder walk: per shipped policy, a single server at the
/// policy's own window and design rate under the simulator-calibrated cost model,
/// across a descending deadline grid (the design floor down to a fifth
/// of it — clients violating the envelope, which drives tier selection
/// down the ladder).
pub fn hw_sweep(quick: bool) -> Vec<HwSweepRow> {
    let table = shipped_cost_table();
    let frontier = pareto_frontier();
    let requests = if quick { 40 } else { 400 };
    let mut out = Vec::new();
    for policy in ServeConfig::shipped() {
        let cost = CostModel::from_table(policy.name, &table, LANES)
            .expect("shipped table has tier-0 calibration rows");
        let floor = policy.min_deadline_us;
        let deadlines = if quick {
            vec![floor, floor / 5]
        } else {
            vec![floor, floor * 3 / 5, floor * 2 / 5, floor / 5]
        };
        for deadline_us in deadlines {
            let rate = policy.design_rate_rps;
            let result = run_single(&policy, rate, deadline_us, requests, &cost);
            let energy_uj: f64 = result
                .server
                .tier_counts
                .iter()
                .enumerate()
                .map(|(tier, &n)| {
                    let per_req = frontier
                        .iter()
                        .find(|p| p.policy == policy.name && p.tier == tier)
                        .map_or(0.0, |p| p.energy_uj_per_req);
                    n as f64 * per_req
                })
                .sum();
            let completed = result.server.metrics.completed;
            out.push(HwSweepRow {
                policy: policy.name.to_string(),
                deadline_us,
                result,
                energy_uj_per_req: if completed > 0 {
                    energy_uj / completed as f64
                } else {
                    0.0
                },
            });
        }
    }
    out
}

/// Renders the sweeps as the committed `BENCH_serve.json` document.
pub fn render_json(sweeps: &[PolicySweep], hw: &[HwSweepRow], quick: bool) -> String {
    let cost = cost_model();
    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"enode-bench-serve/v1\",\n");
    s.push_str(&format!("  \"lanes\": {LANES},\n"));
    s.push_str(&format!("  \"host_cpus\": {},\n", host_cpus()));
    s.push_str(&format!(
        "  \"enode_threads_default\": {},\n",
        parallel::default_threads()
    ));
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"seed\": {SEED},\n"));
    s.push_str(&format!(
        "  \"cost_model\": {{ \"per_nfe_us\": {:.1}, \"dispatch_overhead_us\": {}, \"lanes\": {} }},\n",
        cost.per_nfe_us, cost.dispatch_overhead_us, cost.lanes
    ));
    s.push_str("  \"rows\": [\n");
    let total: usize = sweeps.iter().map(|p| p.rows.len()).sum();
    let mut emitted = 0usize;
    for sw in sweeps {
        for r in &sw.rows {
            emitted += 1;
            let tiers = r
                .server
                .tier_counts
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",");
            s.push_str(&format!(
                "    {{ \"policy\": \"{}\", \"offered_rps\": {:.1}, \"batch_window_us\": {}, \
                 \"deadline_us\": {}, \"offered\": {}, \"makespan_us\": {}, \
                 \"tier_counts\": [{}], \"metrics\": {} }}{}\n",
                escape(sw.policy.name),
                r.offered_rps,
                r.batch_window_us,
                sw.deadline_us,
                r.offered,
                r.makespan_us,
                tiers,
                r.server.metrics.to_json(),
                if emitted < total { "," } else { "" }
            ));
        }
    }
    s.push_str("  ],\n");
    let table = shipped_cost_table();
    s.push_str(&format!(
        "  \"cost_table_version\": \"{}\",\n",
        escape(&table.version)
    ));
    s.push_str("  \"pareto\": [\n");
    let frontier = pareto_frontier();
    for (i, p) in frontier.iter().enumerate() {
        s.push_str(&format!(
            "    {{ \"policy\": \"{}\", \"tier\": {}, \"batch\": {}, \"points\": {}, \
             \"latency_us_per_req\": {:.3}, \"energy_uj_per_req\": {:.3} }}{}\n",
            escape(&p.policy),
            p.tier,
            p.batch,
            p.points,
            p.latency_us_per_req,
            p.energy_uj_per_req,
            if i + 1 < frontier.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"hw_sweep\": [\n");
    for (i, row) in hw.iter().enumerate() {
        let r = &row.result;
        let tiers = r
            .server
            .tier_counts
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        s.push_str(&format!(
            "    {{ \"policy\": \"{}\", \"deadline_us\": {}, \"offered_rps\": {:.1}, \
             \"batch_window_us\": {}, \"offered\": {}, \"makespan_us\": {}, \
             \"tier_counts\": [{}], \"energy_uj_per_req\": {:.3}, \"metrics\": {} }}{}\n",
            escape(&row.policy),
            row.deadline_us,
            r.offered_rps,
            r.batch_window_us,
            r.offered,
            r.makespan_us,
            tiers,
            row.energy_uj_per_req,
            r.server.metrics.to_json(),
            if i + 1 < hw.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use enode_hw::json::{self, Value};

    /// The metrics fields a reader of the document compares across runs.
    fn assert_metrics(doc: &Value, m: &enode_serve::MetricsSnapshot) {
        let doc = doc.get("metrics").expect("metrics object");
        for (key, want) in [
            ("submitted", m.submitted),
            ("completed", m.completed),
            ("degraded", m.degraded),
            ("shed", m.shed),
            ("latency_p50_us", m.latency_p50_us),
            ("latency_p95_us", m.latency_p95_us),
            ("latency_p99_us", m.latency_p99_us),
        ] {
            assert_eq!(doc.get(key).and_then(Value::as_u64), Some(want), "{key}");
        }
        assert!(doc.get("mean_batch").and_then(Value::as_f64).is_some());
    }

    #[test]
    fn quick_sweep_emits_a_valid_document() {
        let sweeps = sweep_shipped(true);
        // 2 policies × 1 rate × 2 windows.
        assert_eq!(sweeps.len(), 2);
        assert!(sweeps.iter().all(|p| p.rows.len() == 2));
        assert!(sweeps
            .iter()
            .flat_map(|p| &p.rows)
            .all(|r| r.server.metrics.reconciles()));
        let hw = hw_sweep(true);
        let doc = json::parse(&render_json(&sweeps, &hw, true)).expect("emitted document parses");
        let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(str::to_string);
        let list = |key: &str| doc.get(key).and_then(Value::as_array).expect(key);
        assert_eq!(
            text(&doc, "schema").as_deref(),
            Some("enode-bench-serve/v1")
        );
        assert_eq!(doc.get("quick"), Some(&Value::Bool(true)));
        assert!(doc.get("host_cpus").and_then(Value::as_usize).is_some());
        assert_eq!(
            text(&doc, "cost_table_version").as_deref(),
            Some("enode-cost-table/v1")
        );
        let cells: Vec<(&PolicySweep, &ServeRow)> = sweeps
            .iter()
            .flat_map(|sw| sw.rows.iter().map(move |r| (sw, r)))
            .collect();
        assert_eq!(list("rows").len(), cells.len());
        for (row, (sw, r)) in list("rows").iter().zip(cells) {
            assert_eq!(text(row, "policy").as_deref(), Some(sw.policy.name));
            assert_eq!(
                row.get("tier_counts")
                    .and_then(Value::as_array)
                    .map(|t| t.len()),
                Some(r.server.tier_counts.len())
            );
            assert_metrics(row, &r.server.metrics);
        }
        assert_eq!(list("pareto").len(), pareto_frontier().len());
        assert_eq!(list("hw_sweep").len(), hw.len());
        for (row, h) in list("hw_sweep").iter().zip(&hw) {
            assert_eq!(text(row, "policy"), Some(h.policy.clone()));
            assert!(row
                .get("energy_uj_per_req")
                .and_then(Value::as_f64)
                .is_some());
            assert_metrics(row, &h.result.server.metrics);
        }
    }

    #[test]
    fn quick_sweep_is_deterministic() {
        let a = sweep_shipped(true);
        let b = sweep_shipped(true);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.rows, y.rows,
                "{}: rerun must be bit-identical",
                x.policy.name
            );
        }
    }

    #[test]
    fn sweep_covers_the_grid() {
        // The quick grid: per policy, windows {0, 2000} × one rate, each
        // cell run with its own window.
        for sw in sweep_shipped(true) {
            let cells: Vec<(u64, f64)> = sw
                .rows
                .iter()
                .map(|r| (r.batch_window_us, r.offered_rps))
                .collect();
            assert_eq!(cells, [(0, 200.0), (2_000, 200.0)], "{}", sw.policy.name);
            assert!(sw.rows.iter().all(|r| r.server.metrics.reconciles()));
        }
    }

    #[test]
    fn pareto_frontier_is_monotone_down_the_ladder() {
        // The paper's Figs 14–17 efficiency claim: every step down the
        // degradation ladder is strictly cheaper on BOTH axes (latency
        // and energy per request) while accepting fewer solution points.
        let frontier = pareto_frontier();
        for policy in enode_serve::ServeConfig::shipped() {
            let points: Vec<&ParetoPoint> = frontier
                .iter()
                .filter(|p| p.policy == policy.name)
                .collect();
            assert_eq!(points.len(), policy.tiers.len(), "{}", policy.name);
            for pair in points.windows(2) {
                assert!(
                    pair[1].latency_us_per_req < pair[0].latency_us_per_req,
                    "{} tier {} must be faster than tier {}",
                    policy.name,
                    pair[1].tier,
                    pair[0].tier
                );
                assert!(
                    pair[1].energy_uj_per_req < pair[0].energy_uj_per_req,
                    "{} tier {} must be cheaper than tier {}",
                    policy.name,
                    pair[1].tier,
                    pair[0].tier
                );
                assert!(
                    pair[1].points < pair[0].points,
                    "{} tier {} must accept fewer points than tier {}",
                    policy.name,
                    pair[1].tier,
                    pair[0].tier
                );
            }
        }
    }

    #[test]
    fn hw_sweep_tightening_deadlines_walks_down_the_ladder() {
        // Under the simulator-calibrated cost model, shrinking the client
        // deadline shrinks dispatch-time slack, which pushes tier
        // selection down the ladder — and the tier-weighted energy per
        // request falls with it.
        let hw = hw_sweep(true);
        for policy in enode_serve::ServeConfig::shipped() {
            let rows: Vec<&HwSweepRow> = hw.iter().filter(|r| r.policy == policy.name).collect();
            assert_eq!(
                rows.len(),
                2,
                "{}: quick grid is [floor, floor/5]",
                policy.name
            );
            let (floor, tight) = (rows[0], rows[1]);
            assert!(floor.deadline_us > tight.deadline_us);
            assert_eq!(
                floor.result.server.tier_counts[0], floor.result.server.metrics.completed,
                "{}: at the design floor every completion is full quality",
                policy.name
            );
            assert!(
                tight.result.server.metrics.degraded > 0,
                "{}: at a fifth of the floor the ladder must engage",
                policy.name
            );
            assert!(
                tight.energy_uj_per_req < floor.energy_uj_per_req,
                "{}: degradation must cut energy per request ({} vs {})",
                policy.name,
                tight.energy_uj_per_req,
                floor.energy_uj_per_req
            );
        }
    }

    #[test]
    fn static_feasibility_matches_the_simulation() {
        // The schedcheck verdict is an over-approximation of the simulated
        // run:
        // if the response-time bound proves every class feasible under
        // COST_TABLE.json (no E09x on the shipped policies), the
        // discrete-event run at the design floor must meet every
        // deadline — nothing shed, nothing failed, p99 under the floor.
        let ds = enode_analysis::schedcheck::lint_shipped_policies();
        assert!(
            ds.is_empty(),
            "shipped policies must be statically schedulable:\n{}",
            ds.render()
        );
        let hw = hw_sweep(true);
        for policy in enode_serve::ServeConfig::shipped() {
            let floor = hw
                .iter()
                .find(|r| r.policy == policy.name && r.deadline_us == policy.min_deadline_us)
                .expect("hw sweep covers the design floor");
            let m = &floor.result.server.metrics;
            assert_eq!(
                m.shed, 0,
                "{}: feasible policy must shed nothing",
                policy.name
            );
            assert_eq!(m.failed, 0, "{}", policy.name);
            assert_eq!(m.completed, m.submitted, "{}", policy.name);
            assert!(
                m.latency_p99_us <= policy.min_deadline_us,
                "{}: measured p99 {}µs must sit under the statically proven \
                 deadline {}µs",
                policy.name,
                m.latency_p99_us,
                policy.min_deadline_us
            );
        }
    }
}
