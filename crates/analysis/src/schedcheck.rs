//! Static schedulability and energy-budget analysis (`E090`–`E096`,
//! `W090`–`W093`): proves — before anything runs — that a serving policy
//! meets its deadlines and energy envelope under the simulator-calibrated
//! cost table committed as `COST_TABLE.json`.
//!
//! # How the verdicts are derived
//!
//! The serving pipeline is lowered into the same dataflow IR every other
//! pass in this crate uses: per `(tolerance class, tier)` the pipeline is
//! a chain
//!
//! ```text
//! Admission ──▶ Window ──▶ Service(tier) ──▶ Response
//! ```
//!
//! and a **backward demand pass** on [`crate::engine`] propagates the
//! worst-case time-to-response from the `Response` boundary back to
//! `Admission`:
//!
//! * `Response` originates demand 0;
//! * `Service(tier)` adds the simulated per-batch service time at the
//!   policy's `max_batch`, scaled from the table's Standard-class row to
//!   the chain's tolerance class through the step-count law
//!   ([`enode_hw::table::points_for`]);
//! * `Window` adds the batcher's full hold window;
//! * `Admission` adds the full-queue drain — `ceil(queue / max_batch)`
//!   batches served at tier-0 (worst-case) cost.
//!
//! The fixpoint value at `Admission` is the worst-case response time
//! WCRT(class, tier); the lints compare it against the policy's envelope.
//!
//! # Trust, but verify the table
//!
//! Every verdict is only as good as the table, so the pass first checks
//! provenance: the generator version and the per-policy ladder
//! fingerprint must match this build (`E093`), every tier needs rows
//! (`E094`), and rows must be monotone in batch (`E095`). A missing
//! `max_batch` design point is linearly extrapolated with a `W092`
//! advisory. Energy verdicts (`E092`, `E096`, `W091`) read the tier
//! rows directly; they are class-independent.

use crate::benchjson::{parse_cost_table, CostTableRow, ParsedCostTable};
use crate::diag::{Code, Diagnostic, Diagnostics};
use crate::engine::{run_to_fixpoint, DataflowGraph, Direction, Lattice, Pass};
use enode_hw::table::{points_for, tableau_cost, trials_for, TABLE_VERSION};
use enode_serve::{fingerprint, ServeConfig, ToleranceClass};

/// The committed serving cost table at the repo root (regenerate with
/// `cargo run --release -p enode-bench --bin cost_table_json`).
pub const SHIPPED_TABLE: &str = include_str!("../../../COST_TABLE.json");

/// Fraction of the tightest deadline that must remain as tier-0 slack
/// before `W093` stops firing: 10%.
pub const THIN_MARGIN_FRACTION: u64 = 10;

/// The tolerance classes a policy admits, tightest first — every chain in
/// the lowered pipeline exists once per class.
pub const CLASSES: [ToleranceClass; 3] = [
    ToleranceClass::Strict,
    ToleranceClass::Standard,
    ToleranceClass::Relaxed,
];

/// One `(policy, tier)` service point at the policy's `max_batch`,
/// resolved from the table (exactly or by linear extrapolation), at the
/// Standard class the sweep simulated.
#[derive(Clone, Debug)]
struct TierPoint {
    /// Per-batch latency at `max_batch`, µs.
    latency_us: u64,
    /// Per-batch energy at `max_batch`, µJ.
    energy_uj: u64,
    /// f-evaluations per sample the simulated latency paid for.
    f_evals: usize,
}

/// Scales a tier's Standard-class service time to `class` via the
/// step-count law: the simulated latency is linear in f-evals per sample,
/// and the class multiplies the effective tolerance scale by
/// `class.tolerance() / 1e-4`.
fn class_service_us(
    policy: &ServeConfig,
    tier: usize,
    point: &TierPoint,
    class: ToleranceClass,
) -> u64 {
    let t = &policy.tiers[tier];
    let (stages, order) = tableau_cost(t.tableau);
    let scale_eff = t.tolerance_scale * (class.tolerance() / ToleranceClass::Standard.tolerance());
    let points = points_for(order, scale_eff);
    let f_evals = trials_for(points, t.max_trials) * stages;
    // Ceiling division keeps the bound conservative and the arithmetic
    // integral (byte-stable messages).
    (point.latency_us * f_evals as u64).div_ceil(point.f_evals.max(1) as u64)
}

/// Node roles of the lowered serving pipeline. One chain per
/// `(class, tier)`; `Admission` is the chain's entry (where WCRT is
/// read), `Response` the demand boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeNode {
    /// Ingress queue: charges the full-queue drain at tier-0 cost.
    Admission { class: usize, tier: usize },
    /// Dynamic batcher: charges the full hold window.
    Window { class: usize, tier: usize },
    /// Worker lanes: charges the class-scaled simulated service time.
    Service { class: usize, tier: usize },
    /// Completion boundary: originates demand 0.
    Response { class: usize, tier: usize },
}

/// The serving pipeline of one policy, lowered to a [`DataflowGraph`]:
/// `classes × tiers` four-node chains (a forest — the engine treats every
/// `Response` as a backward boundary).
pub struct ServeGraph {
    nodes: Vec<ServeNode>,
    preds: Vec<Vec<usize>>,
    /// Per-chain costs, indexed like `nodes`: what each node adds to the
    /// demand flowing through it.
    cost_us: Vec<u64>,
}

impl ServeGraph {
    /// Lowers `policy` against its resolved tier points. The `Admission`
    /// charge is the full-queue drain — `ceil(queue / max_batch)` batches
    /// served at the chain's class on tier 0 (the worst case).
    fn lower(policy: &ServeConfig, points: &[TierPoint]) -> ServeGraph {
        let n_tiers = policy.tiers.len();
        let backlog_batches = policy.queue_capacity.div_ceil(policy.max_batch.max(1)) as u64;
        let mut nodes = Vec::new();
        let mut preds = Vec::new();
        let mut cost_us = Vec::new();
        for (c, class) in CLASSES.iter().enumerate() {
            let tier0_service = class_service_us(policy, 0, &points[0], *class);
            for (t, point) in points.iter().enumerate().take(n_tiers) {
                let base = nodes.len();
                nodes.push(ServeNode::Admission { class: c, tier: t });
                preds.push(Vec::new());
                cost_us.push(backlog_batches * tier0_service);
                nodes.push(ServeNode::Window { class: c, tier: t });
                preds.push(vec![base]);
                cost_us.push(policy.batch_window_us);
                nodes.push(ServeNode::Service { class: c, tier: t });
                preds.push(vec![base + 1]);
                cost_us.push(class_service_us(policy, t, point, *class));
                nodes.push(ServeNode::Response { class: c, tier: t });
                preds.push(vec![base + 2]);
                cost_us.push(0);
            }
        }
        ServeGraph {
            nodes,
            preds,
            cost_us,
        }
    }

    /// The node index of one chain's `Admission` entry.
    fn admission(&self, class: usize, tier: usize) -> usize {
        self.nodes
            .iter()
            .position(|n| *n == ServeNode::Admission { class, tier })
            .expect("chain exists")
    }
}

impl DataflowGraph for ServeGraph {
    fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
    fn preds(&self, node: usize) -> &[usize] {
        &self.preds[node]
    }
}

/// The demand lattice: µs still needed to reach a `Response` from here.
#[derive(Clone, Debug, PartialEq)]
pub struct Demand {
    /// Whether any response boundary is reachable yet.
    pub reached: bool,
    /// Worst-case µs to response over all reachable paths.
    pub us: u64,
}

impl Lattice for Demand {
    fn bottom() -> Self {
        Demand {
            reached: false,
            us: 0,
        }
    }
    fn join_from(&mut self, other: &Self) -> bool {
        let mut changed = false;
        if other.reached && !self.reached {
            self.reached = true;
            changed = true;
        }
        if other.us > self.us {
            self.us = other.us;
            changed = true;
        }
        changed
    }
}

/// The backward worst-case-response-time pass: each node's demand is the
/// maximum over its successors' demands plus its own charge; `Response`
/// nodes originate demand 0.
pub struct WcrtPass;

impl Pass<ServeGraph> for WcrtPass {
    type Value = Demand;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn transfer(&self, graph: &ServeGraph, node: usize, deps: &[Demand]) -> Demand {
        if matches!(graph.nodes[node], ServeNode::Response { .. }) {
            return Demand {
                reached: true,
                us: 0,
            };
        }
        let mut out = Demand::bottom();
        for d in deps.iter().filter(|d| d.reached) {
            out.reached = true;
            out.us = out.us.max(d.us);
        }
        if out.reached {
            out.us += graph.cost_us[node];
        }
        out
    }
}

/// Worst-case response times of one policy under resolved tier points:
/// `wcrt[class][tier]` in µs, straight off the fixpoint.
fn response_times(policy: &ServeConfig, points: &[TierPoint]) -> Vec<Vec<u64>> {
    let graph = ServeGraph::lower(policy, points);
    let fx = run_to_fixpoint(&graph, &WcrtPass);
    CLASSES
        .iter()
        .enumerate()
        .map(|(c, _)| {
            (0..policy.tiers.len())
                .map(|t| {
                    let v = &fx.values[graph.admission(c, t)];
                    debug_assert!(v.reached, "every chain reaches its response");
                    v.us
                })
                .collect()
        })
        .collect()
}

/// Resolves the `(tier, max_batch)` design point for every tier, pushing
/// `E094`/`E095`/`W092` as found. Returns `None` if any tier is missing
/// or corrupt (the WCRT analysis cannot run on it).
fn resolve_points(
    policy: &ServeConfig,
    table: &ParsedCostTable,
    ds: &mut Diagnostics,
    subject: &str,
) -> Option<Vec<TierPoint>> {
    let mut points = Vec::new();
    let mut sound = true;
    for tier in 0..policy.tiers.len() {
        let rows: Vec<&CostTableRow> = table.rows_for(policy.name, tier);
        if rows.is_empty() {
            ds.push(
                Diagnostic::new(
                    Code::E094SchedTableMissing,
                    subject,
                    format!(
                        "cost table has no rows for tier {tier}: the ladder was changed \
                         or deepened without re-running the simulator sweep"
                    ),
                )
                .with_note("tier", tier),
            );
            sound = false;
            continue;
        }
        for pair in rows.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if b.batch > a.batch && (b.latency_us < a.latency_us || b.energy_uj < a.energy_uj) {
                ds.push(
                    Diagnostic::new(
                        Code::E095SchedTableNonMonotone,
                        subject,
                        format!(
                            "tier {tier} rows are not monotone in batch: batch {} costs \
                             {}µs/{}µJ but batch {} costs {}µs/{}µJ — the committed table \
                             is corrupted, regenerate it",
                            a.batch, a.latency_us, a.energy_uj, b.batch, b.latency_us, b.energy_uj
                        ),
                    )
                    .with_note("tier", tier),
                );
                sound = false;
            }
        }
        let point = match rows.iter().find(|r| r.batch == policy.max_batch) {
            Some(r) => TierPoint {
                latency_us: r.latency_us,
                energy_uj: r.energy_uj,
                f_evals: r.f_evals,
            },
            None => {
                let largest = rows.last().expect("non-empty");
                let scale = policy.max_batch as u64;
                let base = largest.batch.max(1) as u64;
                ds.push(
                    Diagnostic::new(
                        Code::W092SchedTableExtrapolated,
                        subject,
                        format!(
                            "tier {tier} has no simulated row at max_batch {}; verdicts \
                             use a linear extrapolation of the batch-{} row",
                            policy.max_batch, largest.batch
                        ),
                    )
                    .with_note("tier", tier)
                    .with_note("largest_simulated_batch", largest.batch),
                );
                TierPoint {
                    latency_us: (largest.latency_us * scale).div_ceil(base),
                    energy_uj: (largest.energy_uj * scale).div_ceil(base),
                    f_evals: largest.f_evals,
                }
            }
        };
        points.push(point);
    }
    if sound {
        Some(points)
    } else {
        None
    }
}

/// Lints one policy against one parsed cost table. Split out from
/// [`lint_shipped_policies`] so mutation and golden tests can inject
/// doctored tables and envelopes.
pub fn lint_config(policy: &ServeConfig, table: &ParsedCostTable) -> Diagnostics {
    let mut ds = Diagnostics::new();
    let subject = format!("serve policy {}", policy.name);

    // E093 first: verdicts from a stale table are unsound, so nothing
    // else runs until provenance checks out.
    if table.version != TABLE_VERSION {
        ds.push(
            Diagnostic::new(
                Code::E093SchedTableVersion,
                &subject,
                format!(
                    "cost table version \"{}\" does not match this analysis's \
                     \"{TABLE_VERSION}\": regenerate COST_TABLE.json with the current \
                     generator",
                    table.version
                ),
            )
            .with_note("table_version", &table.version)
            .with_note("expected_version", TABLE_VERSION),
        );
        return ds;
    }
    let want_fp = fingerprint(policy);
    match table.fingerprint(policy.name) {
        Some(fp) if fp == want_fp => {}
        Some(fp) => {
            ds.push(
                Diagnostic::new(
                    Code::E093SchedTableVersion,
                    &subject,
                    format!(
                        "table fingerprint {fp} does not match the ladder's {want_fp}: \
                         the degradation ladder changed after the sweep, regenerate \
                         COST_TABLE.json"
                    ),
                )
                .with_note("table_fingerprint", fp)
                .with_note("ladder_fingerprint", want_fp),
            );
            return ds;
        }
        None => {
            ds.push(Diagnostic::new(
                Code::E094SchedTableMissing,
                &subject,
                "cost table records no fingerprint (and no sweep) for this policy; \
                 regenerate COST_TABLE.json",
            ));
            return ds;
        }
    }

    // Table integrity per tier: rows present, monotone, design point
    // resolved (E094/E095/W092).
    let Some(points) = resolve_points(policy, table, &mut ds, &subject) else {
        return ds;
    };

    // --- energy verdicts (class-independent, Standard-class rows) ---
    // Per-request µJ at the tier's max_batch dispatch, ×10 fixed-point so
    // the half-µJ of an odd batch row is not lost.
    let per_req_duj: Vec<u64> = points
        .iter()
        .map(|p| p.energy_uj * 10 / policy.max_batch.max(1) as u64)
        .collect();
    if per_req_duj[0] > policy.energy_budget_uj * 10 {
        ds.push(
            Diagnostic::new(
                Code::E092SchedEnergyBudget,
                &subject,
                format!(
                    "simulated full-quality energy {}.{}µJ/request (tier 0, batch {}) \
                     exceeds the declared per-request budget {}µJ",
                    per_req_duj[0] / 10,
                    per_req_duj[0] % 10,
                    policy.max_batch,
                    policy.energy_budget_uj
                ),
            )
            .with_note("tier0_energy_duj_per_request", per_req_duj[0])
            .with_note("energy_budget_uj", policy.energy_budget_uj),
        );
    }
    for (tier, pair) in per_req_duj.windows(2).enumerate() {
        if pair[1] >= pair[0] {
            ds.push(
                Diagnostic::new(
                    Code::W091SchedLadderEnergyNonMonotone,
                    &subject,
                    format!(
                        "tier {} spends {}.{}µJ/request, not below tier {tier}'s \
                         {}.{}µJ: degrading trades accuracy without buying energy back",
                        tier + 1,
                        pair[1] / 10,
                        pair[1] % 10,
                        pair[0] / 10,
                        pair[0] % 10
                    ),
                )
                .with_note("tier", tier + 1),
            );
        }
    }
    // Sustained power: rps × µJ/request = µW; budget is mW.
    let sustained_uw = policy.design_rate_rps * (per_req_duj[0] as f64 / 10.0);
    if sustained_uw > policy.power_budget_mw as f64 * 1_000.0 {
        ds.push(
            Diagnostic::new(
                Code::E096SchedPowerBudget,
                &subject,
                format!(
                    "sustained full-quality power {:.1}mW ({:.0} req/s × {}.{}µJ) exceeds \
                     the declared budget {}mW",
                    sustained_uw / 1_000.0,
                    policy.design_rate_rps,
                    per_req_duj[0] / 10,
                    per_req_duj[0] % 10,
                    policy.power_budget_mw
                ),
            )
            .with_note("power_budget_mw", policy.power_budget_mw),
        );
    }

    // --- schedulability verdicts: the backward demand pass ---
    let wcrt = response_times(policy, &points);
    let deadline = policy.min_deadline_us;
    let n_tiers = policy.tiers.len();
    for (c, class) in CLASSES.iter().enumerate() {
        let per_tier = &wcrt[c];
        let feasible: Vec<bool> = per_tier.iter().map(|&us| us <= deadline).collect();
        if !feasible.iter().any(|&f| f) {
            let (best_tier, best_us) = per_tier
                .iter()
                .enumerate()
                .min_by_key(|(_, &us)| us)
                .map(|(t, &us)| (t, us))
                .expect("ladder non-empty");
            ds.push(
                Diagnostic::new(
                    Code::E090SchedDeadlineInfeasible,
                    &subject,
                    format!(
                        "worst-case response {best_us}µs at the cheapest viable tier \
                         ({best_tier}) exceeds the tightest admitted deadline \
                         {deadline}µs for {}-class requests: infeasible at every tier",
                        class.as_str()
                    ),
                )
                .with_note("class", class.as_str())
                .with_note("best_wcrt_us", best_us)
                .with_note("min_deadline_us", deadline),
            );
            continue;
        }
        if !feasible[0] && feasible[n_tiers - 1] && feasible.iter().filter(|&&f| f).count() == 1 {
            ds.push(
                Diagnostic::new(
                    Code::W090SchedLastTierOnly,
                    &subject,
                    format!(
                        "{}-class worst case fits the {deadline}µs deadline only at the \
                         last tier ({}): every deadline-floor request is served maximally \
                         degraded",
                        class.as_str(),
                        n_tiers - 1
                    ),
                )
                .with_note("class", class.as_str())
                .with_note("tier0_wcrt_us", per_tier[0]),
            );
        } else if feasible[0] && (deadline - per_tier[0]) * THIN_MARGIN_FRACTION < deadline {
            ds.push(
                Diagnostic::new(
                    Code::W093SchedThinMargin,
                    &subject,
                    format!(
                        "{}-class tier-0 worst case {}µs leaves under 10% of the \
                         {deadline}µs deadline as slack",
                        class.as_str(),
                        per_tier[0]
                    ),
                )
                .with_note("class", class.as_str())
                .with_note("tier0_wcrt_us", per_tier[0]),
            );
        }
    }

    // E091: a tier's admission threshold promises it can finish within
    // min_slack_us of headroom; check the promise at the worst class.
    // The fall-through tier (threshold 0) is exempt by design.
    for (tier, t) in policy.tiers.iter().enumerate() {
        if t.min_slack_us == 0 {
            continue;
        }
        let worst_service = class_service_us(policy, tier, &points[tier], ToleranceClass::Strict);
        if worst_service > t.min_slack_us {
            ds.push(
                Diagnostic::new(
                    Code::E091SchedLadderNoRecovery,
                    &subject,
                    format!(
                        "tier {tier} admits requests with {}µs of slack but its worst-case \
                         (strict, batch {}) service is {worst_service}µs: a request routed \
                         at the threshold is guaranteed to miss",
                        t.min_slack_us, policy.max_batch
                    ),
                )
                .with_note("tier", tier)
                .with_note("min_slack_us", t.min_slack_us)
                .with_note("worst_service_us", worst_service),
            );
        }
    }

    ds
}

/// Parses the committed `COST_TABLE.json`, or reports why it cannot be
/// used (as diagnostics against the table itself).
pub fn shipped_table() -> Result<ParsedCostTable, Diagnostics> {
    match parse_cost_table(SHIPPED_TABLE) {
        Some(t) => Ok(t),
        None => {
            let mut ds = Diagnostics::new();
            ds.push(Diagnostic::new(
                Code::E093SchedTableVersion,
                "COST_TABLE.json",
                "committed cost table does not parse as enode-cost-table JSON; \
                 regenerate it with the cost_table_json generator",
            ));
            Err(ds)
        }
    }
}

/// Lints every shipped policy against the committed table — the entry
/// point `lint_everything` and `enode-lint` use. All shipped policies
/// must be clean.
pub fn lint_shipped_policies() -> Diagnostics {
    let table = match shipped_table() {
        Ok(t) => t,
        Err(ds) => return ds,
    };
    let mut ds = Diagnostics::new();
    for policy in ServeConfig::shipped() {
        ds.extend(lint_config(&policy, &table));
    }
    ds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ParsedCostTable {
        shipped_table().expect("committed table parses")
    }

    #[test]
    fn shipped_policies_are_clean_under_the_committed_table() {
        let ds = lint_shipped_policies();
        assert!(ds.is_empty(), "shipped policies must be schedulable:\n{ds}");
    }

    #[test]
    fn committed_table_matches_this_builds_fingerprints() {
        let t = table();
        assert_eq!(t.version, TABLE_VERSION);
        for p in ServeConfig::shipped() {
            assert_eq!(
                t.fingerprint(p.name),
                Some(fingerprint(&p).as_str()),
                "{}: COST_TABLE.json is stale",
                p.name
            );
        }
    }

    #[test]
    fn wcrt_orders_classes_and_tiers() {
        // Strict demands the most points, so its WCRT dominates; deeper
        // tiers are cheaper, so WCRT falls down the ladder.
        let p = ServeConfig::edge_default();
        let t = table();
        let points = {
            let mut ds = Diagnostics::new();
            resolve_points(&p, &t, &mut ds, "test").expect("resolves")
        };
        let wcrt = response_times(&p, &points);
        for c in 0..CLASSES.len() {
            for pair in wcrt[c].windows(2) {
                assert!(
                    pair[1] <= pair[0],
                    "WCRT must fall down the ladder: {wcrt:?}"
                );
            }
        }
        assert!(wcrt.iter().all(|class| class.len() == p.tiers.len()));
        for ((strict, standard), relaxed) in wcrt[0].iter().zip(&wcrt[1]).zip(&wcrt[2]) {
            assert!(strict >= standard, "strict >= standard");
            assert!(standard >= relaxed, "standard >= relaxed");
        }
        // And the numbers are the recurrence, not an accident of the
        // engine: standard tier-0 = 2 backlog batches × 1397 + 2000
        // window + 1397 service.
        assert_eq!(wcrt[1][0], 2 * 1397 + 2_000 + 1397);
    }

    #[test]
    fn backward_pass_reaches_every_admission_node() {
        let p = ServeConfig::streaming_keyword();
        let t = table();
        let mut ds = Diagnostics::new();
        let points = resolve_points(&p, &t, &mut ds, "test").expect("resolves");
        let graph = ServeGraph::lower(&p, &points);
        let fx = run_to_fixpoint(&graph, &WcrtPass);
        assert_eq!(graph.num_nodes(), CLASSES.len() * p.tiers.len() * 4);
        assert!(fx.values.iter().all(|v| v.reached));
    }

    #[test]
    fn infeasible_deadline_fires_e090_per_class() {
        let mut p = ServeConfig::edge_default();
        p.min_deadline_us = 1_000; // below even the relaxed-class WCRT
        let ds = lint_config(&p, &table());
        let e090 = ds
            .items()
            .iter()
            .filter(|d| d.code == Code::E090SchedDeadlineInfeasible)
            .count();
        assert_eq!(e090, CLASSES.len(), "one verdict per class:\n{ds}");
        assert!(!ds.has_code(Code::W090SchedLastTierOnly), "{ds}");
        assert!(!ds.has_code(Code::W093SchedThinMargin), "{ds}");
    }

    #[test]
    fn last_tier_rescue_fires_w090_and_thin_margin_fires_w093() {
        // Deadline between the strict tier-2 WCRT and the tier-1 WCRT:
        // strict requests are feasible only maximally degraded.
        let mut p = ServeConfig::edge_default();
        p.min_deadline_us = 16_000;
        let ds = lint_config(&p, &table());
        assert!(ds.has_code(Code::W090SchedLastTierOnly), "{ds}");
        assert_eq!(ds.error_count(), 0, "{ds}");

        // Deadline just above the strict tier-0 WCRT: feasible, <10% slack.
        let mut p = ServeConfig::edge_default();
        p.min_deadline_us = 22_000;
        let ds = lint_config(&p, &table());
        assert!(ds.has_code(Code::W093SchedThinMargin), "{ds}");
        assert_eq!(ds.error_count(), 0, "{ds}");
    }

    #[test]
    fn slack_threshold_too_tight_fires_e091() {
        // Quadruple tier 1's simulated latency (a doctored table, so the
        // ladder fingerprint — which excludes the table — stays valid):
        // the strict-class service then overruns the tier's own 8ms
        // admission threshold.
        let mut t = table();
        for r in &mut t.rows {
            if r.policy == "edge_default" && r.tier == 1 {
                r.latency_us *= 4;
            }
        }
        let ds = lint_config(&ServeConfig::edge_default(), &t);
        assert!(ds.has_code(Code::E091SchedLadderNoRecovery), "{ds}");
        assert!(!ds.has_code(Code::E090SchedDeadlineInfeasible), "{ds}");
        assert!(!ds.has_code(Code::E095SchedTableNonMonotone), "{ds}");
    }

    #[test]
    fn energy_and_power_budgets_fire_e092_e096() {
        let mut p = ServeConfig::edge_default();
        p.energy_budget_uj = 100; // simulated tier-0 is ~1187µJ/request
        let ds = lint_config(&p, &table());
        assert!(ds.has_code(Code::E092SchedEnergyBudget), "{ds}");
        assert!(!ds.has_code(Code::E096SchedPowerBudget), "{ds}");

        let mut p = ServeConfig::edge_default();
        p.power_budget_mw = 100; // 200 req/s × ~1.19mJ ≈ 237mW
        let ds = lint_config(&p, &table());
        assert!(ds.has_code(Code::E096SchedPowerBudget), "{ds}");
        assert!(!ds.has_code(Code::E092SchedEnergyBudget), "{ds}");
    }

    #[test]
    fn missing_tier_rows_fire_e094() {
        let mut t = table();
        t.rows
            .retain(|r| !(r.policy == "edge_default" && r.tier == 2));
        let ds = lint_config(&ServeConfig::edge_default(), &t);
        assert!(ds.has_code(Code::E094SchedTableMissing), "{ds}");
        // Unsound table: no schedulability verdicts may be derived.
        assert!(!ds.has_code(Code::E090SchedDeadlineInfeasible), "{ds}");
    }

    #[test]
    fn corrupted_batch_rows_fire_e095() {
        let mut t = table();
        for r in &mut t.rows {
            if r.policy == "edge_default" && r.tier == 0 && r.batch == 8 {
                r.latency_us = 10; // cheaper than the batch-4 row
            }
        }
        let ds = lint_config(&ServeConfig::edge_default(), &t);
        assert!(ds.has_code(Code::E095SchedTableNonMonotone), "{ds}");
    }

    #[test]
    fn missing_design_point_extrapolates_with_w092() {
        let mut p = ServeConfig::streaming_keyword();
        p.max_batch = 8; // grid for this policy stops at 4
        let ds = lint_config(&p, &table());
        assert!(ds.has_code(Code::W092SchedTableExtrapolated), "{ds}");
        // The extrapolated verdicts still hold (batch 8 ≈ 2× batch 4,
        // well inside the 12ms deadline): no errors.
        assert_eq!(ds.error_count(), 0, "{ds}");
    }

    #[test]
    fn unknown_policy_fires_e094_on_fingerprint_lookup() {
        let mut p = ServeConfig::edge_default();
        p.name = "not_in_table";
        let ds = lint_config(&p, &table());
        assert!(ds.has_code(Code::E094SchedTableMissing), "{ds}");
    }
}
