//! Static serving-policy analysis (`E072`, `W070`–`W071`, `E090`–`E096`,
//! `W090`–`W093`): proves — before anything runs — that a serving
//! policy's degradation ladder is ordered and reachable, and that the
//! policy meets its deadlines, design load and energy envelope under the
//! simulator-calibrated cost table committed as `COST_TABLE.json`.
//!
//! # The response-time bound
//!
//! Every deadline verdict — E090, E091, W090 and W093 here, E112 in
//! [`crate::fleetcheck`] — reads one service-time function and one
//! response-time bound, both on `ServiceModel`:
//!
//! * `S_t(class)` (`ServiceModel::service_us`) is the table's per-batch
//!   latency at `(tier, max_batch)`, simulated at the Standard class and
//!   rescaled to `class` through the step-count law
//!   ([`enode_hw::table::points_for`]);
//! * `wcrt(class, t) = ⌈queue / max_batch⌉·S₀(class) + window +
//!   S_t(class)` (`ServiceModel::wcrt_us`): a request admitted into
//!   the last slot of a full queue waits for the backlog to drain at
//!   tier-0 cost, is held for the full batch window, then is served in
//!   its own batch at tier `t`.
//!
//! The backlog is charged at the request's own class. A queue may mix
//! classes, but batches form per class and the Strict class has the
//! largest `S₀`, so `wcrt(Strict, t)` bounds a request of any class
//! served at tier `t` behind any mix; E090 is checked per class, Strict
//! included, so a clean E090 bounds a mixed queue too. A clean Strict
//! E090 also proves `window + S₀ ≤ deadline` and a full-queue drain
//! `⌈queue / max_batch⌉·S₀ < deadline`, since the backlog charge holds
//! at least one tier-0 batch.
//!
//! # Trust, but verify the table
//!
//! Every verdict is only as good as the table, so `ServiceModel::resolve`
//! first checks provenance: the generator version and the per-policy
//! ladder fingerprint must match this build (`E093`), every tier needs
//! rows (`E094`), and rows must be monotone in batch (`E095`). A missing
//! `max_batch` design point is linearly extrapolated with a `W092`
//! advisory. Energy verdicts (`E092`, `E096`, `W091`) read the tier rows
//! directly; they are class-independent. The ladder's own order (`E072`,
//! the predicate [`ServeConfig::check_ladder_order`] the runtime
//! constructor asserts) and reachability (`W071`) need no table and are
//! checked first.

use crate::benchjson::{parse_cost_table, CostTableRow, ParsedCostTable};
use crate::diag::{Code, Diagnostic, Diagnostics};
use enode_hw::table::{points_for, tableau_cost, trials_for, TABLE_VERSION};
use enode_serve::{fingerprint, LadderDefect, ServeConfig, ToleranceClass};

/// The committed serving cost table at the repo root (regenerate with
/// `cargo run --release -p enode-bench --bin cost_table_json`).
pub const SHIPPED_TABLE: &str = include_str!("../../../COST_TABLE.json");

/// Fraction of the tightest deadline that must remain as tier-0 slack
/// before `W093` stops firing: 10%.
pub const THIN_MARGIN_FRACTION: u64 = 10;

/// The tolerance classes a policy admits, tightest first — every deadline
/// verdict is derived once per class.
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

/// One policy's service times, resolved from a cost table whose
/// provenance checked out: the design point of every tier at the
/// policy's `max_batch`.
pub(crate) struct ServiceModel<'a> {
    policy: &'a ServeConfig,
    points: Vec<TierPoint>,
}

impl<'a> ServiceModel<'a> {
    /// Checks the table's provenance for `policy` (`E093`, `E094`), then
    /// resolves the `(tier, max_batch)` design point of every tier,
    /// pushing `E094`/`E095`/`W092` into `ds` as found. `None` when the
    /// table is stale or any tier is missing or corrupt: no verdict can
    /// be derived from it.
    pub(crate) fn resolve(
        policy: &'a ServeConfig,
        table: &ParsedCostTable,
        ds: &mut Diagnostics,
    ) -> Option<ServiceModel<'a>> {
        let subject = format!("serve policy {}", policy.name);
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
            return None;
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
                return None;
            }
            None => {
                ds.push(Diagnostic::new(
                    Code::E094SchedTableMissing,
                    &subject,
                    "cost table records no fingerprint (and no sweep) for this policy; \
                     regenerate COST_TABLE.json",
                ));
                return None;
            }
        }

        let mut points = Vec::new();
        let mut sound = true;
        for tier in 0..policy.tiers.len() {
            let rows: Vec<&CostTableRow> = table.rows_for(policy.name, tier);
            if rows.is_empty() {
                ds.push(
                    Diagnostic::new(
                        Code::E094SchedTableMissing,
                        &subject,
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
                            &subject,
                            format!(
                                "tier {tier} rows are not monotone in batch: batch {} costs \
                                 {}µs/{}µJ but batch {} costs {}µs/{}µJ — the committed table \
                                 is corrupted, regenerate it",
                                a.batch,
                                a.latency_us,
                                a.energy_uj,
                                b.batch,
                                b.latency_us,
                                b.energy_uj
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
                            &subject,
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
        sound.then_some(ServiceModel { policy, points })
    }

    /// `S_t(class)`: the per-batch service time of `tier` at `max_batch`,
    /// µs. The table's latency is linear in f-evals per sample, and the
    /// class multiplies the tier's effective tolerance scale by
    /// `class.tolerance() / 1e-4`, so the Standard-class row is rescaled
    /// by the step-count law. Ceiling division keeps the bound
    /// conservative and the arithmetic integral (byte-stable messages).
    pub(crate) fn service_us(&self, tier: usize, class: ToleranceClass) -> u64 {
        let t = &self.policy.tiers[tier];
        let point = &self.points[tier];
        let (stages, order) = tableau_cost(t.tableau);
        let scale_eff =
            t.tolerance_scale * (class.tolerance() / ToleranceClass::Standard.tolerance());
        let f_evals = trials_for(points_for(order, scale_eff), t.max_trials) * stages;
        (point.latency_us * f_evals as u64).div_ceil(point.f_evals.max(1) as u64)
    }

    /// `wcrt(class, t)`: the worst-case response time, µs, of a `class`
    /// request served at `tier` — the full-queue backlog,
    /// `⌈queue / max_batch⌉` batches at tier-0 cost, then the full batch
    /// window, then its own batch.
    pub(crate) fn wcrt_us(&self, tier: usize, class: ToleranceClass) -> u64 {
        let p = self.policy;
        let backlog_batches = p.queue_capacity.div_ceil(p.max_batch.max(1)) as u64;
        backlog_batches * self.service_us(0, class)
            + p.batch_window_us
            + self.service_us(tier, class)
    }
}

/// Reports the ladder's order (`E072`) and reachability (`W071`). Returns
/// `false` when the ladder is empty: nothing else can be derived.
fn lint_ladder(policy: &ServeConfig, subject: &str, ds: &mut Diagnostics) -> bool {
    if let Err(defect) = policy.check_ladder_order() {
        let d = Diagnostic::new(Code::E072ServeTierOrdering, subject, defect.to_string());
        ds.push(match defect {
            LadderDefect::Empty => d,
            LadderDefect::DegradedTop { scale } => d.with_note("tier0_tolerance_scale", scale),
            LadderDefect::NotCheaper { tier } => {
                let (prev, next) = (&policy.tiers[tier - 1], &policy.tiers[tier]);
                d.with_note("tier", tier)
                    .with_note("prev_tolerance_scale", prev.tolerance_scale)
                    .with_note("next_tolerance_scale", next.tolerance_scale)
                    .with_note("prev_max_trials", prev.max_trials)
                    .with_note("next_max_trials", next.max_trials)
            }
        });
    }
    let Some(last) = policy.tiers.last() else {
        return false;
    };
    for (i, pair) in policy.tiers.windows(2).enumerate() {
        let (prev, next) = (&pair[0], &pair[1]);
        if next.min_slack_us >= prev.min_slack_us {
            ds.push(
                Diagnostic::new(
                    Code::W071ServeUnreachableTier,
                    subject,
                    format!(
                        "tier {} is unreachable: its slack threshold ({}µs) is not \
                         strictly below tier {i}'s ({}µs), so selection always stops earlier",
                        i + 1,
                        next.min_slack_us,
                        prev.min_slack_us
                    ),
                )
                .with_note("tier", i + 1)
                .with_note("min_slack_us", next.min_slack_us),
            );
        }
    }
    if last.min_slack_us > 0 {
        ds.push(
            Diagnostic::new(
                Code::W071ServeUnreachableTier,
                subject,
                format!(
                    "the cheapest tier still demands {}µs of slack: requests below \
                     it are served only by the fall-through default, not a designed tier",
                    last.min_slack_us
                ),
            )
            .with_note("last_tier_min_slack_us", last.min_slack_us),
        );
    }
    true
}

/// Lints one policy against one parsed cost table. Split out from
/// [`lint_shipped_policies`] so mutation and golden tests can inject
/// doctored tables and envelopes.
pub fn lint_config(policy: &ServeConfig, table: &ParsedCostTable) -> Diagnostics {
    let mut ds = Diagnostics::new();
    let subject = format!("serve policy {}", policy.name);

    // The ladder first: it needs no table, and an empty one leaves
    // nothing to price.
    if !lint_ladder(policy, &subject, &mut ds) {
        return ds;
    }

    // Provenance and row integrity (E093/E094/E095/W092): verdicts from a
    // stale or corrupt table are unsound, so nothing else runs without it.
    let Some(model) = ServiceModel::resolve(policy, table, &mut ds) else {
        return ds;
    };

    // --- energy verdicts (class-independent, Standard-class rows) ---
    // Per-request µJ at the tier's max_batch dispatch, ×10 fixed-point so
    // the half-µJ of an odd batch row is not lost.
    let per_req_duj: Vec<u64> = model
        .points
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

    // W070: the declared load against the peak service rate, max_batch
    // requests per worst-case (Strict) tier-0 batch.
    let strict_batch_us = model.service_us(0, ToleranceClass::Strict);
    let capacity_rps = policy.max_batch as f64 * 1.0e6 / strict_batch_us.max(1) as f64;
    if policy.design_rate_rps > capacity_rps {
        ds.push(
            Diagnostic::new(
                Code::W070ServeDesignOverload,
                &subject,
                format!(
                    "design load {:.1} req/s exceeds the peak service rate {:.1} req/s \
                     (batch {} every {}µs, strict tier 0): shedding is the steady state at \
                     the declared load",
                    policy.design_rate_rps, capacity_rps, policy.max_batch, strict_batch_us
                ),
            )
            .with_note("design_rate_rps", policy.design_rate_rps)
            .with_note("capacity_rps", format!("{capacity_rps:.1}")),
        );
    }

    // --- deadline verdicts: the response-time bound per class and tier ---
    let deadline = policy.min_deadline_us;
    for class in CLASSES {
        let per_tier: Vec<u64> = (0..policy.tiers.len())
            .map(|t| model.wcrt_us(t, class))
            .collect();
        let Some(first_fit) = per_tier.iter().position(|&us| us <= deadline) else {
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
        };
        if first_fit > 0 {
            ds.push(
                Diagnostic::new(
                    Code::W090SchedDegradedOnly,
                    &subject,
                    format!(
                        "{}-class worst case {}µs misses the {deadline}µs deadline at tier 0 \
                         and first fits at tier {first_fit} ({}µs): every deadline-floor \
                         request is served degraded",
                        class.as_str(),
                        per_tier[0],
                        per_tier[first_fit]
                    ),
                )
                .with_note("class", class.as_str())
                .with_note("tier", first_fit)
                .with_note("tier0_wcrt_us", per_tier[0]),
            );
        } else if (deadline - per_tier[0]) * THIN_MARGIN_FRACTION < deadline {
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
        let worst_service = model.service_us(tier, ToleranceClass::Strict);
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

    fn model<'a>(p: &'a ServeConfig, t: &ParsedCostTable) -> ServiceModel<'a> {
        ServiceModel::resolve(p, t, &mut Diagnostics::new()).expect("resolves")
    }

    #[test]
    fn wcrt_orders_classes_and_tiers() {
        // Strict demands the most points, so its WCRT dominates; deeper
        // tiers are cheaper, so WCRT falls down the ladder.
        for p in ServeConfig::shipped() {
            let t = table();
            let m = model(&p, &t);
            for class in CLASSES {
                for tier in 1..p.tiers.len() {
                    assert!(m.wcrt_us(tier, class) <= m.wcrt_us(tier - 1, class));
                }
            }
            for tier in 0..p.tiers.len() {
                let [strict, standard, relaxed] = CLASSES.map(|c| m.wcrt_us(tier, c));
                assert!(strict >= standard && standard >= relaxed, "{}", p.name);
            }
        }
        // And the numbers are the closed form: standard tier 0 = 2
        // backlog batches × 1397 + 2000 window + 1397 service.
        let p = ServeConfig::edge_default();
        assert_eq!(
            model(&p, &table()).wcrt_us(0, ToleranceClass::Standard),
            2 * 1397 + 2_000 + 1397
        );
    }

    /// The worst-case response times the fixpoint pass this bound
    /// replaced computed (a backward max-plus demand pass over one
    /// `Admission → Window → Service → Response` chain per class and
    /// tier), recorded for both shipped policies at their shipped queue
    /// and at queues of 48, 56 and 64: per class (Strict, Standard,
    /// Relaxed), one µs value per tier.
    const RECORDED_WCRT_US: [(&str, usize, [&[u64]; 3]); 8] = [
        (
            "edge_default",
            16,
            [
                &[21443, 17527, 15411],
                &[6191, 5338, 4911],
                &[2933, 2856, 2739],
            ],
        ),
        (
            "edge_default",
            48,
            [
                &[47367, 43451, 41335],
                &[11779, 10926, 10499],
                &[4177, 4100, 3983],
            ],
        ),
        (
            "edge_default",
            56,
            [
                &[53848, 49932, 47816],
                &[13176, 12323, 11896],
                &[4488, 4411, 4294],
            ],
        ),
        (
            "edge_default",
            64,
            [
                &[60329, 56413, 54297],
                &[14573, 13720, 13293],
                &[4799, 4722, 4605],
            ],
        ),
        (
            "streaming_keyword",
            8,
            [&[2436, 1737], &[525, 365], &[117, 93]],
        ),
        (
            "streaming_keyword",
            48,
            [&[10556, 9857], &[2275, 2115], &[507, 483]],
        ),
        (
            "streaming_keyword",
            56,
            [&[12180, 11481], &[2625, 2465], &[585, 561]],
        ),
        (
            "streaming_keyword",
            64,
            [&[13804, 13105], &[2975, 2815], &[663, 639]],
        ),
    ];

    #[test]
    fn closed_form_reproduces_the_recorded_fixpoint_wcrt() {
        let t = table();
        for (name, queue, want) in RECORDED_WCRT_US {
            let mut p = ServeConfig::shipped()
                .into_iter()
                .find(|p| p.name == name)
                .expect("shipped policy");
            p.queue_capacity = queue;
            let m = model(&p, &t);
            let got = CLASSES.map(|class| {
                (0..p.tiers.len())
                    .map(|tier| m.wcrt_us(tier, class))
                    .collect::<Vec<_>>()
            });
            assert_eq!(got, want, "{name} at queue {queue}");
        }
    }

    #[test]
    fn design_overload_fires_w070_from_the_strict_tier0_row() {
        // Capacity is 8 requests per 6481µs strict tier-0 batch
        // (1234.4 req/s); streaming's is 4 per 812µs (4926.1 req/s).
        let t = table();
        let mut p = ServeConfig::edge_default();
        assert_eq!(model(&p, &t).service_us(0, ToleranceClass::Strict), 6481);
        let s = ServeConfig::streaming_keyword();
        assert_eq!(model(&s, &t).service_us(0, ToleranceClass::Strict), 812);
        p.design_rate_rps = 1_234.0;
        assert!(!lint_config(&p, &t).has_code(Code::W070ServeDesignOverload));
        p.design_rate_rps = 1_235.0;
        let ds = lint_config(&p, &t);
        assert!(ds.has_code(Code::W070ServeDesignOverload), "{ds}");
        assert_eq!(ds.error_count(), 1, "only E096 (power) rides along:\n{ds}");
        assert!(ds.has_code(Code::E096SchedPowerBudget), "{ds}");
    }

    #[test]
    fn empty_ladder_is_e072_alone() {
        let mut p = ServeConfig::edge_default();
        p.tiers.clear();
        let ds = lint_config(&p, &table());
        assert!(ds.has_code(Code::E072ServeTierOrdering), "{ds}");
        assert_eq!(ds.len(), 1, "an empty ladder short-circuits further checks");
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
        assert!(!ds.has_code(Code::W090SchedDegradedOnly), "{ds}");
        assert!(!ds.has_code(Code::W093SchedThinMargin), "{ds}");
    }

    #[test]
    fn degraded_rescue_fires_w090_and_thin_margin_fires_w093() {
        // Deadline between the strict tier-2 WCRT and the tier-1 WCRT:
        // strict requests are feasible only maximally degraded.
        let mut p = ServeConfig::edge_default();
        p.min_deadline_us = 16_000;
        let ds = lint_config(&p, &table());
        let w090: Vec<_> = ds
            .items()
            .iter()
            .filter(|d| d.code == Code::W090SchedDegradedOnly)
            .collect();
        assert_eq!(w090.len(), 1, "{ds}");
        assert!(w090[0].notes.contains(&("tier".into(), "2".into())), "{ds}");
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
