//! Serving policies: the statically-lintable description of a deployment.
//!
//! A [`ServeConfig`] bundles everything the runtime needs (queue bound,
//! batching knobs, degradation ladder) with the *design envelope* the
//! deployment promises (offered load, tightest admitted deadline, energy
//! and power budgets). The envelope fields do not steer the runtime —
//! they exist so `analysis::schedcheck` can prove, before anything runs
//! and against the simulator-calibrated `COST_TABLE.json`, that the
//! policy is feasible: that a worst-case request — behind a full queue,
//! held for the whole batch window — still meets the deadline floor at
//! some tier (E090), that the declared load is serviceable (W070), and
//! that the budgets hold (E092/E096). The ladder's own order
//! ([`ServeConfig::check_ladder_order`]) is both a lint (E072) and a
//! constructor precondition.

use crate::request::ToleranceClass;
use enode_node::inference::{SolveOverride, TableauKind};
use std::fmt;

/// One rung of the degradation ladder.
///
/// Tier 0 must be the full-quality configuration (`tolerance_scale`
/// 1.0); each later tier must be strictly cheaper
/// ([`ServeConfig::check_ladder_order`]). At
/// dispatch the server picks the first tier whose `min_slack_us` fits
/// the request's remaining deadline slack, falling through to the
/// cheapest tier rather than rejecting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TierSpec {
    /// Multiplier on the request class's base tolerance (≥ 1.0; larger
    /// means coarser and cheaper).
    pub tolerance_scale: f64,
    /// Trial budget per evaluation point at this tier.
    pub max_trials: usize,
    /// Integrator at this tier (cheaper tiers use lower-order pairs).
    pub tableau: TableauKind,
    /// Minimum deadline slack (µs) a request needs to be served here.
    pub min_slack_us: u64,
}

impl TierSpec {
    /// The per-call solver override this tier dispatches with.
    pub fn solve_override(&self, class: ToleranceClass) -> SolveOverride {
        SolveOverride {
            tolerance: Some(class.tolerance() * self.tolerance_scale),
            max_trials: Some(self.max_trials),
            tableau: Some(self.tableau),
        }
    }
}

/// A complete serving policy (runtime knobs + design envelope).
#[derive(Clone, Debug, PartialEq)]
pub struct ServeConfig {
    /// Policy name (lint subject, bench row label).
    pub name: &'static str,
    /// Bounded ingress queue capacity (admission control).
    pub queue_capacity: usize,
    /// Largest batch the dynamic batcher coalesces.
    pub max_batch: usize,
    /// How long (µs) the batcher holds an underfull batch open, measured
    /// from the head request's admission.
    pub batch_window_us: u64,
    /// The degradation ladder, tier 0 first. Never empty.
    pub tiers: Vec<TierSpec>,
    /// Worker threads pulling batches (0 = externally pumped, the
    /// discrete-event simulation mode).
    pub workers: usize,
    /// Design envelope: offered load the deployment promises to absorb
    /// (requests/s).
    pub design_rate_rps: f64,
    /// Design envelope: the tightest relative deadline admitted (µs).
    pub min_deadline_us: u64,
    /// Design envelope: the per-request energy budget at full quality
    /// (µJ) — lint E092 proves the simulated tier-0 cost fits it.
    pub energy_budget_uj: u64,
    /// Design envelope: the sustained device power budget (mW) at the
    /// declared offered load — lint E096 proves
    /// `design_rate_rps × energy/request` fits it.
    pub power_budget_mw: u64,
}

impl ServeConfig {
    /// The default edge-inference policy: small queue, batches of 8, a
    /// 2 ms window, and a three-tier ladder (RK23 strict budget → RK23
    /// coarse → Heun–Euler coarse, the low-order fallback).
    pub fn edge_default() -> Self {
        ServeConfig {
            name: "edge_default",
            // 2 full batches of backlog: a Strict request behind them
            // responds within 21.4ms in the worst case (backlog, window,
            // its own batch; COST_TABLE.json), inside the 50ms deadline
            // floor (lint E090 proves this).
            queue_capacity: 16,
            max_batch: 8,
            batch_window_us: 2_000,
            tiers: vec![
                TierSpec {
                    tolerance_scale: 1.0,
                    max_trials: 64,
                    tableau: TableauKind::Rk23,
                    min_slack_us: 20_000,
                },
                TierSpec {
                    tolerance_scale: 16.0,
                    max_trials: 32,
                    tableau: TableauKind::Rk23,
                    min_slack_us: 8_000,
                },
                TierSpec {
                    tolerance_scale: 256.0,
                    max_trials: 16,
                    tableau: TableauKind::HeunEuler,
                    min_slack_us: 0,
                },
            ],
            workers: 1,
            design_rate_rps: 200.0,
            min_deadline_us: 50_000,
            // Simulated tier-0 cost is ~1.19 mJ/request at batch 8
            // (COST_TABLE.json); the budget leaves ~2x headroom.
            energy_budget_uj: 2_500,
            power_budget_mw: 1_200,
        }
    }

    /// The always-on streaming policy (keyword-spotting style): tight
    /// deadlines, zero batch window (latency over throughput), two tiers.
    pub fn streaming_keyword() -> Self {
        ServeConfig {
            name: "streaming_keyword",
            // 2 batches of backlog: a Strict worst case of 2.4ms
            // (COST_TABLE.json), inside the 12ms floor (lint E090).
            queue_capacity: 8,
            max_batch: 4,
            batch_window_us: 0,
            tiers: vec![
                TierSpec {
                    tolerance_scale: 1.0,
                    max_trials: 48,
                    tableau: TableauKind::Rk23,
                    min_slack_us: 4_000,
                },
                TierSpec {
                    tolerance_scale: 64.0,
                    max_trials: 12,
                    tableau: TableauKind::HeunEuler,
                    min_slack_us: 0,
                },
            ],
            workers: 1,
            design_rate_rps: 100.0,
            min_deadline_us: 12_000,
            // Always-on budget: ~0.3 mJ/request simulated at batch 4.
            energy_budget_uj: 800,
            power_budget_mw: 200,
        }
    }

    /// Every policy the repository ships (the set `analysis::schedcheck`
    /// lints and `serve-bench` sweeps).
    pub fn shipped() -> Vec<ServeConfig> {
        vec![
            ServeConfig::edge_default(),
            ServeConfig::streaming_keyword(),
        ]
    }

    /// Selects the degradation tier for a request with `slack_us` of
    /// deadline headroom: the first tier whose `min_slack_us` fits, else
    /// the cheapest tier (graceful degradation instead of rejection).
    pub fn tier_for_slack(&self, slack_us: u64) -> usize {
        self.tiers
            .iter()
            .position(|t| t.min_slack_us <= slack_us)
            .unwrap_or(self.tiers.len() - 1)
    }

    /// The ladder's order, the one rule both the constructor and lint
    /// E072 enforce: tier 0 serves at the request's own tolerance (scale
    /// 1.0), and each later tier is strictly cheaper than its predecessor
    /// — a strictly larger tolerance scale and a trial budget no larger.
    /// Returns the first defect, tier 0 first.
    pub fn check_ladder_order(&self) -> Result<(), LadderDefect> {
        let Some(top) = self.tiers.first() else {
            return Err(LadderDefect::Empty);
        };
        if top.tolerance_scale != 1.0 {
            return Err(LadderDefect::DegradedTop {
                scale: top.tolerance_scale,
            });
        }
        match self.tiers.windows(2).position(|w| {
            !(w[1].tolerance_scale > w[0].tolerance_scale && w[1].max_trials <= w[0].max_trials)
        }) {
            Some(i) => Err(LadderDefect::NotCheaper { tier: i + 1 }),
            None => Ok(()),
        }
    }

    /// Structural validation (the runtime constructor calls this in
    /// every build; the deadline, load and budget proofs live in
    /// `analysis::schedcheck`).
    ///
    /// # Panics
    ///
    /// Panics on a zero queue/batch bound, a ladder out of order
    /// ([`ServeConfig::check_ladder_order`]), a non-finite tolerance
    /// scale, or a zero trial budget.
    pub fn validate(&self) {
        assert!(self.queue_capacity > 0, "queue capacity must be positive");
        assert!(self.max_batch > 0, "max batch must be positive");
        if let Err(defect) = self.check_ladder_order() {
            panic!("{}: {defect} (lint E072)", self.name);
        }
        for (i, t) in self.tiers.iter().enumerate() {
            assert!(
                t.tolerance_scale.is_finite(),
                "tier {i}: tolerance scale must be finite"
            );
            assert!(t.max_trials > 0, "tier {i}: trial budget must be positive");
        }
    }
}

/// How a degradation ladder breaks the cheapest-last order
/// ([`ServeConfig::check_ladder_order`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LadderDefect {
    /// No tier at all: nothing can serve a request.
    Empty,
    /// Tier 0 scales the request's tolerance instead of serving at it.
    DegradedTop {
        /// Tier 0's tolerance scale (not 1.0).
        scale: f64,
    },
    /// `tier` is not strictly cheaper than `tier - 1`: its tolerance
    /// scale does not rise, or its trial budget rises.
    NotCheaper {
        /// The offending tier (≥ 1).
        tier: usize,
    },
}

impl fmt::Display for LadderDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LadderDefect::Empty => {
                f.write_str("degradation ladder is empty: no tier can serve any request")
            }
            LadderDefect::DegradedTop { scale } => write!(
                f,
                "tier 0 scales the tolerance by {scale}, but tier 0 must serve at the \
                 request's own tolerance (scale 1.0)"
            ),
            LadderDefect::NotCheaper { tier } => write!(
                f,
                "tier {tier} is not strictly cheaper than tier {}: degrading must coarsen \
                 the tolerance and never raise the trial budget",
                tier - 1
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_policies_validate() {
        for p in ServeConfig::shipped() {
            p.validate();
            assert!(p.tiers.len() >= 2, "{}: need a degradation ladder", p.name);
        }
    }

    #[test]
    fn tier_selection_degrades_with_slack() {
        let p = ServeConfig::edge_default();
        assert_eq!(p.tier_for_slack(1_000_000), 0);
        assert_eq!(p.tier_for_slack(10_000), 1);
        assert_eq!(p.tier_for_slack(1_000), 2);
        assert_eq!(p.tier_for_slack(0), 2);
    }

    #[test]
    fn tier_override_scales_the_class_tolerance() {
        let p = ServeConfig::edge_default();
        let ovr = p.tiers[1].solve_override(ToleranceClass::Standard);
        assert_eq!(ovr.tolerance, Some(1e-4 * 16.0));
        assert_eq!(ovr.max_trials, Some(32));
        assert_eq!(ovr.tableau, Some(TableauKind::Rk23));
    }

    #[test]
    #[should_panic(expected = "tier 0 must serve")]
    fn validate_rejects_degraded_tier0() {
        let mut p = ServeConfig::edge_default();
        p.tiers[0].tolerance_scale = 2.0;
        p.validate();
    }

    #[test]
    #[should_panic(expected = "tier 2 is not strictly cheaper than tier 1")]
    fn validate_rejects_a_ladder_that_gets_dearer() {
        // A degraded tier with a larger trial budget than its
        // predecessor: refused in release builds too.
        let mut p = ServeConfig::edge_default();
        p.tiers[2].max_trials = 128;
        p.validate();
    }

    #[test]
    fn ladder_order_names_the_first_defect() {
        let mut p = ServeConfig::edge_default();
        assert_eq!(p.check_ladder_order(), Ok(()));
        p.tiers[1].tolerance_scale = 0.5;
        p.tiers[2].max_trials = 128;
        assert_eq!(
            p.check_ladder_order(),
            Err(LadderDefect::NotCheaper { tier: 1 })
        );
        p.tiers[0].tolerance_scale = 4.0;
        assert_eq!(
            p.check_ladder_order(),
            Err(LadderDefect::DegradedTop { scale: 4.0 })
        );
        p.tiers.truncate(1);
        p.tiers[0].tolerance_scale = 1.0;
        assert_eq!(p.check_ladder_order(), Ok(()), "one tier is a ladder");
        p.tiers.clear();
        assert_eq!(p.check_ladder_order(), Err(LadderDefect::Empty));
    }
}
