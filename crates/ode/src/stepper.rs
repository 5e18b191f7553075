//! The adaptive stepping core: the one place a Runge–Kutta stage, a
//! trial and a stepsize search are written.
//!
//! [`Stepper`] owns every buffer a solve needs — the stages `k_i`, the
//! partial state `p_i`, the candidate `y⁺` and the error state `e` — and
//! evaluates `f` into them, so a search allocates nothing per trial.
//! [`Stepper::search`] is the iterative stepsize search of paper §II-B. Two
//! caller-chosen parameters adapt it to each use:
//!
//! * a [`Recorder`] of accepted points: `()` records nothing (the serving
//!   path), `Vec<EvalPoint<S>>` keeps dense output with the FSAL
//!   derivative, and the NODE forward keeps every k-th ACA checkpoint;
//! * a [`DecisionNorm`]: [`FullNorm`] (`‖e‖₂`), or the priority window of
//!   §VII-B implemented by the NODE crate.
//!
//! `solve_adaptive`, `solve_fixed`, `rk_step`, the NODE forward pass and
//! the ACA backward's segment replay all run here; [`stage_input`] is
//! also the partial-state arithmetic of the ACA local forward.

use crate::controller::{StepController, TrialDecision};
use crate::solver::{AdaptiveOptions, EvalPoint, SolveError, SolveStats};
use crate::state::StateOps;
use crate::tableau::ButcherTableau;

/// The norm of a trial's error state that the controller judges.
pub trait DecisionNorm<S> {
    /// The decision norm of `error` on trial `trial` (1-based) of the
    /// current evaluation point, searched against `tolerance`.
    fn decide(&mut self, error: &S, trial: usize, tolerance: f64) -> f64;
}

/// The full L2 norm `‖e‖₂` on every trial (the search of §II-B).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FullNorm;

impl<S: StateOps> DecisionNorm<S> for FullNorm {
    fn decide(&mut self, error: &S, _trial: usize, _tolerance: f64) -> f64 {
        error.norm_l2()
    }
}

/// One accepted evaluation point, as a [`Recorder`] sees it.
#[derive(Debug)]
pub struct Accepted<'a, S> {
    /// Time at the point (after the step).
    pub t: f64,
    /// The accepted stepsize.
    pub dt: f64,
    /// Trials the search spent on this point.
    pub trials: usize,
    /// The state at `t`, after storage rounding.
    pub y: &'a S,
    /// `f(t, y⁺)` when the tableau is FSAL (the next step's first stage,
    /// computed from the unrounded state); `None` otherwise.
    pub dy: Option<&'a S>,
}

/// Receives every accepted point of a solve.
pub trait Recorder<S> {
    /// Called once per accepted step, in time order.
    fn record(&mut self, point: Accepted<'_, S>);
}

/// Records nothing: a solve that returns only its final state and stats.
impl<S> Recorder<S> for () {
    fn record(&mut self, _point: Accepted<'_, S>) {}
}

/// Dense output: every point with its state and FSAL derivative.
impl<S: Clone> Recorder<S> for Vec<EvalPoint<S>> {
    fn record(&mut self, p: Accepted<'_, S>) {
        self.push(EvalPoint {
            t: p.t,
            dt: p.dt,
            y: p.y.clone(),
            trials: p.trials,
            dy: p.dy.cloned(),
        });
    }
}

/// Writes the partial state `p ← y + Σ_{j<i} (h·a_ij)·k_j` of stage `i`
/// into `p`. `stages` must hold at least `k_0..k_{i−1}`.
pub fn stage_input<S: StateOps>(
    tableau: &ButcherTableau,
    i: usize,
    h: f64,
    y: &S,
    stages: &[S],
    p: &mut S,
) {
    combine(p, Some(y), h, &tableau.a()[i], stages);
}

/// The Runge–Kutta linear combination, the one place it is written:
/// `out ← base + Σ_j (h·c_j)·k_j` — a copy of `base`, then one `axpy` per
/// nonzero `c_j` in ascending `j` — or, with no base,
/// `out ← k_f·(h·c_f) + Σ_{j>f} (h·c_j)·k_j` from the first nonzero `c_f`
/// (zero when every `c_j` is zero). `coeffs` pairs with the leading
/// `terms`.
fn combine<S: StateOps>(out: &mut S, base: Option<&S>, h: f64, coeffs: &[f64], terms: &[S]) {
    let mut nonzero = coeffs.iter().zip(terms).filter(|(&c, _)| c != 0.0);
    match base {
        Some(b) => out.copy_from(b),
        None => match nonzero.next() {
            Some((&c, k)) => {
                out.copy_from(k);
                out.scale_mut(h * c);
            }
            None => {
                *out = out.zeros_like();
                return;
            }
        },
    }
    for (&c, k) in nonzero {
        out.axpy(h * c, k);
    }
}

/// The stepping core: one solve's buffers and its RK arithmetic.
///
/// `f` is evaluated as `f(t, p, out)`, writing `f(t, p)` into `out`, so
/// every stage lands in a buffer the stepper owns. All buffers share the
/// shape of the state the stepper was built for.
///
/// `k₁ = f(t, y)` does not depend on the stepsize: the stepper keeps it
/// across rejected trials of one point, and an FSAL tableau's last stage
/// becomes the next point's `k₁` when a trial is accepted.
#[derive(Debug)]
pub struct Stepper<'t, S> {
    tableau: &'t ButcherTableau,
    stages: Vec<S>,
    partial: S,
    candidate: S,
    error: S,
    /// `stages[0]` holds `f(t, y)` for the state the next trial starts from.
    k1_ready: bool,
    /// Applied to every accepted state (storage precision).
    round: Option<fn(&mut S)>,
}

impl<'t, S: StateOps> Stepper<'t, S> {
    /// Allocates the buffers for states shaped like `like`.
    pub fn new(tableau: &'t ButcherTableau, like: &S) -> Self {
        Stepper {
            tableau,
            stages: (0..tableau.stages()).map(|_| like.zeros_like()).collect(),
            partial: like.zeros_like(),
            candidate: like.zeros_like(),
            error: like.zeros_like(),
            k1_ready: false,
            round: None,
        }
    }

    /// Rounds every accepted state through `round` — a storage precision
    /// such as FP16. Stages and the FSAL derivative stay unrounded.
    pub fn with_rounding(mut self, round: fn(&mut S)) -> Self {
        self.round = Some(round);
        self
    }

    /// Seeds `k₁ = f(t, y)` for the next trial (a caller that already
    /// holds it, such as an FSAL stage from elsewhere).
    pub fn set_first_stage(&mut self, k1: S) {
        self.stages[0] = k1;
        self.k1_ready = true;
    }

    /// The buffers as owned states: `(stages, candidate, error)`.
    pub fn into_parts(self) -> (Vec<S>, S, S) {
        (self.stages, self.candidate, self.error)
    }

    /// Runs one trial from `(t, y)` with stepsize `h`: the stages, the
    /// candidate `y⁺ = y + Σ (h·b_i)·k_i` and, for an embedded pair, the
    /// error `e = (h·d_f)·k_f + Σ_{i>f} (h·d_i)·k_i` from the first nonzero
    /// weight `d_f`. Returns the function evaluations it made.
    ///
    /// # Panics
    ///
    /// Panics if `h` is not positive and finite.
    pub fn trial(&mut self, f: &mut impl FnMut(f64, &S, &mut S), t: f64, h: f64, y: &S) -> usize {
        let nfe = self.eval_stages(f, t, h, y);
        combine(
            &mut self.candidate,
            Some(y),
            h,
            self.tableau.b(),
            &self.stages,
        );
        if let Some(d) = self.tableau.error_weights() {
            combine(&mut self.error, None, h, d, &self.stages);
        }
        nfe
    }

    /// Commits the last trial: `y ← y⁺` (a buffer swap), the FSAL stage
    /// moves into slot 0, and the storage rounding runs on `y`.
    pub fn accept(&mut self, y: &mut S) {
        std::mem::swap(y, &mut self.candidate);
        self.k1_ready = self.tableau.is_fsal();
        if self.k1_ready {
            let last = self.stages.len() - 1;
            self.stages.swap(0, last);
        }
        if let Some(round) = self.round {
            round(y);
        }
    }

    /// Integrates `y` over `n_steps` equal steps of `h` from `t0` (no
    /// stepsize search), recording every point.
    pub fn fixed(
        &mut self,
        f: &mut impl FnMut(f64, &S, &mut S),
        t0: f64,
        h: f64,
        n_steps: usize,
        y: &mut S,
        rec: &mut impl Recorder<S>,
    ) -> SolveStats {
        self.k1_ready = false;
        let mut t = t0;
        let mut nfe = 0;
        for _ in 0..n_steps {
            nfe += self.trial(f, t, h.abs(), y);
            self.accept(y);
            t += h;
            rec.record(self.point(t, h, 1, y));
        }
        SolveStats {
            nfe,
            accepted: n_steps,
            rejected: 0,
        }
    }

    /// Integrates `y` over `span` with iterative stepsize search (paper
    /// §II-B): at each evaluation point, trials repeat under
    /// `controller`'s policy until the decision norm meets
    /// `limits.tolerance`. `y` holds the initial state on entry and the
    /// final state on success.
    ///
    /// The first trial's stepsize is the controller's choice clamped to
    /// `[dt_min, dt_max]` and to the time remaining; an accepted step's
    /// hint is clamped to `[dt_min, dt_max]`; a retry below `dt_min`
    /// underflows.
    ///
    /// # Errors
    ///
    /// [`SolveError::NonFiniteState`] if `y` enters non-finite or a
    /// candidate leaves finite range, [`SolveError::StepsizeUnderflow`] on
    /// an exhausted trial budget or a retry below `dt_min`, and
    /// [`SolveError::MaxStepsExceeded`] once `max_points` steps were
    /// accepted short of the end.
    #[allow(clippy::too_many_arguments)]
    pub fn search(
        &mut self,
        f: &mut impl FnMut(f64, &S, &mut S),
        (t0, t1): (f64, f64),
        y: &mut S,
        controller: &mut dyn StepController,
        limits: &AdaptiveOptions,
        norm: &mut dyn DecisionNorm<S>,
        rec: &mut impl Recorder<S>,
    ) -> Result<SolveStats, SolveError> {
        if !y.is_finite() {
            return Err(SolveError::NonFiniteState);
        }
        self.k1_ready = false;
        let mut t = t0;
        let mut stats = SolveStats::default();
        let mut dt_hint: Option<f64> = None;
        while t < t1 - 1e-12 {
            if stats.accepted >= limits.max_points {
                return Err(SolveError::MaxStepsExceeded);
            }
            let remaining = t1 - t;
            let mut dt = controller
                .begin_point(dt_hint, remaining)
                .clamp(limits.dt_min, limits.dt_max)
                .min(remaining);
            let mut trials = 0;
            loop {
                trials += 1;
                if trials > limits.max_trials_per_point {
                    return Err(SolveError::StepsizeUnderflow);
                }
                stats.nfe += self.trial(f, t, dt, y);
                if !self.candidate.is_finite() {
                    return Err(SolveError::NonFiniteState);
                }
                let err = norm.decide(&self.error, trials, limits.tolerance);
                match controller.on_trial(dt, err / limits.tolerance) {
                    TrialDecision::Accept { dt_next_hint } => {
                        stats.accepted += 1;
                        t += dt;
                        self.accept(y);
                        rec.record(self.point(t, dt, trials, y));
                        dt_hint = Some(dt_next_hint.clamp(limits.dt_min, limits.dt_max));
                        controller.end_point(trials == 1);
                        break;
                    }
                    TrialDecision::Reject { dt_retry } => {
                        stats.rejected += 1;
                        if dt_retry < limits.dt_min {
                            return Err(SolveError::StepsizeUnderflow);
                        }
                        dt = dt_retry.max(limits.dt_min);
                    }
                }
            }
        }
        Ok(stats)
    }

    /// The stages of one trial; `k₁` only when the cached one is stale.
    fn eval_stages(&mut self, f: &mut impl FnMut(f64, &S, &mut S), t: f64, h: f64, y: &S) -> usize {
        assert!(
            h > 0.0 && h.is_finite(),
            "stepsize must be positive, got {h}"
        );
        debug_assert!(t.is_finite(), "integration time must be finite, got {t}");
        let tab = self.tableau;
        let mut nfe = 0;
        if !self.k1_ready {
            // p_0 = y: the first stage reads the state directly.
            f(t + tab.c()[0] * h, y, &mut self.stages[0]);
            nfe += 1;
            self.k1_ready = true;
        }
        for i in 1..tab.stages() {
            let (done, rest) = self.stages.split_at_mut(i);
            stage_input(tab, i, h, y, done, &mut self.partial);
            f(t + tab.c()[i] * h, &self.partial, &mut rest[0]);
            nfe += 1;
        }
        nfe
    }

    /// The accepted point just committed into `y`.
    fn point<'a>(&'a self, t: f64, dt: f64, trials: usize, y: &'a S) -> Accepted<'a, S> {
        Accepted {
            t,
            dt,
            trials,
            y,
            dy: self.k1_ready.then(|| &self.stages[0]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ClassicController;

    /// `y' = −y` into a `Vec<f64>` state. Closures: the state type fixes
    /// `&Vec<f64>` arguments, which `clippy::ptr_arg` rejects on a `fn`.
    fn decay() -> impl FnMut(f64, &Vec<f64>, &mut Vec<f64>) {
        |_t, y, out| out[0] = -y[0]
    }

    /// `y' = −y²`, `y(0) = 1`: exact solution `1 / (1 + t)`.
    fn quadratic() -> impl FnMut(f64, &Vec<f64>, &mut Vec<f64>) {
        |_t, y, out| out[0] = -y[0] * y[0]
    }

    #[test]
    fn rejected_trials_reuse_k1() {
        // A huge first stepsize forces rejections; each retry evaluates
        // only stages 2..s.
        let tab = ButcherTableau::rk23_bogacki_shampine();
        let mut stepper = Stepper::new(&tab, &vec![1.0]);
        let mut ctl = ClassicController::new(tab.error_order()).with_default_dt(5.0);
        let mut y = vec![1.0];
        let stats = stepper
            .search(
                &mut quadratic(),
                (0.0, 1.0),
                &mut y,
                &mut ctl,
                &AdaptiveOptions::new(1e-8),
                &mut FullNorm,
                &mut (),
            )
            .unwrap();
        assert!(stats.rejected > 0, "{stats:?}");
        // First point: 4 + 3·(trials − 1); later points reuse the FSAL
        // stage: 3 per trial.
        assert_eq!(stats.nfe, 1 + 3 * stats.total_trials());
        assert!((y[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn non_finite_input_is_a_typed_error() {
        let tab = ButcherTableau::rk23_bogacki_shampine();
        let mut stepper = Stepper::new(&tab, &vec![0.0]);
        let mut ctl = ClassicController::new(tab.error_order());
        let err = stepper
            .search(
                &mut decay(),
                (0.0, 1.0),
                &mut vec![f64::NAN],
                &mut ctl,
                &AdaptiveOptions::new(1e-6),
                &mut FullNorm,
                &mut (),
            )
            .unwrap_err();
        assert_eq!(err, SolveError::NonFiniteState);
    }
}
