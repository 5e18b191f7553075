//! A single Runge–Kutta integration step.

use crate::state::StateOps;
use crate::stepper::Stepper;
use crate::tableau::ButcherTableau;

/// The result of one Runge–Kutta step (one "integration trial" in the
/// paper's stepsize-search terminology).
#[derive(Clone, Debug)]
pub struct StepOutcome<S> {
    /// The advanced state `h(t + Δt)`.
    pub y_next: S,
    /// The embedded error state `e` (absent for fixed-order methods).
    pub error: Option<S>,
    /// The integral states `k_1..k_s` (kept so FSAL methods can reuse the
    /// last stage, and so the adjoint pass can replay intermediate states).
    pub stages: Vec<S>,
    /// Function evaluations performed in this step.
    pub nfe: usize,
}

impl<S: StateOps> StepOutcome<S> {
    /// L2 norm of the error state (the `‖e‖₂` compared against ε in the
    /// stepsize search).
    ///
    /// # Panics
    ///
    /// Panics if the method has no embedded error estimate.
    pub fn error_norm(&self) -> f64 {
        self.error
            .as_ref()
            .expect("error_norm requires an adaptive (embedded-pair) method")
            .norm_l2()
    }
}

/// Performs one explicit Runge–Kutta step `y(t) → y(t + h)`.
///
/// `k1` may carry the previous step's FSAL stage to save one `f`
/// evaluation; pass `None` to evaluate from scratch.
///
/// A one-shot form of [`Stepper::trial`](crate::stepper::Stepper::trial)
/// that returns owned states; the solvers drive a [`Stepper`] directly.
///
/// # Panics
///
/// Panics if `h` is not positive and finite, or `t` is not finite.
pub fn rk_step<S: StateOps>(
    tableau: &ButcherTableau,
    f: &mut impl FnMut(f64, &S) -> S,
    t: f64,
    h: f64,
    y: &S,
    k1: Option<S>,
) -> StepOutcome<S> {
    let mut stepper = Stepper::new(tableau, y);
    if let Some(k) = k1 {
        stepper.set_first_stage(k);
    }
    let nfe = stepper.trial(&mut |t, p: &S, out: &mut S| *out = f(t, p), t, h, y);
    let (stages, y_next, error) = stepper.into_parts();
    StepOutcome {
        y_next,
        error: tableau.is_adaptive().then_some(error),
        stages,
        nfe,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tableau::all_tableaux;

    /// dy/dt = -y, y(0) = 1: exact solution e^{-t}.
    ///
    /// A closure: the `Vec<f64>` state fixes a `&Vec<f64>` argument, which
    /// `clippy::ptr_arg` rejects on a `fn`.
    fn decay() -> impl Fn(f64, &Vec<f64>) -> Vec<f64> {
        |_t, y| vec![-y[0]]
    }

    #[test]
    fn euler_step_exact_formula() {
        let tab = ButcherTableau::euler();
        let out = rk_step(&tab, &mut decay(), 0.0, 0.1, &vec![1.0], None);
        assert!((out.y_next[0] - 0.9).abs() < 1e-15);
        assert_eq!(out.nfe, 1);
        assert!(out.error.is_none());
    }

    #[test]
    fn rk4_one_step_accuracy() {
        let tab = ButcherTableau::rk4();
        let out = rk_step(&tab, &mut decay(), 0.0, 0.1, &vec![1.0], None);
        let exact = (-0.1f64).exp();
        // RK4 local truncation error is O(h^5): ~1e-7 at h = 0.1.
        assert!((out.y_next[0] - exact).abs() < 2e-7);
    }

    #[test]
    fn convergence_orders() {
        // Halving h must reduce the one-step error by ~2^(order+1)
        // (local truncation error is O(h^{p+1})).
        for tab in all_tableaux() {
            let err_at = |h: f64| {
                let out = rk_step(&tab, &mut decay(), 0.0, h, &vec![1.0], None);
                (out.y_next[0] - (-h).exp()).abs()
            };
            let e1 = err_at(0.2);
            let e2 = err_at(0.1);
            if e2 < 1e-13 {
                continue; // high-order methods hit roundoff on this problem
            }
            let observed = (e1 / e2).log2();
            let expected = (tab.order() + 1) as f64;
            assert!(
                observed > expected - 0.7,
                "{}: observed order {observed:.2}, expected ≈{expected}",
                tab.name()
            );
        }
    }

    #[test]
    fn fsal_reuse_saves_one_nfe() {
        let tab = ButcherTableau::rk23_bogacki_shampine();
        let first = rk_step(&tab, &mut decay(), 0.0, 0.1, &vec![1.0], None);
        assert_eq!(first.nfe, 4);
        let k1 = first.stages.last().unwrap().clone();
        let second = rk_step(&tab, &mut decay(), 0.1, 0.1, &first.y_next, Some(k1));
        assert_eq!(second.nfe, 3);
        // Reused k1 must give the same result as computing from scratch.
        let scratch = rk_step(&tab, &mut decay(), 0.1, 0.1, &first.y_next, None);
        assert!((second.y_next[0] - scratch.y_next[0]).abs() < 1e-14);
    }

    #[test]
    fn error_estimate_tracks_true_error() {
        let tab = ButcherTableau::rk23_bogacki_shampine();
        let out = rk_step(&tab, &mut decay(), 0.0, 0.2, &vec![1.0], None);
        let true_err = (out.y_next[0] - (-0.2f64).exp()).abs();
        let est = out.error_norm();
        // Same order of magnitude.
        assert!(
            est > true_err * 0.05 && est < true_err * 50.0,
            "estimate {est} vs true {true_err}"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn nonpositive_stepsize_rejected() {
        let tab = ButcherTableau::euler();
        let _ = rk_step(&tab, &mut decay(), 0.0, 0.0, &vec![1.0], None);
    }
}
