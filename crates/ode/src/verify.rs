//! Empirical verification utilities for integrators: convergence-order
//! estimation and embedded-error-estimate validation, usable on custom
//! Butcher tableaux.

use crate::solver::solve_fixed;
use crate::state::StateOps;
use crate::step::rk_step;
use crate::tableau::ButcherTableau;

/// Estimates a method's *global* convergence order by Richardson-style
/// step-halving on a reference problem: solves with `n` and `2n` steps and
/// returns `log2(err_n / err_2n)`.
///
/// For a method of order `p` the estimate approaches `p`.
pub fn estimate_global_order<S: StateOps>(
    tableau: &ButcherTableau,
    f: impl FnMut(f64, &S) -> S + Copy,
    y0: S,
    t1: f64,
    exact: &S,
    n: usize,
) -> f64 {
    let err = |steps: usize| {
        let sol = solve_fixed(f, 0.0, t1, y0.clone(), tableau, steps);
        let mut d = sol.final_state().clone();
        d.axpy(-1.0, exact);
        d.norm_l2()
    };
    let e1 = err(n);
    let e2 = err(2 * n);
    (e1 / e2.max(1e-300)).log2()
}

/// Validates the embedded error estimate on one step: returns
/// `(estimated, true_error)` where the true error is measured against a
/// many-step reference with the same method.
pub fn error_estimate_quality<S: StateOps>(
    tableau: &ButcherTableau,
    mut f: impl FnMut(f64, &S) -> S + Copy,
    y0: &S,
    t0: f64,
    h: f64,
) -> (f64, f64) {
    assert!(tableau.is_adaptive(), "needs an embedded pair");
    let out = rk_step(tableau, &mut f, t0, h, y0, None);
    let est = out.error_norm();
    // Reference: 64 sub-steps of the same method.
    let reference = solve_fixed(f, t0, t0 + h, y0.clone(), tableau, 64);
    let mut d = out.y_next;
    d.axpy(-1.0, reference.final_state());
    (est, d.norm_l2())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tableau::all_tableaux;

    /// A closure: the `Vec<f64>` state fixes a `&Vec<f64>` argument, which
    /// `clippy::ptr_arg` rejects on a `fn`.
    fn decay() -> impl Fn(f64, &Vec<f64>) -> Vec<f64> + Copy {
        |_t, y| vec![-y[0]]
    }

    #[test]
    fn every_builtin_meets_its_order() {
        let exact = vec![(-1.0f64).exp()];
        for tab in all_tableaux() {
            let est = estimate_global_order(&tab, decay(), vec![1.0], 1.0, &exact, 16);
            let p = tab.order() as f64;
            // High-order methods bottom out at roundoff on this easy
            // problem; only require they *reach* their order.
            assert!(
                est > p - 0.6,
                "{}: estimated order {est:.2}, claimed {p}",
                tab.name()
            );
        }
    }

    #[test]
    fn error_estimates_track_truth_within_two_decades() {
        for tab in all_tableaux().into_iter().filter(|t| t.is_adaptive()) {
            let (est, truth) = error_estimate_quality(&tab, decay(), &vec![1.0], 0.0, 0.25);
            assert!(est > 0.0);
            if truth > 1e-14 {
                let ratio = est / truth;
                assert!(
                    (0.05..100.0).contains(&ratio),
                    "{}: est {est:.2e} vs true {truth:.2e}",
                    tab.name()
                );
            }
        }
    }

    #[test]
    fn order_estimator_detects_mislabeled_method() {
        // Euler claims order 1; the estimator must NOT credit it with 2.
        let exact = vec![(-1.0f64).exp()];
        let est = estimate_global_order(
            &ButcherTableau::euler(),
            decay(),
            vec![1.0],
            1.0,
            &exact,
            32,
        );
        assert!(est < 1.5, "euler measured order {est:.2}");
    }
}
