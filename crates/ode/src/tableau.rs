//! Butcher tableaux for explicit Runge–Kutta methods.
//!
//! The paper's reference integrator is RK23 (Fig 2c): four integral states
//! `k1..k4` where the fourth is the FSAL ("first same as last") stage, plus
//! an embedded second-order error estimate `e`. All tableaux here are
//! explicit (strictly lower-triangular `a`).

use std::fmt;

/// An explicit Runge–Kutta method described by its Butcher tableau.
///
/// For `s` stages the method computes integral states
/// `k_i = f(t + c_i·h, y + h·Σ_{j<i} a_{ij}·k_j)` and advances
/// `y_next = y + h·Σ b_i·k_i`. Embedded pairs additionally estimate the
/// local truncation error `e = h·Σ d_i·k_i` from the difference of two
/// orders.
///
/// # Example
///
/// ```
/// use enode_ode::ButcherTableau;
/// let rk23 = ButcherTableau::rk23_bogacki_shampine();
/// assert_eq!(rk23.stages(), 4);
/// assert_eq!(rk23.order(), 3);
/// assert!(rk23.is_adaptive());
/// assert!(rk23.is_fsal());
/// ```
#[derive(Clone, PartialEq)]
pub struct ButcherTableau {
    name: &'static str,
    c: Vec<f64>,
    a: Vec<Vec<f64>>,
    b: Vec<f64>,
    /// Error weights `d = b - b̂`; `e = h·Σ d_i·k_i`.
    err: Option<Vec<f64>>,
    order: u32,
    embedded_order: Option<u32>,
    fsal: bool,
}

impl ButcherTableau {
    /// Builds a tableau from raw coefficients, validating consistency.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are inconsistent, the node condition
    /// `c_i = Σ_j a_{ij}` fails, or `Σ b_i ≠ 1`.
    #[allow(clippy::too_many_arguments)]
    pub fn from_coefficients(
        name: &'static str,
        c: Vec<f64>,
        a: Vec<Vec<f64>>,
        b: Vec<f64>,
        err: Option<Vec<f64>>,
        order: u32,
        embedded_order: Option<u32>,
        fsal: bool,
    ) -> Self {
        let s = b.len();
        assert_eq!(c.len(), s, "c must have one entry per stage");
        assert_eq!(a.len(), s, "a must have one row per stage");
        for (i, row) in a.iter().enumerate() {
            assert_eq!(
                row.len(),
                i,
                "explicit method: row {i} must have {i} entries"
            );
            let row_sum: f64 = row.iter().sum();
            assert!(
                (row_sum - c[i]).abs() < 1e-12,
                "node condition violated at stage {i}: sum(a)={row_sum} c={}",
                c[i]
            );
        }
        let b_sum: f64 = b.iter().sum();
        assert!((b_sum - 1.0).abs() < 1e-12, "consistency: sum(b)={b_sum}");
        if let Some(ref e) = err {
            assert_eq!(e.len(), s, "error weights must have one entry per stage");
            let e_sum: f64 = e.iter().sum();
            assert!(
                e_sum.abs() < 1e-12,
                "error weights must sum to 0, got {e_sum}"
            );
        }
        ButcherTableau {
            name,
            c,
            a,
            b,
            err,
            order,
            embedded_order,
            fsal,
        }
    }

    /// Builds a tableau from raw coefficients WITHOUT validating them.
    ///
    /// This exists for the static-analysis layer (`enode-analysis`), which
    /// needs to represent deliberately inconsistent tableaux so its lint
    /// passes (and their negative tests) can diagnose them instead of
    /// panicking at construction. Everything else should use
    /// [`ButcherTableau::from_coefficients`].
    #[allow(clippy::too_many_arguments)]
    pub fn from_coefficients_unchecked(
        name: &'static str,
        c: Vec<f64>,
        a: Vec<Vec<f64>>,
        b: Vec<f64>,
        err: Option<Vec<f64>>,
        order: u32,
        embedded_order: Option<u32>,
        fsal: bool,
    ) -> Self {
        ButcherTableau {
            name,
            c,
            a,
            b,
            err,
            order,
            embedded_order,
            fsal,
        }
    }

    /// Forward Euler — the integrator a ResNet residual block implements
    /// (paper Fig 1a).
    pub fn euler() -> Self {
        Self::from_coefficients(
            "euler",
            vec![0.0],
            vec![vec![]],
            vec![1.0],
            None,
            1,
            None,
            false,
        )
    }

    /// Explicit midpoint (2nd order).
    pub fn midpoint() -> Self {
        Self::from_coefficients(
            "midpoint",
            vec![0.0, 0.5],
            vec![vec![], vec![0.5]],
            vec![0.0, 1.0],
            None,
            2,
            None,
            false,
        )
    }

    /// Heun's method with an embedded Euler error estimate (2(1) pair).
    pub fn heun_euler() -> Self {
        Self::from_coefficients(
            "heun_euler",
            vec![0.0, 1.0],
            vec![vec![], vec![1.0]],
            vec![0.5, 0.5],
            Some(vec![-0.5, 0.5]),
            2,
            Some(1),
            false,
        )
    }

    /// RK23: the Bogacki–Shampine 3(2) pair — the paper's reference
    /// integrator with integral states `k1..k4` (k4 FSAL) and error state
    /// `e` (Fig 2c).
    pub fn rk23_bogacki_shampine() -> Self {
        let b = [2.0 / 9.0, 1.0 / 3.0, 4.0 / 9.0, 0.0];
        let bhat = [7.0 / 24.0, 0.25, 1.0 / 3.0, 0.125];
        let err: Vec<f64> = b.iter().zip(&bhat).map(|(x, y)| x - y).collect();
        Self::from_coefficients(
            "rk23",
            vec![0.0, 0.5, 0.75, 1.0],
            vec![
                vec![],
                vec![0.5],
                vec![0.0, 0.75],
                vec![2.0 / 9.0, 1.0 / 3.0, 4.0 / 9.0],
            ],
            b.to_vec(),
            Some(err),
            3,
            Some(2),
            true,
        )
    }

    /// The classic fixed-step 4th-order Runge–Kutta method.
    pub fn rk4() -> Self {
        Self::from_coefficients(
            "rk4",
            vec![0.0, 0.5, 0.5, 1.0],
            vec![vec![], vec![0.5], vec![0.0, 0.5], vec![0.0, 0.0, 1.0]],
            vec![1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0],
            None,
            4,
            None,
            false,
        )
    }

    /// RK45: the Runge–Kutta–Fehlberg 5(4) pair.
    pub fn rkf45() -> Self {
        let b5 = [
            16.0 / 135.0,
            0.0,
            6656.0 / 12825.0,
            28561.0 / 56430.0,
            -9.0 / 50.0,
            2.0 / 55.0,
        ];
        let b4 = [
            25.0 / 216.0,
            0.0,
            1408.0 / 2565.0,
            2197.0 / 4104.0,
            -0.2,
            0.0,
        ];
        let err: Vec<f64> = b5.iter().zip(&b4).map(|(x, y)| x - y).collect();
        Self::from_coefficients(
            "rkf45",
            vec![0.0, 0.25, 0.375, 12.0 / 13.0, 1.0, 0.5],
            vec![
                vec![],
                vec![0.25],
                vec![3.0 / 32.0, 9.0 / 32.0],
                vec![1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0],
                vec![439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0],
                vec![
                    -8.0 / 27.0,
                    2.0,
                    -3544.0 / 2565.0,
                    1859.0 / 4104.0,
                    -11.0 / 40.0,
                ],
            ],
            b5.to_vec(),
            Some(err),
            5,
            Some(4),
            false,
        )
    }

    /// Cash–Karp 5(4): the embedded pair of Numerical Recipes' `odeint` —
    /// the solver family the paper's stepsize-search reference \[23\]
    /// describes.
    pub fn cash_karp() -> Self {
        let b5 = [
            37.0 / 378.0,
            0.0,
            250.0 / 621.0,
            125.0 / 594.0,
            0.0,
            512.0 / 1771.0,
        ];
        let b4 = [
            2825.0 / 27648.0,
            0.0,
            18575.0 / 48384.0,
            13525.0 / 55296.0,
            277.0 / 14336.0,
            0.25,
        ];
        let err: Vec<f64> = b5.iter().zip(&b4).map(|(x, y)| x - y).collect();
        Self::from_coefficients(
            "cash_karp",
            vec![0.0, 0.2, 0.3, 0.6, 1.0, 0.875],
            vec![
                vec![],
                vec![0.2],
                vec![3.0 / 40.0, 9.0 / 40.0],
                vec![0.3, -0.9, 1.2],
                vec![-11.0 / 54.0, 2.5, -70.0 / 27.0, 35.0 / 27.0],
                vec![
                    1631.0 / 55296.0,
                    175.0 / 512.0,
                    575.0 / 13824.0,
                    44275.0 / 110592.0,
                    253.0 / 4096.0,
                ],
            ],
            b5.to_vec(),
            Some(err),
            5,
            Some(4),
            false,
        )
    }

    /// DOPRI5: the Dormand–Prince 5(4) pair (FSAL), the default of most
    /// NODE software stacks.
    pub fn dopri5() -> Self {
        let b5 = [
            35.0 / 384.0,
            0.0,
            500.0 / 1113.0,
            125.0 / 192.0,
            -2187.0 / 6784.0,
            11.0 / 84.0,
            0.0,
        ];
        let b4 = [
            5179.0 / 57600.0,
            0.0,
            7571.0 / 16695.0,
            393.0 / 640.0,
            -92097.0 / 339200.0,
            187.0 / 2100.0,
            1.0 / 40.0,
        ];
        let err: Vec<f64> = b5.iter().zip(&b4).map(|(x, y)| x - y).collect();
        Self::from_coefficients(
            "dopri5",
            vec![0.0, 0.2, 0.3, 0.8, 8.0 / 9.0, 1.0, 1.0],
            vec![
                vec![],
                vec![0.2],
                vec![3.0 / 40.0, 9.0 / 40.0],
                vec![44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0],
                vec![
                    19372.0 / 6561.0,
                    -25360.0 / 2187.0,
                    64448.0 / 6561.0,
                    -212.0 / 729.0,
                ],
                vec![
                    9017.0 / 3168.0,
                    -355.0 / 33.0,
                    46732.0 / 5247.0,
                    49.0 / 176.0,
                    -5103.0 / 18656.0,
                ],
                vec![
                    35.0 / 384.0,
                    0.0,
                    500.0 / 1113.0,
                    125.0 / 192.0,
                    -2187.0 / 6784.0,
                    11.0 / 84.0,
                ],
            ],
            b5.to_vec(),
            Some(err),
            5,
            Some(4),
            true,
        )
    }

    /// Method name (e.g. `"rk23"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of stages `s` (integral states per step — the paper's
    /// "s evaluations of f per integration trial").
    pub fn stages(&self) -> usize {
        self.b.len()
    }

    /// Stage times `c`.
    pub fn c(&self) -> &[f64] {
        &self.c
    }

    /// Stage coefficient rows `a` (row `i` has `i` entries).
    pub fn a(&self) -> &[Vec<f64>] {
        &self.a
    }

    /// Solution weights `b`.
    pub fn b(&self) -> &[f64] {
        &self.b
    }

    /// Error weights `d = b − b̂`, when the method has an embedded pair.
    pub fn error_weights(&self) -> Option<&[f64]> {
        self.err.as_deref()
    }

    /// True when the last stage's input row equals the solution weights
    /// exactly (`a_{s−1,j} = b_j` for `j < s−1` and `b_{s−1} = 0`, as `f64`
    /// equality): the last stage input `y + Σ_j (h·a_{s−1,j})·k_j` is then
    /// the candidate `y + Σ_j (h·b_j)·k_j` bit for bit. True for RK23 and
    /// Dopri5; false for Heun–Euler, RKF45, Cash–Karp and the fixed-step
    /// methods.
    pub fn last_stage_input_is_candidate(&self) -> bool {
        match (self.a.last(), self.b.split_last()) {
            (Some(row), Some((&last, rest))) => last == 0.0 && row[..] == *rest,
            _ => false,
        }
    }

    /// Order of the advancing solution.
    pub fn order(&self) -> u32 {
        self.order
    }

    /// Order of the embedded (error-estimating) solution, when present.
    pub fn embedded_order(&self) -> Option<u32> {
        self.embedded_order
    }

    /// The order that drives stepsize scaling: `min(order, embedded) + 1`
    /// is the exponent denominator in the classic controller.
    pub fn error_order(&self) -> u32 {
        self.embedded_order.unwrap_or(self.order.saturating_sub(1))
    }

    /// True when the method carries an embedded error estimate and can be
    /// used with adaptive stepsize search.
    pub fn is_adaptive(&self) -> bool {
        self.err.is_some()
    }

    /// True when the last stage equals `f(t+h, y_next)` and can be reused
    /// as the next step's first stage (saving one `f` evaluation).
    pub fn is_fsal(&self) -> bool {
        self.fsal
    }

    /// `Σ_i |b_i|` — the worst-case amplification the solution combine
    /// `y + h Σ b_i k_i` applies to stage magnitudes (used by the static
    /// FP16 range analysis).
    pub fn abs_b_sum(&self) -> f64 {
        self.b.iter().map(|x| x.abs()).sum()
    }

    /// `Σ_i |d_i|` over the error weights, or `0` for fixed-step methods
    /// — the worst-case magnitude scale of the embedded error estimate.
    pub fn abs_error_weight_sum(&self) -> f64 {
        self.err
            .as_deref()
            .map(|d| d.iter().map(|x| x.abs()).sum())
            .unwrap_or(0.0)
    }

    /// Function evaluations per step, accounting for FSAL reuse on
    /// steady-state accepted steps.
    pub fn nfe_per_step(&self) -> usize {
        if self.fsal {
            self.stages() - 1
        } else {
            self.stages()
        }
    }
}

impl fmt::Debug for ButcherTableau {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ButcherTableau({}, s={}, order={}{})",
            self.name,
            self.stages(),
            self.order,
            match self.embedded_order {
                Some(e) => format!("({e})"),
                None => String::new(),
            }
        )
    }
}

impl fmt::Display for ButcherTableau {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// All built-in tableaux (used by the Fig 14/15 integrator sweeps).
pub fn all_tableaux() -> Vec<ButcherTableau> {
    vec![
        ButcherTableau::euler(),
        ButcherTableau::midpoint(),
        ButcherTableau::heun_euler(),
        ButcherTableau::rk23_bogacki_shampine(),
        ButcherTableau::rk4(),
        ButcherTableau::rkf45(),
        ButcherTableau::cash_karp(),
        ButcherTableau::dopri5(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_tableaux_validate() {
        // from_coefficients panics on inconsistency; constructing is the test.
        let tabs = all_tableaux();
        assert_eq!(tabs.len(), 8);
    }

    #[test]
    fn last_stage_input_is_the_candidate_exactly_for_rk23_and_dopri5() {
        for t in all_tableaux() {
            let want = matches!(t.name(), "rk23" | "dopri5");
            assert_eq!(t.last_stage_input_is_candidate(), want, "{}", t.name());
        }
    }

    #[test]
    fn rk23_is_fsal() {
        let t = ButcherTableau::rk23_bogacki_shampine();
        // FSAL structurally: the last a-row equals b (so k4 = f(t+h, y_next)).
        let last_row = &t.a()[3];
        for (ai, bi) in last_row.iter().zip(t.b()) {
            assert!((ai - bi).abs() < 1e-15);
        }
        assert_eq!(t.nfe_per_step(), 3);
    }

    #[test]
    fn dopri5_is_fsal() {
        let t = ButcherTableau::dopri5();
        let last_row = &t.a()[6];
        for (ai, bi) in last_row.iter().zip(t.b()) {
            assert!((ai - bi).abs() < 1e-15);
        }
    }

    #[test]
    fn orders() {
        assert_eq!(ButcherTableau::euler().order(), 1);
        assert_eq!(ButcherTableau::rk23_bogacki_shampine().error_order(), 2);
        assert_eq!(ButcherTableau::rkf45().error_order(), 4);
        assert_eq!(ButcherTableau::rk4().error_order(), 3);
    }

    #[test]
    fn abs_weight_sums() {
        // rk23's b weights are all nonnegative and sum to 1.
        let t = ButcherTableau::rk23_bogacki_shampine();
        assert!((t.abs_b_sum() - 1.0).abs() < 1e-12);
        // Its error weights d = b - b̂: Σ|d| ≈ |−5/72| + |1/12| + |1/9| + |−1/8|.
        let expected = 5.0 / 72.0 + 1.0 / 12.0 + 1.0 / 9.0 + 1.0 / 8.0;
        assert!((t.abs_error_weight_sum() - expected).abs() < 1e-12);
        // Fixed-step methods have no error estimate to scale.
        assert_eq!(ButcherTableau::rk4().abs_error_weight_sum(), 0.0);
    }

    #[test]
    #[should_panic(expected = "node condition")]
    fn bad_node_condition_rejected() {
        let _ = ButcherTableau::from_coefficients(
            "bad",
            vec![0.0, 0.3],
            vec![vec![], vec![0.5]],
            vec![0.5, 0.5],
            None,
            2,
            None,
            false,
        );
    }

    #[test]
    #[should_panic(expected = "consistency")]
    fn bad_b_sum_rejected() {
        let _ = ButcherTableau::from_coefficients(
            "bad",
            vec![0.0],
            vec![vec![]],
            vec![0.9],
            None,
            1,
            None,
            false,
        );
    }
}
