//! The state-vector abstraction integrated by the solvers.

use enode_tensor::lincomb::{lincomb, MAX_TERMS};
use enode_tensor::Tensor;

/// Operations a state type must support to be integrated by a Runge–Kutta
/// method: linear combinations and a norm for error control.
///
/// Implemented for `Vec<f64>` (dynamic-system workloads, ground-truth
/// integration) and [`Tensor`] (Neural-ODE feature-map states).
pub trait StateOps: Clone {
    /// A zero state with the same shape as `self`.
    fn zeros_like(&self) -> Self;

    /// `self += k * other`.
    ///
    /// # Panics
    ///
    /// Implementations panic if the shapes differ.
    fn axpy(&mut self, k: f64, other: &Self);

    /// `self *= k`.
    fn scale_mut(&mut self, k: f64);

    /// Euclidean norm over all elements.
    fn norm_l2(&self) -> f64;

    /// Number of scalar elements.
    fn dof(&self) -> usize;

    /// True when every element is finite.
    fn is_finite(&self) -> bool;

    /// Writes the Runge–Kutta linear combination in one pass and returns
    /// true when every element written is finite.
    ///
    /// Over the terms whose coefficient `c_j` is nonzero, in ascending
    /// `j`: `self ← base + Σ_j (h·c_j)·k_j`, or with no base
    /// `self ← k_f·(h·c_f) + Σ_{j>f} (h·c_j)·k_j` from the first such term
    /// (zero when there is none). `coeffs` pairs with the leading `terms`.
    /// Per element this is the chain of a copy of the start followed by
    /// one [`axpy`](StateOps::axpy) per term, bit for bit.
    ///
    /// # Panics
    ///
    /// Implementations panic if the shapes differ or more than
    /// [`MAX_TERMS`] coefficients are nonzero.
    fn lincomb(&mut self, base: Option<&Self>, h: f64, coeffs: &[f64], terms: &[Self]) -> bool;
}

/// The terms of `Σ_j (h·c_j)·k_j` whose coefficient `c_j` is nonzero, in
/// ascending `j`, as `(scale(h·c_j), data(k_j))` in a stack array (no
/// allocation per pass), with their count.
fn nonzero_terms<'a, S, T: Copy + Default>(
    h: f64,
    coeffs: &[f64],
    terms: &'a [S],
    data: impl Fn(&'a S) -> &'a [T],
    scale: impl Fn(f64) -> T,
) -> ([(T, &'a [T]); MAX_TERMS], usize) {
    let mut out = [(T::default(), &[][..]); MAX_TERMS];
    let mut n = 0;
    for (&c, k) in coeffs.iter().zip(terms).filter(|(&c, _)| c != 0.0) {
        assert!(n < MAX_TERMS, "at most {MAX_TERMS} nonzero coefficients");
        out[n] = (scale(h * c), data(k));
        n += 1;
    }
    (out, n)
}

impl StateOps for Vec<f64> {
    fn zeros_like(&self) -> Self {
        vec![0.0; self.len()]
    }

    fn axpy(&mut self, k: f64, other: &Self) {
        assert_eq!(self.len(), other.len(), "state length mismatch");
        for (a, &b) in self.iter_mut().zip(other) {
            *a += k * b;
        }
    }

    fn scale_mut(&mut self, k: f64) {
        for a in self.iter_mut() {
            *a *= k;
        }
    }

    fn norm_l2(&self) -> f64 {
        self.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    fn dof(&self) -> usize {
        self.len()
    }

    fn is_finite(&self) -> bool {
        self.iter().all(|x| x.is_finite())
    }

    fn lincomb(&mut self, base: Option<&Self>, h: f64, coeffs: &[f64], terms: &[Self]) -> bool {
        for k in base.into_iter().chain(terms) {
            assert_eq!(k.len(), self.len(), "state length mismatch");
        }
        let (ts, n) = nonzero_terms(h, coeffs, terms, Vec::as_slice, |c| c);
        let ts = &ts[..n];
        for (i, o) in self.iter_mut().enumerate() {
            let (mut acc, rest) = match (base, ts) {
                (Some(b), _) => (b[i], ts),
                (None, [(c, k), rest @ ..]) => (k[i] * c, rest),
                (None, []) => (0.0, ts),
            };
            for &(c, k) in rest {
                acc += c * k[i];
            }
            *o = acc;
        }
        StateOps::is_finite(self)
    }
}

impl StateOps for Tensor {
    #[inline]
    fn zeros_like(&self) -> Self {
        Tensor::zeros_like(self)
    }

    #[inline]
    fn axpy(&mut self, k: f64, other: &Self) {
        Tensor::axpy(self, k as f32, other);
    }

    #[inline]
    fn scale_mut(&mut self, k: f64) {
        Tensor::scale_mut(self, k as f32);
    }

    #[inline]
    fn norm_l2(&self) -> f64 {
        Tensor::norm_l2(self) as f64
    }

    #[inline]
    fn dof(&self) -> usize {
        self.len()
    }

    #[inline]
    fn is_finite(&self) -> bool {
        Tensor::is_finite(self)
    }

    fn lincomb(&mut self, base: Option<&Self>, h: f64, coeffs: &[f64], terms: &[Self]) -> bool {
        for k in base.into_iter().chain(terms) {
            assert!(k.shape_obj() == self.shape_obj(), "lincomb shape mismatch");
        }
        let (ts, n) = nonzero_terms(h, coeffs, terms, Tensor::data, |c| c as f32);
        lincomb(self.data_mut(), base.map(Tensor::data), &ts[..n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_state_ops() {
        let mut a = vec![1.0, 2.0];
        let b = vec![3.0, 4.0];
        a.axpy(2.0, &b);
        assert_eq!(a, vec![7.0, 10.0]);
        a.scale_mut(0.5);
        assert_eq!(a, vec![3.5, 5.0]);
        assert_eq!(a.dof(), 2);
        assert!(a.is_finite());
    }

    #[test]
    fn tensor_state_ops() {
        let mut a = Tensor::ones(&[2, 2]);
        let b = Tensor::full(&[2, 2], 2.0);
        StateOps::axpy(&mut a, 1.5, &b);
        assert_eq!(a.data(), &[4.0, 4.0, 4.0, 4.0]);
        assert_eq!(StateOps::norm_l2(&a), 8.0);
        assert_eq!(StateOps::dof(&a), 4);
    }

    /// The chain [`StateOps::lincomb`] fuses, as the stepper wrote it
    /// before: a copy of the start, then one `axpy` per nonzero
    /// coefficient in ascending order (with no base, a copy of the first
    /// such term scaled by its coefficient, or zeros).
    fn copy_and_axpy<S: StateOps>(base: Option<&S>, h: f64, coeffs: &[f64], terms: &[S]) -> S {
        let mut nonzero = coeffs.iter().zip(terms).filter(|(&c, _)| c != 0.0);
        let mut out = match base {
            Some(b) => b.clone(),
            None => match nonzero.next() {
                Some((&c, k)) => {
                    let mut out = k.clone();
                    out.scale_mut(h * c);
                    out
                }
                None => return terms[0].zeros_like(),
            },
        };
        for (&c, k) in nonzero {
            out.axpy(h * c, k);
        }
        out
    }

    /// `len` values cycling through ordinary magnitudes, `±0.0`, a
    /// subnormal, a large magnitude and (when `poison`) `±inf` and NaN.
    fn values(len: usize, seed: usize, poison: bool) -> Vec<f64> {
        let special = [0.0, -0.0, 5e-324, -2.5e-310, 3.0e7, -6.5e5];
        (0..len)
            .map(|i| match (i + seed) % 5 {
                1 => special[(i + seed) % special.len()],
                3 if poison => [f64::INFINITY, f64::NAN, f64::NEG_INFINITY][(i + seed) % 3],
                _ => ((i * 37 + seed * 11) % 97) as f64 / 48.0 - 1.0,
            })
            .collect()
    }

    /// Bits with every NaN mapped to one pattern.
    fn bits(v: impl IntoIterator<Item = f64>) -> Vec<u64> {
        v.into_iter()
            .map(|x| if x.is_nan() { f64::NAN } else { x }.to_bits())
            .collect()
    }

    /// Every row shape the stepper passes: each tableau's `a` rows, `b`
    /// and error weights, with a poisoned (`±inf`, NaN) term in each slot
    /// a zero coefficient skips.
    fn check_rows<S: StateOps>(
        make: impl Fn(Vec<f64>) -> S,
        read: impl Fn(&S) -> Vec<f64>,
        len: usize,
    ) {
        let h = 0.0371;
        for tab in crate::tableau::all_tableaux() {
            let mut rows: Vec<&[f64]> = tab.a().iter().map(Vec::as_slice).collect();
            rows.push(tab.b());
            rows.extend(tab.error_weights());
            for coeffs in rows {
                let terms: Vec<S> = (0..tab.stages())
                    .map(|j| {
                        let poison = coeffs.get(j).is_some_and(|&c| c == 0.0);
                        make(values(len, j + 1, poison))
                    })
                    .collect();
                let base = make(values(len, 0, false));
                for base in [Some(&base), None] {
                    let want = copy_and_axpy(base, h, coeffs, &terms);
                    let mut out = make(vec![f64::NAN; len]);
                    let finite = out.lincomb(base, h, coeffs, &terms);
                    let case = format!(
                        "{} {coeffs:?} len {len} base {}",
                        tab.name(),
                        base.is_some()
                    );
                    assert_eq!(bits(read(&out)), bits(read(&want)), "{case}");
                    assert_eq!(finite, want.is_finite(), "{case}");
                }
            }
        }
    }

    #[test]
    fn vec_lincomb_matches_the_copy_and_axpy_chain_bitwise() {
        for len in 1..=20 {
            check_rows(|v| v, |v: &Vec<f64>| v.clone(), len);
        }
    }

    #[test]
    fn tensor_lincomb_matches_the_copy_and_axpy_chain_bitwise() {
        let tensor = |v: Vec<f64>| {
            let n = v.len();
            Tensor::from_vec(v.into_iter().map(|x| x as f32).collect(), &[1, n])
        };
        let read = |t: &Tensor| t.data().iter().map(|&x| f64::from(x)).collect();
        for len in [1, 2, 7, 15, 16, 17, 33, 75, 1024] {
            check_rows(tensor, read, len);
        }
    }

    #[test]
    #[should_panic(expected = "lincomb shape mismatch")]
    fn tensor_lincomb_checks_shapes() {
        let mut out = Tensor::zeros(&[2, 3]);
        let k = Tensor::zeros(&[3, 2]);
        out.lincomb(None, 1.0, &[1.0], &[k]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn vec_shape_checked() {
        let mut a = vec![1.0];
        a.axpy(1.0, &vec![1.0, 2.0]);
    }
}
