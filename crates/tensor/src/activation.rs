//! Elementwise activation functions with forward and backward passes.

use crate::tensor::Tensor;

/// Elementwise activation kinds used by the embedded NNs.
///
/// Image-classification NODEs use [`Activation::Relu`] (with normalization);
/// dynamic-system NODEs use [`Activation::Tanh`], whose smoothness matters
/// for adaptive integrators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Activation {
    /// `max(0, x)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid `1 / (1 + e^-x)`.
    Sigmoid,
    /// Softplus `ln(1 + e^x)` — a smooth ReLU.
    Softplus,
}

impl Activation {
    /// Applies the activation elementwise.
    pub fn forward(self, x: &Tensor) -> Tensor {
        let mut y = x.clone();
        self.apply_slice(y.data_mut());
        y
    }

    /// Applies the activation to a slice in place — the path the fused
    /// conv→GroupNorm→activation epilogues and [`Activation::forward`]
    /// share. Tanh dispatches to an 8-wide AVX transcription of
    /// [`tanh_fast`] (bitwise identical per element, see
    /// `crate::simd`); everything else runs the scalar map.
    pub fn apply_slice(self, xs: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if self == Activation::Tanh && crate::simd::avx() {
            // SAFETY: AVX presence checked at runtime.
            unsafe { tanh_slice_avx(xs) };
            return;
        }
        for v in xs.iter_mut() {
            *v = self.eval(*v);
        }
    }

    /// Scalar evaluation.
    pub fn eval(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => tanh_fast(x),
            Activation::Sigmoid => sigmoid(x),
            Activation::Softplus => {
                // Numerically stable: ln(1+e^x) = max(x,0) + ln(1+e^-|x|).
                x.max(0.0) + (-x.abs()).exp().ln_1p()
            }
        }
    }

    /// Scalar derivative.
    pub fn derivative(self, x: f32) -> f32 {
        match self {
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => {
                // Same kernel as the forward, so σ' is exactly 1 - σ².
                let t = tanh_fast(x);
                1.0 - t * t
            }
            Activation::Sigmoid => {
                let s = sigmoid(x);
                s * (1.0 - s)
            }
            Activation::Softplus => sigmoid(x),
        }
    }

    /// Backward pass: `dx = dy ⊙ σ'(x)` given the cached forward input.
    ///
    /// Every element is `derivative(x) * dy`, bit for bit. Tanh evaluates
    /// `t = tanh_fast(x)` for the whole tensor through [`apply_slice`]
    /// (its AVX body is bitwise equal to the scalar kernel), then
    /// `dx = (1 − t·t)·dy` — the exact operations of
    /// [`Activation::derivative`] followed by the multiply. ReLU selects
    /// `1.0` or `0.0` without a branch and multiplies, so `dy`'s sign of
    /// zero, infinities and NaNs propagate as they do through the scalar
    /// form.
    ///
    /// [`apply_slice`]: Activation::apply_slice
    ///
    /// # Panics
    ///
    /// Panics if `x` and `dy` differ in shape.
    pub fn backward(self, x: &Tensor, dy: &Tensor) -> Tensor {
        match self {
            Activation::Tanh => {
                assert_eq!(x.shape(), dy.shape(), "shape mismatch");
                let mut t = x.clone();
                self.apply_slice(t.data_mut());
                for (tv, &g) in t.data_mut().iter_mut().zip(dy.data()) {
                    *tv = (1.0 - *tv * *tv) * g;
                }
                t
            }
            // A constant variant lets the select inline and vectorize.
            Activation::Relu => x.zip(dy, |xi, g| Activation::Relu.derivative(xi) * g),
            _ => x.zip(dy, |xi, g| self.derivative(xi) * g),
        }
    }
}

/// The logistic sigmoid, exposed because the eNODE slope-adaptive stepsize
/// controller (§VII-A) uses it for its scaling factors β⁺ and β⁻.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

// Coefficients of the rational tanh approximation, shared verbatim by
// the scalar and AVX bodies. The decimal digits are kept exactly as the
// minimax fit published them; rustc rounds each to the nearest f32.
#[allow(clippy::excessive_precision)]
mod tanh_coeffs {
    pub const TANH_CLAMP: f32 = 7.905_311_107_635_498_05;
    pub const TANH_TINY: f32 = 0.0004;
    pub const TANH_ALPHA_1: f32 = 4.893_524_558_917_86e-3;
    pub const TANH_ALPHA_3: f32 = 6.372_619_288_754_36e-4;
    pub const TANH_ALPHA_5: f32 = 1.485_722_357_179_79e-5;
    pub const TANH_ALPHA_7: f32 = 5.122_297_090_371_14e-8;
    pub const TANH_ALPHA_9: f32 = -8.604_671_522_137_35e-11;
    pub const TANH_ALPHA_11: f32 = 2.000_187_904_824_77e-13;
    pub const TANH_ALPHA_13: f32 = -2.760_768_477_423_55e-16;
    pub const TANH_BETA_0: f32 = 4.893_525_185_543_85e-3;
    pub const TANH_BETA_2: f32 = 2.268_434_632_439_0e-3;
    pub const TANH_BETA_4: f32 = 1.185_347_056_866_54e-4;
    pub const TANH_BETA_6: f32 = 1.198_258_394_667_02e-6;
}
use tanh_coeffs::*;

/// Fast hyperbolic tangent: the classic degree-13/6 rational minimax
/// approximation (the same kernel Eigen and XNNPACK ship). Inputs clamp
/// to ±`TANH_CLAMP` where `tanh` saturates in f32; below
/// `TANH_TINY` the identity is already correctly rounded. Maximum
/// deviation from libm `tanhf` is a few float ulps (≲ 3·10⁻⁷ absolute).
///
/// Built from plain mul/add/div/min/max only — no FMA, no table lookups
/// — so the AVX body in [`Activation::apply_slice`] is a lane-for-lane
/// transcription and bitwise identical (see `crate::simd`).
pub fn tanh_fast(x: f32) -> f32 {
    if x.abs() < TANH_TINY {
        return x;
    }
    // min-then-max, NOT `clamp`: NaN propagation must match the AVX
    // `_mm256_max_ps(_mm256_min_ps(..))` chain lane for lane.
    #[allow(clippy::manual_clamp)]
    let xc = x.min(TANH_CLAMP).max(-TANH_CLAMP);
    let x2 = xc * xc;
    let mut p = x2 * TANH_ALPHA_13 + TANH_ALPHA_11;
    p = x2 * p + TANH_ALPHA_9;
    p = x2 * p + TANH_ALPHA_7;
    p = x2 * p + TANH_ALPHA_5;
    p = x2 * p + TANH_ALPHA_3;
    p = x2 * p + TANH_ALPHA_1;
    p *= xc;
    let mut q = x2 * TANH_BETA_6 + TANH_BETA_4;
    q = x2 * q + TANH_BETA_2;
    q = x2 * q + TANH_BETA_0;
    p / q
}

/// 8-wide AVX transcription of [`tanh_fast`]: identical operations in
/// identical order per lane (the tiny-input passthrough becomes a blend),
/// so the results are bitwise equal to the scalar kernel.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn tanh_slice_avx(xs: &mut [f32]) {
    use std::arch::x86_64::*;
    let hi = _mm256_set1_ps(TANH_CLAMP);
    let lo = _mm256_set1_ps(-TANH_CLAMP);
    let tiny = _mm256_set1_ps(TANH_TINY);
    let absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
    let a13 = _mm256_set1_ps(TANH_ALPHA_13);
    let a11 = _mm256_set1_ps(TANH_ALPHA_11);
    let a9 = _mm256_set1_ps(TANH_ALPHA_9);
    let a7 = _mm256_set1_ps(TANH_ALPHA_7);
    let a5 = _mm256_set1_ps(TANH_ALPHA_5);
    let a3 = _mm256_set1_ps(TANH_ALPHA_3);
    let a1 = _mm256_set1_ps(TANH_ALPHA_1);
    let b6 = _mm256_set1_ps(TANH_BETA_6);
    let b4 = _mm256_set1_ps(TANH_BETA_4);
    let b2 = _mm256_set1_ps(TANH_BETA_2);
    let b0 = _mm256_set1_ps(TANH_BETA_0);
    let mut it = xs.chunks_exact_mut(8);
    for ch in &mut it {
        let x = _mm256_loadu_ps(ch.as_ptr());
        let tiny_mask = _mm256_cmp_ps(_mm256_and_ps(x, absmask), tiny, _CMP_LT_OQ);
        let xc = _mm256_max_ps(_mm256_min_ps(x, hi), lo);
        let x2 = _mm256_mul_ps(xc, xc);
        let mut p = _mm256_add_ps(_mm256_mul_ps(x2, a13), a11);
        p = _mm256_add_ps(_mm256_mul_ps(x2, p), a9);
        p = _mm256_add_ps(_mm256_mul_ps(x2, p), a7);
        p = _mm256_add_ps(_mm256_mul_ps(x2, p), a5);
        p = _mm256_add_ps(_mm256_mul_ps(x2, p), a3);
        p = _mm256_add_ps(_mm256_mul_ps(x2, p), a1);
        p = _mm256_mul_ps(p, xc);
        let mut q = _mm256_add_ps(_mm256_mul_ps(x2, b6), b4);
        q = _mm256_add_ps(_mm256_mul_ps(x2, q), b2);
        q = _mm256_add_ps(_mm256_mul_ps(x2, q), b0);
        let r = _mm256_div_ps(p, q);
        _mm256_storeu_ps(ch.as_mut_ptr(), _mm256_blendv_ps(r, x, tiny_mask));
    }
    for v in it.into_remainder() {
        *v = tanh_fast(*v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    #[test]
    fn relu_clamps() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]);
        assert_eq!(Activation::Relu.forward(&x).data(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn sigmoid_symmetry_and_range() {
        for &x in &[-50.0f32, -3.0, 0.0, 1.5, 80.0] {
            let s = sigmoid(x);
            assert!((0.0..=1.0).contains(&s));
            assert!((s + sigmoid(-x) - 1.0).abs() < 1e-6);
        }
        assert_eq!(sigmoid(0.0), 0.5);
    }

    #[test]
    fn derivatives_match_finite_difference() {
        let eps = 1e-3f32;
        for act in [
            Activation::Relu,
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::Softplus,
        ] {
            for &x in &[-2.0f32, -0.5, 0.7, 1.9] {
                let fd = (act.eval(x + eps) - act.eval(x - eps)) / (2.0 * eps);
                let an = act.derivative(x);
                assert!(
                    (fd - an).abs() < 5e-3,
                    "{act:?} at {x}: fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn backward_is_elementwise_chain() {
        // Bitwise: the vectorized paths run `derivative(x) * dy` exactly.
        let x = init::uniform(&[10], -2.0, 2.0, 1);
        let dy = init::uniform(&[10], -1.0, 1.0, 2);
        for act in [Activation::Relu, Activation::Tanh] {
            let dx = act.backward(&x, &dy);
            for i in 0..10 {
                let expect = act.derivative(x.data()[i]) * dy.data()[i];
                assert_eq!(dx.data()[i].to_bits(), expect.to_bits(), "{act:?} [{i}]");
            }
        }
    }

    #[test]
    fn softplus_stable_at_extremes() {
        assert!(Activation::Softplus.eval(100.0).is_finite());
        assert!(Activation::Softplus.eval(-100.0) >= 0.0);
        assert!((Activation::Softplus.eval(100.0) - 100.0).abs() < 1e-4);
    }

    #[test]
    fn tanh_fast_tracks_libm() {
        // Dense sweep across the active region plus the saturated tails:
        // the rational kernel stays within a few float ulps of libm.
        let mut worst = 0.0f32;
        let mut x = -9.0f32;
        while x <= 9.0 {
            let d = (tanh_fast(x) - x.tanh()).abs();
            worst = worst.max(d);
            x += 1e-3;
        }
        assert!(worst < 5e-7, "worst tanh deviation {worst}");
        // Odd symmetry, saturation, and the tiny-input passthrough.
        assert_eq!(tanh_fast(0.0), 0.0);
        assert_eq!(tanh_fast(2e-4), 2e-4);
        assert_eq!(tanh_fast(-0.75), -tanh_fast(0.75));
        assert!(tanh_fast(30.0) > 0.999_999);
        assert!(tanh_fast(-30.0) < -0.999_999);
    }

    #[test]
    fn tanh_slice_dispatch_matches_scalar_bitwise() {
        // Whatever body `apply_slice` picks on this host must agree with
        // the scalar kernel bit-for-bit — including the tiny-input blend,
        // signed zero, the saturated tails, and a non-multiple-of-8 tail.
        let mut vals: Vec<f32> = vec![0.0, -0.0, 3e-4, -3e-4, 5e-4, 8.5, -8.5, 100.0, -100.0];
        let sweep = init::uniform(&[50], -4.0, 4.0, 3);
        vals.extend_from_slice(sweep.data());
        let expect: Vec<f32> = vals.iter().map(|&v| tanh_fast(v)).collect();
        let mut got = vals.clone();
        Activation::Tanh.apply_slice(&mut got);
        for (i, (&e, &g)) in expect.iter().zip(&got).enumerate() {
            assert!(
                e.to_bits() == g.to_bits(),
                "lane {i} (x={}): scalar {e:?} vs dispatched {g:?}",
                vals[i]
            );
        }
    }
}
