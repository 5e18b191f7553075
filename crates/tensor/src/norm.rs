//! Group normalization with forward and backward passes.
//!
//! Neural-ODE embedded networks normalize with GroupNorm rather than
//! BatchNorm because the ODE function `f` must be well-defined for a single
//! state (batch statistics would make `f` depend on the batch). The eNODE
//! NN core's pre-/post-processing unit computes "Norm and ReLU layers"
//! (§VI); this module is that Norm.

use crate::parallel;
use crate::sanitize;
use crate::tensor::Tensor;

/// Per-group normalization statistics cached by the forward pass and
/// consumed by the backward pass.
///
/// The forward pass does **not** materialize the normalized values x̂
/// (which would cost an extra `[N, C, H, W]` allocation plus a full write
/// sweep on the inference-critical path); it caches the two `f64` moments
/// per `(sample, group)` instead, and [`GroupNorm::backward`] recomputes
/// `x̂ = ((x − mean) · inv_std) as f32` on the fly — the identical
/// arithmetic chain the forward pass used, so the recomputed x̂ is
/// bit-for-bit the value the forward pass normalized with.
#[derive(Clone, Debug)]
pub struct GroupNormCache {
    /// Mean per `(sample, group)`, in the `f64` the moments pass computed.
    pub mean: Vec<f64>,
    /// Reciprocal standard deviation per `(sample, group)`, in `f64`.
    pub inv_std: Vec<f64>,
}

impl GroupNormCache {
    /// `(mean, inv_std)` for the flat `(sample, group)` index.
    #[inline]
    pub fn stats(&self, i: usize) -> (f64, f64) {
        (self.mean[i], self.inv_std[i])
    }
}

/// Group normalization over `[N, C, H, W]` tensors.
///
/// Channels are split into `groups` equal groups; each `(sample, group)`
/// slab is normalized to zero mean / unit variance, then scaled and shifted
/// by learned per-channel `gamma` and `beta`.
///
/// # Example
///
/// ```
/// use enode_tensor::{Tensor, norm::GroupNorm};
/// let gn = GroupNorm::new(8, 4);
/// let x = Tensor::ones(&[1, 8, 4, 4]);
/// let (y, _cache) = gn.forward(&x);
/// assert_eq!(y.shape(), x.shape());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct GroupNorm {
    gamma: Tensor,
    beta: Tensor,
    channels: usize,
    groups: usize,
    eps: f32,
}

impl GroupNorm {
    /// Creates a GroupNorm with unit gamma and zero beta.
    ///
    /// # Panics
    ///
    /// Panics if `groups` does not divide `channels`.
    pub fn new(channels: usize, groups: usize) -> Self {
        assert!(
            groups > 0 && channels.is_multiple_of(groups),
            "groups must divide channels"
        );
        GroupNorm {
            gamma: Tensor::ones(&[channels]),
            beta: Tensor::zeros(&[channels]),
            channels,
            groups,
            eps: 1e-5,
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Group count.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// The scale parameter `[C]`.
    pub fn gamma(&self) -> &Tensor {
        &self.gamma
    }

    /// The shift parameter `[C]`.
    pub fn beta(&self) -> &Tensor {
        &self.beta
    }

    /// Mutable scale (optimizer updates).
    pub fn gamma_mut(&mut self) -> &mut Tensor {
        &mut self.gamma
    }

    /// Mutable shift.
    pub fn beta_mut(&mut self) -> &mut Tensor {
        &mut self.beta
    }

    /// Simultaneous mutable access to gamma and beta (split borrow).
    pub fn params_mut(&mut self) -> (&mut Tensor, &mut Tensor) {
        (&mut self.gamma, &mut self.beta)
    }

    /// Structural preflight mirroring the hardware-config pattern
    /// ([`validate`-behind-`debug_assert!`]): the grouping invariant the
    /// constructor establishes must still hold when a kernel consumes it.
    /// Both passes call this behind `debug_assert!`, so a corrupted or
    /// hand-rolled layer fails fast in debug builds instead of slicing
    /// channel slabs with a bogus group width.
    fn preflight_groups(&self) -> Result<(), String> {
        if self.groups == 0 || !self.channels.is_multiple_of(self.groups) {
            return Err(format!(
                "GroupNorm preflight: groups ({}) must divide channels ({})",
                self.groups, self.channels
            ));
        }
        Ok(())
    }

    /// Forward pass; returns the output and the cache needed by
    /// [`GroupNorm::backward`].
    ///
    /// # Panics
    ///
    /// Panics if the input channel count does not match.
    pub fn forward(&self, x: &Tensor) -> (Tensor, GroupNormCache) {
        let mut y = Tensor::zeros_like(x);
        let cache = self.forward_into(x, y.data_mut());
        (y, cache)
    }

    /// [`GroupNorm::forward`] writing the output into `ydata` (every
    /// element overwritten, so it may hold stale scratch); returns the
    /// cache.
    ///
    /// # Panics
    ///
    /// Panics if the input channel count does not match or `ydata` is not
    /// as long as `x`.
    pub(crate) fn forward_into(&self, x: &Tensor, ydata: &mut [f32]) -> GroupNormCache {
        let _kernel = sanitize::kernel_scope("groupnorm.forward");
        debug_assert!(
            self.preflight_groups().is_ok(),
            "{}",
            self.preflight_groups().unwrap_err()
        );
        let (n, c, h, w) = x.shape_obj().nchw();
        assert_eq!(c, self.channels, "channel mismatch");
        let cg = c / self.groups;
        let hw = h * w;
        let group_len = cg * hw;
        let groups = self.groups;
        let xdata = x.data();
        let gdata = self.gamma.data();
        let bdata = self.beta.data();
        assert_eq!(ydata.len(), x.len(), "output must match the input");
        let mut mean = vec![0.0f64; n * groups];
        let mut inv_std = vec![0.0f64; n * groups];
        // Samples are independent (GroupNorm statistics never cross the
        // batch), so split the batch; per-sample arithmetic is the serial
        // loop verbatim — bit-identical for any thread count. Tiny inputs
        // run serial automatically via the work-size floor (this kernel
        // measured 0.61× under 4 threads at the bench shape before the
        // floor existed).
        let grain = parallel::grain_for_sized(n, 4 * c * hw);
        parallel::parallel_for_disjoint3(
            ydata,
            &mut mean,
            &mut inv_std,
            n,
            grain,
            |range, y_slab, mean_slab, istd_slab| {
                for (local, ni) in range.enumerate() {
                    let xs = &xdata[ni * c * hw..(ni + 1) * c * hw];
                    let ys = &mut y_slab[local * c * hw..(local + 1) * c * hw];
                    for g in 0..groups {
                        let slab = &xs[g * group_len..(g + 1) * group_len];
                        let (m, istd) = group_moments(slab, self.eps);
                        mean_slab[local * groups + g] = m;
                        istd_slab[local * groups + g] = istd;
                        // Fused normalize + affine epilogue: one pass over x
                        // writes y directly; x̂ is never materialized (the
                        // backward pass recomputes it from x and the cached
                        // moments with the identical arithmetic chain).
                        for ci in g * cg..(g + 1) * cg {
                            normalize_row(
                                &xs[ci * hw..(ci + 1) * hw],
                                &mut ys[ci * hw..(ci + 1) * hw],
                                gdata[ci],
                                bdata[ci],
                                m,
                                istd,
                            );
                        }
                    }
                }
            },
        );
        GroupNormCache { mean, inv_std }
    }

    /// Normalizes one sample's `[C, H·W]` slab from `src` into `dst`,
    /// applying the affine parameters and an optional fused activation —
    /// the epilogue of [`crate::conv::Conv2d::forward_fused`]. Shares
    /// [`group_moments`] and the normalize arithmetic with
    /// [`GroupNorm::forward`], so for identical input slabs the two paths
    /// produce bit-identical values (before the activation).
    pub(crate) fn normalize_into(
        &self,
        src: &[f32],
        dst: &mut [f32],
        hw: usize,
        act: Option<crate::activation::Activation>,
    ) {
        let c = self.channels;
        debug_assert_eq!(src.len(), c * hw, "src must be [C, H·W]");
        debug_assert_eq!(dst.len(), c * hw, "dst must be [C, H·W]");
        let cg = c / self.groups;
        let group_len = cg * hw;
        let gdata = self.gamma.data();
        let bdata = self.beta.data();
        for g in 0..self.groups {
            let slab = &src[g * group_len..(g + 1) * group_len];
            let (mean, istd) = group_moments(slab, self.eps);
            for ci in g * cg..(g + 1) * cg {
                normalize_row(
                    &src[ci * hw..(ci + 1) * hw],
                    &mut dst[ci * hw..(ci + 1) * hw],
                    gdata[ci],
                    bdata[ci],
                    mean,
                    istd,
                );
            }
        }
        // The activation epilogue runs as a second sweep over the finished
        // slab. Each element's value chain is unchanged versus evaluating
        // inline (`act.eval` and `apply_slice` share one scalar kernel), and
        // the slice form picks up the vectorized tanh path.
        if let Some(a) = act {
            a.apply_slice(dst);
        }
    }

    /// Backward pass: returns `(dx, dgamma, dbeta)`.
    ///
    /// Takes the forward input `x` alongside the cache: the forward pass
    /// caches only the per-group `f64` moments, and this pass recomputes
    /// `x̂ = ((x − mean) · inv_std) as f32` once per sample into arena
    /// scratch — the identical chain the forward normalization used, so
    /// every x̂ consumed here is bit-for-bit the forward value.
    ///
    /// Per sample, one sweep then advances every reduction chain of a
    /// block of up to two groups together: the `f32` `dγ`/`dβ` chain of
    /// each channel (over its pixels in order, from `+0.0`) and the `f64`
    /// `Σ dx̂` and `Σ dx̂·x̂` chains of each group (over its channels, then
    /// pixels, in order), with `dx̂ = dy·γ`. Interleaving independent
    /// chains hides the add latency without reordering any chain. The
    /// final `dx = istd·(dx̂ − mean(dx̂) − x̂·mean(dx̂·x̂))` and the x̂ pass
    /// are elementwise and run 4-wide `f64` AVX bodies that transcribe the
    /// scalar expression lane for lane (see `crate::simd`). Every output is
    /// bitwise equal to the three-sweep loop that recomputes x̂ per sweep
    /// and runs one chain at a time.
    ///
    /// Parallel across samples. `dx` is disjoint per sample; the
    /// `dgamma`/`dbeta` batch reductions combine per-sample partials in
    /// sample order (a fixed tree), so the result is bit-identical to the
    /// serial pass for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `x` and `dy` have different shapes.
    pub fn backward(
        &self,
        x: &Tensor,
        cache: &GroupNormCache,
        dy: &Tensor,
    ) -> (Tensor, Tensor, Tensor) {
        let _kernel = sanitize::kernel_scope("groupnorm.backward");
        debug_assert!(
            self.preflight_groups().is_ok(),
            "{}",
            self.preflight_groups().unwrap_err()
        );
        let (n, c, h, w) = dy.shape_obj().nchw();
        assert_eq!(x.shape(), dy.shape(), "x/dy shape mismatch");
        assert_eq!(c, self.channels, "channel mismatch");
        let cg = c / self.groups;
        let hw = h * w;
        let slab_len = cg * hw;
        let group_len = slab_len as f32 as f64;
        let groups = self.groups;
        let dydata = dy.data();
        let xdata = x.data();
        let gdata = self.gamma.data();
        let mut dgamma = Tensor::zeros(&[c]);
        let mut dbeta = Tensor::zeros(&[c]);
        let mut dx = Tensor::zeros_like(dy);
        // One sample: x̂ into `xhat`, then per block of two groups (the last
        // may hold one) the interleaved reduction sweep and the dx rows.
        let sample_grad = |ni: usize, xhat: &mut [f32], dxs: &mut [f32], part: &mut [f32]| {
            let sample = ni * c * hw..(ni + 1) * c * hw;
            let (dys, xs) = (&dydata[sample.clone()], &xdata[sample]);
            let (dgp, dbp) = part.split_at_mut(c);
            let stats = |g: usize| cache.stats(ni * groups + g);
            for g in 0..groups {
                let (mean, istd) = stats(g);
                let slab = g * slab_len..(g + 1) * slab_len;
                xhat_row(&xs[slab.clone()], &mut xhat[slab], mean, istd);
            }
            for g0 in (0..groups).step_by(2) {
                let g1 = groups.min(g0 + 2);
                let (chans, elems) = (g0 * cg..g1 * cg, g0 * slab_len..g1 * slab_len);
                let (dyb, xhb, gmb) = (&dys[elems.clone()], &xhat[elems], &gdata[chans.clone()]);
                let (dgb, dbb) = (&mut dgp[chans.clone()], &mut dbp[chans]);
                let mut sums = [(0.0, 0.0); 2];
                if g1 - g0 == 2 {
                    sums = group_sums::<2>(dyb, xhb, gmb, hw, dgb, dbb);
                } else {
                    [sums[0]] = group_sums::<1>(dyb, xhb, gmb, hw, dgb, dbb);
                }
                for (g, (s, sx)) in (g0..g1).zip(sums) {
                    let istd = stats(g).1 as f32 as f64;
                    let (md, mdx) = (s / group_len, sx / group_len);
                    for (j, &gm) in gdata[g * cg..(g + 1) * cg].iter().enumerate() {
                        let row = (g * cg + j) * hw..(g * cg + j + 1) * hw;
                        let (dyr, xhr) = (&dys[row.clone()], &xhat[row.clone()]);
                        dx_row(dyr, xhr, &mut dxs[row], gm as f64, md, mdx, istd);
                    }
                }
            }
        };
        let grain = parallel::grain_for(8 * c * hw);
        // Per-sample partial (dgamma, dbeta) rows, combined serially below.
        parallel::with_scratch_f32(n * 2 * c, |partials| {
            parallel::parallel_for_disjoint2(
                dx.data_mut(),
                partials,
                n,
                grain,
                |range, dx_slab, part_slab| {
                    parallel::with_scratch_f32(c * hw, |xhat| {
                        for (local, ni) in range.enumerate() {
                            sample_grad(
                                ni,
                                xhat,
                                &mut dx_slab[local * c * hw..(local + 1) * c * hw],
                                &mut part_slab[local * 2 * c..(local + 1) * 2 * c],
                            );
                        }
                    });
                },
            );
            for ni in 0..n {
                let part = &partials[ni * 2 * c..(ni + 1) * 2 * c];
                for (v, &p) in dgamma.data_mut().iter_mut().zip(&part[..c]) {
                    *v += p;
                }
                for (v, &p) in dbeta.data_mut().iter_mut().zip(&part[c..]) {
                    *v += p;
                }
            }
        });
        (dx, dgamma, dbeta)
    }
}

/// Per-(sample, group) moments: 16-lane f64 sums with a fixed fold order
/// plus a serial tail. Sixteen lanes give the AVX body four *independent*
/// 4-wide `vaddpd` chains — a single vector accumulator is bound by the
/// 4-cycle add latency, exactly the way the old serial-chain scalar
/// version was — while the result stays a pure function of the slab
/// contents: thread-count and caller invariant, which is what makes the
/// fused conv epilogue bit-identical to the standalone forward pass.
///
/// The fold runs lanes `[0..4)+[4..8)` and `[8..12)+[12..16)` per-lane
/// first (the vector adds), then the scalar fold `(t₀+t₁)+(t₂+t₃)`; the
/// portable body spells out the identical order, so the two bodies agree
/// bitwise. Returns `(mean, inv_std)` for the given `eps`.
fn group_moments(slab: &[f32], eps: f32) -> (f64, f64) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx() {
        // SAFETY: AVX support verified at runtime by the dispatcher.
        return unsafe { group_moments_avx(slab, eps) };
    }
    group_moments_portable(slab, eps)
}

fn group_moments_portable(slab: &[f32], eps: f32) -> (f64, f64) {
    let mut s = [0.0f64; 16];
    let mut ss = [0.0f64; 16];
    let mut it = slab.chunks_exact(16);
    for ch in it.by_ref() {
        for lane in 0..16 {
            let v = ch[lane] as f64;
            s[lane] += v;
            ss[lane] += v * v;
        }
    }
    let fold = |a: &[f64; 16]| {
        let t = |l: usize| (a[l] + a[4 + l]) + (a[8 + l] + a[12 + l]);
        (t(0) + t(1)) + (t(2) + t(3))
    };
    let mut sum = fold(&s);
    let mut sumsq = fold(&ss);
    for &v in it.remainder() {
        let v = v as f64;
        sum += v;
        sumsq += v * v;
    }
    moments_from_sums(sum, sumsq, slab.len(), eps)
}

/// Vector transcription of [`group_moments_portable`]: four `__m256d`
/// sum / sum-of-squares accumulator pairs covering lanes `[0..16)`,
/// per-lane adds (no FMA — `mul` then `add`, matching the portable
/// `v * v` then `+=`), then the identical fold and scalar tail.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn group_moments_avx(slab: &[f32], eps: f32) -> (f64, f64) {
    use core::arch::x86_64::*;
    let mut s0 = _mm256_setzero_pd();
    let mut s1 = _mm256_setzero_pd();
    let mut s2 = _mm256_setzero_pd();
    let mut s3 = _mm256_setzero_pd();
    let mut ss0 = _mm256_setzero_pd();
    let mut ss1 = _mm256_setzero_pd();
    let mut ss2 = _mm256_setzero_pd();
    let mut ss3 = _mm256_setzero_pd();
    let chunks = slab.len() / 16;
    let p = slab.as_ptr();
    for i in 0..chunks {
        let v0 = _mm256_cvtps_pd(_mm_loadu_ps(p.add(i * 16)));
        let v1 = _mm256_cvtps_pd(_mm_loadu_ps(p.add(i * 16 + 4)));
        let v2 = _mm256_cvtps_pd(_mm_loadu_ps(p.add(i * 16 + 8)));
        let v3 = _mm256_cvtps_pd(_mm_loadu_ps(p.add(i * 16 + 12)));
        s0 = _mm256_add_pd(s0, v0);
        s1 = _mm256_add_pd(s1, v1);
        s2 = _mm256_add_pd(s2, v2);
        s3 = _mm256_add_pd(s3, v3);
        ss0 = _mm256_add_pd(ss0, _mm256_mul_pd(v0, v0));
        ss1 = _mm256_add_pd(ss1, _mm256_mul_pd(v1, v1));
        ss2 = _mm256_add_pd(ss2, _mm256_mul_pd(v2, v2));
        ss3 = _mm256_add_pd(ss3, _mm256_mul_pd(v3, v3));
    }
    // Per-lane fold [0..4)+[4..8) and [8..12)+[12..16), then scalar.
    let mut t = [0.0f64; 4];
    let mut tt = [0.0f64; 4];
    _mm256_storeu_pd(
        t.as_mut_ptr(),
        _mm256_add_pd(_mm256_add_pd(s0, s1), _mm256_add_pd(s2, s3)),
    );
    _mm256_storeu_pd(
        tt.as_mut_ptr(),
        _mm256_add_pd(_mm256_add_pd(ss0, ss1), _mm256_add_pd(ss2, ss3)),
    );
    let mut sum = (t[0] + t[1]) + (t[2] + t[3]);
    let mut sumsq = (tt[0] + tt[1]) + (tt[2] + tt[3]);
    for &v in &slab[chunks * 16..] {
        let v = v as f64;
        sum += v;
        sumsq += v * v;
    }
    moments_from_sums(sum, sumsq, slab.len(), eps)
}

#[inline]
fn moments_from_sums(sum: f64, sumsq: f64, len: usize, eps: f32) -> (f64, f64) {
    let len = len as f64;
    let mean = sum / len;
    let var = (sumsq / len - mean * mean).max(0.0);
    (mean, 1.0 / (var + eps as f64).sqrt())
}

/// Normalize + affine over one channel row: per element
/// `x̂ = ((x − mean) · istd)` in `f64` rounded to `f32`, then
/// `y = γ·x̂ + β` in `f32`. The AVX body is a lane-for-lane transcription
/// (widen, subtract, multiply, round back, multiply, add — `vcvtpd2ps`
/// rounds to nearest-even exactly like `as f32`), so both bodies agree
/// bitwise.
///
/// # Panics
///
/// Panics if `xs` and `ys` differ in length, in every build: the AVX
/// body's pointer walk relies on it.
fn normalize_row(xs: &[f32], ys: &mut [f32], gm: f32, bt: f32, mean: f64, istd: f64) {
    assert_eq!(xs.len(), ys.len(), "normalize row length mismatch");
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx() {
        // SAFETY: AVX support verified at runtime; the rows' equal length
        // is asserted above, so every load and store stays inside them.
        unsafe { normalize_row_avx(xs, ys, gm, bt, mean, istd) };
        return;
    }
    normalize_row_portable(xs, ys, gm, bt, mean, istd);
}

fn normalize_row_portable(xs: &[f32], ys: &mut [f32], gm: f32, bt: f32, mean: f64, istd: f64) {
    for (yv, &v) in ys.iter_mut().zip(xs) {
        let xhval = ((v as f64 - mean) * istd) as f32;
        *yv = gm * xhval + bt;
    }
}

/// AVX body of [`normalize_row`].
///
/// # Safety
///
/// The host must support AVX and `ys` must be as long as `xs`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn normalize_row_avx(xs: &[f32], ys: &mut [f32], gm: f32, bt: f32, mean: f64, istd: f64) {
    use core::arch::x86_64::*;
    let len = xs.len();
    let meanv = _mm256_set1_pd(mean);
    let istdv = _mm256_set1_pd(istd);
    let gmv = _mm256_set1_ps(gm);
    let btv = _mm256_set1_ps(bt);
    let px = xs.as_ptr();
    let py = ys.as_mut_ptr();
    let mut j = 0usize;
    while j + 8 <= len {
        let xh8 = xhat8_avx(px.add(j), meanv, istdv);
        _mm256_storeu_ps(py.add(j), _mm256_add_ps(_mm256_mul_ps(gmv, xh8), btv));
        j += 8;
    }
    normalize_row_portable(&xs[j..], &mut ys[j..], gm, bt, mean, istd);
}

/// `x̂ = ((x − mean) · istd) as f32` for the eight floats at `px`: widen
/// each half to `f64`, subtract, multiply, and round back
/// (`vcvtpd2ps` rounds to nearest-even exactly like `as f32`).
///
/// # Safety
///
/// The host must support AVX and `px` must point at eight readable floats.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx")]
unsafe fn xhat8_avx(
    px: *const f32,
    meanv: std::arch::x86_64::__m256d,
    istdv: std::arch::x86_64::__m256d,
) -> std::arch::x86_64::__m256 {
    use core::arch::x86_64::*;
    let x8 = _mm256_loadu_ps(px);
    let lo = _mm256_cvtps_pd(_mm256_castps256_ps128(x8));
    let hi = _mm256_cvtps_pd(_mm256_extractf128_ps(x8, 1));
    let nlo = _mm256_cvtpd_ps(_mm256_mul_pd(_mm256_sub_pd(lo, meanv), istdv));
    let nhi = _mm256_cvtpd_ps(_mm256_mul_pd(_mm256_sub_pd(hi, meanv), istdv));
    _mm256_insertf128_ps(_mm256_castps128_ps256(nlo), nhi, 1)
}

/// The normalized values alone, `x̂ = ((x − mean) · istd) as f32` per
/// element — the first half of [`normalize_row`], which the backward pass
/// materializes once per sample. The AVX body shares [`xhat8_avx`] with
/// the forward's, so both bodies agree bitwise.
fn xhat_row(xs: &[f32], xh: &mut [f32], mean: f64, istd: f64) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx() {
        // SAFETY: AVX support verified at runtime; the body asserts the
        // two lengths match before its pointer walk.
        unsafe { xhat_row_avx(xs, xh, mean, istd) };
        return;
    }
    xhat_row_portable(xs, xh, mean, istd);
}

fn xhat_row_portable(xs: &[f32], xh: &mut [f32], mean: f64, istd: f64) {
    for (o, &v) in xh.iter_mut().zip(xs) {
        *o = ((v as f64 - mean) * istd) as f32;
    }
}

/// AVX body of [`xhat_row`]: eight elements per step, the tail portable.
///
/// # Safety
///
/// The host must support AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn xhat_row_avx(xs: &[f32], xh: &mut [f32], mean: f64, istd: f64) {
    use core::arch::x86_64::*;
    let len = xs.len();
    assert_eq!(xh.len(), len);
    let meanv = _mm256_set1_pd(mean);
    let istdv = _mm256_set1_pd(istd);
    let mut j = 0usize;
    while j + 8 <= len {
        _mm256_storeu_ps(
            xh.as_mut_ptr().add(j),
            xhat8_avx(xs.as_ptr().add(j), meanv, istdv),
        );
        j += 8;
    }
    xhat_row_portable(&xs[j..], &mut xh[j..], mean, istd);
}

/// The reduction sweep of [`GroupNorm::backward`] over `G` consecutive
/// groups of one sample: `dy`, `xhat` are the groups' `[G·cg, hw]` rows,
/// `gamma`, `dg`, `db` their `G·cg` channels. Writes each channel's `f32`
/// chains `dg = Σ dy·x̂` and `db = Σ dy` (pixels in order, from `+0.0`) and
/// returns each group's `f64` chains `(Σ dx̂, Σ dx̂·x̂)` with `dx̂ = dy·γ`
/// (channels, then pixels, in order, from `+0.0`).
///
/// The loop visits channel `j` of every group at each pixel, so the `4·G`
/// chains of a step are independent and overlap their add latency; each
/// chain still sees its elements in its own serial order.
fn group_sums<const G: usize>(
    dy: &[f32],
    xhat: &[f32],
    gamma: &[f32],
    hw: usize,
    dg: &mut [f32],
    db: &mut [f32],
) -> [(f64, f64); G] {
    let cg = gamma.len() / G;
    assert_eq!(dy.len(), G * cg * hw);
    assert_eq!(xhat.len(), dy.len());
    let mut s = [0.0f64; G];
    let mut sx = [0.0f64; G];
    for j in 0..cg {
        let ch: [usize; G] = std::array::from_fn(|b| b * cg + j);
        let dyr = ch.map(|ci| &dy[ci * hw..(ci + 1) * hw]);
        let xhr = ch.map(|ci| &xhat[ci * hw..(ci + 1) * hw]);
        let gm = ch.map(|ci| gamma[ci] as f64);
        let mut dgc = [0.0f32; G];
        let mut dbc = [0.0f32; G];
        for p in 0..hw {
            for b in 0..G {
                let (gy, xh) = (dyr[b][p], xhr[b][p]);
                dgc[b] += gy * xh;
                dbc[b] += gy;
                let dxh = gy as f64 * gm[b];
                s[b] += dxh;
                sx[b] += dxh * xh as f64;
            }
        }
        for (b, ci) in ch.into_iter().enumerate() {
            dg[ci] = dgc[b];
            db[ci] = dbc[b];
        }
    }
    std::array::from_fn(|b| (s[b], sx[b]))
}

/// Input gradient of one channel row: per element
/// `dx = (istd · (dy·γ − md − x̂·mdx)) as f32` in `f64`, where `md` and
/// `mdx` are the group's `mean(dx̂)` and `mean(dx̂·x̂)` and `istd` is the
/// group's `f64` inverse deviation already rounded through `f32`. The AVX
/// body runs the same widen, mul, sub, sub, mul, round sequence 4-wide.
fn dx_row(dy: &[f32], xhat: &[f32], dx: &mut [f32], gm: f64, md: f64, mdx: f64, istd: f64) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx() {
        // SAFETY: AVX support verified at runtime; the body asserts the
        // three lengths match before its pointer walk.
        unsafe { dx_row_avx(dy, xhat, dx, gm, md, mdx, istd) };
        return;
    }
    dx_row_portable(dy, xhat, dx, gm, md, mdx, istd);
}

fn dx_row_portable(
    dy: &[f32],
    xhat: &[f32],
    dx: &mut [f32],
    gm: f64,
    md: f64,
    mdx: f64,
    istd: f64,
) {
    for ((o, &gy), &xh) in dx.iter_mut().zip(dy).zip(xhat) {
        let dxh = gy as f64 * gm;
        *o = (istd * (dxh - md - xh as f64 * mdx)) as f32;
    }
}

/// AVX body of [`dx_row`]: eight elements per step as two 4-wide `f64`
/// halves, the tail portable.
///
/// # Safety
///
/// The host must support AVX.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn dx_row_avx(
    dy: &[f32],
    xhat: &[f32],
    dx: &mut [f32],
    gm: f64,
    md: f64,
    mdx: f64,
    istd: f64,
) {
    use core::arch::x86_64::*;
    let len = dx.len();
    assert!(dy.len() == len && xhat.len() == len);
    let (gmv, mdv, mdxv, istdv) = (
        _mm256_set1_pd(gm),
        _mm256_set1_pd(md),
        _mm256_set1_pd(mdx),
        _mm256_set1_pd(istd),
    );
    // Four lanes: dy and x̂ widened to f64, then the scalar expression.
    let lanes4 = |gy: __m128, xh: __m128| {
        let dxh = _mm256_mul_pd(_mm256_cvtps_pd(gy), gmv);
        let t = _mm256_sub_pd(
            _mm256_sub_pd(dxh, mdv),
            _mm256_mul_pd(_mm256_cvtps_pd(xh), mdxv),
        );
        _mm256_cvtpd_ps(_mm256_mul_pd(istdv, t))
    };
    let mut j = 0usize;
    while j + 8 <= len {
        let gy = _mm256_loadu_ps(dy.as_ptr().add(j));
        let xh = _mm256_loadu_ps(xhat.as_ptr().add(j));
        let lo = lanes4(_mm256_castps256_ps128(gy), _mm256_castps256_ps128(xh));
        let hi = lanes4(_mm256_extractf128_ps(gy, 1), _mm256_extractf128_ps(xh, 1));
        _mm256_storeu_ps(
            dx.as_mut_ptr().add(j),
            _mm256_insertf128_ps(_mm256_castps128_ps256(lo), hi, 1),
        );
        j += 8;
    }
    dx_row_portable(&dy[j..], &xhat[j..], &mut dx[j..], gm, md, mdx, istd);
}

// ---------------------------------------------------------------------------
// Kernel-split summaries (one per `parallel_for_disjoint*` call above)
// ---------------------------------------------------------------------------

use crate::access::{KernelAccessSummary, RegionDecl};

/// Access summary of the batch split in [`GroupNorm::forward`]: item
/// `ni` writes its own stride of `y`, `mean`, and `inv_std` (a
/// `parallel_for_disjoint3`; x̂ is never materialized; the moments are
/// `f64`) and reads `x[ni, :, :, :]`; the affine parameters are resident
/// broadcast reads.
pub fn forward_access(n: usize, c: usize, groups: usize, hw: usize) -> KernelAccessSummary {
    KernelAccessSummary {
        kernel: "groupnorm.forward",
        items: n,
        grain: parallel::grain_for_sized(n, 4 * c * hw),
        flops_per_item: 4 * c * hw,
        regions: vec![
            RegionDecl::output("y", n * c * hw),
            RegionDecl::output("mean", n * groups).with_elem_bytes(8),
            RegionDecl::output("inv_std", n * groups).with_elem_bytes(8),
            RegionDecl::input("x", n * c * hw),
            RegionDecl::input("gamma", c),
            RegionDecl::input("beta", c),
        ],
    }
}

/// Access summary of the batch split in [`GroupNorm::backward`]: item
/// `ni` writes its stride of `dx` and its `(dgamma, dbeta)` partial row
/// (a `parallel_for_disjoint2` whose second buffer is the scratch
/// partials arena, folded serially in sample order after the join). x̂ is
/// recomputed from `x` and the cached per-group moments into a per-lane
/// `[C, H·W]` arena, one sample at a time.
pub fn backward_access(n: usize, c: usize, groups: usize, hw: usize) -> KernelAccessSummary {
    KernelAccessSummary {
        kernel: "groupnorm.backward",
        items: n,
        grain: parallel::grain_for(8 * c * hw),
        flops_per_item: 8 * c * hw,
        regions: vec![
            RegionDecl::output("dx", n * c * hw),
            RegionDecl::partials("partials", n * 2 * c),
            RegionDecl::input("dy", n * c * hw),
            RegionDecl::input("x", n * c * hw),
            RegionDecl::input("mean", n * groups).with_elem_bytes(8),
            RegionDecl::input("inv_std", n * groups).with_elem_bytes(8),
            RegionDecl::input("gamma", c),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    #[test]
    #[should_panic(expected = "groups must divide channels")]
    fn constructor_rejects_non_dividing_groups() {
        let _ = GroupNorm::new(7, 2);
    }

    // The kernel-side preflight only exists in debug builds, and only a
    // hand-rolled struct (bypassing `new`) can violate the invariant.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "GroupNorm preflight: groups (2) must divide channels (7)")]
    fn forward_preflight_catches_corrupted_grouping() {
        let gn = GroupNorm {
            gamma: Tensor::ones(&[7]),
            beta: Tensor::zeros(&[7]),
            channels: 7,
            groups: 2,
            eps: 1e-5,
        };
        let x = Tensor::ones(&[1, 7, 2, 2]);
        let _ = gn.forward(&x);
    }

    #[test]
    fn output_is_normalized() {
        let gn = GroupNorm::new(4, 2);
        let x = init::uniform(&[2, 4, 3, 3], -5.0, 5.0, 1);
        let (y, _) = gn.forward(&x);
        // With unit gamma / zero beta, each (sample, group) slab of y has
        // ~zero mean and ~unit variance.
        let (_, c, h, w) = x.shape_obj().nchw();
        let cg = c / 2;
        for ni in 0..2 {
            for g in 0..2 {
                let mut vals = Vec::new();
                for ci in g * cg..(g + 1) * cg {
                    for hi in 0..h {
                        for wi in 0..w {
                            vals.push(y.at4(ni, ci, hi, wi));
                        }
                    }
                }
                let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
                let var: f32 =
                    vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
                assert!(mean.abs() < 1e-4, "mean {mean}");
                assert!((var - 1.0).abs() < 1e-2, "var {var}");
            }
        }
    }

    #[test]
    fn access_summaries_declare_the_cached_moment_width() {
        let gn = GroupNorm::new(4, 2);
        let (_, cache) = gn.forward(&init::uniform(&[2, 4, 3, 3], -1.0, 1.0, 1));
        let width = std::mem::size_of_val(&cache.mean[0]);
        for s in [forward_access(2, 4, 2, 9), backward_access(2, 4, 2, 9)] {
            for name in ["mean", "inv_std"] {
                let r = s.regions.iter().find(|r| r.name == name).unwrap();
                assert_eq!(r.elem_bytes, width, "{}", s.kernel);
            }
        }
    }

    #[test]
    fn gamma_beta_applied() {
        let mut gn = GroupNorm::new(2, 1);
        gn.gamma_mut().data_mut()[0] = 2.0;
        gn.beta_mut().data_mut()[1] = 3.0;
        let x = init::uniform(&[1, 2, 2, 2], -1.0, 1.0, 7);
        let (y, cache) = gn.forward(&x);
        // x̂ is not materialized; recompute it from the cached moments the
        // way the backward pass does.
        let (mean, istd) = cache.stats(0);
        let xhat =
            |ci: usize, hi: usize, wi: usize| ((x.at4(0, ci, hi, wi) as f64 - mean) * istd) as f32;
        for hi in 0..2 {
            for wi in 0..2 {
                assert!((y.at4(0, 0, hi, wi) - 2.0 * xhat(0, hi, wi)).abs() < 1e-6);
                assert!((y.at4(0, 1, hi, wi) - (xhat(1, hi, wi) + 3.0)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let gn = GroupNorm::new(4, 2);
        let mut x = init::uniform(&[1, 4, 2, 2], -1.0, 1.0, 3);
        // Loss: weighted sum with fixed weights so the gradient is nontrivial.
        let wts = init::uniform(&[1, 4, 2, 2], -1.0, 1.0, 4);
        let (_, cache) = gn.forward(&x);
        let (dx, _, _) = gn.backward(&x, &cache, &wts);
        let eps = 1e-3;
        for idx in [0usize, 5, 9, 15] {
            let orig = x.data()[idx];
            x.data_mut()[idx] = orig + eps;
            let lp = gn.forward(&x).0.dot(&wts);
            x.data_mut()[idx] = orig - eps;
            let lm = gn.forward(&x).0.dot(&wts);
            x.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dx.data()[idx]).abs() < 2e-2 * fd.abs().max(1.0),
                "dx[{idx}]: fd {fd} vs analytic {}",
                dx.data()[idx]
            );
        }
    }

    #[test]
    fn param_gradients_match_finite_difference() {
        let mut gn = GroupNorm::new(2, 1);
        let x = init::uniform(&[1, 2, 3, 3], -1.0, 1.0, 5);
        let wts = init::uniform(&[1, 2, 3, 3], -1.0, 1.0, 6);
        let (_, cache) = gn.forward(&x);
        let (_, dgamma, dbeta) = gn.backward(&x, &cache, &wts);
        let eps = 1e-3;
        for ci in 0..2 {
            let orig = gn.gamma().data()[ci];
            gn.gamma_mut().data_mut()[ci] = orig + eps;
            let lp = gn.forward(&x).0.dot(&wts);
            gn.gamma_mut().data_mut()[ci] = orig - eps;
            let lm = gn.forward(&x).0.dot(&wts);
            gn.gamma_mut().data_mut()[ci] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - dgamma.data()[ci]).abs() < 1e-2 * fd.abs().max(1.0));

            let origb = gn.beta().data()[ci];
            gn.beta_mut().data_mut()[ci] = origb + eps;
            let lpb = gn.forward(&x).0.dot(&wts);
            gn.beta_mut().data_mut()[ci] = origb - eps;
            let lmb = gn.forward(&x).0.dot(&wts);
            gn.beta_mut().data_mut()[ci] = origb;
            let fdb = (lpb - lmb) / (2.0 * eps);
            assert!((fdb - dbeta.data()[ci]).abs() < 1e-2 * fdb.abs().max(1.0));
        }
    }

    #[test]
    #[should_panic(expected = "normalize row length mismatch")]
    fn normalize_row_rejects_a_short_output_in_every_build() {
        // A 16-element row into 9 outputs: the AVX body would store its
        // second block past the end.
        let xs = [0.5f32; 16];
        let mut ys = [0.0f32; 9];
        normalize_row(&xs, &mut ys, 1.0, 0.0, 0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn bad_group_count_rejected() {
        let _ = GroupNorm::new(6, 4);
    }

    // The dispatched x̂ and dx rows of the backward pass must agree
    // bitwise with their portable bodies over full 8-lane blocks and ragged
    // tails, including signed zeros, inputs at the mean (x̂ = 0) and a NaN.
    #[test]
    fn backward_rows_dispatch_match_portable_bitwise() {
        for len in [1usize, 3, 8, 15, 16, 64, 67] {
            let mut x = init::uniform(&[len], -3.0, 3.0, 71 + len as u64);
            let mut dy = init::uniform(&[len], -1.0, 1.0, 73 + len as u64);
            for (i, (xv, g)) in x.data_mut().iter_mut().zip(dy.data_mut()).enumerate() {
                match i % 5 {
                    1 => *g = -0.0,
                    2 => *xv = 0.5,
                    3 if i == 13 => *g = f32::NAN,
                    _ => {}
                }
            }
            let (mean, istd) = (0.5, 1.7);
            let mut xh_d = vec![0.0f32; len];
            let mut xh_p = vec![0.0f32; len];
            xhat_row(x.data(), &mut xh_d, mean, istd);
            xhat_row_portable(x.data(), &mut xh_p, mean, istd);
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&xh_d), bits(&xh_p), "x̂ len {len}");
            let (gm, md, mdx, istd32) = (-1.3, 0.021, -0.37, 1.7f32 as f64);
            let mut dx_d = vec![0.0f32; len];
            let mut dx_p = vec![0.0f32; len];
            dx_row(dy.data(), &xh_p, &mut dx_d, gm, md, mdx, istd32);
            dx_row_portable(dy.data(), &xh_p, &mut dx_p, gm, md, mdx, istd32);
            assert_eq!(bits(&dx_d), bits(&dx_p), "dx len {len}");
        }
    }

    // The dispatched (AVX where available) moment and normalize kernels
    // must agree bitwise with their portable bodies — odd lengths exercise
    // the scalar tails.
    #[test]
    fn moments_and_normalize_dispatch_match_portable_bitwise() {
        for len in [1usize, 4, 7, 8, 16, 23, 64, 513] {
            let x = init::uniform(&[len], -3.0, 3.0, 41 + len as u64);
            let xs = x.data();
            let (m_d, i_d) = group_moments(xs, 1e-5);
            let (m_p, i_p) = group_moments_portable(xs, 1e-5);
            assert_eq!(m_d.to_bits(), m_p.to_bits(), "mean differs at len {len}");
            assert_eq!(i_d.to_bits(), i_p.to_bits(), "istd differs at len {len}");
            let mut y_d = vec![0.0f32; len];
            let mut y_p = vec![0.0f32; len];
            normalize_row(xs, &mut y_d, 1.25, -0.5, m_d, i_d);
            normalize_row_portable(xs, &mut y_p, 1.25, -0.5, m_p, i_p);
            for k in 0..len {
                assert_eq!(y_d[k].to_bits(), y_p[k].to_bits(), "y[{k}] len {len}");
            }
        }
    }
}
