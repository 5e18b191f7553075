//! 2-D convolution: forward, input-gradient and weight-gradient passes.
//!
//! These are exactly the three dataflows the unified eNODE NN core executes
//! (§VI): the forward conv broadcasts input-channel packets to the PE array;
//! the backward (adjoint) conv reuses the same PEs with flipped kernels and
//! the channel roles swapped; the weight-gradient pass reuses the same PEs
//! once more.
//!
//! Neural-ODE embedded networks must preserve the state shape, so the
//! convolutions here use stride 1 and "same" zero padding.
//!
//! # Execution
//!
//! All three passes run on the workspace pool ([`crate::parallel`]),
//! splitting across the batch dimension when it is wide enough and across
//! output (forward, weight-grad) or input (input-grad) channels otherwise —
//! the same two axes the eNODE PE array unrolls. All three are direct
//! register-blocked kernels over a zero-padded arena copy of each sample
//! (`pad_sample`), each with an AVX body behind `crate::simd` that
//! transcribes its portable body lane for lane:
//!
//! - forward (`conv_direct_rows`): taps in `(c, kh, kw)` order over the
//!   padded `x`, 8-wide blocks along each output row;
//! - input gradient (`conv_input_grad_rows`): the same walk over the
//!   padded `dy` with the taps flipped and one partial per output
//!   channel, 8-wide blocks along each `dx` row;
//! - weight gradient (`conv_weight_grad_rows`): 8-wide lanes across
//!   output channels over the padded `x` and `dy` transposed to
//!   `[H·W][M rounded up to 8]`, one chain per `(m, tap)` over pixels; at
//!   `M ≤ 4` the batch split packs two samples per vector.
//!
//! Forward and weight-gradient border taps multiply the zeros an im2col
//! lowering would have stored, so those chains are the lowering's exactly.
//! Input-gradient border taps add `0·w`, a bitwise no-op for finite weights
//! on a partial that starts at `+0.0`, so that chain equals the
//! bounds-tested loop nest that skips them.
//!
//! All kernel scratch comes from the per-thread arena
//! ([`crate::parallel::with_scratch_f32`]), so repeated solver
//! evaluations do not touch the allocator. Every decomposition performs
//! the serial arithmetic in the serial order (reductions combine
//! per-sample partials in sample order), so outputs are bit-identical
//! for any thread count (up to the sign of zero; see DESIGN.md §8).

use crate::activation::Activation;
use crate::init;
use crate::norm::GroupNorm;
use crate::parallel;
use crate::sanitize;
use crate::tensor::Tensor;

/// A 2-D convolution layer with "same" zero padding and stride 1.
///
/// Weights are stored `[M, C, K, K]` (output channels, input channels,
/// kernel height, kernel width); bias is `[M]`.
///
/// # Example
///
/// ```
/// use enode_tensor::{Tensor, conv::Conv2d};
/// let conv = Conv2d::new_seeded(3, 8, 3, 42);
/// let x = Tensor::ones(&[2, 3, 6, 6]);
/// let y = conv.forward(&x);
/// assert_eq!(y.shape(), &[2, 8, 6, 6]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Conv2d {
    weight: Tensor,
    bias: Tensor,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
}

impl Conv2d {
    /// Creates a convolution from explicit weights `[M, C, K, K]` and bias
    /// `[M]`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are inconsistent or the kernel size is even
    /// ("same" padding requires an odd kernel).
    pub fn from_parts(weight: Tensor, bias: Tensor) -> Self {
        assert_eq!(weight.shape().len(), 4, "weight must be [M, C, K, K]");
        let (m, c, kh, kw) = weight.shape_obj().nchw();
        assert_eq!(kh, kw, "only square kernels are supported");
        assert_eq!(kh % 2, 1, "\"same\" padding requires an odd kernel size");
        assert_eq!(bias.shape(), &[m], "bias must be [M]");
        Conv2d {
            weight,
            bias,
            in_channels: c,
            out_channels: m,
            kernel: kh,
        }
    }

    /// Creates a convolution with Kaiming-uniform weights from a seed.
    pub fn new_seeded(in_channels: usize, out_channels: usize, kernel: usize, seed: u64) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let weight =
            init::kaiming_uniform(&[out_channels, in_channels, kernel, kernel], fan_in, seed);
        let bias = Tensor::zeros(&[out_channels]);
        Conv2d::from_parts(weight, bias)
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel size (K for a K×K kernel).
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// The weight tensor `[M, C, K, K]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The bias tensor `[M]`.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Mutable access to the weights (for optimizer updates).
    pub fn weight_mut(&mut self) -> &mut Tensor {
        &mut self.weight
    }

    /// Mutable access to the bias.
    pub fn bias_mut(&mut self) -> &mut Tensor {
        &mut self.bias
    }

    /// Simultaneous mutable access to weight and bias (split borrow).
    pub fn params_mut(&mut self) -> (&mut Tensor, &mut Tensor) {
        (&mut self.weight, &mut self.bias)
    }

    /// Number of multiply-accumulate operations in one forward pass over
    /// `[n, C, H, W]` input (used by the hardware cost models).
    pub fn macs(&self, n: usize, h: usize, w: usize) -> u64 {
        n as u64
            * self.out_channels as u64
            * self.in_channels as u64
            * h as u64
            * w as u64
            * (self.kernel * self.kernel) as u64
    }

    /// Forward convolution `y = W * x + b`.
    ///
    /// Uses a direct register-blocked convolution over a zero-padded copy
    /// of each sample (`conv_direct_rows`): the padded plane lives in
    /// per-thread arena scratch and stays L1-resident, so no im2col matrix
    /// is ever materialized. Parallel across the batch — or across output
    /// channels when the batch underfills the pool. Per output element the
    /// accumulation is `bias` then `+= w·x` over taps in `(c, kh, kw)`
    /// order — the exact chain of the im2col + gemm lowering (padding taps
    /// contribute the identical `+ w·0.0` adds), so the result is bitwise
    /// equal to [`crate::matmul::gemm_bias`] over im2col columns and independent
    /// of the split.
    ///
    /// # Panics
    ///
    /// Panics if the input is not `[N, C, H, W]` with `C` matching
    /// [`Conv2d::in_channels`].
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let (n, _, h, w) = x.shape_obj().nchw();
        let mut y = Tensor::zeros(&[n, self.out_channels, h, w]);
        self.forward_into(x.data(), x.shape_obj().nchw(), y.data_mut());
        y
    }

    /// [`Conv2d::forward`] over a row-major `[N, C, H, W]` slice with the
    /// given extents, writing the `[N, M, H, W]` result into `ydata`
    /// (every element overwritten, so it may hold stale scratch).
    ///
    /// # Panics
    ///
    /// Panics if `C` differs from [`Conv2d::in_channels`] or a slice
    /// length does not match its extents.
    pub(crate) fn forward_into(
        &self,
        xdata: &[f32],
        (n, c, h, w): (usize, usize, usize, usize),
        ydata: &mut [f32],
    ) {
        let _kernel = sanitize::kernel_scope("conv2d.forward");
        assert_eq!(c, self.in_channels, "input channel mismatch");
        let k = self.kernel;
        let m = self.out_channels;
        assert_eq!(xdata.len(), n * c * h * w, "input must be [N, C, H, W]");
        assert_eq!(ydata.len(), n * m * h * w, "output must be [N, M, H, W]");
        let ckk = c * k * k;
        let hw = h * w;
        let pad = k / 2;
        let xpad_len = c * (h + 2 * pad) * (w + 2 * pad);
        let wmat = self.weight.data();
        let bias = self.bias.data();
        if n >= parallel::current_threads() || m == 1 {
            // Batch split: each lane pads its own samples into per-thread
            // arena scratch and runs the direct kernel over all output
            // channels.
            parallel::parallel_for_disjoint(ydata, n, 1, |range, slab| {
                parallel::with_scratch_f32(xpad_len, |xpad| {
                    for (local, ni) in range.enumerate() {
                        pad_planes(xdata, (c, h, w), ni, 1, pad, xpad);
                        let ys = &mut slab[local * m * hw..(local + 1) * m * hw];
                        conv_direct_rows(xpad, wmat, bias, 0..m, ys, h, w, c, k);
                    }
                });
            });
        } else {
            // Few samples: pad once per sample, split output channels; the
            // padded plane is a shared read. The split is bit-identical by
            // the kernel's per-element reduction-order contract.
            parallel::with_scratch_f32(xpad_len, |xpad| {
                for ni in 0..n {
                    pad_planes(xdata, (c, h, w), ni, 1, pad, xpad);
                    let xpad_ref: &[f32] = xpad;
                    let ys = &mut ydata[ni * m * hw..(ni + 1) * m * hw];
                    let grain = parallel::grain_for(ckk * hw);
                    parallel::parallel_for_disjoint(ys, m, grain, |rows, yrows| {
                        conv_direct_rows(xpad_ref, wmat, bias, rows, yrows, h, w, c, k);
                    });
                }
            });
        }
    }

    /// Fused conv→GroupNorm→activation forward: one batch-split kernel
    /// whose per-sample pipeline is zero-pad → direct register-blocked
    /// conv into arena scratch → normalize+scale+activate streamed into
    /// the output. The intermediate conv map never round-trips an NCHW
    /// tensor — it lives only in the per-thread arena — which is the
    /// eNODE-style producer/consumer fusion of the NN core's
    /// conv → norm → activation dataflow.
    ///
    /// Bit-compatibility: the result equals the unfused
    /// `act(gn.forward(conv.forward(x)))` composition bit-for-bit, because
    /// each stage runs the identical kernel arithmetic on identical
    /// per-sample inputs (the conv is the same `conv_direct_rows`
    /// kernel, and the normalize epilogue shares `GroupNorm`'s statistics
    /// helper). The batch split is bit-identical across thread counts like
    /// every other kernel here (each sample's chain is serial).
    ///
    /// Tiny batches run serial automatically: the grain comes from
    /// [`parallel::grain_for_sized`], so below the work floor the split
    /// planner collapses to one chunk.
    ///
    /// # Panics
    ///
    /// Panics if the input is not `[N, C, H, W]` with `C` matching
    /// [`Conv2d::in_channels`], or if `gn`'s channel count differs from
    /// [`Conv2d::out_channels`].
    pub fn forward_fused(
        &self,
        x: &Tensor,
        gn: Option<&GroupNorm>,
        act: Option<Activation>,
    ) -> Tensor {
        let (n, _, h, w) = x.shape_obj().nchw();
        let mut y = Tensor::zeros(&[n, self.out_channels, h, w]);
        self.forward_fused_into(x.data(), x.shape_obj().nchw(), gn, act, y.data_mut());
        y
    }

    /// [`Conv2d::forward_fused`] over a row-major `[N, C, H, W]` slice with
    /// the given extents, writing the `[N, M, H, W]` result into `ydata`
    /// (every element overwritten, so it may hold stale scratch).
    ///
    /// # Panics
    ///
    /// As [`Conv2d::forward_fused`], and if a slice length does not match
    /// its extents.
    pub(crate) fn forward_fused_into(
        &self,
        xdata: &[f32],
        (n, c, h, w): (usize, usize, usize, usize),
        gn: Option<&GroupNorm>,
        act: Option<Activation>,
        ydata: &mut [f32],
    ) {
        let _kernel = sanitize::kernel_scope("conv2d.fused_forward");
        assert_eq!(c, self.in_channels, "input channel mismatch");
        let k = self.kernel;
        let m = self.out_channels;
        assert_eq!(xdata.len(), n * c * h * w, "input must be [N, C, H, W]");
        assert_eq!(ydata.len(), n * m * h * w, "output must be [N, M, H, W]");
        if let Some(g) = gn {
            assert_eq!(
                g.channels(),
                m,
                "GroupNorm channels must match conv output channels"
            );
        }
        let hw = h * w;
        let pad = k / 2;
        let xpad_len = c * (h + 2 * pad) * (w + 2 * pad);
        let wmat = self.weight.data();
        let bias = self.bias.data();
        let flops = fused_flops_per_item(c, m, k, hw, gn.is_some(), act.is_some());
        let grain = parallel::grain_for_sized(n, flops);
        parallel::parallel_for_disjoint(ydata, n, grain, |range, slab| {
            parallel::with_scratch_f32(xpad_len, |xpad| {
                for (local, ni) in range.enumerate() {
                    pad_planes(xdata, (c, h, w), ni, 1, pad, xpad);
                    let ys = &mut slab[local * m * hw..(local + 1) * m * hw];
                    match gn {
                        Some(g) => {
                            // The conv output exists only in arena
                            // scratch; the epilogue streams it into `y`.
                            parallel::with_scratch_f32(m * hw, |tmp| {
                                conv_direct_rows(xpad, wmat, bias, 0..m, tmp, h, w, c, k);
                                g.normalize_into(tmp, ys, hw, act);
                            });
                        }
                        None => {
                            conv_direct_rows(xpad, wmat, bias, 0..m, ys, h, w, c, k);
                            if let Some(a) = act {
                                a.apply_slice(ys);
                            }
                        }
                    }
                }
            });
        });
    }

    /// Direct (loop-nest) forward convolution — the verification oracle
    /// for the padded fast path.
    pub fn forward_reference(&self, x: &Tensor) -> Tensor {
        let (n, c, h, w) = x.shape_obj().nchw();
        assert_eq!(c, self.in_channels, "input channel mismatch");
        let k = self.kernel;
        let pad = (k / 2) as isize;
        let m = self.out_channels;
        let mut y = Tensor::zeros(&[n, m, h, w]);
        for ni in 0..n {
            for mi in 0..m {
                let b = self.bias.data()[mi];
                for ci in 0..c {
                    for oh in 0..h {
                        for ow in 0..w {
                            let mut acc = 0.0f32;
                            for kh in 0..k {
                                for kw in 0..k {
                                    let ih = oh as isize + kh as isize - pad;
                                    let iw = ow as isize + kw as isize - pad;
                                    if ih >= 0 && iw >= 0 && (ih as usize) < h && (iw as usize) < w
                                    {
                                        acc += x.at4(ni, ci, ih as usize, iw as usize)
                                            * self.weight.at4(mi, ci, kh, kw);
                                    }
                                }
                            }
                            *y.at4_mut(ni, mi, oh, ow) += acc;
                        }
                    }
                }
                if b != 0.0 {
                    for oh in 0..h {
                        for ow in 0..w {
                            *y.at4_mut(ni, mi, oh, ow) += b;
                        }
                    }
                }
            }
        }
        y
    }

    /// Input gradient: given `dy = ∂L/∂y`, returns `dx = ∂L/∂x`.
    ///
    /// This is convolution in the backward direction — the same pipeline as
    /// [`Conv2d::forward`] with the kernel flipped and input/output channel
    /// roles swapped, matching the eNODE unified core (§VI, Fig 9c): each
    /// sample's `dy` is zero-padded into per-thread arena scratch and a
    /// direct register-blocked kernel (`conv_input_grad_rows`) sweeps the
    /// flipped taps. Parallel across the batch, or across input channels
    /// when the batch underfills the pool.
    ///
    /// Per element the result is `0.0 + part₀ + part₁ + …` over output
    /// channels in ascending order, each `part_m` a chain from `+0.0` of
    /// `dy·w` over the in-bounds taps in `(kh, kw)` order. The kernel also
    /// visits the taps that land on the zero border; they add `0·w`, which
    /// for finite weights is a bitwise no-op (a chain that starts at `+0.0`
    /// can never become `−0.0` under round-to-nearest), so the result is
    /// the bounds-tested loop nest's, bit for bit, for any split.
    pub fn backward_input(&self, dy: &Tensor) -> Tensor {
        let _kernel = sanitize::kernel_scope("conv2d.backward_input");
        let (n, m, h, w) = dy.shape_obj().nchw();
        assert_eq!(m, self.out_channels, "grad channel mismatch");
        let c = self.in_channels;
        let k = self.kernel;
        let hw = h * w;
        let pad = k / 2;
        let dypad_len = padded_plane_len(m, k, h, w);
        let wmat = self.weight.data();
        let mut dx = Tensor::zeros(&[n, c, h, w]);
        let dxdata = dx.data_mut();
        if n >= parallel::current_threads() || c == 1 {
            parallel::parallel_for_disjoint(dxdata, n, 1, |range, slab| {
                parallel::with_scratch_f32(dypad_len, |dypad| {
                    for (local, ni) in range.enumerate() {
                        pad_sample(dy, ni, 1, pad, dypad);
                        let s = &mut slab[local * c * hw..(local + 1) * c * hw];
                        conv_input_grad_rows(dypad, wmat, 0..c, s, h, w, c, m, k);
                    }
                });
            });
        } else {
            // Few samples: pad once per sample, split input channels; the
            // padded `dy` plane is a shared read.
            let grain = parallel::grain_for(m * hw * k * k);
            parallel::with_scratch_f32(dypad_len, |dypad| {
                for ni in 0..n {
                    pad_sample(dy, ni, 1, pad, dypad);
                    let dypad_ref: &[f32] = dypad;
                    let slab = &mut dxdata[ni * c * hw..(ni + 1) * c * hw];
                    parallel::parallel_for_disjoint(slab, c, grain, |crange, cslab| {
                        conv_input_grad_rows(dypad_ref, wmat, crange, cslab, h, w, c, m, k);
                    });
                }
            });
        }
        dx
    }

    /// Weight and bias gradients: given the cached forward input `x` and
    /// `dy = ∂L/∂y`, returns `(dW, db)`.
    ///
    /// Per sample, `x` is zero-padded and `dy` transposed to
    /// `[H·W][M rounded up to 8]` in arena scratch, and a direct kernel
    /// (`conv_weight_grad_rows`) runs 8-wide lanes across output channels:
    /// each lane of tap `q = (c·K + kh)·K + kw` is the chain from `+0.0` of
    /// `dy[m, p]·x_q[p]` over pixels `p` in row-major order, border zeros
    /// included — the im2col lowering's `dW[m, q] = Σ_p dy[m, p]·cols[q, p]`
    /// chain, element for element, without materializing the columns.
    ///
    /// When a sample's channels fill at most half the lanes (`M ≤ 4`), the
    /// batch split packs two samples per vector: lanes are channel-major
    /// (`m0·s0, m0·s1, m1·s0, …`), the pair's `x` is interleaved in one
    /// padded plane so a 64-bit broadcast feeds both halves, and an odd
    /// last sample of a chunk runs alone. Each lane is still one sample's
    /// `(m, tap)` chain in the same order, so packing changes no bit. The
    /// batch reduction combines per-sample partials in sample order (a
    /// fixed tree), so the result does not depend on the thread count.
    pub fn backward_params(&self, x: &Tensor, dy: &Tensor) -> (Tensor, Tensor) {
        let _kernel = sanitize::kernel_scope("conv2d.backward_params");
        let (n, c, h, w) = x.shape_obj().nchw();
        let (n2, m, h2, w2) = dy.shape_obj().nchw();
        assert_eq!((n, h, w), (n2, h2, w2), "x/dy spatial mismatch");
        assert_eq!(c, self.in_channels);
        assert_eq!(m, self.out_channels);
        let k = self.kernel;
        let ckk = c * k * k;
        let hw = h * w;
        let pad = k / 2;
        let xpad_len = padded_plane_len(c, k, h, w);
        let dyt_len = transposed_grad_len(m, h, w);
        let mut dw = Tensor::zeros(&[m, c, k, k]);
        let mut db = Tensor::zeros(&[m]);
        if n >= parallel::current_threads() || m == 1 {
            // Batch split: per-sample partial (dW, db) buffers, combined
            // serially in sample order below.
            let psize = m * ckk + m;
            let spv = grad_samples_per_vector(m);
            parallel::with_scratch_f32(n * psize, |partials| {
                parallel::parallel_for_disjoint(partials, n, 1, |range, slab| {
                    parallel::with_scratch_f32(spv * xpad_len, |xpad| {
                        parallel::with_scratch_f32(dyt_len, |dyt| {
                            let chunks = slab.chunks_mut(spv * psize);
                            for (ni, parts) in range.step_by(spv).zip(chunks) {
                                if parts.len() == 2 * psize {
                                    self.param_partials::<2>(x, dy, ni, parts, xpad, dyt);
                                } else {
                                    self.param_partials::<1>(x, dy, ni, parts, xpad, dyt);
                                }
                            }
                        });
                    });
                });
                let dwd = dw.data_mut();
                for ni in 0..n {
                    let part = &partials[ni * psize..(ni + 1) * psize];
                    for (v, &p) in dwd.iter_mut().zip(&part[..m * ckk]) {
                        *v += p;
                    }
                    for (v, &p) in db.data_mut().iter_mut().zip(&part[m * ckk..]) {
                        *v += p;
                    }
                }
            });
        } else {
            // Few samples: pad and transpose once per sample, split output
            // rows (dW rows and db entries are disjoint per output channel);
            // both planes are shared reads.
            let grain = parallel::grain_for(ckk * hw);
            parallel::with_scratch_f32(xpad_len, |xpad| {
                parallel::with_scratch_f32(dyt_len, |dyt| {
                    for ni in 0..n {
                        pad_sample(x, ni, 1, pad, xpad);
                        transpose_sample(dy, ni, 1, dyt);
                        let (xpad_ref, dyt_ref): (&[f32], &[f32]) = (xpad, dyt);
                        parallel::parallel_for_disjoint2(
                            dw.data_mut(),
                            db.data_mut(),
                            m,
                            grain,
                            |mrange, dwrows, dbrows| {
                                conv_weight_grad_rows::<1>(
                                    xpad_ref,
                                    dyt_ref,
                                    mrange,
                                    [dwrows],
                                    [dbrows],
                                    h,
                                    w,
                                    c,
                                    m,
                                    k,
                                );
                            },
                        );
                    }
                });
            });
        }
        (dw, db)
    }

    /// The batch split's per-sample step of [`Conv2d::backward_params`]
    /// for `S` samples `ni..ni + S` sharing one vector: pads and transposes
    /// them into the front of `xpad` and `dyt`, and writes their `(dW, db)`
    /// partials into `parts`, `S` consecutive `[dW | db]` rows.
    fn param_partials<const S: usize>(
        &self,
        x: &Tensor,
        dy: &Tensor,
        ni: usize,
        parts: &mut [f32],
        xpad: &mut [f32],
        dyt: &mut [f32],
    ) {
        let (_, c, h, w) = x.shape_obj().nchw();
        let (m, k) = (self.out_channels, self.kernel);
        let xpad = &mut xpad[..S * padded_plane_len(c, k, h, w)];
        let dyt = &mut dyt[..h * w * grad_row_len(m, S)];
        pad_sample(x, ni, S, k / 2, xpad);
        transpose_sample(dy, ni, S, dyt);
        parts.fill(0.0);
        let mut dwrows: [&mut [f32]; S] = std::array::from_fn(|_| &mut [][..]);
        let mut dbrows: [&mut [f32]; S] = std::array::from_fn(|_| &mut [][..]);
        for (s, part) in parts.chunks_exact_mut(m * c * k * k + m).enumerate() {
            (dwrows[s], dbrows[s]) = part.split_at_mut(m * c * k * k);
        }
        conv_weight_grad_rows::<S>(xpad, dyt, 0..m, dwrows, dbrows, h, w, c, m, k);
    }
}

/// Unfolds sample `ni` of `x` into the `[C·K·K, H·W]` column matrix with
/// "same" zero padding (row `q = (c·K + kh)·K + kw`) — the lowering the
/// direct forward kernel is tested against.
#[cfg(test)]
fn im2col(x: &Tensor, ni: usize, k: usize, cols: &mut [f32]) {
    let (_, c, h, w) = x.shape_obj().nchw();
    let pad = (k / 2) as isize;
    let hw = h * w;
    debug_assert_eq!(cols.len(), c * k * k * hw);
    let xdata = x.data();
    for ci in 0..c {
        let xbase = (ni * c + ci) * hw;
        for kh in 0..k {
            let dh = kh as isize - pad;
            for kw in 0..k {
                let dw_ = kw as isize - pad;
                let q = (ci * k + kh) * k + kw;
                let out = &mut cols[q * hw..(q + 1) * hw];
                for oh in 0..h {
                    let ih = oh as isize + dh;
                    let orow = &mut out[oh * w..(oh + 1) * w];
                    if ih < 0 || ih >= h as isize {
                        orow.fill(0.0);
                        continue;
                    }
                    let xrow = &xdata[xbase + ih as usize * w..xbase + (ih as usize + 1) * w];
                    for (ow, ov) in orow.iter_mut().enumerate() {
                        let iw = ow as isize + dw_;
                        *ov = if iw >= 0 && (iw as usize) < w {
                            xrow[iw as usize]
                        } else {
                            0.0
                        };
                    }
                }
            }
        }
    }
}

/// Zero-pads samples `ni..ni + spv` of `x` into
/// `dst = [C][H+2·pad][W+2·pad][spv]`, the samples interleaved per
/// position: `spv = 1` is the plain padded plane, `spv = 2` the paired
/// plane of the packed weight-gradient kernel, whose 64-bit broadcast
/// reads both samples' values at once. The whole plane is cleared first
/// (arena scratch is reused dirty), then each input row is copied into
/// the interior.
fn pad_sample(x: &Tensor, ni: usize, spv: usize, pad: usize, dst: &mut [f32]) {
    let (_, c, h, w) = x.shape_obj().nchw();
    pad_planes(x.data(), (c, h, w), ni, spv, pad, dst);
}

/// [`pad_sample`] over a row-major `[N, C, H, W]` slice with per-sample
/// extents `(C, H, W)`.
fn pad_planes(
    xdata: &[f32],
    (c, h, w): (usize, usize, usize),
    ni: usize,
    spv: usize,
    pad: usize,
    dst: &mut [f32],
) {
    let ph = h + 2 * pad;
    let pw = w + 2 * pad;
    debug_assert_eq!(dst.len(), c * ph * pw * spv);
    dst.fill(0.0);
    for ci in 0..c {
        let dch = &mut dst[ci * ph * pw * spv..(ci + 1) * ph * pw * spv];
        for ih in 0..h {
            let base = ((ih + pad) * pw + pad) * spv;
            let drow = &mut dch[base..base + w * spv];
            let xrow = |s: usize| &xdata[(((ni + s) * c + ci) * h + ih) * w..][..w];
            match spv {
                1 => drow.copy_from_slice(xrow(0)),
                2 => {
                    for (d, (&a, &b)) in drow.chunks_exact_mut(2).zip(xrow(0).iter().zip(xrow(1))) {
                        d.copy_from_slice(&[a, b]);
                    }
                }
                _ => unreachable!("one or two samples per vector"),
            }
        }
    }
}

/// Transposes samples `ni..ni + spv` of `dy = [N, M, H, W]` into
/// `dst = [H·W][(M·spv) rounded up to 8]` for the weight-gradient kernel:
/// pixel-major, lane `mi·spv + s` holding `dy[ni + s, mi, p]` (output
/// channels major, samples interleaved), with the padding lanes zeroed
/// (arena scratch is reused dirty). With AVX, whole 8-pixel blocks move
/// as 8×8 register transposes and the last `H·W mod 8` pixels scalar.
fn transpose_sample(dy: &Tensor, ni: usize, spv: usize, dst: &mut [f32]) {
    let (_, m, h, w) = dy.shape_obj().nchw();
    let hw = h * w;
    assert_eq!(dst.len(), hw * grad_row_len(m, spv));
    let planes = &dy.data()[ni * m * hw..(ni + spv) * m * hw];
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx() {
        // SAFETY: AVX is present (runtime check); `planes` holds `spv·m`
        // planes of `hw` and `dst` has `hw` rows, as asserted above.
        let done = unsafe { transpose_blocks_avx(planes, m, spv, hw, dst) };
        transpose_pixels(planes, m, spv, hw, done..hw, dst);
        return;
    }
    transpose_pixels(planes, m, spv, hw, 0..hw, dst);
}

/// Portable body of [`transpose_sample`] over the pixel range `pixels` of
/// the `spv·m` planes of `hw` pixels each.
fn transpose_pixels(
    planes: &[f32],
    m: usize,
    spv: usize,
    hw: usize,
    pixels: std::ops::Range<usize>,
    dst: &mut [f32],
) {
    let row = grad_row_len(m, spv);
    if m * spv < row {
        dst[pixels.start * row..pixels.end * row].fill(0.0);
    }
    for (ch, plane) in planes.chunks_exact(hw.max(1)).enumerate() {
        let lane = (ch % m) * spv + ch / m;
        for p in pixels.clone() {
            dst[p * row + lane] = plane[p];
        }
    }
}

/// AVX body of [`transpose_sample`] over the whole 8-pixel blocks: per
/// lane group and block, eight plane rows (zeros for padding lanes) go
/// through an 8×8 register transpose and out as eight `dst` rows. Returns
/// the number of pixels written.
///
/// # Safety
///
/// The host must support AVX; `planes` must hold `spv·m` planes of `hw`
/// floats and `dst` `hw` rows of `(m·spv)` rounded up to 8.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn transpose_blocks_avx(
    planes: &[f32],
    m: usize,
    spv: usize,
    hw: usize,
    dst: &mut [f32],
) -> usize {
    use std::arch::x86_64::*;
    let row = grad_row_len(m, spv);
    let (src, out) = (planes.as_ptr(), dst.as_mut_ptr());
    for lane0 in (0..row).step_by(GRAD_LANES) {
        // Plane offset of every lane of the group; padding lanes read none.
        let plane = |l: usize| {
            let lane = lane0 + l;
            (lane < m * spv).then(|| ((lane % spv) * m + lane / spv) * hw)
        };
        let planes: [Option<usize>; GRAD_LANES] = std::array::from_fn(plane);
        for p0 in (0..hw / 8 * 8).step_by(8) {
            let r =
                planes.map(|o| o.map_or(_mm256_setzero_ps(), |o| _mm256_loadu_ps(src.add(o + p0))));
            // Interleave pairs, then quads, then swap 128-bit halves.
            let t = [0, 2, 4, 6].map(|i| _mm256_unpacklo_ps(r[i], r[i + 1]));
            let u = [0, 2, 4, 6].map(|i| _mm256_unpackhi_ps(r[i], r[i + 1]));
            let q = [
                _mm256_shuffle_ps::<0x44>(t[0], t[1]),
                _mm256_shuffle_ps::<0xEE>(t[0], t[1]),
                _mm256_shuffle_ps::<0x44>(u[0], u[1]),
                _mm256_shuffle_ps::<0xEE>(u[0], u[1]),
                _mm256_shuffle_ps::<0x44>(t[2], t[3]),
                _mm256_shuffle_ps::<0xEE>(t[2], t[3]),
                _mm256_shuffle_ps::<0x44>(u[2], u[3]),
                _mm256_shuffle_ps::<0xEE>(u[2], u[3]),
            ];
            for i in 0..4 {
                let lo = _mm256_permute2f128_ps::<0x20>(q[i], q[i + 4]);
                let hi = _mm256_permute2f128_ps::<0x31>(q[i], q[i + 4]);
                _mm256_storeu_ps(out.add((p0 + i) * row + lane0), lo);
                _mm256_storeu_ps(out.add((p0 + i + 4) * row + lane0), hi);
            }
        }
    }
    hw / 8 * 8
}

/// Direct "same"-padding convolution of one zero-padded sample
/// (`xpad = [C][H+2·pad][W+2·pad]`, see [`pad_sample`]) over the output-
/// channel range `mrange`, writing `out = y[ni, mrange, :, :]`.
///
/// Per output element the chain is `bias` then `+= w·x` over taps in
/// ascending `(c, kh, kw)` order. That is exactly the im2col + gemm
/// lowering's per-element chain — a padding tap here multiplies an
/// explicit zero from the padded border, where im2col would have stored
/// the same zero in the column matrix — so the result is bitwise equal
/// to [`crate::matmul::gemm_bias`] over im2col columns, independent of
/// both the split and the SIMD dispatch below.
#[allow(clippy::too_many_arguments)] // geometry of one padded sample, passed flat
fn conv_direct_rows(
    xpad: &[f32],
    wmat: &[f32],
    bias: &[f32],
    mrange: std::ops::Range<usize>,
    out: &mut [f32],
    h: usize,
    w: usize,
    c: usize,
    k: usize,
) {
    let pad = k / 2;
    let ph = h + 2 * pad;
    let pw = w + 2 * pad;
    debug_assert_eq!(xpad.len(), c * ph * pw);
    debug_assert_eq!(out.len(), mrange.len() * h * w);
    #[cfg(target_arch = "x86_64")]
    if w.is_multiple_of(8) && crate::simd::avx() {
        // SAFETY: AVX is present (runtime check); the slice bounds are
        // asserted above and the kernel stays inside them.
        unsafe { conv_direct_rows_avx(xpad, wmat, bias, mrange, out, h, w, c, k) };
        return;
    }
    conv_direct_rows_portable(xpad, wmat, bias, mrange, out, h, w, c, k);
}

/// Portable body of [`conv_direct_rows`]: per output row, initialize to
/// bias and sweep taps in `(c, kh, kw)` order, each tap a contiguous
/// row-by-row multiply-accumulate the autovectorizer handles.
#[allow(clippy::too_many_arguments)] // geometry of one padded sample, passed flat
fn conv_direct_rows_portable(
    xpad: &[f32],
    wmat: &[f32],
    bias: &[f32],
    mrange: std::ops::Range<usize>,
    out: &mut [f32],
    h: usize,
    w: usize,
    c: usize,
    k: usize,
) {
    let pad = k / 2;
    let ph = h + 2 * pad;
    let pw = w + 2 * pad;
    let ckk = c * k * k;
    for (local, mi) in mrange.enumerate() {
        let wrow = &wmat[mi * ckk..(mi + 1) * ckk];
        let b = bias[mi];
        for oh in 0..h {
            let orow = &mut out[(local * h + oh) * w..(local * h + oh + 1) * w];
            orow.fill(b);
            for ci in 0..c {
                for kh in 0..k {
                    let xrow = &xpad[ci * ph * pw + (oh + kh) * pw..][..pw];
                    for kw in 0..k {
                        let tap = wrow[(ci * k + kh) * k + kw];
                        for (ov, &xv) in orow.iter_mut().zip(&xrow[kw..kw + w]) {
                            *ov += tap * xv;
                        }
                    }
                }
            }
        }
    }
}

/// AVX body of [`conv_direct_rows`] (`w % 8 == 0`): the output plane is
/// tiled into 8-wide blocks, processed four at a time so four independent
/// accumulator chains hide the vector-add latency. Each lane still runs
/// the scalar chain — bias, then mul+add per tap in `(c, kh, kw)` order,
/// never FMA — so the result is bitwise identical to the portable body.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[allow(clippy::too_many_arguments)] // geometry of one padded sample, passed flat
unsafe fn conv_direct_rows_avx(
    xpad: &[f32],
    wmat: &[f32],
    bias: &[f32],
    mrange: std::ops::Range<usize>,
    out: &mut [f32],
    h: usize,
    w: usize,
    c: usize,
    k: usize,
) {
    use std::arch::x86_64::*;
    let pad = k / 2;
    let ph = h + 2 * pad;
    let pw = w + 2 * pad;
    let phpw = ph * pw;
    let ckk = c * k * k;
    let wblocks = w / 8; // caller guarantees w % 8 == 0
    let blocks = h * wblocks;
    let xp = xpad.as_ptr();
    for (local, mi) in mrange.enumerate() {
        let wrow = wmat.as_ptr().add(mi * ckk);
        let b8 = _mm256_broadcast_ss(&bias[mi]);
        let oplane = out.as_mut_ptr().add(local * h * w);
        let mut j = 0;
        while j + 4 <= blocks {
            // Padded-plane offset of each block's lane 0 (kh = kw = 0).
            let mut off = [0usize; 4];
            for (t, o) in off.iter_mut().enumerate() {
                let bj = j + t;
                *o = (bj / wblocks) * pw + (bj % wblocks) * 8;
            }
            let mut acc0 = b8;
            let mut acc1 = b8;
            let mut acc2 = b8;
            let mut acc3 = b8;
            let mut q = wrow;
            for ci in 0..c {
                let xc = xp.add(ci * phpw);
                for kh in 0..k {
                    let xr = xc.add(kh * pw);
                    for kw in 0..k {
                        let tap = _mm256_broadcast_ss(&*q);
                        q = q.add(1);
                        let xrk = xr.add(kw);
                        acc0 = _mm256_add_ps(
                            acc0,
                            _mm256_mul_ps(tap, _mm256_loadu_ps(xrk.add(off[0]))),
                        );
                        acc1 = _mm256_add_ps(
                            acc1,
                            _mm256_mul_ps(tap, _mm256_loadu_ps(xrk.add(off[1]))),
                        );
                        acc2 = _mm256_add_ps(
                            acc2,
                            _mm256_mul_ps(tap, _mm256_loadu_ps(xrk.add(off[2]))),
                        );
                        acc3 = _mm256_add_ps(
                            acc3,
                            _mm256_mul_ps(tap, _mm256_loadu_ps(xrk.add(off[3]))),
                        );
                    }
                }
            }
            // Blocks tile the row-major plane exactly, so block j's
            // output starts at element j·8.
            _mm256_storeu_ps(oplane.add(j * 8), acc0);
            _mm256_storeu_ps(oplane.add((j + 1) * 8), acc1);
            _mm256_storeu_ps(oplane.add((j + 2) * 8), acc2);
            _mm256_storeu_ps(oplane.add((j + 3) * 8), acc3);
            j += 4;
        }
        while j < blocks {
            let off = (j / wblocks) * pw + (j % wblocks) * 8;
            let mut acc = b8;
            let mut q = wrow;
            for ci in 0..c {
                let xc = xp.add(ci * phpw);
                for kh in 0..k {
                    let xr = xc.add(kh * pw + off);
                    for kw in 0..k {
                        let tap = _mm256_broadcast_ss(&*q);
                        q = q.add(1);
                        acc = _mm256_add_ps(acc, _mm256_mul_ps(tap, _mm256_loadu_ps(xr.add(kw))));
                    }
                }
            }
            _mm256_storeu_ps(oplane.add(j * 8), acc);
            j += 1;
        }
    }
}

/// Input-gradient convolution of one zero-padded `dy` sample
/// (`dypad = [M][H+2·pad][W+2·pad]`, see [`pad_sample`]) over the input-
/// channel range `crange`, writing `out = dx[ni, crange, :, :]`.
///
/// Tap `(kh, kw)` of output channel `m` reads `dy` at row offset
/// `K−1−kh` and column offset `K−1−kw` of the padded plane — the forward
/// kernel's walk with the taps flipped. Per output element the chain is
/// `0.0`, then `+= part_m` for each `m` in ascending order, where `part_m`
/// starts at `+0.0` and accumulates `dy·w` over taps in ascending
/// `(kh, kw)` order. Border taps add `dy_pad·w = 0·w`, which leaves a
/// `+0.0`-started chain bitwise unchanged when `w` is finite, so the result
/// equals the loop nest that skips out-of-bounds taps, independent of both
/// the split and the SIMD dispatch below.
#[allow(clippy::too_many_arguments)] // geometry of one padded sample, passed flat
fn conv_input_grad_rows(
    dypad: &[f32],
    wmat: &[f32],
    crange: std::ops::Range<usize>,
    out: &mut [f32],
    h: usize,
    w: usize,
    c: usize,
    m: usize,
    k: usize,
) {
    // Once per call: the AVX body's pointer walk relies on every one.
    assert_eq!(k % 2, 1, "odd kernel");
    assert_eq!(dypad.len(), padded_plane_len(m, k, h, w));
    assert_eq!(wmat.len(), m * c * k * k);
    assert!(crange.end <= c);
    assert_eq!(out.len(), crange.len() * h * w);
    #[cfg(target_arch = "x86_64")]
    if w.is_multiple_of(8) && crate::simd::avx() {
        // SAFETY: AVX is present (runtime check); the kernel is odd and the
        // slice lengths and channel range are asserted above, so every load
        // (at most K−1 rows and columns past an output pixel, inside the
        // padded plane) and every store stays inside its slice.
        unsafe { conv_input_grad_rows_avx(dypad, wmat, crange, out, h, w, c, m, k) };
        return;
    }
    conv_input_grad_rows_portable(dypad, wmat, crange, out, h, w, c, m, k);
}

/// Portable body of [`conv_input_grad_rows`]: per output row, 8-wide
/// chunks, each accumulating one output channel's partial over the
/// flipped taps before adding it into the row — lane for lane the AVX
/// body's arithmetic.
#[allow(clippy::too_many_arguments)] // geometry of one padded sample, passed flat
fn conv_input_grad_rows_portable(
    dypad: &[f32],
    wmat: &[f32],
    crange: std::ops::Range<usize>,
    out: &mut [f32],
    h: usize,
    w: usize,
    c: usize,
    m: usize,
    k: usize,
) {
    let pad = k / 2;
    let pw = w + 2 * pad;
    let phpw = (h + 2 * pad) * pw;
    let kk = k * k;
    let last = k - 1;
    for (local, ci) in crange.enumerate() {
        for ih in 0..h {
            let orow = &mut out[(local * h + ih) * w..(local * h + ih + 1) * w];
            orow.fill(0.0);
            for mi in 0..m {
                let taps = &wmat[(mi * c + ci) * kk..(mi * c + ci + 1) * kk];
                let dplane = &dypad[mi * phpw..(mi + 1) * phpw];
                for (b, ochunk) in orow.chunks_mut(8).enumerate() {
                    let mut part = [0.0f32; 8];
                    for kh in 0..k {
                        let drow = &dplane[(ih + last - kh) * pw + b * 8..];
                        for kw in 0..k {
                            let tap = taps[kh * k + kw];
                            let dseg = &drow[last - kw..last - kw + ochunk.len()];
                            for (pv, &dv) in part.iter_mut().zip(dseg) {
                                *pv += dv * tap;
                            }
                        }
                    }
                    for (ov, pv) in ochunk.iter_mut().zip(part) {
                        *ov += pv;
                    }
                }
            }
        }
    }
}

/// AVX body of [`conv_input_grad_rows`] (`w % 8 == 0`): each input-channel
/// plane is tiled into 8-wide blocks, processed four at a time, with one
/// output accumulator and one per-channel partial per block. Each lane runs
/// the portable body's chain — mul then add, never FMA — so the result is
/// bitwise identical to it.
///
/// # Safety
///
/// The host must support AVX, `w` must be a multiple of 8, and the
/// arguments must satisfy the length and range assertions of
/// [`conv_input_grad_rows`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[allow(clippy::too_many_arguments)] // geometry of one padded sample, passed flat
unsafe fn conv_input_grad_rows_avx(
    dypad: &[f32],
    wmat: &[f32],
    crange: std::ops::Range<usize>,
    out: &mut [f32],
    h: usize,
    w: usize,
    c: usize,
    m: usize,
    k: usize,
) {
    use std::arch::x86_64::*;
    let pad = k / 2;
    let pw = w + 2 * pad;
    let phpw = (h + 2 * pad) * pw;
    let kk = k * k;
    let last = k - 1;
    let wblocks = w / 8; // caller guarantees w % 8 == 0
    let blocks = h * wblocks;
    let dp = dypad.as_ptr();
    for (local, ci) in crange.enumerate() {
        let oplane = out.as_mut_ptr().add(local * h * w);
        // Four blocks per pass; a short last pass fills its spare slots
        // with its final block, which they recompute and store unchanged.
        for j in (0..blocks).step_by(4) {
            let bj = [j, j + 1, j + 2, j + 3].map(|b| b.min(blocks - 1));
            // Padded-plane offset of each block's lane 0 at tap
            // (K−1, K−1), the plane's top-left corner.
            let off = bj.map(|b| (b / wblocks) * pw + (b % wblocks) * 8);
            let mut o0 = _mm256_setzero_ps();
            let mut o1 = _mm256_setzero_ps();
            let mut o2 = _mm256_setzero_ps();
            let mut o3 = _mm256_setzero_ps();
            for mi in 0..m {
                // Tap (kh, kw) of block t reads `d_t − (kh·pw + kw)`, where
                // `d_t` is the block's lane 0 at tap (0, 0).
                let dm = dp.add(mi * phpw + last * pw + last);
                let (d0, d1, d2, d3) = (
                    dm.add(off[0]),
                    dm.add(off[1]),
                    dm.add(off[2]),
                    dm.add(off[3]),
                );
                let mut q = wmat.as_ptr().add((mi * c + ci) * kk);
                let mut p0 = _mm256_setzero_ps();
                let mut p1 = _mm256_setzero_ps();
                let mut p2 = _mm256_setzero_ps();
                let mut p3 = _mm256_setzero_ps();
                for kh in 0..k {
                    for kw in 0..k {
                        let back = kh * pw + kw;
                        let tap = _mm256_broadcast_ss(&*q);
                        q = q.add(1);
                        p0 = _mm256_add_ps(p0, _mm256_mul_ps(_mm256_loadu_ps(d0.sub(back)), tap));
                        p1 = _mm256_add_ps(p1, _mm256_mul_ps(_mm256_loadu_ps(d1.sub(back)), tap));
                        p2 = _mm256_add_ps(p2, _mm256_mul_ps(_mm256_loadu_ps(d2.sub(back)), tap));
                        p3 = _mm256_add_ps(p3, _mm256_mul_ps(_mm256_loadu_ps(d3.sub(back)), tap));
                    }
                }
                o0 = _mm256_add_ps(o0, p0);
                o1 = _mm256_add_ps(o1, p1);
                o2 = _mm256_add_ps(o2, p2);
                o3 = _mm256_add_ps(o3, p3);
            }
            // Blocks tile the row-major plane exactly, so block b's
            // output starts at element b·8.
            _mm256_storeu_ps(oplane.add(bj[0] * 8), o0);
            _mm256_storeu_ps(oplane.add(bj[1] * 8), o1);
            _mm256_storeu_ps(oplane.add(bj[2] * 8), o2);
            _mm256_storeu_ps(oplane.add(bj[3] * 8), o3);
        }
    }
}

/// Lanes of the weight-gradient kernel (one AVX vector); the transposed
/// `dy` rows are padded to a multiple of it.
const GRAD_LANES: usize = 8;

/// Samples the batch split of [`Conv2d::backward_params`] packs into one
/// weight-gradient vector for `m` output channels: two when one sample's
/// channels fill at most half the lanes, else one.
pub fn grad_samples_per_vector(m: usize) -> usize {
    if m <= GRAD_LANES / 2 {
        2
    } else {
        1
    }
}

/// Row length of the transposed `dy` holding `spv` samples of `m`
/// channels: `m·spv` lanes rounded up to a whole vector.
fn grad_row_len(m: usize, spv: usize) -> usize {
    (m * spv).next_multiple_of(GRAD_LANES)
}

/// Weight and bias gradients of `S` samples over the output-channel range
/// `mrange`, from their zero-padded input (`xpad = [C][H+2·pad][W+2·pad][S]`,
/// see [`pad_sample`]) and their transposed output gradient
/// (`dyt = [H·W][(M·S) rounded up to 8]`, see [`transpose_sample`]):
/// `dwrows[s][m, q] += Σ_p dy_s[m, p]·x_{s,q}[p]` and
/// `dbrows[s][m] += Σ_p dy_s[m, p]`, rows local to `mrange`.
///
/// A lane group covers `8 / S` output channels of all `S` samples, lane
/// `(m − m₀)·S + s`, so every lane of tap `q = (c·K + kh)·K + kw` is one
/// sample's chain from `+0.0` of `dy[m, p]·x_q[p]` over pixels `p` in
/// row-major order, border zeros included — exactly the im2col lowering's
/// per-`(m, q)` dot product, whatever `S` is. The bias lane sums start at
/// `+0.0`; a serial `Iterator::sum` may start at `−0.0`, but the two
/// differ only in the sign of an all-zero sum, which the `+=` into a
/// `+0.0`-started gradient erases. Lanes outside `mrange` (group edges,
/// padding channels) are computed and dropped.
#[allow(clippy::too_many_arguments)] // geometry of one padded sample, passed flat
fn conv_weight_grad_rows<const S: usize>(
    xpad: &[f32],
    dyt: &[f32],
    mrange: std::ops::Range<usize>,
    dwrows: [&mut [f32]; S],
    dbrows: [&mut [f32]; S],
    h: usize,
    w: usize,
    c: usize,
    m: usize,
    k: usize,
) {
    // Once per call: the AVX body's pointer walk relies on every one.
    assert!(S == 1 || S == 2, "one or two samples per vector");
    assert_eq!(k % 2, 1, "odd kernel");
    assert_eq!(xpad.len(), S * padded_plane_len(c, k, h, w));
    assert_eq!(dyt.len(), h * w * grad_row_len(m, S));
    assert!(mrange.end <= m);
    for (dwr, dbr) in dwrows.iter().zip(&dbrows) {
        assert_eq!(dwr.len(), mrange.len() * c * k * k);
        assert_eq!(dbr.len(), mrange.len());
    }
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx() {
        // SAFETY: AVX is present (runtime check); the kernel is odd, `S` is
        // 1 or 2, and the slice lengths and channel range are asserted
        // above, so every load stays inside them (a tap's pixel walk ends
        // inside the padded plane, and a lane group ends at or before the
        // padded row length); the stores go through bounds-checked indexing.
        unsafe { conv_weight_grad_rows_avx::<S>(xpad, dyt, mrange, dwrows, dbrows, h, w, c, m, k) };
        return;
    }
    conv_weight_grad_rows_portable::<S>(xpad, dyt, mrange, dwrows, dbrows, h, w, c, m, k);
}

/// Adds the lanes of the lane group starting at output channel `m0` that
/// fall in `mrange` into their rows:
/// `rows[s][(mi − mrange.start)·stride + col] += lanes[(mi − m0)·S + s]`.
fn add_group_lanes<const S: usize>(
    rows: &mut [&mut [f32]; S],
    stride: usize,
    col: usize,
    mrange: &std::ops::Range<usize>,
    m0: usize,
    lanes: &[f32; GRAD_LANES],
) {
    let live = m0.max(mrange.start)..(m0 + GRAD_LANES / S).min(mrange.end);
    for (s, rows) in rows.iter_mut().enumerate() {
        for mi in live.clone() {
            rows[(mi - mrange.start) * stride + col] += lanes[(mi - m0) * S + s];
        }
    }
}

/// Portable body of [`conv_weight_grad_rows`]: per lane group and tap, an
/// 8-lane accumulator swept over the pixels — lane for lane the AVX
/// body's arithmetic.
#[allow(clippy::too_many_arguments)] // geometry of one padded sample, passed flat
fn conv_weight_grad_rows_portable<const S: usize>(
    xpad: &[f32],
    dyt: &[f32],
    mrange: std::ops::Range<usize>,
    mut dwrows: [&mut [f32]; S],
    mut dbrows: [&mut [f32]; S],
    h: usize,
    w: usize,
    c: usize,
    m: usize,
    k: usize,
) {
    let pad = k / 2;
    let pw = w + 2 * pad;
    let phpw = (h + 2 * pad) * pw;
    let ckk = c * k * k;
    let row = grad_row_len(m, S);
    let group_channels = GRAD_LANES / S;
    for g in mrange.start / group_channels..mrange.end.div_ceil(group_channels) {
        let (m0, lane0) = (g * group_channels, g * GRAD_LANES);
        let mut sum = [0.0f32; GRAD_LANES];
        for p in 0..h * w {
            let d = &dyt[p * row + lane0..p * row + lane0 + GRAD_LANES];
            for (sv, &dv) in sum.iter_mut().zip(d) {
                *sv += dv;
            }
        }
        add_group_lanes(&mut dbrows, 1, 0, &mrange, m0, &sum);
        for q in 0..ckk {
            let (ci, kh, kw) = (q / (k * k), q / k % k, q % k);
            let base = ci * phpw + kh * pw + kw;
            let mut acc = [0.0f32; GRAD_LANES];
            for oh in 0..h {
                for ow in 0..w {
                    let o = base + oh * pw + ow;
                    let xv = &xpad[o * S..(o + 1) * S];
                    let p = oh * w + ow;
                    let d = &dyt[p * row + lane0..p * row + lane0 + GRAD_LANES];
                    for (l, (av, &dv)) in acc.iter_mut().zip(d).enumerate() {
                        *av += dv * xv[l % S];
                    }
                }
            }
            add_group_lanes(&mut dwrows, ckk, q, &mrange, m0, &acc);
        }
    }
}

/// Broadcasts sample-interleaved `x` at `p` across a vector: one float
/// to all eight lanes (`S = 1`), or the pair `(x_s0, x_s1)` to every lane
/// pair through one 64-bit broadcast (`S = 2`), matching the packed lane
/// order `(m, s)`.
///
/// # Safety
///
/// The host must support AVX and `p` must point at `S` readable floats.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx")]
unsafe fn broadcast_samples<const S: usize>(p: *const f32) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    if S == 1 {
        _mm256_broadcast_ss(&*p)
    } else {
        _mm256_castpd_ps(_mm256_set1_pd(p.cast::<f64>().read_unaligned()))
    }
}

/// AVX body of [`conv_weight_grad_rows`]: one vector per lane group, eight
/// taps at a time sharing each pixel's `dy` load (eight independent chains
/// keep the adders busy past their latency). Each lane runs the portable
/// body's chain — mul then add, never FMA — so the result is bitwise
/// identical to it.
///
/// # Safety
///
/// The host must support AVX, and the arguments must satisfy the length
/// and range assertions of [`conv_weight_grad_rows`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[allow(clippy::too_many_arguments)] // geometry of one padded sample, passed flat
unsafe fn conv_weight_grad_rows_avx<const S: usize>(
    xpad: &[f32],
    dyt: &[f32],
    mrange: std::ops::Range<usize>,
    mut dwrows: [&mut [f32]; S],
    mut dbrows: [&mut [f32]; S],
    h: usize,
    w: usize,
    c: usize,
    m: usize,
    k: usize,
) {
    use std::arch::x86_64::*;
    let pad = k / 2;
    let pw = w + 2 * pad;
    let phpw = (h + 2 * pad) * pw;
    let ckk = c * k * k;
    let row = grad_row_len(m, S);
    let group_channels = GRAD_LANES / S;
    let tap_offset = |q: usize| ((q / (k * k)) * phpw + (q / k % k) * pw + q % k) * S;
    let xp = xpad.as_ptr();
    let mut lanes = [0.0f32; GRAD_LANES];
    for g in mrange.start / group_channels..mrange.end.div_ceil(group_channels) {
        let m0 = g * group_channels;
        let dg = dyt.as_ptr().add(g * GRAD_LANES);
        let mut sum = _mm256_setzero_ps();
        for p in 0..h * w {
            sum = _mm256_add_ps(sum, _mm256_loadu_ps(dg.add(p * row)));
        }
        _mm256_storeu_ps(lanes.as_mut_ptr(), sum);
        add_group_lanes(&mut dbrows, 1, 0, &mrange, m0, &lanes);
        // Eight taps per pass; a short last pass fills its spare slots with
        // its final tap and drops their sums.
        const TAPS: usize = 8;
        for q in (0..ckk).step_by(TAPS) {
            // One base pointer per tap: pixel (oh, ow) of every tap sits
            // at the same offset `(oh·pw + ow)·S` from its base.
            let x: [*const f32; TAPS] =
                std::array::from_fn(|i| xp.add(tap_offset((q + i).min(ckk - 1))));
            let mut a = [_mm256_setzero_ps(); TAPS];
            let mut d = dg;
            for oh in 0..h {
                for o in (oh * pw..oh * pw + w).map(|o| o * S) {
                    let dv = _mm256_loadu_ps(d);
                    d = d.add(row);
                    for (av, xv) in a.iter_mut().zip(&x) {
                        *av = _mm256_add_ps(
                            *av,
                            _mm256_mul_ps(dv, broadcast_samples::<S>(xv.add(o))),
                        );
                    }
                }
            }
            for (i, av) in a.into_iter().enumerate().take(ckk - q) {
                _mm256_storeu_ps(lanes.as_mut_ptr(), av);
                add_group_lanes(&mut dwrows, ckk, q + i, &mrange, m0, &lanes);
            }
        }
    }
}

/// Per-item (per-sample) flop estimate of the fused
/// conv→GroupNorm→activation kernel. Shared by the live grain computation
/// in [`Conv2d::forward_fused`] and the registered access summary, so the
/// registry-parity test sees identical planning inputs.
pub fn fused_flops_per_item(
    c: usize,
    m: usize,
    k: usize,
    hw: usize,
    with_gn: bool,
    with_act: bool,
) -> usize {
    let mut flops = m * c * k * k * hw;
    if with_gn {
        // Two accumulates per element for the moments, one normalize
        // multiply-add, one affine multiply-add.
        flops += 5 * m * hw;
    }
    if with_act {
        flops += m * hw;
    }
    flops
}

// ---------------------------------------------------------------------------
// Affine access summaries (one per `parallel_for_disjoint*` call above)
// ---------------------------------------------------------------------------

use crate::access::{AccessKind, KernelAccessSummary, RegionDecl, ScratchDecl, StridedAccess};

/// Per-sample padded-plane scratch of the direct conv kernel
/// (`[C][H+2·pad][W+2·pad]`). Shared by the live kernels and the access
/// summaries below so the registry describes the real allocation.
pub fn padded_plane_len(c: usize, k: usize, h: usize, w: usize) -> usize {
    let pad = k / 2;
    c * (h + 2 * pad) * (w + 2 * pad)
}

/// Per-sample transposed `dy` scratch of the weight-gradient kernel
/// (`[H·W][M rounded up to 8]`, which also holds a packed pair of
/// samples: `2·M ≤ 8` lanes when [`grad_samples_per_vector`] is two).
/// Shared by the live kernel and the access summaries below.
pub fn transposed_grad_len(m: usize, h: usize, w: usize) -> usize {
    h * w * m.next_multiple_of(GRAD_LANES)
}

/// Access summary of the batch split in [`Conv2d::forward`]: item `ni`
/// writes `y[ni, :, :, :]`, reads `x[ni, :, :, :]`, and every item reads
/// the resident weights and bias; the zero-padded input plane is a
/// per-thread arena.
pub fn forward_batch_access(
    n: usize,
    c: usize,
    m: usize,
    k: usize,
    h: usize,
    w: usize,
) -> KernelAccessSummary {
    let ckk = c * k * k;
    let hw = h * w;
    KernelAccessSummary {
        kernel: "conv2d.forward (batch split)",
        items: n,
        grain: 1,
        flops_per_item: m * ckk * hw,
        regions: vec![
            RegionDecl::output("y", n * m * hw),
            RegionDecl::input("x", n * c * hw),
            RegionDecl::input("w", m * ckk),
            RegionDecl::input("bias", m),
        ],
        accesses: vec![
            StridedAccess::contiguous("y", AccessKind::Write, m * hw),
            StridedAccess::contiguous("x", AccessKind::Read, c * hw),
            StridedAccess::broadcast_read("w", m * ckk),
            StridedAccess::broadcast_read("bias", m),
        ],
        scratch: vec![ScratchDecl::arena("xpad", padded_plane_len(c, k, h, w))],
    }
}

/// Access summary of the batch split in [`Conv2d::forward_fused`]
/// (conv→GroupNorm→activation, the shape the NODE embedded networks
/// execute): item `ni` writes `y[ni, :, :, :]`, reads `x[ni, :, :, :]`
/// and the resident weights/bias/γ/β; the conv output panel exists only
/// in per-thread arena scratch.
pub fn fused_forward_access(
    n: usize,
    c: usize,
    m: usize,
    k: usize,
    h: usize,
    w: usize,
) -> KernelAccessSummary {
    let ckk = c * k * k;
    let hw = h * w;
    let flops = fused_flops_per_item(c, m, k, hw, true, true);
    KernelAccessSummary {
        kernel: "conv2d.fused_forward (batch split)",
        items: n,
        grain: parallel::grain_for_sized(n, flops),
        flops_per_item: flops,
        regions: vec![
            RegionDecl::output("y", n * m * hw),
            RegionDecl::input("x", n * c * hw),
            RegionDecl::input("w", m * ckk),
            RegionDecl::input("bias", m),
            RegionDecl::input("gamma", m),
            RegionDecl::input("beta", m),
        ],
        accesses: vec![
            StridedAccess::contiguous("y", AccessKind::Write, m * hw),
            StridedAccess::contiguous("x", AccessKind::Read, c * hw),
            StridedAccess::broadcast_read("w", m * ckk),
            StridedAccess::broadcast_read("bias", m),
            StridedAccess::broadcast_read("gamma", m),
            StridedAccess::broadcast_read("beta", m),
        ],
        scratch: vec![
            ScratchDecl::arena("xpad", padded_plane_len(c, k, h, w)),
            ScratchDecl::arena("conv_out", m * hw),
        ],
    }
}

/// Access summary of the row split in [`Conv2d::forward`] (batch
/// underfills the pool): item `mi` writes one sample's output row
/// `ys[mi·hw ..]` and reads its own weight row; the shared zero-padded
/// input plane is a broadcast read (padded serially before the split).
pub fn forward_rows_access(
    c: usize,
    m: usize,
    k: usize,
    h: usize,
    w: usize,
) -> KernelAccessSummary {
    let ckk = c * k * k;
    let hw = h * w;
    let xpad_len = padded_plane_len(c, k, h, w);
    KernelAccessSummary {
        kernel: "conv2d.forward (row split)",
        items: m,
        grain: parallel::grain_for(ckk * hw),
        flops_per_item: ckk * hw,
        regions: vec![
            RegionDecl::output("ys", m * hw),
            RegionDecl::input("w", m * ckk),
            RegionDecl::input("bias", m),
            RegionDecl::input("xpad", xpad_len),
        ],
        accesses: vec![
            StridedAccess::contiguous("ys", AccessKind::Write, hw),
            StridedAccess::contiguous("w", AccessKind::Read, ckk),
            StridedAccess {
                region: "bias",
                kind: AccessKind::Read,
                offset: 0,
                stride_per_item: 1,
                elem_stride: 1,
                count: 1,
            },
            StridedAccess::broadcast_read("xpad", xpad_len),
        ],
        scratch: vec![ScratchDecl::arena("xpad", xpad_len)],
    }
}

/// Access summary of the batch split in [`Conv2d::backward_input`]:
/// item `ni` writes `dx[ni, :, :, :]` and reads `dy[ni, :, :, :]` plus
/// the resident (flipped) weights; the zero-padded `dy` plane is a
/// per-thread arena.
pub fn backward_input_batch_access(
    n: usize,
    c: usize,
    m: usize,
    k: usize,
    h: usize,
    w: usize,
) -> KernelAccessSummary {
    let hw = h * w;
    KernelAccessSummary {
        kernel: "conv2d.backward_input (batch split)",
        items: n,
        grain: 1,
        flops_per_item: c * k * k * m * hw,
        regions: vec![
            RegionDecl::output("dx", n * c * hw),
            RegionDecl::input("dy", n * m * hw),
            RegionDecl::input("w", m * c * k * k),
        ],
        accesses: vec![
            StridedAccess::contiguous("dx", AccessKind::Write, c * hw),
            StridedAccess::contiguous("dy", AccessKind::Read, m * hw),
            StridedAccess::broadcast_read("w", m * c * k * k),
        ],
        scratch: vec![ScratchDecl::arena("dypad", padded_plane_len(m, k, h, w))],
    }
}

/// Access summary of the channel split in [`Conv2d::backward_input`]
/// (batch underfills the pool): item `ci` writes one sample's channel
/// plane `dxs[ci·hw ..]`; the shared zero-padded `dy` plane (padded
/// serially before the split) and the weights are broadcast reads (the
/// weight column walk per channel is modeled as a broadcast).
pub fn backward_input_channels_access(
    c: usize,
    m: usize,
    k: usize,
    h: usize,
    w: usize,
) -> KernelAccessSummary {
    let hw = h * w;
    let dypad_len = padded_plane_len(m, k, h, w);
    KernelAccessSummary {
        kernel: "conv2d.backward_input (channel split)",
        items: c,
        grain: parallel::grain_for(m * hw * k * k),
        flops_per_item: m * hw * k * k,
        regions: vec![
            RegionDecl::output("dxs", c * hw),
            RegionDecl::input("dypad", dypad_len),
            RegionDecl::input("w", m * c * k * k),
        ],
        accesses: vec![
            StridedAccess::contiguous("dxs", AccessKind::Write, hw),
            StridedAccess::broadcast_read("dypad", dypad_len),
            StridedAccess::broadcast_read("w", m * c * k * k),
        ],
        scratch: vec![ScratchDecl::arena("dypad", dypad_len)],
    }
}

/// Access summary of the batch split in [`Conv2d::backward_params`]:
/// item `ni` writes its own `(dW, db)` partial stride of the scratch
/// partials buffer; the serial sample-order fold happens after the join
/// and is outside the parallel phase. The zero-padded `x` plane (two
/// samples interleaved when [`grad_samples_per_vector`] packs pairs) and
/// the transposed `dy` are per-thread arenas.
pub fn backward_params_batch_access(
    n: usize,
    c: usize,
    m: usize,
    k: usize,
    h: usize,
    w: usize,
) -> KernelAccessSummary {
    let ckk = c * k * k;
    let hw = h * w;
    let psize = m * ckk + m;
    KernelAccessSummary {
        kernel: "conv2d.backward_params (batch split)",
        items: n,
        grain: 1,
        flops_per_item: m * ckk * hw,
        regions: vec![
            RegionDecl::partials("partials", n * psize),
            RegionDecl::input("x", n * c * hw),
            RegionDecl::input("dy", n * m * hw),
        ],
        accesses: vec![
            StridedAccess::contiguous("partials", AccessKind::Write, psize),
            StridedAccess::contiguous("x", AccessKind::Read, c * hw),
            StridedAccess::contiguous("dy", AccessKind::Read, m * hw),
        ],
        scratch: vec![
            ScratchDecl::arena("partials", n * psize),
            ScratchDecl::arena(
                "xpad",
                grad_samples_per_vector(m) * padded_plane_len(c, k, h, w),
            ),
            ScratchDecl::arena("dyt", transposed_grad_len(m, h, w)),
        ],
    }
}

/// Access summary of the row split in [`Conv2d::backward_params`]
/// (batch underfills the pool): item `mi` owns `dW[mi, :]` and `db[mi]`
/// (a `parallel_for_disjoint2` over both), accumulating one sample per
/// parallel region; the shared zero-padded `x` plane and transposed `dy`
/// (both prepared serially before the split) are broadcast reads.
pub fn backward_params_rows_access(
    c: usize,
    m: usize,
    k: usize,
    h: usize,
    w: usize,
) -> KernelAccessSummary {
    let ckk = c * k * k;
    let hw = h * w;
    let xpad_len = padded_plane_len(c, k, h, w);
    let dyt_len = transposed_grad_len(m, h, w);
    KernelAccessSummary {
        kernel: "conv2d.backward_params (row split)",
        items: m,
        grain: parallel::grain_for(ckk * hw),
        flops_per_item: ckk * hw,
        regions: vec![
            RegionDecl::output("dw", m * ckk),
            RegionDecl::output("db", m),
            RegionDecl::input("xpad", xpad_len),
            RegionDecl::input("dyt", dyt_len),
        ],
        accesses: vec![
            StridedAccess::contiguous("dw", AccessKind::Write, ckk),
            StridedAccess {
                region: "db",
                kind: AccessKind::Write,
                offset: 0,
                stride_per_item: 1,
                elem_stride: 1,
                count: 1,
            },
            StridedAccess::broadcast_read("xpad", xpad_len),
            StridedAccess::broadcast_read("dyt", dyt_len),
        ],
        scratch: vec![
            ScratchDecl::arena("xpad", xpad_len),
            ScratchDecl::arena("dyt", dyt_len),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Identity kernel: 1 in the center, zero elsewhere.
    fn identity_conv(channels: usize) -> Conv2d {
        let mut w = Tensor::zeros(&[channels, channels, 3, 3]);
        for c in 0..channels {
            *w.at4_mut(c, c, 1, 1) = 1.0;
        }
        Conv2d::from_parts(w, Tensor::zeros(&[channels]))
    }

    #[test]
    fn identity_kernel_passes_through() {
        let conv = identity_conv(2);
        let x = Tensor::from_vec((0..32).map(|v| v as f32).collect(), &[1, 2, 4, 4]);
        let y = conv.forward(&x);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn box_kernel_interior_sum() {
        // All-ones 3x3 kernel on all-ones input: interior outputs are 9,
        // edges 6, corners 4 (zero padding).
        let w = Tensor::ones(&[1, 1, 3, 3]);
        let conv = Conv2d::from_parts(w, Tensor::zeros(&[1]));
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let y = conv.forward(&x);
        assert_eq!(y.at4(0, 0, 1, 1), 9.0);
        assert_eq!(y.at4(0, 0, 0, 1), 6.0);
        assert_eq!(y.at4(0, 0, 0, 0), 4.0);
    }

    #[test]
    fn bias_added_per_channel() {
        let w = Tensor::zeros(&[2, 1, 3, 3]);
        let bias = Tensor::from_vec(vec![1.0, -2.0], &[2]);
        let conv = Conv2d::from_parts(w, bias);
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let y = conv.forward(&x);
        assert_eq!(y.at4(0, 0, 0, 0), 1.0);
        assert_eq!(y.at4(0, 1, 1, 1), -2.0);
    }

    #[test]
    fn adjoint_identity() {
        // <conv(x), y> == <x, conv^T(y)> for bias-free conv: the defining
        // property of backward_input being the true adjoint.
        let conv = Conv2d::new_seeded(3, 5, 3, 7);
        let conv = Conv2d::from_parts(conv.weight().clone(), Tensor::zeros(&[5]));
        let x = init::uniform(&[2, 3, 6, 6], -1.0, 1.0, 11);
        let y = init::uniform(&[2, 5, 6, 6], -1.0, 1.0, 13);
        let lhs = conv.forward(&x).dot(&y);
        let rhs = x.dot(&conv.backward_input(&y));
        assert!(
            (lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0),
            "adjoint mismatch: {lhs} vs {rhs}"
        );
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut conv = Conv2d::new_seeded(2, 2, 3, 3);
        let x = init::uniform(&[1, 2, 4, 4], -1.0, 1.0, 5);
        // Loss = sum(conv(x)); dy = ones.
        let dy = Tensor::ones(&[1, 2, 4, 4]);
        let (dw, db) = conv.backward_params(&x, &dy);
        let eps = 1e-3;
        // Check a handful of weight entries.
        for &idx in &[0usize, 7, 17, 35] {
            let orig = conv.weight().data()[idx];
            conv.weight_mut().data_mut()[idx] = orig + eps;
            let lp = conv.forward(&x).sum();
            conv.weight_mut().data_mut()[idx] = orig - eps;
            let lm = conv.forward(&x).sum();
            conv.weight_mut().data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dw.data()[idx]).abs() < 1e-2 * fd.abs().max(1.0),
                "dW[{idx}]: fd {fd} vs analytic {}",
                dw.data()[idx]
            );
        }
        // Bias gradient for loss=sum is just the number of output pixels.
        assert!((db.data()[0] - 16.0).abs() < 1e-4);
    }

    #[test]
    fn im2col_forward_matches_reference() {
        for (c, m, hh, ww, seed) in [
            (3usize, 5usize, 6usize, 7usize, 1u64),
            (8, 8, 4, 4, 2),
            (1, 2, 9, 3, 3),
        ] {
            let conv = Conv2d::new_seeded(c, m, 3, seed);
            let mut conv = conv;
            // Non-zero bias to exercise the bias path.
            conv.bias_mut()
                .data_mut()
                .iter_mut()
                .enumerate()
                .for_each(|(i, b)| *b = i as f32 * 0.1);
            let x = init::uniform(&[2, c, hh, ww], -1.0, 1.0, seed + 10);
            let fast = conv.forward(&x);
            let slow = conv.forward_reference(&x);
            let diff = (&fast - &slow).norm_inf();
            assert!(diff < 1e-4, "im2col deviates by {diff} for c={c} m={m}");
        }
    }

    #[test]
    fn direct_forward_matches_im2col_gemm_bitwise() {
        // The direct padded kernel must reproduce the im2col + packed-gemm
        // lowering bit-for-bit: same per-element tap chain, with padding
        // taps as explicit `w·0` adds.
        use crate::matmul::gemm_bias;
        for (c, m, hh, ww, k, seed) in [
            (3usize, 5usize, 6usize, 7usize, 3usize, 1u64),
            (8, 8, 4, 4, 3, 2),
            (4, 4, 8, 8, 3, 3),
            (2, 3, 5, 16, 5, 4),
        ] {
            let mut conv = Conv2d::new_seeded(c, m, k, seed);
            conv.bias_mut()
                .data_mut()
                .iter_mut()
                .enumerate()
                .for_each(|(i, b)| *b = (i as f32 - 1.0) * 0.3);
            let x = init::uniform(&[2, c, hh, ww], -1.0, 1.0, seed + 40);
            let y = conv.forward(&x);
            let ckk = c * k * k;
            let hw = hh * ww;
            let mut cols = vec![0.0f32; ckk * hw];
            for ni in 0..2 {
                im2col(&x, ni, k, &mut cols);
                let mut yref = vec![0.0f32; m * hw];
                gemm_bias(
                    &mut yref,
                    conv.weight().data(),
                    conv.bias().data(),
                    &cols,
                    ckk,
                    hw,
                );
                assert_eq!(
                    &y.data()[ni * m * hw..(ni + 1) * m * hw],
                    &yref[..],
                    "ni={ni} w={ww} k={k}"
                );
            }
        }
    }

    #[test]
    fn direct_conv_avx_and_portable_agree_bitwise() {
        // Dispatch transparency: whatever body `conv_direct_rows` picks on
        // this host must agree with the portable loop bit-for-bit
        // (trivially true on non-AVX hosts, a real check with AVX).
        for (c, m, hh, ww, k) in [(4usize, 4usize, 8usize, 8usize, 3usize), (3, 5, 2, 16, 5)] {
            let mut conv = Conv2d::new_seeded(c, m, k, 31);
            conv.bias_mut()
                .data_mut()
                .iter_mut()
                .enumerate()
                .for_each(|(i, b)| *b = 0.7 - i as f32 * 0.2);
            let x = init::uniform(&[1, c, hh, ww], -1.0, 1.0, 37);
            let mut xpad = vec![0.0f32; padded_plane_len(c, k, hh, ww)];
            pad_sample(&x, 0, 1, k / 2, &mut xpad);
            let wd = conv.weight().data();
            let bd = conv.bias().data();
            let mut portable = vec![0.0f32; m * hh * ww];
            conv_direct_rows_portable(&xpad, wd, bd, 0..m, &mut portable, hh, ww, c, k);
            let mut dispatched = vec![1.0f32; m * hh * ww];
            conv_direct_rows(&xpad, wd, bd, 0..m, &mut dispatched, hh, ww, c, k);
            assert_eq!(portable, dispatched, "w={ww} k={k}");
        }
    }

    #[test]
    fn input_grad_avx_and_portable_agree_bitwise() {
        // Dispatch transparency of `conv_input_grad_rows`, over a full
        // channel range and a partial one (the channel split's shape); 5
        // blocks of 8 leave the AVX body a short last pass.
        type Body = fn(
            &[f32],
            &[f32],
            std::ops::Range<usize>,
            &mut [f32],
            usize,
            usize,
            usize,
            usize,
            usize,
        );
        for (c, m, hh, ww, k) in [
            (4usize, 4usize, 8usize, 8usize, 3usize),
            (3, 5, 2, 16, 5),
            (2, 9, 5, 8, 1),
        ] {
            let conv = Conv2d::new_seeded(c, m, k, 41);
            let dy = init::uniform(&[1, m, hh, ww], -1.0, 1.0, 43);
            let mut dypad = vec![0.0f32; padded_plane_len(m, k, hh, ww)];
            pad_sample(&dy, 0, 1, k / 2, &mut dypad);
            for crange in [0..c, 1..c] {
                let run = |body: Body| {
                    let mut out = vec![1.0f32; crange.len() * hh * ww];
                    body(
                        &dypad,
                        conv.weight().data(),
                        crange.clone(),
                        &mut out,
                        hh,
                        ww,
                        c,
                        m,
                        k,
                    );
                    out
                };
                let portable = run(conv_input_grad_rows_portable);
                assert_eq!(portable, run(conv_input_grad_rows), "w={ww} k={k} m={m}");
            }
        }
    }

    type WeightGradBody<const S: usize> = fn(
        &[f32],
        &[f32],
        std::ops::Range<usize>,
        [&mut [f32]; S],
        [&mut [f32]; S],
        usize,
        usize,
        usize,
        usize,
        usize,
    );

    /// Runs a weight-gradient body on samples `ni..ni + S`, padded and
    /// transposed into NaN-filled scratch, accumulating into rows preset to
    /// non-zero values; returns each sample's `(dW, db)` rows as bits.
    fn run_weight_grad<const S: usize>(
        body: WeightGradBody<S>,
        x: &Tensor,
        dy: &Tensor,
        ni: usize,
        mrange: std::ops::Range<usize>,
        k: usize,
    ) -> Vec<(Vec<u32>, Vec<u32>)> {
        let (_, c, hh, ww) = x.shape_obj().nchw();
        let m = dy.shape()[1];
        let mut xpad = vec![f32::NAN; S * padded_plane_len(c, k, hh, ww)];
        pad_sample(x, ni, S, k / 2, &mut xpad);
        let mut dyt = vec![f32::NAN; hh * ww * grad_row_len(m, S)];
        transpose_sample(dy, ni, S, &mut dyt);
        let mut dw = vec![vec![0.5f32; mrange.len() * c * k * k]; S];
        let mut db = vec![vec![0.25f32; mrange.len()]; S];
        let (mut dwi, mut dbi) = (dw.iter_mut(), db.iter_mut());
        let dwr: [&mut [f32]; S] = std::array::from_fn(|_| &mut dwi.next().unwrap()[..]);
        let dbr: [&mut [f32]; S] = std::array::from_fn(|_| &mut dbi.next().unwrap()[..]);
        body(&xpad, &dyt, mrange, dwr, dbr, hh, ww, c, m, k);
        let bits = |v: &Vec<f32>| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        dw.iter()
            .zip(&db)
            .map(|(a, b)| (bits(a), bits(b)))
            .collect()
    }

    #[test]
    fn transpose_avx_and_portable_agree_bitwise() {
        // Dispatch transparency of `transpose_sample` at one and two
        // samples per vector: whole 8-pixel blocks plus ragged pixel tails
        // (15 and 3 pixels), lane counts below, at and above one vector,
        // over NaN-filled scratch so every lane must be written.
        for (m, hh, ww) in [
            (4usize, 8usize, 8usize),
            (3, 5, 3),
            (9, 4, 4),
            (1, 1, 3),
            (8, 2, 8),
        ] {
            let dy = init::uniform(&[3, m, hh, ww], -1.0, 1.0, 59);
            for spv in [1usize, 2] {
                let len = hh * ww * grad_row_len(m, spv);
                let mut dispatched = vec![f32::NAN; len];
                transpose_sample(&dy, 1, spv, &mut dispatched);
                let mut portable = vec![f32::NAN; len];
                let planes = &dy.data()[m * hh * ww..(1 + spv) * m * hh * ww];
                transpose_pixels(planes, m, spv, hh * ww, 0..hh * ww, &mut portable);
                let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&dispatched),
                    bits(&portable),
                    "m={m} {hh}x{ww} spv={spv}"
                );
            }
        }
    }

    #[test]
    fn weight_grad_avx_and_portable_agree_bitwise() {
        // Dispatch transparency of `conv_weight_grad_rows` at one and two
        // samples per vector, over the full output-channel range and ranges
        // that start and end inside a lane group (the row split's shape);
        // 36, 75, 18 and 2 taps leave the AVX body a short last pass and 72
        // taps none, and m = 1, 3 and 9 leave padding lanes. The packed pair
        // must also equal each of its samples run alone, bit for bit.
        for (c, m, hh, ww, k) in [
            (4usize, 4usize, 8usize, 8usize, 3usize),
            (3, 9, 2, 16, 5),
            (2, 11, 5, 3, 1),
            (3, 3, 5, 3, 5),
            (2, 1, 4, 5, 3),
            (8, 2, 3, 8, 3),
        ] {
            let x = init::uniform(&[3, c, hh, ww], -1.0, 1.0, 47);
            let dy = init::uniform(&[3, m, hh, ww], -1.0, 1.0, 53);
            for mrange in std::iter::once(0..m).chain((m > 2).then_some(1..m - 1)) {
                let case = format!("w={ww} k={k} m={m} mrange={mrange:?}");
                let alone: Vec<_> = (1..3)
                    .map(|ni| {
                        let run = |body| run_weight_grad::<1>(body, &x, &dy, ni, mrange.clone(), k);
                        let portable = run(conv_weight_grad_rows_portable::<1>);
                        assert_eq!(portable, run(conv_weight_grad_rows::<1>), "{case}");
                        portable.into_iter().next().unwrap()
                    })
                    .collect();
                let run = |body| run_weight_grad::<2>(body, &x, &dy, 1, mrange.clone(), k);
                let portable = run(conv_weight_grad_rows_portable::<2>);
                assert_eq!(portable, run(conv_weight_grad_rows::<2>), "{case}");
                assert_eq!(portable, alone, "packed pair vs alone: {case}");
            }
        }
    }

    #[test]
    fn fused_forward_matches_unfused_composition_bitwise() {
        use crate::norm::GroupNorm;
        let conv = Conv2d::new_seeded(3, 4, 3, 9);
        let gn = GroupNorm::new(4, 2);
        let x = init::uniform(&[5, 3, 6, 6], -1.0, 1.0, 19);
        for act in [None, Some(Activation::Relu), Some(Activation::Tanh)] {
            let fused = conv.forward_fused(&x, Some(&gn), act);
            let (normed, _) = gn.forward(&conv.forward(&x));
            let unfused = match act {
                Some(a) => a.forward(&normed),
                None => normed,
            };
            assert_eq!(fused.data(), unfused.data(), "act={act:?}");
        }
    }

    #[test]
    fn fused_forward_without_norm_applies_activation_bitwise() {
        let conv = Conv2d::new_seeded(2, 3, 3, 23);
        let x = init::uniform(&[3, 2, 4, 4], -1.0, 1.0, 29);
        let fused = conv.forward_fused(&x, None, Some(Activation::Relu));
        let unfused = Activation::Relu.forward(&conv.forward(&x));
        assert_eq!(fused.data(), unfused.data());
        let plain = conv.forward_fused(&x, None, None);
        assert_eq!(plain.data(), conv.forward(&x).data());
    }

    #[test]
    fn macs_count() {
        let conv = Conv2d::new_seeded(8, 8, 3, 0);
        assert_eq!(conv.macs(1, 64, 64), 8 * 8 * 64 * 64 * 9);
    }

    #[test]
    #[should_panic(expected = "odd kernel")]
    fn even_kernel_rejected() {
        let w = Tensor::zeros(&[1, 1, 2, 2]);
        let _ = Conv2d::from_parts(w, Tensor::zeros(&[1]));
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn wrong_input_channels_rejected() {
        let conv = Conv2d::new_seeded(3, 4, 3, 0);
        let x = Tensor::ones(&[1, 2, 4, 4]);
        let _ = conv.forward(&x);
    }
}
