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
//! (`pad_sample`), each with an AVX and an AVX-512F body behind
//! `crate::simd`, stamped by one macro per kernel, that transcribe its
//! portable body lane for lane:
//!
//! - forward (`conv_direct_rows`): taps in `(c, kh, kw)` order over the
//!   padded `x`, 8-wide blocks (16-wide with AVX-512F on rows of whole
//!   16-pixel blocks) along each output row, each pass holding 4 output
//!   channels × 2 blocks so one input load feeds four channels;
//! - input gradient (`conv_input_grad_rows`): the forward's taps flipped
//!   over the padded `dy`, blocked the same way across 4 input channels ×
//!   2 blocks so one `dy` load feeds four `dx` channels, one partial per
//!   output channel;
//! - weight gradient (`conv_weight_grad_rows`): lanes across output
//!   channels (16 with AVX-512F, else 8) over the padded `x` and `dy`
//!   transposed to `[H·W][M rounded up to a vector]`, one chain per
//!   `(m, tap)` over pixels, passes of up to 8 live taps; when a sample's
//!   channels fill at most half a vector the batch split packs 2 or 4
//!   samples per vector (4 at `M ≤ 4` with AVX-512F).
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
    /// `[H·W][M rounded up to a vector]` in arena scratch, and a direct
    /// kernel (`conv_weight_grad_rows`) runs its lanes across output
    /// channels (16 with AVX-512F, else 8): each lane of tap
    /// `q = (c·K + kh)·K + kw` is the chain from `+0.0` of
    /// `dy[m, p]·x_q[p]` over pixels `p` in row-major order, border zeros
    /// included — the im2col lowering's `dW[m, q] = Σ_p dy[m, p]·cols[q, p]`
    /// chain, element for element, without materializing the columns.
    ///
    /// When a sample's channels fill at most half a vector, the batch split
    /// packs [`grad_samples_per_vector`] samples into one (with AVX-512F
    /// four at `M ≤ 4` and two at `M ≤ 8`; with AVX two at `M ≤ 4` and four
    /// at `M ≤ 2`): lanes are channel-major
    /// (`m0·s0, m0·s1, …, m1·s0, …`), the pack's `x` is interleaved in one
    /// padded plane so a 64- or 128-bit broadcast feeds every sample, and a
    /// chunk's last samples run as a smaller pack. Each lane is still one
    /// sample's `(m, tap)` chain in the same order, so packing changes no
    /// bit. The batch reduction combines per-sample partials in sample
    /// order (a fixed tree), so the result does not depend on the thread
    /// count.
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
                            // Packs of `spv` samples, then a chunk's last
                            // `< spv` samples as a pair and a single.
                            let (mut ni, mut rest) = (range.start, slab);
                            while ni < range.end {
                                let pack = match (range.end - ni).min(spv) {
                                    4 => 4,
                                    2 | 3 => 2,
                                    _ => 1,
                                };
                                let parts;
                                (parts, rest) = rest.split_at_mut(pack * psize);
                                match pack {
                                    4 => self.param_partials::<4>(x, dy, ni, parts, xpad, dyt),
                                    2 => self.param_partials::<2>(x, dy, ni, parts, xpad, dyt),
                                    _ => self.param_partials::<1>(x, dy, ni, parts, xpad, dyt),
                                }
                                ni += pack;
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
/// position: `spv = 1` is the plain padded plane, `spv = 2` or `4` the
/// packed plane of the weight-gradient kernel, whose 64- or 128-bit
/// broadcast reads every sample's value at once. The whole plane is
/// cleared first (arena scratch is reused dirty), then each input row is
/// copied (or interleaved, see [`interleave_rows`]) into the interior.
/// Clearing only the halo measured slower at both shipped shapes: the halo
/// is a run of `2·pad·spv` floats between every two interior rows, and
/// one wide fill of the plane takes fewer stores than those runs do.
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
        if spv == 1 {
            for ih in 0..h {
                let base = (ih + pad) * pw + pad;
                let xrow = &xdata[((ni * c + ci) * h + ih) * w..][..w];
                dch[base..base + w].copy_from_slice(xrow);
            }
            continue;
        }
        // Row `ih` of every sample lands at padded row `ih + pad`, column
        // `pad`, interleaved.
        let interior = &mut dch[(pad * pw + pad) * spv..];
        let plane = |s: usize| &xdata[((ni + s) * c + ci) * h * w..][..h * w];
        match spv {
            2 => interleave_rows::<2>(std::array::from_fn(plane), w, interior, pw * 2),
            4 => interleave_rows::<4>(std::array::from_fn(plane), w, interior, pw * 4),
            _ => unreachable!("one, two or four samples per vector"),
        }
    }
}

/// Interleaves `S` planes of rows of `w` floats (`S` = 2 or 4) into
/// `dst`, whose row `r` starts at `r·stride`:
/// `dst[r·stride + p·S + s] = planes[s][r·w + p]`. With AVX, whole
/// 8-pixel runs move through unpack, shuffle and 128-bit permute
/// registers, and the last `w mod 8` pixels of each row scalar.
fn interleave_rows<const S: usize>(planes: [&[f32]; S], w: usize, dst: &mut [f32], stride: usize) {
    let rows = planes[0].len() / w.max(1);
    assert!(planes.iter().all(|p| p.len() == rows * w) && stride >= w * S);
    assert!(rows == 0 || dst.len() >= (rows - 1) * stride + w * S);
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx() {
        // SAFETY: AVX is present (runtime check); every plane holds `rows`
        // rows of `w` floats and `dst` reaches `w·S` floats past its last
        // row start, as asserted above.
        let done = unsafe { interleave_runs_avx::<S>(planes, w, rows, dst, stride) };
        interleave_pixels(planes, w, done..w, dst, stride);
        return;
    }
    interleave_pixels(planes, w, 0..w, dst, stride);
}

/// Portable body of [`interleave_rows`] over the columns `cols` of every
/// row.
fn interleave_pixels<const S: usize>(
    planes: [&[f32]; S],
    w: usize,
    cols: std::ops::Range<usize>,
    dst: &mut [f32],
    stride: usize,
) {
    for r in 0..planes[0].len() / w.max(1) {
        for p in cols.clone() {
            for (s, plane) in planes.iter().enumerate() {
                dst[r * stride + p * S + s] = plane[r * w + p];
            }
        }
    }
}

/// AVX body of [`interleave_rows`] over the whole 8-pixel runs of every
/// row. Returns the number of columns written per row.
///
/// # Safety
///
/// The host must support AVX, `S` must be 2 or 4, every plane must hold
/// `rows` rows of `w` floats, and `dst` must hold `w·S` floats past
/// `(rows − 1)·stride`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn interleave_runs_avx<const S: usize>(
    planes: [&[f32]; S],
    w: usize,
    rows: usize,
    dst: &mut [f32],
    stride: usize,
) -> usize {
    use std::arch::x86_64::*;
    let run = w / 8 * 8;
    for r in 0..rows {
        let out = dst.as_mut_ptr().add(r * stride);
        for p0 in (0..run).step_by(8) {
            let v: [__m256; S] =
                std::array::from_fn(|s| _mm256_loadu_ps(planes[s].as_ptr().add(r * w + p0)));
            let o = out.add(p0 * S);
            // Pair the first two planes within each 128-bit half: `lo`
            // holds pixels 0, 1 | 4, 5 and `hi` pixels 2, 3 | 6, 7.
            let lo = _mm256_unpacklo_ps(v[0], v[1]);
            let hi = _mm256_unpackhi_ps(v[0], v[1]);
            if S == 2 {
                _mm256_storeu_ps(o, _mm256_permute2f128_ps::<0x20>(lo, hi));
                _mm256_storeu_ps(o.add(8), _mm256_permute2f128_ps::<0x31>(lo, hi));
            } else {
                let lo2 = _mm256_unpacklo_ps(v[2], v[3]);
                let hi2 = _mm256_unpackhi_ps(v[2], v[3]);
                // One pixel's four samples per 128-bit half: pixels 0 | 4,
                // 1 | 5, 2 | 6 and 3 | 7.
                let q = [
                    _mm256_shuffle_ps::<0x44>(lo, lo2),
                    _mm256_shuffle_ps::<0xEE>(lo, lo2),
                    _mm256_shuffle_ps::<0x44>(hi, hi2),
                    _mm256_shuffle_ps::<0xEE>(hi, hi2),
                ];
                _mm256_storeu_ps(o, _mm256_permute2f128_ps::<0x20>(q[0], q[1]));
                _mm256_storeu_ps(o.add(8), _mm256_permute2f128_ps::<0x20>(q[2], q[3]));
                _mm256_storeu_ps(o.add(16), _mm256_permute2f128_ps::<0x31>(q[0], q[1]));
                _mm256_storeu_ps(o.add(24), _mm256_permute2f128_ps::<0x31>(q[2], q[3]));
            }
        }
    }
    run
}

/// Transposes samples `ni..ni + spv` of `dy = [N, M, H, W]` into
/// `dst = [H·W][grad_row_len(M, spv)]` for the weight-gradient kernel:
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

/// Transposes the 8×8 block whose rows are `r`: vector `j` of the result
/// holds element `j` of every row, in row order.
///
/// # Safety
///
/// The host must support AVX.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx")]
unsafe fn transpose8x8_avx(r: [std::arch::x86_64::__m256; 8]) -> [std::arch::x86_64::__m256; 8] {
    use std::arch::x86_64::*;
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
    std::array::from_fn(|j| match j {
        0..=3 => _mm256_permute2f128_ps::<0x20>(q[j], q[j + 4]),
        _ => _mm256_permute2f128_ps::<0x31>(q[j - 4], q[j]),
    })
}

/// AVX body of [`transpose_sample`] over the whole 8-pixel blocks: per
/// lane group and block, eight plane rows (zeros for padding lanes) go
/// through an 8×8 register transpose and out as eight `dst` rows. Returns
/// the number of pixels written.
///
/// # Safety
///
/// The host must support AVX; `planes` must hold `spv·m` planes of `hw`
/// floats and `dst` `hw` rows of [`grad_row_len`]`(m, spv)` floats (a
/// multiple of 8).
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
            for (i, v) in transpose8x8_avx(r).into_iter().enumerate() {
                _mm256_storeu_ps(out.add((p0 + i) * row + lane0), v);
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
/// both the split and the SIMD dispatch below: the AVX-512F body for rows
/// of whole 16-wide blocks, the AVX body for rows of whole 8-wide blocks,
/// the portable loop otherwise.
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
    // Once per call: the SIMD bodies' pointer walk relies on every one.
    assert_eq!(k % 2, 1, "odd kernel");
    assert_eq!(xpad.len(), padded_plane_len(c, k, h, w));
    assert!(wmat.len() >= mrange.end * c * k * k && bias.len() >= mrange.end);
    assert_eq!(out.len(), mrange.len() * h * w);
    #[cfg(target_arch = "x86_64")]
    {
        if w.is_multiple_of(16) && crate::simd::avx512f() {
            // SAFETY: AVX-512F is present (runtime check) and `w` is a whole
            // number of 16-wide blocks; the kernel is odd and the slice
            // lengths and channel range are asserted above, so every load
            // (at most K−1 rows and columns past an output pixel, inside the
            // padded plane) and every store stays inside its slice.
            unsafe { conv_direct_rows_avx512(xpad, wmat, bias, mrange, out, h, w, c, k) };
            return;
        }
        if w.is_multiple_of(8) && crate::simd::avx() {
            // SAFETY: as above, with AVX and 8-wide blocks.
            unsafe { conv_direct_rows_avx(xpad, wmat, bias, mrange, out, h, w, c, k) };
            return;
        }
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

/// Geometry of one padded sample, shared by the passes of a SIMD body of
/// [`conv_direct_rows`] or [`conv_input_grad_rows`].
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct DirectGeometry {
    /// Channels a pass sums over: the input channels of the forward, the
    /// output channels of the input gradient.
    c: usize,
    k: usize,
    /// Padded row length `W + 2·pad`.
    pw: usize,
    /// Padded plane length `(H + 2·pad)·(W + 2·pad)`.
    phpw: usize,
    /// Weight stride between output channels, `C·K·K` (one weight row).
    ckk: usize,
    /// Output plane length `H·W`.
    hw: usize,
}

/// Stamps one SIMD body of [`conv_direct_rows`] for a vector of `$lanes`
/// floats, so the 8-wide and 16-wide bodies are one source.
///
/// The output planes are tiled into `$lanes`-wide blocks along each row.
/// A pass holds up to 4 output channels × 2 blocks in 8 accumulators: per
/// tap it loads each block's input vector once, broadcasts each channel's
/// weight, and multiplies then adds into every accumulator — the eNODE NN
/// core's broadcast of one input-channel packet to every output-channel
/// PE. Block offsets are stepped, not divided. Tails run the same pass
/// with fewer channels (`mrange.len() % 4`) or one block (an odd block
/// count). Each lane runs the portable chain — bias, then mul+add per tap
/// in `(c, kh, kw)` order, never FMA — so the result is bitwise identical
/// to the portable body.
#[cfg(target_arch = "x86_64")]
macro_rules! conv_direct_rows_simd {
    (
        $(#[$doc:meta])*
        $name:ident, $feature:literal, $lanes:literal,
        $load:ident, $splat:ident, $add:ident, $mul:ident, $store:ident
    ) => {
        $(#[$doc])*
        ///
        /// # Safety
        ///
        /// The host must support the body's ISA, `w` must be a multiple of
        /// its lane count, and the arguments must satisfy the length and
        /// range assertions of [`conv_direct_rows`].
        #[target_feature(enable = $feature)]
        #[allow(clippy::too_many_arguments)] // geometry of one padded sample, passed flat
        unsafe fn $name(
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

            /// One pass: channels `0..MC` of the group whose first weight
            /// row, bias and output plane are `wrow`, `bias` and `out`, over
            /// the `NB` blocks whose lane 0 sits at padded offset `offs[b]`
            /// (tap `(0, 0)`) and output offset `outs[b]`.
            #[target_feature(enable = $feature)]
            unsafe fn pass<const MC: usize, const NB: usize>(
                g: DirectGeometry,
                xp: *const f32,
                offs: [usize; NB],
                outs: [usize; NB],
                wrow: *const f32,
                bias: *const f32,
                out: *mut f32,
            ) {
                let mut acc = [[$splat(0.0); NB]; MC];
                for (ch, row) in acc.iter_mut().enumerate() {
                    *row = [$splat(*bias.add(ch)); NB];
                }
                let mut q = 0;
                for ci in 0..g.c {
                    let xc = xp.add(ci * g.phpw);
                    for kh in 0..g.k {
                        let xr = xc.add(kh * g.pw);
                        for kw in 0..g.k {
                            let mut xv = [$splat(0.0); NB];
                            for (v, &o) in xv.iter_mut().zip(&offs) {
                                *v = $load(xr.add(o + kw));
                            }
                            for (ch, row) in acc.iter_mut().enumerate() {
                                let tap = $splat(*wrow.add(ch * g.ckk + q));
                                for (a, &v) in row.iter_mut().zip(&xv) {
                                    *a = $add(*a, $mul(tap, v));
                                }
                            }
                            q += 1;
                        }
                    }
                }
                for (ch, row) in acc.iter().enumerate() {
                    for (&a, &o) in row.iter().zip(&outs) {
                        $store(out.add(ch * g.hw + o), a);
                    }
                }
            }

            /// Every block of channels `0..MC` of one group: pairs, then a
            /// last single block when the count is odd.
            #[target_feature(enable = $feature)]
            unsafe fn group<const MC: usize>(
                g: DirectGeometry,
                wblocks: usize,
                blocks: usize,
                xp: *const f32,
                wrow: *const f32,
                bias: *const f32,
                out: *mut f32,
            ) {
                // Padded offset of the next block's lane 0 and its column:
                // a row's last block steps over the 2·pad border columns.
                let (mut off, mut col) = (0, 0);
                let mut next = || {
                    let o = off;
                    col += 1;
                    off += $lanes;
                    if col == wblocks {
                        col = 0;
                        off += g.pw - wblocks * $lanes;
                    }
                    o
                };
                let mut j = 0;
                while j + 2 <= blocks {
                    let offs = [next(), next()];
                    let outs = [j * $lanes, (j + 1) * $lanes];
                    pass::<MC, 2>(g, xp, offs, outs, wrow, bias, out);
                    j += 2;
                }
                if j < blocks {
                    pass::<MC, 1>(g, xp, [next()], [j * $lanes], wrow, bias, out);
                }
            }

            let pad = k / 2;
            let pw = w + 2 * pad;
            let g = DirectGeometry {
                c,
                k,
                pw,
                phpw: (h + 2 * pad) * pw,
                ckk: c * k * k,
                hw: h * w,
            };
            let wblocks = w / $lanes; // caller guarantees w % $lanes == 0
            let blocks = h * wblocks;
            let xp = xpad.as_ptr();
            let mut mi = mrange.start;
            while mi < mrange.end {
                let wrow = wmat.as_ptr().add(mi * g.ckk);
                let b = bias.as_ptr().add(mi);
                let o = out.as_mut_ptr().add((mi - mrange.start) * g.hw);
                match mrange.end - mi {
                    1 => group::<1>(g, wblocks, blocks, xp, wrow, b, o),
                    2 => group::<2>(g, wblocks, blocks, xp, wrow, b, o),
                    3 => group::<3>(g, wblocks, blocks, xp, wrow, b, o),
                    _ => group::<4>(g, wblocks, blocks, xp, wrow, b, o),
                }
                mi += 4;
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
conv_direct_rows_simd!(
    /// AVX body of [`conv_direct_rows`] (`w % 8 == 0`): 8-wide blocks.
    conv_direct_rows_avx, "avx", 8,
    _mm256_loadu_ps, _mm256_set1_ps, _mm256_add_ps, _mm256_mul_ps, _mm256_storeu_ps
);

#[cfg(target_arch = "x86_64")]
conv_direct_rows_simd!(
    /// AVX-512F body of [`conv_direct_rows`] (`w % 16 == 0`): 16-wide
    /// blocks, one per register.
    conv_direct_rows_avx512, "avx512f", 16,
    _mm512_loadu_ps, _mm512_set1_ps, _mm512_add_ps, _mm512_mul_ps, _mm512_storeu_ps
);

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
/// the split and the SIMD dispatch below: the AVX-512F body for rows of
/// whole 16-wide blocks, the AVX body for rows of whole 8-wide blocks, the
/// portable loop otherwise.
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
    // Once per call: the SIMD bodies' pointer walk relies on every one.
    assert_eq!(k % 2, 1, "odd kernel");
    assert_eq!(dypad.len(), padded_plane_len(m, k, h, w));
    assert_eq!(wmat.len(), m * c * k * k);
    assert!(crange.end <= c);
    assert_eq!(out.len(), crange.len() * h * w);
    #[cfg(target_arch = "x86_64")]
    {
        if w.is_multiple_of(16) && crate::simd::avx512f() {
            // SAFETY: AVX-512F is present (runtime check) and `w` is a whole
            // number of 16-wide blocks; the kernel is odd and the slice
            // lengths and channel range are asserted above, so every load
            // (at most K−1 rows and columns past an output pixel, inside the
            // padded plane) and every store stays inside its slice.
            unsafe { conv_input_grad_rows_avx512(dypad, wmat, crange, out, h, w, c, m, k) };
            return;
        }
        if w.is_multiple_of(8) && crate::simd::avx() {
            // SAFETY: as above, with AVX and 8-wide blocks.
            unsafe { conv_input_grad_rows_avx(dypad, wmat, crange, out, h, w, c, m, k) };
            return;
        }
    }
    conv_input_grad_rows_portable(dypad, wmat, crange, out, h, w, c, m, k);
}

/// Portable body of [`conv_input_grad_rows`]: per output row, 8-wide
/// chunks, each accumulating one output channel's partial over the
/// flipped taps before adding it into the row — lane for lane the SIMD
/// bodies' arithmetic.
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

/// Stamps one SIMD body of [`conv_input_grad_rows`] for a vector of
/// `$lanes` floats, so the 8-wide and 16-wide bodies are one source.
///
/// The `dx` planes are tiled into `$lanes`-wide blocks along each row. A
/// pass holds up to 4 input channels × 2 blocks: per output channel `m` it
/// starts one partial per (channel, block) at `+0.0`, and per flipped tap
/// loads each block's `dy` vector once, broadcasts each channel's weight
/// and multiplies then adds into every partial; after the taps each
/// partial is added into its `dx` accumulator, which started at `+0.0`.
/// Block offsets are stepped, not divided. Tails run the same pass with
/// fewer channels (`crange.len() % 4`) or one block (an odd block count).
/// Each lane runs the portable chain — `0.0 + part₀ + part₁ + …`, each
/// `part_m` a `+0.0`-started mul+add chain over `(kh, kw)`, never FMA — so
/// the result is bitwise identical to the portable body.
#[cfg(target_arch = "x86_64")]
macro_rules! conv_input_grad_rows_simd {
    (
        $(#[$doc:meta])*
        $name:ident, $feature:literal, $lanes:literal,
        $load:ident, $splat:ident, $add:ident, $mul:ident, $store:ident
    ) => {
        $(#[$doc])*
        ///
        /// # Safety
        ///
        /// The host must support the body's ISA, `w` must be a multiple of
        /// its lane count, and the arguments must satisfy the length and
        /// range assertions of [`conv_input_grad_rows`].
        #[target_feature(enable = $feature)]
        #[allow(clippy::too_many_arguments)] // geometry of one padded sample, passed flat
        unsafe fn $name(
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

            /// One pass: input channels `0..CC` of the group whose first
            /// weight column and `dx` plane are `wcol` (tap 0 of output
            /// channel 0) and `out`, over the `NB` blocks whose lane 0 sits
            /// at padded offset `offs[b]` (tap `(K−1, K−1)`, the top-left
            /// corner of its window) and output offset `outs[b]`.
            #[target_feature(enable = $feature)]
            unsafe fn pass<const CC: usize, const NB: usize>(
                g: DirectGeometry,
                dp: *const f32,
                offs: [usize; NB],
                outs: [usize; NB],
                wcol: *const f32,
                out: *mut f32,
            ) {
                let kk = g.k * g.k;
                let last = g.k - 1;
                let mut acc = [[$splat(0.0); NB]; CC];
                for mi in 0..g.c {
                    let dm = dp.add(mi * g.phpw);
                    let wm = wcol.add(mi * g.ckk);
                    let mut part = [[$splat(0.0); NB]; CC];
                    for kh in 0..g.k {
                        // Tap (kh, kw) reads `dy` K−1−kh rows and K−1−kw
                        // columns past the window's corner.
                        let dr = dm.add((last - kh) * g.pw + last);
                        for kw in 0..g.k {
                            let mut dv = [$splat(0.0); NB];
                            for (v, &o) in dv.iter_mut().zip(&offs) {
                                *v = $load(dr.add(o).sub(kw));
                            }
                            let q = kh * g.k + kw;
                            for (ch, row) in part.iter_mut().enumerate() {
                                let tap = $splat(*wm.add(ch * kk + q));
                                for (p, &v) in row.iter_mut().zip(&dv) {
                                    *p = $add(*p, $mul(v, tap));
                                }
                            }
                        }
                    }
                    for (row, prow) in acc.iter_mut().zip(&part) {
                        for (a, &p) in row.iter_mut().zip(prow) {
                            *a = $add(*a, p);
                        }
                    }
                }
                for (ch, row) in acc.iter().enumerate() {
                    for (&a, &o) in row.iter().zip(&outs) {
                        $store(out.add(ch * g.hw + o), a);
                    }
                }
            }

            /// Every block of input channels `0..CC` of one group: pairs,
            /// then a last single block when the count is odd.
            #[target_feature(enable = $feature)]
            unsafe fn group<const CC: usize>(
                g: DirectGeometry,
                wblocks: usize,
                blocks: usize,
                dp: *const f32,
                wcol: *const f32,
                out: *mut f32,
            ) {
                // Padded offset of the next block's window corner and its
                // column: a row's last block steps over the 2·pad border
                // columns.
                let (mut off, mut col) = (0, 0);
                let mut next = || {
                    let o = off;
                    col += 1;
                    off += $lanes;
                    if col == wblocks {
                        col = 0;
                        off += g.pw - wblocks * $lanes;
                    }
                    o
                };
                let mut j = 0;
                while j + 2 <= blocks {
                    let offs = [next(), next()];
                    let outs = [j * $lanes, (j + 1) * $lanes];
                    pass::<CC, 2>(g, dp, offs, outs, wcol, out);
                    j += 2;
                }
                if j < blocks {
                    pass::<CC, 1>(g, dp, [next()], [j * $lanes], wcol, out);
                }
            }

            let pad = k / 2;
            let pw = w + 2 * pad;
            let g = DirectGeometry {
                c: m,
                k,
                pw,
                phpw: (h + 2 * pad) * pw,
                ckk: c * k * k,
                hw: h * w,
            };
            let wblocks = w / $lanes; // caller guarantees w % $lanes == 0
            let blocks = h * wblocks;
            let dp = dypad.as_ptr();
            let mut ci = crange.start;
            while ci < crange.end {
                let wcol = wmat.as_ptr().add(ci * k * k);
                let o = out.as_mut_ptr().add((ci - crange.start) * g.hw);
                match crange.end - ci {
                    1 => group::<1>(g, wblocks, blocks, dp, wcol, o),
                    2 => group::<2>(g, wblocks, blocks, dp, wcol, o),
                    3 => group::<3>(g, wblocks, blocks, dp, wcol, o),
                    _ => group::<4>(g, wblocks, blocks, dp, wcol, o),
                }
                ci += 4;
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
conv_input_grad_rows_simd!(
    /// AVX body of [`conv_input_grad_rows`] (`w % 8 == 0`): 8-wide blocks.
    conv_input_grad_rows_avx, "avx", 8,
    _mm256_loadu_ps, _mm256_set1_ps, _mm256_add_ps, _mm256_mul_ps, _mm256_storeu_ps
);

#[cfg(target_arch = "x86_64")]
conv_input_grad_rows_simd!(
    /// AVX-512F body of [`conv_input_grad_rows`] (`w % 16 == 0`): 16-wide
    /// blocks, one per register.
    conv_input_grad_rows_avx512, "avx512f", 16,
    _mm512_loadu_ps, _mm512_set1_ps, _mm512_add_ps, _mm512_mul_ps, _mm512_storeu_ps
);

/// Lanes of one lane group of the portable weight-gradient body, and of
/// one AVX vector.
const GRAD_LANES: usize = 8;

/// Lanes of the widest weight-gradient body this host runs: 16 with
/// AVX-512F, else [`GRAD_LANES`]. The transposed `dy` rows are padded to a
/// multiple of it, so every body's lane groups tile them.
fn grad_lanes() -> usize {
    if crate::simd::avx512f() {
        16
    } else {
        GRAD_LANES
    }
}

/// Samples the batch split of [`Conv2d::backward_params`] packs into one
/// weight-gradient vector for `m` output channels: the most of 4, 2 or 1
/// whose `m` channels each fit one vector of the host's widest body (16
/// lanes with AVX-512F, else 8) — four at `m ≤ 4` with AVX-512F, two at
/// `m ≤ 4` with AVX (four at `m ≤ 2`), two at `m ≤ 8` with AVX-512F, else
/// one.
pub fn grad_samples_per_vector(m: usize) -> usize {
    match grad_lanes() / m.max(1) {
        0 | 1 => 1,
        2 | 3 => 2,
        _ => 4,
    }
}

/// Row length of the transposed `dy` holding `spv` samples of `m`
/// channels: `m·spv` lanes rounded up to a whole vector of [`grad_lanes`].
fn grad_row_len(m: usize, spv: usize) -> usize {
    (m * spv).next_multiple_of(grad_lanes())
}

/// Weight and bias gradients of `S` samples over the output-channel range
/// `mrange`, from their zero-padded input (`xpad = [C][H+2·pad][W+2·pad][S]`,
/// see [`pad_sample`]) and their transposed output gradient
/// (`dyt = [H·W][grad_row_len(M, S)]`, see [`transpose_sample`]):
/// `dwrows[s][m, q] += Σ_p dy_s[m, p]·x_{s,q}[p]` and
/// `dbrows[s][m] += Σ_p dy_s[m, p]`, rows local to `mrange`.
///
/// Lane `m·S + s` of the transposed rows holds channel `m` of sample `s`;
/// a body's lane group covers `lanes / S` output channels of all `S`
/// samples, so every lane of tap `q = (c·K + kh)·K + kw` is one sample's
/// chain from `+0.0` of `dy[m, p]·x_q[p]` over pixels `p` in row-major
/// order, border zeros included — exactly the im2col lowering's per-`(m, q)`
/// dot product, whatever `S` and the body are. The bias lane sums start at
/// `+0.0`; a serial `Iterator::sum` may start at `−0.0`, but the two
/// differ only in the sign of an all-zero sum, which the `+=` into a
/// `+0.0`-started gradient erases. Lanes outside `mrange` (group edges,
/// padding channels) are computed and dropped.
///
/// Dispatch: the AVX-512F body (16 lanes) when the host has it, else the
/// AVX body (8 lanes), else the portable loop.
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
    // Once per call: the SIMD bodies' pointer walk relies on every one.
    assert!(
        matches!(S, 1 | 2 | 4),
        "one, two or four samples per vector"
    );
    assert_eq!(k % 2, 1, "odd kernel");
    assert_eq!(xpad.len(), S * padded_plane_len(c, k, h, w));
    assert_eq!(dyt.len(), h * w * grad_row_len(m, S));
    assert!(mrange.end <= m);
    for (dwr, dbr) in dwrows.iter().zip(&dbrows) {
        assert_eq!(dwr.len(), mrange.len() * c * k * k);
        assert_eq!(dbr.len(), mrange.len());
    }
    #[cfg(target_arch = "x86_64")]
    {
        if crate::simd::avx512f() {
            // SAFETY: AVX-512F is present (runtime check), so the row length
            // asserted above is a whole number of 16-lane groups; the kernel
            // is odd, `S` is 1, 2 or 4, and the slice lengths and channel
            // range are asserted above, so every load stays inside them (a
            // tap's pixel walk ends inside the padded plane, and a lane
            // group ends at or before the padded row length); the stores go
            // through bounds-checked indexing.
            unsafe {
                conv_weight_grad_rows_avx512::<S>(xpad, dyt, mrange, dwrows, dbrows, h, w, c, m, k)
            };
            return;
        }
        if crate::simd::avx() {
            // SAFETY: as above, with AVX and 8-lane groups (the row length
            // is a multiple of 8 on every host).
            unsafe {
                conv_weight_grad_rows_avx::<S>(xpad, dyt, mrange, dwrows, dbrows, h, w, c, m, k)
            };
            return;
        }
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
    lanes: &[f32],
) {
    let live = m0.max(mrange.start)..(m0 + lanes.len() / S).min(mrange.end);
    for (s, rows) in rows.iter_mut().enumerate() {
        for mi in live.clone() {
            rows[(mi - mrange.start) * stride + col] += lanes[(mi - m0) * S + s];
        }
    }
}

/// Portable body of [`conv_weight_grad_rows`]: per 8-lane group and tap,
/// an accumulator swept over the pixels — lane for lane the SIMD bodies'
/// arithmetic.
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

/// Broadcasts sample-interleaved `x` at `p` across an AVX vector: one
/// float to all eight lanes (`S = 1`), or the samples `(x_0, …, x_{S−1})`
/// to every run of `S` lanes through one 64-bit (`S = 2`) or 128-bit
/// (`S = 4`) broadcast, matching the packed lane order `(m, s)`.
///
/// # Safety
///
/// The host must support AVX and `p` must point at `S` readable floats.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx")]
unsafe fn broadcast_samples_avx<const S: usize>(p: *const f32) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    match S {
        1 => _mm256_broadcast_ss(&*p),
        2 => _mm256_castpd_ps(_mm256_set1_pd(p.cast::<f64>().read_unaligned())),
        _ => _mm256_broadcast_ps(&_mm_loadu_ps(p)),
    }
}

/// [`broadcast_samples_avx`] across an AVX-512F vector of 16 lanes.
///
/// # Safety
///
/// The host must support AVX-512F and `p` must point at `S` readable
/// floats.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn broadcast_samples_avx512<const S: usize>(p: *const f32) -> std::arch::x86_64::__m512 {
    use std::arch::x86_64::*;
    match S {
        1 => _mm512_set1_ps(*p),
        2 => _mm512_castpd_ps(_mm512_set1_pd(p.cast::<f64>().read_unaligned())),
        _ => _mm512_broadcast_f32x4(_mm_loadu_ps(p)),
    }
}

/// Adds the sums of one full pass — [`GRAD_TAPS`] taps from `q0`, each a
/// vector of `L` lanes laid out as in [`add_group_lanes`] — into their
/// rows. A live lane's eight taps are one contiguous run
/// `rows[s][(mi − mrange.start)·stride + q0..][..8]`, so 8×8 register
/// transposes turn the tap-major sums into lane-major runs, each added
/// with one vector add: the same `row + sum` per element as
/// [`add_group_lanes`].
///
/// # Safety
///
/// The host must support AVX, and `L` must be a multiple of 8.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn add_tap_runs_avx<const S: usize, const L: usize>(
    rows: &mut [&mut [f32]; S],
    stride: usize,
    q0: usize,
    mrange: &std::ops::Range<usize>,
    m0: usize,
    sums: &[[f32; L]; GRAD_TAPS],
) {
    use std::arch::x86_64::*;
    for l0 in (0..L).step_by(8) {
        let runs = transpose8x8_avx(std::array::from_fn(|t| {
            _mm256_loadu_ps(sums[t][l0..].as_ptr())
        }));
        for (j, run) in runs.into_iter().enumerate() {
            let (mi, s) = (m0 + (l0 + j) / S, (l0 + j) % S);
            if mrange.contains(&mi) {
                let dst = &mut rows[s][(mi - mrange.start) * stride + q0..][..GRAD_TAPS];
                let sum = _mm256_add_ps(_mm256_loadu_ps(dst.as_ptr()), run);
                _mm256_storeu_ps(dst.as_mut_ptr(), sum);
            }
        }
    }
}

/// Geometry of one padded sample pack, shared by the passes of a SIMD body
/// of [`conv_weight_grad_rows`].
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct WeightGradGeometry {
    h: usize,
    w: usize,
    k: usize,
    /// Padded row length `W + 2·pad`.
    pw: usize,
    /// Padded plane length `(H + 2·pad)·(W + 2·pad)`.
    phpw: usize,
    /// Transposed `dy` row length, [`grad_row_len`].
    row: usize,
}

/// Most taps one pass of a SIMD body of [`conv_weight_grad_rows`] holds:
/// eight independent chains keep the adders busy past their latency.
#[cfg(target_arch = "x86_64")]
const GRAD_TAPS: usize = 8;

/// Stamps one SIMD body of [`conv_weight_grad_rows`] for a vector of
/// `$lanes` floats, so the 8-lane and 16-lane bodies are one source.
///
/// One vector per lane group: `$lanes / S` output channels × `S` samples,
/// lanes `(m, s)`. A pass holds up to [`GRAD_TAPS`] taps, one accumulator
/// each; per pixel it loads the group's `dy` vector once and, per tap,
/// broadcasts the `S` samples' `x` (one 32-, 64- or 128-bit broadcast) and
/// multiplies then adds. Passes cover only live taps: `C·K·K` taps run as
/// full passes and one shorter pass for the remainder. A full pass's sums
/// go back to the rows through [`add_tap_runs_avx`], the shorter pass's
/// and the bias sums through [`add_group_lanes`]. Each lane runs the
/// portable body's chain — mul then add, never FMA — so the result is
/// bitwise identical to it.
#[cfg(target_arch = "x86_64")]
macro_rules! conv_weight_grad_rows_simd {
    (
        $(#[$doc:meta])*
        $name:ident, $feature:literal, $lanes:literal, $broadcast:ident,
        $load:ident, $zero:ident, $add:ident, $mul:ident, $store:ident
    ) => {
        $(#[$doc])*
        ///
        /// # Safety
        ///
        /// The host must support the body's ISA, the transposed row length
        /// must be a multiple of its lane count, and the arguments must
        /// satisfy the length and range assertions of
        /// [`conv_weight_grad_rows`].
        #[target_feature(enable = $feature)]
        #[allow(clippy::too_many_arguments)] // geometry of one padded sample, passed flat
        unsafe fn $name<const S: usize>(
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

            /// One pass: taps `q0..q0 + T` of the lane group whose first
            /// transposed lane is `dg`, their sums stored into `sums[..T]`.
            #[target_feature(enable = $feature)]
            unsafe fn pass<const S: usize, const T: usize>(
                g: WeightGradGeometry,
                xp: *const f32,
                q0: usize,
                dg: *const f32,
                sums: &mut [[f32; $lanes]; GRAD_TAPS],
            ) {
                // One base pointer per tap: pixel (oh, ow) of every tap sits
                // at the same offset `(oh·pw + ow)·S` from its base.
                let x: [*const f32; T] = std::array::from_fn(|i| {
                    let q = q0 + i;
                    let (ci, kh, kw) = (q / (g.k * g.k), q / g.k % g.k, q % g.k);
                    xp.add((ci * g.phpw + kh * g.pw + kw) * S)
                });
                let mut a = [$zero(); T];
                let mut d = dg;
                for oh in 0..g.h {
                    for o in (oh * g.pw..oh * g.pw + g.w).map(|o| o * S) {
                        let dv = $load(d);
                        d = d.add(g.row);
                        for (av, xv) in a.iter_mut().zip(&x) {
                            *av = $add(*av, $mul(dv, $broadcast::<S>(xv.add(o))));
                        }
                    }
                }
                for (av, sum) in a.into_iter().zip(sums.iter_mut()) {
                    $store(sum.as_mut_ptr(), av);
                }
            }

            let pad = k / 2;
            let pw = w + 2 * pad;
            let g = WeightGradGeometry {
                h,
                w,
                k,
                pw,
                phpw: (h + 2 * pad) * pw,
                row: grad_row_len(m, S),
            };
            let ckk = c * k * k;
            let group_channels = $lanes / S;
            let xp = xpad.as_ptr();
            let mut sums = [[0.0f32; $lanes]; GRAD_TAPS];
            for gi in mrange.start / group_channels..mrange.end.div_ceil(group_channels) {
                let m0 = gi * group_channels;
                let dg = dyt.as_ptr().add(gi * $lanes);
                let mut sum = $zero();
                for p in 0..h * w {
                    sum = $add(sum, $load(dg.add(p * g.row)));
                }
                $store(sums[0].as_mut_ptr(), sum);
                add_group_lanes(&mut dbrows, 1, 0, &mrange, m0, &sums[0]);
                let mut q = 0;
                while q < ckk {
                    let taps = (ckk - q).min(GRAD_TAPS);
                    match taps {
                        1 => pass::<S, 1>(g, xp, q, dg, &mut sums),
                        2 => pass::<S, 2>(g, xp, q, dg, &mut sums),
                        3 => pass::<S, 3>(g, xp, q, dg, &mut sums),
                        4 => pass::<S, 4>(g, xp, q, dg, &mut sums),
                        5 => pass::<S, 5>(g, xp, q, dg, &mut sums),
                        6 => pass::<S, 6>(g, xp, q, dg, &mut sums),
                        7 => pass::<S, 7>(g, xp, q, dg, &mut sums),
                        _ => pass::<S, GRAD_TAPS>(g, xp, q, dg, &mut sums),
                    }
                    if taps == GRAD_TAPS {
                        add_tap_runs_avx(&mut dwrows, ckk, q, &mrange, m0, &sums);
                    } else {
                        for (i, lanes) in sums[..taps].iter().enumerate() {
                            add_group_lanes(&mut dwrows, ckk, q + i, &mrange, m0, lanes);
                        }
                    }
                    q += taps;
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
conv_weight_grad_rows_simd!(
    /// AVX body of [`conv_weight_grad_rows`]: 8-lane groups.
    conv_weight_grad_rows_avx, "avx", 8, broadcast_samples_avx,
    _mm256_loadu_ps, _mm256_setzero_ps, _mm256_add_ps, _mm256_mul_ps, _mm256_storeu_ps
);

#[cfg(target_arch = "x86_64")]
conv_weight_grad_rows_simd!(
    /// AVX-512F body of [`conv_weight_grad_rows`]: 16-lane groups, one per
    /// register (four samples of four channels at the training model's
    /// `m = 4`).
    conv_weight_grad_rows_avx512, "avx512f", 16, broadcast_samples_avx512,
    _mm512_loadu_ps, _mm512_setzero_ps, _mm512_add_ps, _mm512_mul_ps, _mm512_storeu_ps
);

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
// Kernel-split summaries (one per `parallel_for_disjoint*` call above)
// ---------------------------------------------------------------------------

use crate::access::{KernelAccessSummary, RegionDecl};

/// Per-sample padded-plane scratch of the direct conv kernel
/// (`[C][H+2·pad][W+2·pad]`). Shared by the live kernels and the access
/// summaries below so the registry describes the real allocation.
pub fn padded_plane_len(c: usize, k: usize, h: usize, w: usize) -> usize {
    let pad = k / 2;
    c * (h + 2 * pad) * (w + 2 * pad)
}

/// Transposed `dy` scratch of the weight-gradient kernel for one sample
/// pack: `[H·W][M·spv rounded up to a vector]`, with
/// `spv =` [`grad_samples_per_vector`]. One sample alone needs the same
/// row (`M·spv` fits one vector whenever `spv > 1`). Shared by the live
/// kernel and the access summaries below.
pub fn transposed_grad_len(m: usize, h: usize, w: usize) -> usize {
    h * w * grad_row_len(m, grad_samples_per_vector(m))
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
    }
}

/// Access summary of the batch split in [`Conv2d::backward_params`]:
/// item `ni` writes its own `(dW, db)` partial stride of the scratch
/// partials buffer; the serial sample-order fold happens after the join
/// and is outside the parallel phase. The zero-padded `x` plane (2 or 4
/// samples interleaved when [`grad_samples_per_vector`] packs them) and
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

    /// A body of `conv_direct_rows` or `conv_input_grad_rows`.
    #[derive(Clone, Copy, Debug)]
    enum Body {
        Portable,
        Avx,
        Avx512,
    }

    /// The bodies this host runs at row width `w`: the portable loop, the
    /// AVX body when AVX is present and `w % 8 == 0`, and the AVX-512F
    /// body when AVX-512F is present and `w % 16 == 0`.
    fn bodies(w: usize) -> Vec<Body> {
        let mut bodies = vec![Body::Portable];
        if w.is_multiple_of(8) && crate::simd::avx() {
            bodies.push(Body::Avx);
        }
        if w.is_multiple_of(16) && crate::simd::avx512f() {
            bodies.push(Body::Avx512);
        }
        bodies
    }

    /// Bits of `v`, every NaN mapped to one pattern: a NaN need only match
    /// a NaN, while `−0.0` and `+0.0` must match exactly.
    fn canonical_bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|f| if f.is_nan() { f32::NAN } else { *f }.to_bits())
            .collect()
    }

    /// Uniform values in `[−1, 1)` with every third one replaced in turn
    /// by `±0.0`, a subnormal of either sign or a large magnitude (whose
    /// ulp is near the size of the other terms, so the order in which they
    /// are added shows in the bits).
    fn special_values(len: usize, seed: u64) -> Vec<f32> {
        let special = [
            0.0,
            -0.0,
            f32::from_bits(3),
            -f32::MIN_POSITIVE / 8.0,
            6.5e5,
            -3.0e7,
        ];
        let mut v = init::uniform(&[len], -1.0, 1.0, seed).data().to_vec();
        for (i, x) in v.iter_mut().enumerate().filter(|(i, _)| i % 3 == 1) {
            *x = special[(i / 3) % special.len()];
        }
        v
    }

    /// Shapes `(c, m, h, w, k)` of the dispatch tests: m ∈ {1, 3, 4, 5, 9},
    /// w ∈ {8, 16, 24, 32}, k ∈ {1, 3, 5}, and odd block counts for both
    /// vector widths (5×8, 3×24 and 5×16 pixels); then the tails of
    /// `tests/conv_pin.rs` those miss: c ∈ {5, 8, 9}, m = 8, and rows of
    /// 12 and 5 pixels, which no SIMD body of a row-tiled kernel takes.
    const DISPATCH_SHAPES: [(usize, usize, usize, usize, usize); 11] = [
        (4, 4, 8, 8, 3),
        (3, 5, 5, 16, 5),
        (2, 9, 3, 24, 1),
        (4, 3, 3, 32, 3),
        (1, 1, 5, 8, 5),
        (2, 4, 7, 16, 1),
        (3, 5, 2, 32, 5),
        (9, 8, 3, 24, 1),
        (8, 5, 3, 12, 3),
        (1, 9, 2, 5, 3),
        (5, 3, 3, 16, 5),
    ];

    /// Full, tail-starting and head-only channel ranges of `0..m`.
    fn channel_ranges(m: usize) -> Vec<std::ops::Range<usize>> {
        let mut ranges = vec![0..m, 1..m, 0..m.div_ceil(2), m / 2..m];
        ranges.retain(|r| !r.is_empty());
        ranges.dedup();
        ranges
    }

    /// Runs one body of `conv_direct_rows` over NaN-filled output and
    /// returns its canonical bits.
    #[allow(clippy::too_many_arguments)] // geometry of one padded sample, passed flat
    fn run_direct(
        body: Body,
        xpad: &[f32],
        wmat: &[f32],
        bias: &[f32],
        mrange: std::ops::Range<usize>,
        h: usize,
        w: usize,
        c: usize,
        k: usize,
    ) -> Vec<u32> {
        let mut out = vec![f32::NAN; mrange.len() * h * w];
        match body {
            Body::Portable => {
                conv_direct_rows_portable(xpad, wmat, bias, mrange, &mut out, h, w, c, k)
            }
            // SAFETY: `bodies` lists a SIMD body only when its ISA is
            // present and `w` is a whole number of its blocks; the callers
            // build every slice at the lengths `conv_direct_rows` asserts.
            #[cfg(target_arch = "x86_64")]
            Body::Avx => unsafe {
                conv_direct_rows_avx(xpad, wmat, bias, mrange, &mut out, h, w, c, k)
            },
            #[cfg(target_arch = "x86_64")]
            Body::Avx512 => unsafe {
                conv_direct_rows_avx512(xpad, wmat, bias, mrange, &mut out, h, w, c, k)
            },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("no SIMD body off x86-64"),
        }
        canonical_bits(&out)
    }

    #[test]
    fn direct_conv_avx_and_portable_agree_bitwise() {
        // Every forward body this host runs must equal the portable loop
        // bit for bit, and so must the dispatcher: over full and partial
        // channel ranges (4-channel passes and 1–3-channel tails), odd
        // block counts, and inputs, weights and biases holding ±0.0,
        // subnormals and overflowing magnitudes. Channel 0's weights are
        // all ±0.0 and its bias −0.0, so its outputs are signed zeros.
        for (c, m, hh, ww, k) in DISPATCH_SHAPES {
            let ckk = c * k * k;
            let x = Tensor::from_vec(special_values(c * hh * ww, 37), &[1, c, hh, ww]);
            let mut xpad = vec![f32::NAN; padded_plane_len(c, k, hh, ww)];
            pad_sample(&x, 0, 1, k / 2, &mut xpad);
            let mut wmat = special_values(m * ckk, 31);
            for (q, v) in wmat[..ckk].iter_mut().enumerate() {
                *v = if q % 2 == 0 { 0.0 } else { -0.0 };
            }
            let mut bias = special_values(m, 29);
            bias[0] = -0.0;
            for mrange in channel_ranges(m) {
                let case = format!("c={c} m={m} {hh}x{ww} k={k} mrange={mrange:?}");
                let run =
                    |body| run_direct(body, &xpad, &wmat, &bias, mrange.clone(), hh, ww, c, k);
                let portable = run(Body::Portable);
                for body in bodies(ww) {
                    assert_eq!(run(body), portable, "{body:?}: {case}");
                }
                let mut dispatched = vec![f32::NAN; mrange.len() * hh * ww];
                conv_direct_rows(
                    &xpad,
                    &wmat,
                    &bias,
                    mrange.clone(),
                    &mut dispatched,
                    hh,
                    ww,
                    c,
                    k,
                );
                assert_eq!(canonical_bits(&dispatched), portable, "dispatch: {case}");
            }
        }
    }

    #[test]
    fn input_grad_avx_and_portable_agree_bitwise() {
        // Every input-gradient body this host runs must equal the portable
        // loop bit for bit, over the shapes, ranges and special values of
        // the forward test (input channels play the ranges' part here).
        for (c, m, hh, ww, k) in DISPATCH_SHAPES {
            let wmat = special_values(m * c * k * k, 41);
            let dy = Tensor::from_vec(special_values(m * hh * ww, 43), &[1, m, hh, ww]);
            let mut dypad = vec![f32::NAN; padded_plane_len(m, k, hh, ww)];
            pad_sample(&dy, 0, 1, k / 2, &mut dypad);
            for crange in channel_ranges(c) {
                let case = format!("c={c} m={m} {hh}x{ww} k={k} crange={crange:?}");
                let run = |body| {
                    let mut out = vec![f32::NAN; crange.len() * hh * ww];
                    let (dy, wm, cr) = (&dypad[..], &wmat[..], crange.clone());
                    match body {
                        Body::Portable => {
                            conv_input_grad_rows_portable(dy, wm, cr, &mut out, hh, ww, c, m, k)
                        }
                        // SAFETY: `bodies` lists a SIMD body only when its
                        // ISA is present and `w` is a whole number of its
                        // blocks; the slices have the lengths
                        // `conv_input_grad_rows` asserts.
                        #[cfg(target_arch = "x86_64")]
                        Body::Avx => unsafe {
                            conv_input_grad_rows_avx(dy, wm, cr, &mut out, hh, ww, c, m, k)
                        },
                        #[cfg(target_arch = "x86_64")]
                        Body::Avx512 => unsafe {
                            conv_input_grad_rows_avx512(dy, wm, cr, &mut out, hh, ww, c, m, k)
                        },
                        #[cfg(not(target_arch = "x86_64"))]
                        _ => unreachable!("no SIMD body off x86-64"),
                    }
                    canonical_bits(&out)
                };
                let portable = run(Body::Portable);
                for body in bodies(ww) {
                    assert_eq!(run(body), portable, "{body:?}: {case}");
                }
                let mut dispatched = vec![f32::NAN; crange.len() * hh * ww];
                conv_input_grad_rows(&dypad, &wmat, crange, &mut dispatched, hh, ww, c, m, k);
                assert_eq!(canonical_bits(&dispatched), portable, "dispatch: {case}");
            }
        }
    }

    #[test]
    fn transpose_avx_and_portable_agree_bitwise() {
        // Dispatch transparency of `transpose_sample` at one, two and four
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
            let dy = init::uniform(&[5, m, hh, ww], -1.0, 1.0, 59);
            for spv in [1usize, 2, 4] {
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
    fn interleave_avx_and_portable_agree_bitwise() {
        // Dispatch transparency of the packed padding's interleave at two
        // and four samples: rows of whole 8-pixel runs, ragged tails and
        // rows shorter than one run, into a NaN-filled plane whose rows
        // are strided past their width (its gaps must stay untouched).
        fn check<const S: usize>(rows: usize, w: usize) {
            let v = special_values(S * rows * w, 61);
            let planes: [&[f32]; S] = std::array::from_fn(|s| &v[s * rows * w..(s + 1) * rows * w]);
            let stride = (w + 3) * S;
            let len = rows * stride;
            let mut dispatched = vec![f32::NAN; len];
            interleave_rows(planes, w, &mut dispatched, stride);
            let mut expected = vec![f32::NAN; len];
            for r in 0..rows {
                for p in 0..w {
                    for (s, plane) in planes.iter().enumerate() {
                        expected[r * stride + p * S + s] = plane[r * w + p];
                    }
                }
            }
            let case = format!("S={S} {rows}x{w}");
            assert_eq!(
                canonical_bits(&dispatched),
                canonical_bits(&expected),
                "{case}"
            );
        }
        for (rows, w) in [
            (1usize, 1usize),
            (3, 5),
            (2, 8),
            (4, 12),
            (1, 16),
            (3, 24),
            (2, 35),
        ] {
            check::<2>(rows, w);
            check::<4>(rows, w);
        }
    }

    #[test]
    fn pad_planes_overwrite_a_dirty_plane() {
        // Arena scratch comes back dirty: whatever a NaN-filled buffer
        // held, the padded planes must hold zeros in every halo position
        // and the samples' values in the interior.
        for (c, h, w) in [(1usize, 1usize, 1usize), (4, 16, 16), (4, 8, 8), (3, 5, 7)] {
            for pad in [0usize, 1, 2] {
                for spv in [1usize, 2, 4] {
                    let x = init::uniform(&[spv + 1, c, h, w], -1.0, 1.0, 70);
                    let (ph, pw) = (h + 2 * pad, w + 2 * pad);
                    let mut expected = vec![0.0f32; c * ph * pw * spv];
                    for ci in 0..c {
                        for ih in 0..h {
                            for iw in 0..w {
                                for s in 0..spv {
                                    let at = ((ci * ph + ih + pad) * pw + iw + pad) * spv + s;
                                    expected[at] = x.at4(1 + s, ci, ih, iw);
                                }
                            }
                        }
                    }
                    let mut dst = vec![f32::NAN; expected.len()];
                    pad_sample(&x, 1, spv, pad, &mut dst);
                    let case = format!("{c}x{h}x{w} pad={pad} spv={spv}");
                    assert_eq!(canonical_bits(&dst), canonical_bits(&expected), "{case}");
                }
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

    /// The weight-gradient bodies this host runs at `S` samples per
    /// vector: the portable loop, then the AVX and AVX-512F bodies when
    /// their ISA is present, and last the dispatcher.
    fn weight_grad_bodies<const S: usize>() -> Vec<(&'static str, WeightGradBody<S>)> {
        let mut bodies: Vec<(&'static str, WeightGradBody<S>)> =
            vec![("portable", conv_weight_grad_rows_portable::<S>)];
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY (both): each body runs only when the host has its ISA;
            // `run_weight_grad` builds every slice at the lengths
            // `conv_weight_grad_rows` asserts, and `grad_row_len` pads the
            // rows to a multiple of 16 when AVX-512F is present (8 always).
            if crate::simd::avx() {
                bodies.push(("avx", |xp, dt, mr, dw, db, h, w, c, m, k| unsafe {
                    conv_weight_grad_rows_avx::<S>(xp, dt, mr, dw, db, h, w, c, m, k)
                }));
            }
            if crate::simd::avx512f() {
                bodies.push(("avx512f", |xp, dt, mr, dw, db, h, w, c, m, k| unsafe {
                    conv_weight_grad_rows_avx512::<S>(xp, dt, mr, dw, db, h, w, c, m, k)
                }));
            }
        }
        bodies.push(("dispatch", conv_weight_grad_rows::<S>));
        bodies
    }

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
        dw.iter()
            .zip(&db)
            .map(|(a, b)| (canonical_bits(a), canonical_bits(b)))
            .collect()
    }

    /// Every body at `S` samples per vector over samples `ni..ni + S` of
    /// `x` and `dy`; returns the portable body's rows after checking that
    /// every other body matches them bit for bit.
    fn weight_grad_pack<const S: usize>(
        x: &Tensor,
        dy: &Tensor,
        ni: usize,
        mrange: std::ops::Range<usize>,
        k: usize,
        case: &str,
    ) -> Vec<(Vec<u32>, Vec<u32>)> {
        let mut bodies = weight_grad_bodies::<S>().into_iter();
        let (_, portable) = bodies.next().expect("the portable body");
        let expected = run_weight_grad::<S>(portable, x, dy, ni, mrange.clone(), k);
        for (name, body) in bodies {
            let got = run_weight_grad::<S>(body, x, dy, ni, mrange.clone(), k);
            assert_eq!(got, expected, "{name} S={S} ni={ni}: {case}");
        }
        expected
    }

    #[test]
    fn weight_grad_bodies_and_portable_agree_bitwise() {
        // Every weight-gradient body this host runs, and the dispatcher,
        // must equal the portable loop bit for bit at one, two and four
        // samples per vector. Over the dispatch shapes and more, tap
        // counts 2, 7, 9, 18, 25, 36, 54, 72, 75 and 125 leave every
        // remainder of a pass of eight, and m = 1, 2, 3, 5, 9 and 11 leave
        // padding lanes. Each shape runs the full output-channel range and
        // a range that starts and ends inside a lane group (the row split's
        // shape), over inputs holding ±0.0, subnormals and large
        // magnitudes. Each pack must also equal its samples run alone,
        // bit for bit: a lane that reads another sample's `x` or `dy`
        // shows there.
        let shapes = DISPATCH_SHAPES.into_iter().chain([
            (3, 9, 2, 16, 5),
            (2, 11, 5, 3, 1),
            (3, 3, 5, 3, 5),
            (2, 1, 4, 5, 3),
            (8, 2, 3, 8, 3),
            (6, 3, 3, 5, 3),
            (7, 5, 2, 8, 1),
        ]);
        for (c, m, hh, ww, k) in shapes {
            let x = Tensor::from_vec(special_values(5 * c * hh * ww, 47), &[5, c, hh, ww]);
            let dy = Tensor::from_vec(special_values(5 * m * hh * ww, 53), &[5, m, hh, ww]);
            for mrange in std::iter::once(0..m).chain((m > 2).then_some(1..m - 1)) {
                let case = format!("c={c} m={m} {hh}x{ww} k={k} mrange={mrange:?}");
                let alone: Vec<_> = (1..5)
                    .flat_map(|ni| weight_grad_pack::<1>(&x, &dy, ni, mrange.clone(), k, &case))
                    .collect();
                let pair = weight_grad_pack::<2>(&x, &dy, 1, mrange.clone(), k, &case);
                assert_eq!(pair, alone[..2], "pair vs alone: {case}");
                let four = weight_grad_pack::<4>(&x, &dy, 1, mrange.clone(), k, &case);
                assert_eq!(four, alone, "four vs alone: {case}");
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
