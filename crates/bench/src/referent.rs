//! Frozen pre-microkernel serial kernels — the pinned referent behind the
//! `speedup_vs_referent` column of `BENCH_kernels.json`.
//!
//! Each function here is a verbatim copy of the kernel implementation that
//! shipped *before* the packed-panel microkernel rewrite (PR 7): the
//! panel-blocked 4-unroll `gemm_bias`, the contiguous-row `im2col`, the
//! naive per-output dense loop, the two-pass GroupNorm, and a replica of
//! the batched NODE inference path built from them. The conv input- and
//! weight-gradient referents are the scalar loop nest and the im2col
//! lowering those two passes kept until their own direct SIMD rewrite;
//! the GroupNorm- and activation-backward referents are the serial loops
//! those passes kept until theirs.
//! They are deliberately not shared with `enode_tensor` — the whole point
//! is that this file does **not** change when the live kernels do, so
//! `new-kernel speedup vs the serial referent` is an old-vs-new
//! measurement on the same host, not a tautology.
//!
//! The referents run serially (callers time them under
//! `parallel::with_threads(1)`), matching how the live kernels' `secs_low`
//! column is measured.

use enode_node::model::NodeModel;
use enode_ode::controller::ConventionalSearchController;
use enode_ode::solver::{solve_adaptive, AdaptiveOptions};
use enode_ode::tableau::ButcherTableau;
use enode_tensor::activation::Activation;
use enode_tensor::conv::Conv2d;
use enode_tensor::dense::Dense;
use enode_tensor::network::Op;
use enode_tensor::norm::{GroupNorm, GroupNormCache};
use enode_tensor::Tensor;

/// Columns per L1 panel of the pre-rewrite gemm (verbatim constant).
const PANEL: usize = 256;

/// The pre-rewrite `gemm_bias`: panel-blocked over `p`, reduction dimension
/// walked four rows at a time with a `((w₀c₀ + w₁c₁) + w₂c₂) + w₃c₃` fused
/// chain per 4-chunk. Verbatim copy of `enode_tensor::matmul::gemm_bias`
/// as of PR 6.
pub fn gemm_bias_ref(y: &mut [f32], w: &[f32], bias: &[f32], cols: &[f32], q: usize, p: usize) {
    let rows = bias.len();
    debug_assert_eq!(y.len(), rows * p, "y must be [rows, p]");
    debug_assert_eq!(w.len(), rows * q, "w must be [rows, q]");
    debug_assert_eq!(cols.len(), q * p, "cols must be [q, p]");
    for r in 0..rows {
        let yrow = &mut y[r * p..(r + 1) * p];
        yrow.fill(bias[r]);
        let wrow = &w[r * q..(r + 1) * q];
        let mut pb = 0;
        while pb < p {
            let pe = (pb + PANEL).min(p);
            let ypanel = &mut yrow[pb..pe];
            let mut qq = 0;
            while qq + 4 <= q {
                let (w0, w1, w2, w3) = (wrow[qq], wrow[qq + 1], wrow[qq + 2], wrow[qq + 3]);
                let c0 = &cols[qq * p + pb..qq * p + pe];
                let c1 = &cols[(qq + 1) * p + pb..(qq + 1) * p + pe];
                let c2 = &cols[(qq + 2) * p + pb..(qq + 2) * p + pe];
                let c3 = &cols[(qq + 3) * p + pb..(qq + 3) * p + pe];
                for ((((yv, &a), &b), &c), &d) in ypanel.iter_mut().zip(c0).zip(c1).zip(c2).zip(c3)
                {
                    *yv += ((w0 * a + w1 * b) + w2 * c) + w3 * d;
                }
                qq += 4;
            }
            while qq < q {
                let wq = wrow[qq];
                let cq = &cols[qq * p + pb..qq * p + pe];
                for (yv, &cv) in ypanel.iter_mut().zip(cq) {
                    *yv += wq * cv;
                }
                qq += 1;
            }
            pb = pe;
        }
    }
}

/// The pre-rewrite contiguous-row `im2col` (row `q = (c·K + kh)·K + kw`),
/// verbatim copy of `enode_tensor::conv`'s private helper as of PR 6.
pub fn im2col_ref(x: &Tensor, ni: usize, k: usize, cols: &mut [f32]) {
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

/// The pre-rewrite serial conv forward: per-sample `im2col` into a reused
/// `cols` buffer plus the panel-blocked gemm — the arithmetic the batch
/// split of `Conv2d::forward` executed per lane before PR 7.
pub fn conv2d_forward_ref(conv: &Conv2d, x: &Tensor, cols: &mut Vec<f32>) -> Tensor {
    let (n, c, h, w) = x.shape_obj().nchw();
    assert_eq!(c, conv.in_channels(), "input channel mismatch");
    let k = conv.kernel();
    let m = conv.out_channels();
    let ckk = c * k * k;
    let hw = h * w;
    let wmat = conv.weight().data();
    let bias = conv.bias().data();
    let mut y = Tensor::zeros(&[n, m, h, w]);
    let ydata = y.data_mut();
    cols.resize(ckk * hw, 0.0);
    for ni in 0..n {
        im2col_ref(x, ni, k, cols);
        let ys = &mut ydata[ni * m * hw..(ni + 1) * m * hw];
        gemm_bias_ref(ys, wmat, bias, cols, ckk, hw);
    }
    y
}

/// The pre-rewrite conv input gradient: the bounds-tested scalar loop
/// nest, flipped taps and swapped channel roles, with one partial per
/// output channel added into `dx` — verbatim serial arithmetic of
/// `Conv2d::backward_input` (its `backward_input_channels` nest) before
/// the direct SIMD rewrite.
pub fn conv2d_backward_input_ref(conv: &Conv2d, dy: &Tensor) -> Tensor {
    let (n, m, h, w) = dy.shape_obj().nchw();
    assert_eq!(m, conv.out_channels(), "grad channel mismatch");
    let c = conv.in_channels();
    let k = conv.kernel();
    let pad = (k / 2) as isize;
    let weight = conv.weight();
    let mut dx = Tensor::zeros(&[n, c, h, w]);
    let hw = h * w;
    for ni in 0..n {
        let out = &mut dx.data_mut()[ni * c * hw..(ni + 1) * c * hw];
        for ci in 0..c {
            let base = ci * h * w;
            for mi in 0..m {
                for ih in 0..h {
                    for iw in 0..w {
                        let mut acc = 0.0f32;
                        for kh in 0..k {
                            for kw in 0..k {
                                // dx[ih,iw] accumulates dy[oh,ow]*wflip;
                                // oh = ih - (kh - pad) inverted:
                                let oh = ih as isize - (kh as isize - pad);
                                let ow = iw as isize - (kw as isize - pad);
                                if oh >= 0 && ow >= 0 && (oh as usize) < h && (ow as usize) < w {
                                    acc += dy.at4(ni, mi, oh as usize, ow as usize)
                                        * weight.at4(mi, ci, kh, kw);
                                }
                            }
                        }
                        out[base + ih * w + iw] += acc;
                    }
                }
            }
        }
    }
    dx
}

/// The pre-rewrite conv weight gradient: per-sample `im2col` into a reused
/// `cols` buffer, then a serial `dW[m, q] += Σ_p dy[m, p]·cols[q, p]` dot
/// product per weight and `db[m] += Σ_p dy[m, p]` — verbatim serial
/// arithmetic of `Conv2d::backward_params` (its `accumulate_param_rows`)
/// before the direct SIMD rewrite.
pub fn conv2d_backward_params_ref(
    conv: &Conv2d,
    x: &Tensor,
    dy: &Tensor,
    cols: &mut Vec<f32>,
) -> (Tensor, Tensor) {
    let (n, c, h, w) = x.shape_obj().nchw();
    let (n2, m, h2, w2) = dy.shape_obj().nchw();
    assert_eq!((n, h, w), (n2, h2, w2), "x/dy spatial mismatch");
    assert_eq!(c, conv.in_channels());
    assert_eq!(m, conv.out_channels());
    let k = conv.kernel();
    let ckk = c * k * k;
    let hw = h * w;
    let mut dw = Tensor::zeros(&[m, c, k, k]);
    let mut db = Tensor::zeros(&[m]);
    cols.resize(ckk * hw, 0.0);
    let dydata = dy.data();
    for ni in 0..n {
        im2col_ref(x, ni, k, cols);
        let dybase = ni * m * hw;
        for mi in 0..m {
            let dyrow = &dydata[dybase + mi * hw..dybase + (mi + 1) * hw];
            db.data_mut()[mi] += dyrow.iter().sum::<f32>();
            let dwrow = &mut dw.data_mut()[mi * ckk..(mi + 1) * ckk];
            for (q, dwv) in dwrow.iter_mut().enumerate() {
                let crow = &cols[q * hw..(q + 1) * hw];
                let mut acc = 0.0f32;
                for (&g, &cv) in dyrow.iter().zip(crow) {
                    acc += g * cv;
                }
                *dwv += acc;
            }
        }
    }
    (dw, db)
}

/// The pre-rewrite dense forward: per output feature, a scalar-accumulator
/// reduction over the input features — verbatim serial arithmetic of
/// `Dense::forward` as of PR 6.
pub fn dense_forward_ref(layer: &Dense, x: &Tensor) -> Tensor {
    assert_eq!(x.shape().len(), 2, "dense layers take [N, D] input");
    let (n, d) = (x.shape()[0], x.shape()[1]);
    assert_eq!(d, layer.in_features(), "input feature mismatch");
    let o = layer.out_features();
    let wdata = layer.weight().data();
    let bdata = layer.bias().data();
    let xdata = x.data();
    let mut y = Tensor::zeros(&[n, o]);
    let ydata = y.data_mut();
    for ni in 0..n {
        let xrow = &xdata[ni * d..(ni + 1) * d];
        let yrow = &mut ydata[ni * o..(ni + 1) * o];
        for (oi, yv) in yrow.iter_mut().enumerate() {
            let mut acc = bdata[oi];
            let wrow = &wdata[oi * d..(oi + 1) * d];
            for (&wv, &xv) in wrow.iter().zip(xrow) {
                acc += wv * xv;
            }
            *yv = acc;
        }
    }
    y
}

/// The pre-rewrite GroupNorm forward: a serial-chain f64 statistics pass,
/// an x̂ write pass, and a separate `γ·x̂ + β` pass — verbatim serial
/// arithmetic (and allocations) of `GroupNorm::forward` as of PR 6. `eps`
/// is the constructor's fixed `1e-5`.
pub fn groupnorm_forward_ref(gn: &GroupNorm, x: &Tensor) -> Tensor {
    let eps = 1e-5f32;
    let (n, c, h, w) = x.shape_obj().nchw();
    assert_eq!(c, gn.channels(), "channel mismatch");
    let groups = gn.groups();
    let cg = c / groups;
    let hw = h * w;
    let group_len = cg * hw;
    let xdata = x.data();
    let gdata = gn.gamma().data();
    let bdata = gn.beta().data();
    let mut xhat = Tensor::zeros_like(x);
    let mut inv_std = vec![0.0f32; n * groups];
    let mut y = Tensor::zeros_like(x);
    for ni in 0..n {
        let xs = &xdata[ni * c * hw..(ni + 1) * c * hw];
        let xh = &mut xhat.data_mut()[ni * c * hw..(ni + 1) * c * hw];
        for g in 0..groups {
            let slab = &xs[g * group_len..(g + 1) * group_len];
            let mut sum = 0.0f64;
            let mut sumsq = 0.0f64;
            for &v in slab {
                let v = v as f64;
                sum += v;
                sumsq += v * v;
            }
            let mean = sum / group_len as f64;
            let var = (sumsq / group_len as f64 - mean * mean).max(0.0);
            let istd = 1.0 / (var + eps as f64).sqrt();
            inv_std[ni * groups + g] = istd as f32;
            for (xhv, &v) in xh[g * group_len..(g + 1) * group_len].iter_mut().zip(slab) {
                *xhv = ((v as f64 - mean) * istd) as f32;
            }
        }
        let ys = &mut y.data_mut()[ni * c * hw..(ni + 1) * c * hw];
        for ci in 0..c {
            let gm = gdata[ci];
            let bt = bdata[ci];
            for (yv, &xhv) in ys[ci * hw..(ci + 1) * hw]
                .iter_mut()
                .zip(&xh[ci * hw..(ci + 1) * hw])
            {
                *yv = gm * xhv + bt;
            }
        }
    }
    std::hint::black_box(&inv_std);
    y
}

/// The pre-rewrite activation forward: scalar libm loops (`f32::tanh`,
/// `exp`) on a fresh tensor — verbatim arithmetic of
/// `Activation::forward` as of PR 6, frozen here so the live polynomial
/// `tanh` fast path counts against the referent.
pub fn activation_forward_ref(a: Activation, x: &Tensor) -> Tensor {
    x.map(|v| match a {
        Activation::Relu => v.max(0.0),
        Activation::Tanh => v.tanh(),
        Activation::Sigmoid => {
            if v >= 0.0 {
                1.0 / (1.0 + (-v).exp())
            } else {
                let e = v.exp();
                e / (1.0 + e)
            }
        }
        Activation::Softplus => v.max(0.0) + (-v.abs()).exp().ln_1p(),
    })
}

/// The pre-rewrite GroupNorm backward: per sample, a per-channel `f32`
/// `(dγ, dβ)` sweep, then per group an `f64` `(Σ dx̂, Σ dx̂·x̂)` sweep and a
/// `dx` sweep, each recomputing `x̂ = ((x − mean)·inv_std) as f32` and
/// running one reduction chain at a time; the per-sample `(dγ, dβ)`
/// partials add into the batch gradients in sample order — verbatim
/// serial arithmetic of `GroupNorm::backward` before its SIMD rewrite.
pub fn groupnorm_backward_ref(
    gn: &GroupNorm,
    x: &Tensor,
    cache: &GroupNormCache,
    dy: &Tensor,
) -> (Tensor, Tensor, Tensor) {
    let (n, c, h, w) = dy.shape_obj().nchw();
    assert_eq!(x.shape(), dy.shape(), "x/dy shape mismatch");
    assert_eq!(c, gn.channels(), "channel mismatch");
    let groups = gn.groups();
    let cg = c / groups;
    let hw = h * w;
    let group_len = (cg * hw) as f32;
    let dydata = dy.data();
    let xdata = x.data();
    let gdata = gn.gamma().data();
    let mut dgamma = Tensor::zeros(&[c]);
    let mut dbeta = Tensor::zeros(&[c]);
    let mut dx = Tensor::zeros_like(dy);
    let mut part = vec![0.0f32; 2 * c];
    for ni in 0..n {
        let dys = &dydata[ni * c * hw..(ni + 1) * c * hw];
        let xs = &xdata[ni * c * hw..(ni + 1) * c * hw];
        let (dgp, dbp) = part.split_at_mut(c);
        for ci in 0..c {
            let (mean, istd64) = cache.stats(ni * groups + ci / cg);
            let mut dg = 0.0f32;
            let mut db = 0.0f32;
            for (&g, &v) in dys[ci * hw..(ci + 1) * hw]
                .iter()
                .zip(&xs[ci * hw..(ci + 1) * hw])
            {
                let xh = ((v as f64 - mean) * istd64) as f32;
                dg += g * xh;
                db += g;
            }
            dgp[ci] = dg;
            dbp[ci] = db;
        }
        let dxs = &mut dx.data_mut()[ni * c * hw..(ni + 1) * c * hw];
        for g in 0..groups {
            let (mean, istd64) = cache.stats(ni * groups + g);
            let istd = istd64 as f32;
            let mut mean_dxhat = 0.0f64;
            let mut mean_dxhat_xhat = 0.0f64;
            for ci in g * cg..(g + 1) * cg {
                let gm = gdata[ci] as f64;
                for (&gy, &v) in dys[ci * hw..(ci + 1) * hw]
                    .iter()
                    .zip(&xs[ci * hw..(ci + 1) * hw])
                {
                    let xh = ((v as f64 - mean) * istd64) as f32;
                    let dxh = gy as f64 * gm;
                    mean_dxhat += dxh;
                    mean_dxhat_xhat += dxh * xh as f64;
                }
            }
            mean_dxhat /= group_len as f64;
            mean_dxhat_xhat /= group_len as f64;
            for ci in g * cg..(g + 1) * cg {
                let gm = gdata[ci] as f64;
                for ((dxv, &gy), &v) in dxs[ci * hw..(ci + 1) * hw]
                    .iter_mut()
                    .zip(&dys[ci * hw..(ci + 1) * hw])
                    .zip(&xs[ci * hw..(ci + 1) * hw])
                {
                    let xh = ((v as f64 - mean) * istd64) as f32;
                    let dxh = gy as f64 * gm;
                    *dxv = (istd as f64 * (dxh - mean_dxhat - xh as f64 * mean_dxhat_xhat)) as f32;
                }
            }
        }
        for (v, &p) in dgamma.data_mut().iter_mut().zip(&part[..c]) {
            *v += p;
        }
        for (v, &p) in dbeta.data_mut().iter_mut().zip(&part[c..]) {
            *v += p;
        }
    }
    (dx, dgamma, dbeta)
}

/// The pre-rewrite activation backward: `dx = σ'(x)·dy` per element
/// through the scalar `Activation::derivative` — verbatim arithmetic of
/// `Activation::backward` before its SIMD rewrite. It keeps the live
/// polynomial `tanh`, not libm, so it stays bitwise comparable.
pub fn activation_backward_ref(a: Activation, x: &Tensor, dy: &Tensor) -> Tensor {
    x.zip(dy, |xi, g| a.derivative(xi) * g)
}

/// Referent evaluation of an embedded network `f(t, h)` built from the
/// referent kernels (op-by-op, one fresh output tensor per op — the
/// pre-fusion dataflow).
pub fn network_eval_ref(ops: &[Op], t: f32, x: &Tensor, cols: &mut Vec<f32>) -> Tensor {
    let _ = t;
    let mut cur = x.clone();
    for op in ops {
        cur = match op {
            Op::Conv2d(c) => conv2d_forward_ref(c, &cur, cols),
            Op::Dense(d) => dense_forward_ref(d, &cur),
            Op::Activation(a) => activation_forward_ref(*a, &cur),
            Op::GroupNorm(g) => groupnorm_forward_ref(g, &cur),
            Op::ConcatTime => {
                unimplemented!("referent network eval does not model ConcatTime")
            }
        };
    }
    cur
}

/// Global average pooling `[N, C, H, W] → [N, C]` (reimplements the head's
/// private helper).
fn global_avg_pool_ref(x: &Tensor) -> Tensor {
    let (n, c, h, w) = x.shape_obj().nchw();
    let mut out = Tensor::zeros(&[n, c]);
    let inv = 1.0 / (h * w) as f32;
    for ni in 0..n {
        for ci in 0..c {
            let mut acc = 0.0;
            for hi in 0..h {
                for wi in 0..w {
                    acc += x.at4(ni, ci, hi, wi);
                }
            }
            out.data_mut()[ni * c + ci] = acc * inv;
        }
    }
    out
}

/// Referent batched NODE inference: per-sample adaptive solves over every
/// integration layer with the conventional stepsize search (`default_dt
/// 0.1`, `shrink 0.5` — `NodeSolveOptions::new` defaults), RK23
/// (Bogacki–Shampine) with FSAL reuse, then global average pooling and the
/// referent dense head. Entirely serial and built on the referent kernels,
/// mirroring what `forward_model_batched` cost per sample before PR 7.
///
/// # Panics
///
/// Panics if the model has no classifier head, the input is not rank 4, or
/// a referent solve fails.
pub fn node_inference_ref(model: &NodeModel, x: &Tensor, tolerance: f64) -> Tensor {
    let (n, c, h, w) = x.shape_obj().nchw();
    let head = model
        .head()
        .expect("referent inference needs a classifier head");
    let classes = head.dense().out_features();
    let tab = ButcherTableau::rk23_bogacki_shampine();
    let (t0, t1) = model.t_span();
    let opts = AdaptiveOptions::new(tolerance);
    let mut cols = Vec::new();
    let mut out = Tensor::zeros(&[n, classes]);
    let chw = c * h * w;
    for ni in 0..n {
        let mut state = Tensor::zeros(&[1, c, h, w]);
        state
            .data_mut()
            .copy_from_slice(&x.data()[ni * chw..(ni + 1) * chw]);
        for f in model.layers() {
            let mut ctl = ConventionalSearchController::new(0.1, 0.5);
            let sol = solve_adaptive(
                |t, y: &Tensor| network_eval_ref(f.ops(), t as f32, y, &mut cols),
                t0,
                t1,
                state,
                &tab,
                &mut ctl,
                &opts,
            )
            .expect("referent adaptive solve failed");
            state = sol.final_state().clone();
        }
        let pooled = global_avg_pool_ref(&state);
        let logits = dense_forward_ref(head.dense(), &pooled);
        out.data_mut()[ni * classes..(ni + 1) * classes].copy_from_slice(logits.data());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use enode_node::eval::forward_model_batched;
    use enode_node::inference::NodeSolveOptions;
    use enode_tensor::init;

    #[test]
    fn conv_referent_matches_live_within_rounding() {
        let conv = Conv2d::new_seeded(8, 8, 3, 1);
        let x = init::uniform(&[8, 8, 16, 16], -1.0, 1.0, 2);
        let live = conv.forward(&x);
        let mut cols = Vec::new();
        let old = conv2d_forward_ref(&conv, &x, &mut cols);
        let diff = (&live - &old).norm_inf();
        assert!(diff < 1e-4, "conv referent deviates by {diff}");
    }

    #[test]
    fn dense_referent_matches_live_within_rounding() {
        let dense = Dense::new_seeded(64, 64, 4);
        let x = init::uniform(&[64, 64], -1.0, 1.0, 5);
        let live = dense.forward(&x);
        let old = dense_forward_ref(&dense, &x);
        let diff = (&live - &old).norm_inf();
        assert!(diff < 1e-4, "dense referent deviates by {diff}");
    }

    #[test]
    fn groupnorm_referent_matches_live_within_rounding() {
        let gn = GroupNorm::new(8, 4);
        let x = init::uniform(&[8, 8, 16, 16], -1.0, 1.0, 2);
        let (live, _) = gn.forward(&x);
        let old = groupnorm_forward_ref(&gn, &x);
        let diff = (&live - &old).norm_inf();
        assert!(diff < 1e-4, "groupnorm referent deviates by {diff}");
    }

    #[test]
    fn activation_referent_matches_live_within_rounding() {
        // The live tanh is the polynomial fast path; it stays within a
        // few ulps of the frozen libm referent.
        let x = init::uniform(&[4096], -6.0, 6.0, 11);
        for a in [Activation::Relu, Activation::Tanh] {
            let live = a.forward(&x);
            let old = activation_forward_ref(a, &x);
            let diff = (&live - &old).norm_inf();
            assert!(diff < 1e-5, "{a:?} referent deviates by {diff}");
        }
    }

    #[test]
    fn node_referent_tracks_live_inference() {
        // The referent integrates the same ODE with the same controller and
        // tableau but the pre-rewrite kernels; last-ulp kernel differences
        // can flip individual step-acceptance decisions, so the comparison
        // is tolerance-based, not bitwise.
        let model = NodeModel::image_classifier(4, 2, 2, 10, 7);
        let x = init::uniform(&[2, 4, 8, 8], -1.0, 1.0, 8);
        let opts = NodeSolveOptions::new(1e-3);
        let (live, _) = forward_model_batched(&model, &x, &opts).expect("live inference failed");
        let old = node_inference_ref(&model, &x, 1e-3);
        assert_eq!(live.shape(), old.shape());
        let diff = (&live - &old).norm_inf();
        assert!(diff < 5e-2, "node referent deviates by {diff}");
    }
}
