//! Fully-connected (dense) layers.
//!
//! Dense layers form the embedded NN `f` for the dynamic-system workloads
//! (Three-Body, Lotka–Volterra), whose states are small vectors rather than
//! feature maps.

use crate::init;
use crate::matmul;
use crate::parallel;
use crate::sanitize;
use crate::tensor::Tensor;

/// A dense layer `y = W x + b` operating on `[N, D]` batches.
///
/// Weights are `[out, in]`; bias is `[out]`.
///
/// # Example
///
/// ```
/// use enode_tensor::{Tensor, dense::Dense};
/// let layer = Dense::new_seeded(4, 2, 1);
/// let x = Tensor::ones(&[3, 4]);
/// let y = layer.forward(&x);
/// assert_eq!(y.shape(), &[3, 2]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Dense {
    weight: Tensor,
    bias: Tensor,
    in_features: usize,
    out_features: usize,
}

impl Dense {
    /// Creates a dense layer from explicit weights `[out, in]` and bias
    /// `[out]`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are inconsistent.
    pub fn from_parts(weight: Tensor, bias: Tensor) -> Self {
        assert_eq!(weight.shape().len(), 2, "weight must be [out, in]");
        let out = weight.shape()[0];
        let inp = weight.shape()[1];
        assert_eq!(bias.shape(), &[out], "bias must be [out]");
        Dense {
            weight,
            bias,
            in_features: inp,
            out_features: out,
        }
    }

    /// Creates a dense layer with Xavier-uniform weights from a seed.
    pub fn new_seeded(in_features: usize, out_features: usize, seed: u64) -> Self {
        let weight = init::xavier_uniform(
            &[out_features, in_features],
            in_features,
            out_features,
            seed,
        );
        let bias = Tensor::zeros(&[out_features]);
        Dense::from_parts(weight, bias)
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The weight tensor `[out, in]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The bias tensor `[out]`.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Mutable weights (optimizer updates).
    pub fn weight_mut(&mut self) -> &mut Tensor {
        &mut self.weight
    }

    /// Mutable bias.
    pub fn bias_mut(&mut self) -> &mut Tensor {
        &mut self.bias
    }

    /// Simultaneous mutable access to weight and bias (split borrow).
    pub fn params_mut(&mut self) -> (&mut Tensor, &mut Tensor) {
        (&mut self.weight, &mut self.bias)
    }

    /// MAC count for a batch of `n` (for the hardware cost models).
    pub fn macs(&self, n: usize) -> u64 {
        n as u64 * self.in_features as u64 * self.out_features as u64
    }

    /// Forward pass over a `[N, in]` batch.
    ///
    /// Every output is `bias[o]` followed by `+= x[n, k] · w[o, k]` for
    /// ascending `k` — the serial chain of the packed microkernel
    /// ([`crate::matmul`]), so both paths below give the same bits.
    /// Batches of at least one register tile (`N ≥ matmul::MR`) pack `Wᵀ`
    /// into panels once and stream every row block through them. Smaller
    /// batches — a serving request solved alone runs at `N = 1` — would
    /// pay a full repack and a zero-padded tile for one use, so they run
    /// the chain directly over the row-major weights.
    ///
    /// # Panics
    ///
    /// Panics if the input is not `[N, in]`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let (n, d) = batch_dims(x);
        assert_eq!(d, self.in_features, "input feature mismatch");
        let mut y = Tensor::zeros(&[n, self.out_features]);
        self.forward_into(x.data(), n, y.data_mut());
        y
    }

    /// [`Dense::forward`] over a row-major `[n, in]` slice, writing the
    /// `[n, out]` result into `y` (every element overwritten, so `y` may
    /// hold stale scratch).
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `n · in` long or `y` not `n · out` long.
    pub(crate) fn forward_into(&self, xdata: &[f32], n: usize, y: &mut [f32]) {
        let _kernel = sanitize::kernel_scope("dense.forward");
        let d = self.in_features;
        let o = self.out_features;
        assert_eq!(xdata.len(), n * d, "input must be [n, in]");
        assert_eq!(y.len(), n * o, "output must be [n, out]");
        let wdata = self.weight.data();
        let bdata = self.bias.data();
        if n < matmul::MR {
            for (yrow, xrow) in y.chunks_exact_mut(o).zip(xdata.chunks_exact(d)) {
                self.forward_row(xrow, yrow);
            }
            return;
        }
        // Batch rows are independent; the packed microkernel accumulates
        // each output element along k in the serial order, so any row
        // split is bit-identical (and equal to the naive loop). `Wᵀ` is
        // packed once per call and shared read-only by every lane; tiny
        // batches fall below the work-size floor and run serial.
        let grain = parallel::grain_for_sized(n, d * o);
        parallel::with_scratch_f32(matmul::packed_b_len(d, o), |wpack| {
            matmul::pack_b_t(wpack, wdata, d, o);
            let wpack: &[f32] = wpack;
            parallel::parallel_for_disjoint(y, n, grain, |range, rows| {
                let chunk = range.len();
                parallel::with_scratch_f32(matmul::packed_a_len(chunk, d), |xpack| {
                    matmul::pack_a(xpack, &xdata[range.start * d..range.end * d], chunk, d);
                    matmul::gemm_bias_cols_packed(rows, xpack, bdata, wpack, chunk, d);
                });
            });
        });
    }

    /// One row of [`Dense::forward`]: `y[o] = bias[o]` followed by
    /// `+= x[k] · w[o, k]` for ascending `k`, a multiply then an add
    /// (never a fused multiply-add). This is the one copy of the chain
    /// that batches below one register tile run, row by row, and that
    /// `Network::eval_into`'s rank-2 row pass runs on its stack rows.
    ///
    /// The outputs go in blocks of four, then two, then one
    /// ([`row_chains`]): a block runs its chains side by side, so one pass
    /// over `k` serves four outputs. At the 3-input layer of a
    /// dynamic-system `f` that halves the time of the row.
    ///
    /// `x` must be `in` long and `y` `out` long.
    pub(crate) fn forward_row(&self, x: &[f32], y: &mut [f32]) {
        debug_assert_eq!(x.len(), self.in_features, "row must be [in]");
        debug_assert_eq!(y.len(), self.out_features, "row must be [out]");
        let (w, b, d) = (self.weight.data(), self.bias.data(), self.in_features);
        let o = y.len();
        let mut i = 0;
        while o - i >= 4 {
            row_chains::<4>(x, &w[i * d..], &b[i..], &mut y[i..]);
            i += 4;
        }
        if o - i >= 2 {
            row_chains::<2>(x, &w[i * d..], &b[i..], &mut y[i..]);
            i += 2;
        }
        if o > i {
            row_chains::<1>(x, &w[i * d..], &b[i..], &mut y[i..]);
        }
    }

    /// Input gradient: `dx = W^T dy`.
    pub fn backward_input(&self, dy: &Tensor) -> Tensor {
        let _kernel = sanitize::kernel_scope("dense.backward_input");
        let (n, o) = batch_dims(dy);
        assert_eq!(o, self.out_features, "grad feature mismatch");
        let d = self.in_features;
        let wdata = self.weight.data();
        let dydata = dy.data();
        let mut dx = Tensor::zeros(&[n, d]);
        let grain = parallel::grain_for(d * o);
        parallel::parallel_for_disjoint(dx.data_mut(), n, grain, |range, rows| {
            for (local, ni) in range.enumerate() {
                let dyrow = &dydata[ni * o..(ni + 1) * o];
                let dxrow = &mut rows[local * d..(local + 1) * d];
                for (di, dxv) in dxrow.iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for (oi, &g) in dyrow.iter().enumerate() {
                        acc += wdata[oi * d + di] * g;
                    }
                    *dxv = acc;
                }
            }
        });
        dx
    }

    /// Weight and bias gradients from the cached input and `dy`.
    ///
    /// Parallel across output features; each feature's batch reduction
    /// runs in sample order, so the result is bit-identical to the serial
    /// pass for any thread count.
    pub fn backward_params(&self, x: &Tensor, dy: &Tensor) -> (Tensor, Tensor) {
        let _kernel = sanitize::kernel_scope("dense.backward_params");
        let (n, d) = batch_dims(x);
        let (n2, o) = batch_dims(dy);
        assert_eq!(n, n2, "x/dy batch mismatch");
        assert_eq!(d, self.in_features);
        assert_eq!(o, self.out_features);
        let xdata = x.data();
        let dydata = dy.data();
        let mut dw = Tensor::zeros(&[o, d]);
        let mut db = Tensor::zeros(&[o]);
        let grain = parallel::grain_for(n * d);
        parallel::parallel_for_disjoint2(
            dw.data_mut(),
            db.data_mut(),
            o,
            grain,
            |range, dwrows, dbrows| {
                for (local, oi) in range.enumerate() {
                    let dwrow = &mut dwrows[local * d..(local + 1) * d];
                    for ni in 0..n {
                        let g = dydata[ni * o + oi];
                        dbrows[local] += g;
                        let xrow = &xdata[ni * d..(ni + 1) * d];
                        for (dwv, &xv) in dwrow.iter_mut().zip(xrow) {
                            *dwv += g * xv;
                        }
                    }
                }
            },
        );
        (dw, db)
    }
}

/// The chains of the first `B` outputs of a row: `y[j] = b[j]`, then
/// `+= x[k] · w[j, k]` for ascending `k`, where `w` holds row-major
/// `[.., x.len()]` weights. The `B` chains are independent, so they run
/// side by side in one pass over `k`.
#[inline(always)]
fn row_chains<const B: usize>(x: &[f32], w: &[f32], b: &[f32], y: &mut [f32]) {
    let d = x.len();
    let rows: [&[f32]; B] = std::array::from_fn(|j| &w[j * d..(j + 1) * d]);
    let mut acc: [f32; B] = std::array::from_fn(|j| b[j]);
    for (k, &xv) in x.iter().enumerate() {
        for (a, row) in acc.iter_mut().zip(rows) {
            *a += xv * row[k];
        }
    }
    y[..B].copy_from_slice(&acc);
}

fn batch_dims(x: &Tensor) -> (usize, usize) {
    assert_eq!(x.shape().len(), 2, "dense layers take [N, D] input");
    (x.shape()[0], x.shape()[1])
}

// ---------------------------------------------------------------------------
// Kernel-split summaries (one per `parallel_for_disjoint*` call above)
// ---------------------------------------------------------------------------

use crate::access::{KernelAccessSummary, RegionDecl};

/// Access summary of the batch split in [`Dense::forward`]: item `ni`
/// writes `y[ni, :]` and reads `x[ni, :]`; weights and bias are resident
/// broadcast reads. `wpack` (the shared packed `Wᵀ` panel) and `xpack`
/// (the per-lane packed row panel) live in the thread-local arena.
pub fn forward_access(n: usize, d: usize, o: usize) -> KernelAccessSummary {
    KernelAccessSummary {
        kernel: "dense.forward",
        items: n,
        grain: parallel::grain_for_sized(n, d * o),
        flops_per_item: d * o,
        regions: vec![
            RegionDecl::output("y", n * o),
            RegionDecl::input("x", n * d),
            RegionDecl::input("w", o * d),
            RegionDecl::input("bias", o),
        ],
    }
}

/// Access summary of the batch split in [`Dense::backward_input`]: item
/// `ni` writes `dx[ni, :]` and reads `dy[ni, :]` plus the resident
/// transposed weights.
pub fn backward_input_access(n: usize, d: usize, o: usize) -> KernelAccessSummary {
    KernelAccessSummary {
        kernel: "dense.backward_input",
        items: n,
        grain: parallel::grain_for(d * o),
        flops_per_item: d * o,
        regions: vec![
            RegionDecl::output("dx", n * d),
            RegionDecl::input("dy", n * o),
            RegionDecl::input("w", o * d),
        ],
    }
}

/// Access summary of the output-feature split in
/// [`Dense::backward_params`]: item `oi` owns `dW[oi, :]` and `db[oi]`
/// (a `parallel_for_disjoint2`), reading the whole batch of `x` and the
/// interleaved column `dy[:, oi]`; the `o` columns together read all of
/// `dy` once.
pub fn backward_params_access(n: usize, d: usize, o: usize) -> KernelAccessSummary {
    KernelAccessSummary {
        kernel: "dense.backward_params",
        items: o,
        grain: parallel::grain_for(n * d),
        flops_per_item: n * d,
        regions: vec![
            RegionDecl::output("dw", o * d),
            RegionDecl::output("db", o),
            RegionDecl::input("x", n * d),
            RegionDecl::input("dy", n * o),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;

    #[test]
    fn forward_matches_manual() {
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![0.5, -0.5], &[2]);
        let layer = Dense::from_parts(w, b);
        let x = Tensor::from_vec(vec![1.0, 1.0, 1.0], &[1, 3]);
        let y = layer.forward(&x);
        assert_eq!(y.data(), &[6.5, 14.5]);
    }

    #[test]
    fn forward_matches_naive_loop_bitwise() {
        // The packed microkernel keeps the k-serial accumulation chain of
        // the naive loop, so the outputs must be bit-identical — not just
        // close — including at sizes that exercise partial MR/NR tiles.
        for &(n, d, o) in &[(1usize, 3usize, 2usize), (7, 13, 21), (64, 64, 64)] {
            let layer = Dense::new_seeded(d, o, 11);
            let x = init::uniform(&[n, d], -1.0, 1.0, 12);
            let y = layer.forward(&x);
            let wdata = layer.weight().data();
            let bdata = layer.bias().data();
            let xdata = x.data();
            let mut expect = vec![0.0f32; n * o];
            for ni in 0..n {
                for oi in 0..o {
                    let mut acc = bdata[oi];
                    for k in 0..d {
                        acc += wdata[oi * d + k] * xdata[ni * d + k];
                    }
                    expect[ni * o + oi] = acc;
                }
            }
            assert_eq!(y.data(), &expect[..], "n={n} d={d} o={o}");
        }
    }

    #[test]
    fn small_batches_match_packed_rows_bitwise() {
        // Batches below one register tile take the direct path; their rows
        // must carry the bits the packed path gives the same rows inside
        // batches of 4 and 9 — including signed zeros and NaN.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for &(d, o) in &[(1usize, 1usize), (3, 16), (16, 2), (17, 9), (64, 64)] {
            let weight = init::uniform(&[o, d], -1.0, 1.0, 50 + d as u64);
            // Every other bias is -0.0, so an all-zero input row keeps or
            // loses the sign depending on the accumulation chain.
            let bias: Vec<f32> = (0..o)
                .map(|i| if i % 2 == 0 { -0.0 } else { 0.25 * i as f32 })
                .collect();
            let layer = Dense::from_parts(weight, Tensor::from_vec(bias, &[o]));
            let mut x = init::uniform(&[9, d], -1.0, 1.0, 60 + o as u64).into_vec();
            x[..d].fill(-0.0);
            x[d..2 * d].iter_mut().step_by(2).for_each(|v| *v = 0.0);
            x[2 * d + d / 2] = f32::NAN;
            let x9 = Tensor::from_vec(x.clone(), &[9, d]);
            let y9 = layer.forward(&x9);
            let y4 = layer.forward(&Tensor::from_vec(x[..4 * d].to_vec(), &[4, d]));
            assert_eq!(bits(y4.data()), bits(&y9.data()[..4 * o]), "d={d} o={o}");
            for n in 1..matmul::MR {
                for start in [0usize, 9 - n] {
                    let rows = &x[start * d..(start + n) * d];
                    let y = layer.forward(&Tensor::from_vec(rows.to_vec(), &[n, d]));
                    let oracle = &y9.data()[start * o..(start + n) * o];
                    assert_eq!(bits(y.data()), bits(oracle), "d={d} o={o} rows {start}+{n}");
                }
            }
        }
    }

    #[test]
    fn adjoint_identity() {
        let layer = Dense::from_parts(init::uniform(&[5, 4], -1.0, 1.0, 2), Tensor::zeros(&[5]));
        let x = init::uniform(&[3, 4], -1.0, 1.0, 3);
        let y = init::uniform(&[3, 5], -1.0, 1.0, 4);
        let lhs = layer.forward(&x).dot(&y);
        let rhs = x.dot(&layer.backward_input(&y));
        assert!((lhs - rhs).abs() < 1e-4 * lhs.abs().max(1.0));
    }

    #[test]
    fn param_gradients_match_finite_difference() {
        let mut layer = Dense::new_seeded(3, 2, 8);
        let x = init::uniform(&[2, 3], -1.0, 1.0, 9);
        let dy = Tensor::ones(&[2, 2]);
        let (dw, db) = layer.backward_params(&x, &dy);
        let eps = 1e-3;
        for idx in 0..6 {
            let orig = layer.weight().data()[idx];
            layer.weight_mut().data_mut()[idx] = orig + eps;
            let lp = layer.forward(&x).sum();
            layer.weight_mut().data_mut()[idx] = orig - eps;
            let lm = layer.forward(&x).sum();
            layer.weight_mut().data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - dw.data()[idx]).abs() < 1e-2 * fd.abs().max(1.0));
        }
        assert_eq!(db.data(), &[2.0, 2.0]);
    }

    #[test]
    fn macs_count() {
        assert_eq!(Dense::new_seeded(10, 20, 0).macs(4), 800);
    }
}
