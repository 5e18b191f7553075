//! Packed-panel register-tiled matrix multiply — the inner kernel of the
//! im2col convolution lowering and the dense layer.
//!
//! The kernel computes `y[r, c] = bias[r] + Σ_k a[r, k] · b[k, c]` over
//! MR×NR register micro-tiles, BLIS-style: both operands are first packed
//! into panel layouts ([`pack_a`], [`pack_b`], [`pack_b_t`]) so the
//! microkernel streams two contiguous arrays with unit stride, and each
//! micro-tile holds its 4×8 accumulator block entirely in registers
//! (8 SIMD-width-4 vectors) for the whole reduction. Packing is what
//! makes the inner loop autovectorizer-friendly *and* lets callers reuse
//! a packed operand across many multiplies — conv packs its weights once
//! per call and runs one gemm per im2col'd sample; dense packs `wᵀ` once
//! and runs row-blocks of samples through it.
//!
//! # Layouts
//!
//! * `pack_a`: `[⌈rows/MR⌉][q][MR]` — element `(rp·MR + r, k)` at
//!   `(rp·q + k)·MR + r`; rows past the edge are zero-padded.
//! * `pack_b` / `pack_b_t`: `[⌈p/NR⌉][q][NR]` — element `(k, cp·NR + c)`
//!   at `(cp·q + k)·NR + c`; columns past the edge are zero-padded.
//!
//! # Determinism
//!
//! Every output element is computed as `bias` followed by `+= a·b` for
//! `k = 0, 1, …, q-1` — one strictly serial chain in reduction order,
//! independent of which micro-tile the element lands in, of the panel
//! counts, and of how callers split rows across threads. Any parallel
//! split over rows is therefore bit-identical to the serial call, and the
//! result is bitwise equal to the naive `acc = bias; for k { acc += … }`
//! loop.

use crate::arena;

/// Micro-tile rows held in registers per microkernel invocation.
pub const MR: usize = 4;
/// Micro-tile columns per microkernel invocation (one cache line of f32).
pub const NR: usize = 8;

/// Elements of packed storage for an `[rows, q]` A operand.
pub fn packed_a_len(rows: usize, q: usize) -> usize {
    rows.div_ceil(MR) * MR * q
}

/// Elements of packed storage for a `[q, p]` B operand.
pub fn packed_b_len(q: usize, p: usize) -> usize {
    p.div_ceil(NR) * NR * q
}

/// Packs row-major `a: [rows, q]` into MR-row panels (see module docs).
pub fn pack_a(dst: &mut [f32], a: &[f32], rows: usize, q: usize) {
    debug_assert_eq!(a.len(), rows * q, "a must be [rows, q]");
    debug_assert_eq!(
        dst.len(),
        packed_a_len(rows, q),
        "dst must be packed-A sized"
    );
    if q == 0 {
        return; // degenerate reduction: nothing to pack
    }
    for (rp, panel) in dst.chunks_exact_mut(MR * q).enumerate() {
        for k in 0..q {
            for r in 0..MR {
                let row = rp * MR + r;
                panel[k * MR + r] = if row < rows { a[row * q + k] } else { 0.0 };
            }
        }
    }
}

/// Packs row-major `b: [q, p]` into NR-column panels (see module docs).
pub fn pack_b(dst: &mut [f32], b: &[f32], q: usize, p: usize) {
    debug_assert_eq!(b.len(), q * p, "b must be [q, p]");
    debug_assert_eq!(dst.len(), packed_b_len(q, p), "dst must be packed-B sized");
    if q == 0 {
        return; // degenerate reduction: nothing to pack
    }
    for (cp, panel) in dst.chunks_exact_mut(NR * q).enumerate() {
        let base = cp * NR;
        let width = NR.min(p - base);
        for k in 0..q {
            let src = &b[k * p + base..k * p + base + width];
            let lane = &mut panel[k * NR..(k + 1) * NR];
            lane[..width].copy_from_slice(src);
            lane[width..].fill(0.0);
        }
    }
}

/// Packs `bt: [p, q]` (B stored transposed, e.g. a dense weight matrix
/// `[out, in]` multiplied as `x · wᵀ`) into the same NR-column panel
/// layout as [`pack_b`].
pub fn pack_b_t(dst: &mut [f32], bt: &[f32], q: usize, p: usize) {
    debug_assert_eq!(bt.len(), p * q, "bt must be [p, q]");
    debug_assert_eq!(dst.len(), packed_b_len(q, p), "dst must be packed-B sized");
    if q == 0 {
        return; // degenerate reduction: nothing to pack
    }
    for (cp, panel) in dst.chunks_exact_mut(NR * q).enumerate() {
        for c in 0..NR {
            let col = cp * NR + c;
            if col < p {
                let src = &bt[col * q..(col + 1) * q];
                for (k, &v) in src.iter().enumerate() {
                    panel[k * NR + c] = v;
                }
            } else {
                for k in 0..q {
                    panel[k * NR + c] = 0.0;
                }
            }
        }
    }
}

/// The register microkernel: `acc[r][c] += Σ_k apanel[k][r] · bpanel[k][c]`
/// with the 4×8 accumulator block living in registers across the whole
/// reduction. Dispatches to an explicit 8-wide AVX body when the host has
/// it ([`crate::simd`]); both bodies run the identical per-element
/// mul-then-add sequence, so they are bitwise interchangeable.
///
/// # Panics
///
/// Panics if a panel holds fewer than `q` steps (`q·MR` and `q·NR`
/// floats), in every build: the AVX body's pointer walk relies on it.
#[inline]
fn micro_tile(acc: &mut [[f32; NR]; MR], apanel: &[f32], bpanel: &[f32], q: usize) {
    assert!(
        apanel.len() >= q * MR && bpanel.len() >= q * NR,
        "micro-tile panels shorter than {q} steps"
    );
    #[cfg(target_arch = "x86_64")]
    if crate::simd::avx() {
        // SAFETY: AVX presence was just checked; the assertion above bounds
        // every pointer the body dereferences.
        unsafe { micro_tile_avx(acc, apanel, bpanel, q) };
        return;
    }
    micro_tile_portable(acc, apanel, bpanel, q);
}

/// Portable body of [`micro_tile`]: `chunks_exact` hands LLVM
/// fixed-length slices, so the inner two loops fully unroll into
/// bounds-check-free vector mul-adds at whatever width the baseline
/// target offers.
#[inline]
fn micro_tile_portable(acc: &mut [[f32; NR]; MR], apanel: &[f32], bpanel: &[f32], q: usize) {
    for (a, b) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)).take(q) {
        for r in 0..MR {
            let ar = a[r];
            let row = &mut acc[r];
            for c in 0..NR {
                row[c] += ar * b[c];
            }
        }
    }
}

/// AVX body of [`micro_tile`]: each accumulator row is one `__m256`, one
/// B lane-load and four broadcast-multiply-adds per reduction step. No
/// FMA — `mul` then `add` keeps each lane the exact scalar operation
/// sequence, so the result is bit-identical to
/// [`micro_tile_portable`].
///
/// # Safety
///
/// Caller must ensure the host supports AVX and that
/// `apanel.len() >= q * MR`, `bpanel.len() >= q * NR`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn micro_tile_avx(acc: &mut [[f32; NR]; MR], apanel: &[f32], bpanel: &[f32], q: usize) {
    use std::arch::x86_64::*;
    let mut acc0 = _mm256_loadu_ps(acc[0].as_ptr());
    let mut acc1 = _mm256_loadu_ps(acc[1].as_ptr());
    let mut acc2 = _mm256_loadu_ps(acc[2].as_ptr());
    let mut acc3 = _mm256_loadu_ps(acc[3].as_ptr());
    let mut ap = apanel.as_ptr();
    let mut bp = bpanel.as_ptr();
    for _ in 0..q {
        let b = _mm256_loadu_ps(bp);
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_broadcast_ss(&*ap), b));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_broadcast_ss(&*ap.add(1)), b));
        acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(_mm256_broadcast_ss(&*ap.add(2)), b));
        acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(_mm256_broadcast_ss(&*ap.add(3)), b));
        ap = ap.add(MR);
        bp = bp.add(NR);
    }
    _mm256_storeu_ps(acc[0].as_mut_ptr(), acc0);
    _mm256_storeu_ps(acc[1].as_mut_ptr(), acc1);
    _mm256_storeu_ps(acc[2].as_mut_ptr(), acc2);
    _mm256_storeu_ps(acc[3].as_mut_ptr(), acc3);
}

/// Writes one micro-tile's valid `rlim × clim` corner back to row-major
/// `y: [rows, p]`.
#[inline]
fn store_tile(
    y: &mut [f32],
    acc: &[[f32; NR]; MR],
    p: usize,
    rbase: usize,
    cbase: usize,
    rlim: usize,
    clim: usize,
) {
    for (r, accrow) in acc.iter().enumerate().take(rlim) {
        let at = (rbase + r) * p + cbase;
        y[at..at + clim].copy_from_slice(&accrow[..clim]);
    }
}

/// Computes `y[r, c] = bias[r] + Σ_k A[r, k] · B[k, c]` from pre-packed
/// operands (`rows = bias.len()`). `y` is fully overwritten.
///
/// # Panics
///
/// Panics (in debug) if the slice lengths disagree with `rows`, `q`, `p`.
pub fn gemm_bias_packed(
    y: &mut [f32],
    packed_a: &[f32],
    bias: &[f32],
    packed_b: &[f32],
    q: usize,
    p: usize,
) {
    let rows = bias.len();
    debug_assert_eq!(y.len(), rows * p, "y must be [rows, p]");
    debug_assert_eq!(packed_a.len(), packed_a_len(rows, q));
    debug_assert_eq!(packed_b.len(), packed_b_len(q, p));
    for rp in 0..rows.div_ceil(MR) {
        let apanel = &packed_a[rp * MR * q..(rp + 1) * MR * q];
        let rbase = rp * MR;
        let rlim = MR.min(rows - rbase);
        for cp in 0..p.div_ceil(NR) {
            let bpanel = &packed_b[cp * NR * q..(cp + 1) * NR * q];
            let mut acc = [[0.0f32; NR]; MR];
            for (r, accrow) in acc.iter_mut().enumerate().take(rlim) {
                *accrow = [bias[rbase + r]; NR];
            }
            micro_tile(&mut acc, apanel, bpanel, q);
            let cbase = cp * NR;
            store_tile(y, &acc, p, rbase, cbase, rlim, NR.min(p - cbase));
        }
    }
}

/// Per-*column* bias variant of [`gemm_bias_packed`]:
/// `y[r, c] = bias_cols[c] + Σ_k A[r, k] · B[k, c]` with
/// `p = bias_cols.len()` — the dense-layer orientation, where A holds a
/// block of input rows and B the transposed weights.
pub fn gemm_bias_cols_packed(
    y: &mut [f32],
    packed_a: &[f32],
    bias_cols: &[f32],
    packed_b: &[f32],
    rows: usize,
    q: usize,
) {
    let p = bias_cols.len();
    debug_assert_eq!(y.len(), rows * p, "y must be [rows, p]");
    debug_assert_eq!(packed_a.len(), packed_a_len(rows, q));
    debug_assert_eq!(packed_b.len(), packed_b_len(q, p));
    for rp in 0..rows.div_ceil(MR) {
        let apanel = &packed_a[rp * MR * q..(rp + 1) * MR * q];
        let rbase = rp * MR;
        let rlim = MR.min(rows - rbase);
        for cp in 0..p.div_ceil(NR) {
            let bpanel = &packed_b[cp * NR * q..(cp + 1) * NR * q];
            let cbase = cp * NR;
            let clim = NR.min(p - cbase);
            let mut binit = [0.0f32; NR];
            binit[..clim].copy_from_slice(&bias_cols[cbase..cbase + clim]);
            let mut acc = [binit; MR];
            micro_tile(&mut acc, apanel, bpanel, q);
            store_tile(y, &acc, p, rbase, cbase, rlim, clim);
        }
    }
}

/// Computes `y[r, :] = bias[r] + w[r, :] × cols` for `rows` output rows —
/// the historical entry point, now a thin wrapper that packs both
/// operands into arena scratch and runs the micro-tiled kernel.
///
/// * `w` — `[rows, q]` row-major weight block,
/// * `cols` — `[q, p]` row-major column matrix,
/// * `bias` — `[rows]` initial value per output row,
/// * `y` — `[rows, p]` row-major output block (fully overwritten).
///
/// Callers that can amortize packing across several multiplies (conv over
/// a batch, dense over row blocks) should pack once and call
/// [`gemm_bias_packed`] directly.
///
/// # Panics
///
/// Panics (in debug) if the slice lengths disagree with `rows`, `q`, `p`.
pub fn gemm_bias(y: &mut [f32], w: &[f32], bias: &[f32], cols: &[f32], q: usize, p: usize) {
    let rows = bias.len();
    debug_assert_eq!(y.len(), rows * p, "y must be [rows, p]");
    debug_assert_eq!(w.len(), rows * q, "w must be [rows, q]");
    debug_assert_eq!(cols.len(), q * p, "cols must be [q, p]");
    arena::with_arena_f32(packed_a_len(rows, q), |pa| {
        pack_a(pa, w, rows, q);
        arena::with_arena_f32(packed_b_len(q, p), |pb| {
            pack_b(pb, cols, q, p);
            gemm_bias_packed(y, pa, bias, pb, q, p);
        });
    });
}

/// Affine access summary of the row split callers wrap around
/// [`gemm_bias`] (`parallel_for_disjoint` over output rows, each lane
/// running the serial kernel on its row block): row `r` writes
/// `y[r·p ..]`, reads `w[r·q ..]` and `bias[r]`, and every row streams
/// the shared `cols` panel. Each lane packs its operands into
/// thread-local arena scratch.
pub fn row_split_access(rows: usize, q: usize, p: usize) -> crate::access::KernelAccessSummary {
    use crate::access::{AccessKind, KernelAccessSummary, RegionDecl, ScratchDecl, StridedAccess};
    KernelAccessSummary {
        kernel: "gemm_bias (row split)",
        items: rows,
        grain: 1,
        flops_per_item: q * p,
        regions: vec![
            RegionDecl::output("y", rows * p),
            RegionDecl::input("w", rows * q),
            RegionDecl::input("bias", rows),
            RegionDecl::input("cols", q * p),
        ],
        accesses: vec![
            StridedAccess::contiguous("y", AccessKind::Write, p),
            StridedAccess::contiguous("w", AccessKind::Read, q),
            StridedAccess::contiguous("bias", AccessKind::Read, 1),
            StridedAccess::broadcast_read("cols", q * p),
        ],
        scratch: vec![
            ScratchDecl::arena("packed_a", packed_a_len(rows, q)),
            ScratchDecl::arena("packed_b", packed_b_len(q, p)),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(w: &[f32], bias: &[f32], cols: &[f32], q: usize, p: usize) -> Vec<f32> {
        let rows = bias.len();
        let mut y = vec![0.0f32; rows * p];
        for r in 0..rows {
            for pi in 0..p {
                let mut acc = bias[r] as f64;
                for qi in 0..q {
                    acc += w[r * q + qi] as f64 * cols[qi * p + pi] as f64;
                }
                y[r * p + pi] = acc as f32;
            }
        }
        y
    }

    #[test]
    fn matches_reference_within_f32_rounding() {
        // Shapes straddling the micro-tile edges and the panel tails.
        for (rows, q, p, seed) in [
            (3usize, 7usize, 5usize, 1u64),
            (8, 72, 300, 2),
            (1, 4, 257, 3),
        ] {
            let w = crate::init::uniform(&[rows, q], -1.0, 1.0, seed).into_vec();
            let cols = crate::init::uniform(&[q, p], -1.0, 1.0, seed + 9).into_vec();
            let bias: Vec<f32> = (0..rows).map(|i| i as f32 * 0.25 - 0.5).collect();
            let mut y = vec![0.0f32; rows * p];
            gemm_bias(&mut y, &w, &bias, &cols, q, p);
            let want = reference(&w, &bias, &cols, q, p);
            for (a, b) in y.iter().zip(&want) {
                assert!((a - b).abs() <= 1e-4 * b.abs().max(1.0), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn matches_naive_serial_chain_bitwise() {
        // The micro-tiled kernel promises the exact bits of the naive
        // `acc = bias; for k { acc += a*b }` loop (module docs) — the
        // anchor for cross-split and cross-fusion bit-identity.
        let (rows, q, p) = (7usize, 13usize, 21usize);
        let w = crate::init::uniform(&[rows, q], -1.0, 1.0, 21).into_vec();
        let cols = crate::init::uniform(&[q, p], -1.0, 1.0, 22).into_vec();
        let bias: Vec<f32> = (0..rows).map(|i| (i as f32) * 0.125).collect();
        let mut y = vec![0.0f32; rows * p];
        gemm_bias(&mut y, &w, &bias, &cols, q, p);
        let mut naive = vec![0.0f32; rows * p];
        for r in 0..rows {
            for pi in 0..p {
                let mut acc = bias[r];
                for qi in 0..q {
                    acc += w[r * q + qi] * cols[qi * p + pi];
                }
                naive[r * p + pi] = acc;
            }
        }
        assert_eq!(y, naive);
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx_and_portable_micro_tiles_agree_bitwise() {
        // The dispatch promise: the explicit AVX body is a transcription
        // of the portable loop, not a reassociation. Skip silently on a
        // host without AVX (the dispatcher never selects it there).
        if !crate::simd::avx() {
            return;
        }
        for q in [0usize, 1, 3, 8, 72] {
            let a = crate::init::uniform(&[q.max(1), MR], -2.0, 2.0, 60 + q as u64).into_vec();
            let b = crate::init::uniform(&[q.max(1), NR], -2.0, 2.0, 70 + q as u64).into_vec();
            let mut acc_avx = [[0.1f32, -0.2, 0.3, -0.4, 0.5, -0.6, 0.7, -0.8]; MR];
            let mut acc_port = acc_avx;
            // SAFETY: AVX checked above; slices sized q*MR / q*NR.
            unsafe { micro_tile_avx(&mut acc_avx, &a, &b, q) };
            micro_tile_portable(&mut acc_port, &a, &b, q);
            assert_eq!(acc_avx, acc_port, "q={q}");
        }
    }

    #[test]
    #[should_panic(expected = "micro-tile panels shorter than 3 steps")]
    fn micro_tile_rejects_a_short_panel_in_every_build() {
        // Three reduction steps over a B panel that holds two: the AVX
        // body would read a step past its end.
        let mut acc = [[0.0f32; NR]; MR];
        let a = vec![1.0f32; 3 * MR];
        let b = vec![1.0f32; 2 * NR];
        micro_tile(&mut acc, &a, &b, 3);
    }

    #[test]
    fn packed_entry_matches_wrapper() {
        let (rows, q, p) = (6usize, 19usize, 40usize);
        let w = crate::init::uniform(&[rows, q], -2.0, 2.0, 31).into_vec();
        let cols = crate::init::uniform(&[q, p], -2.0, 2.0, 32).into_vec();
        let bias: Vec<f32> = (0..rows).map(|i| (i as f32).cos()).collect();
        let mut via_wrapper = vec![0.0f32; rows * p];
        gemm_bias(&mut via_wrapper, &w, &bias, &cols, q, p);
        let mut pa = vec![0.0f32; packed_a_len(rows, q)];
        let mut pb = vec![0.0f32; packed_b_len(q, p)];
        pack_a(&mut pa, &w, rows, q);
        pack_b(&mut pb, &cols, q, p);
        let mut via_packed = vec![0.0f32; rows * p];
        gemm_bias_packed(&mut via_packed, &pa, &bias, &pb, q, p);
        assert_eq!(via_wrapper, via_packed);
    }

    #[test]
    fn cols_bias_variant_matches_naive_bitwise() {
        // Dense orientation: A = x rows, B = wᵀ, bias per output column.
        let (rows, q, p) = (5usize, 11usize, 10usize);
        let x = crate::init::uniform(&[rows, q], -1.0, 1.0, 41).into_vec();
        let wt = crate::init::uniform(&[p, q], -1.0, 1.0, 42).into_vec();
        let bias: Vec<f32> = (0..p).map(|i| i as f32 * 0.5 - 2.0).collect();
        let mut pa = vec![0.0f32; packed_a_len(rows, q)];
        let mut pb = vec![0.0f32; packed_b_len(q, p)];
        pack_a(&mut pa, &x, rows, q);
        pack_b_t(&mut pb, &wt, q, p);
        let mut y = vec![0.0f32; rows * p];
        gemm_bias_cols_packed(&mut y, &pa, &bias, &pb, rows, q);
        let mut naive = vec![0.0f32; rows * p];
        for r in 0..rows {
            for c in 0..p {
                let mut acc = bias[c];
                for k in 0..q {
                    acc += x[r * q + k] * wt[c * q + k];
                }
                naive[r * p + c] = acc;
            }
        }
        assert_eq!(y, naive);
    }

    #[test]
    fn row_split_is_bit_identical() {
        // Computing rows in two separate calls must give the same bits as
        // one call over all rows — the property the parallel conv relies
        // on. The cut lands mid-micro-tile on purpose.
        let (rows, q, p) = (6usize, 19usize, 40usize);
        let w = crate::init::uniform(&[rows, q], -2.0, 2.0, 11).into_vec();
        let cols = crate::init::uniform(&[q, p], -2.0, 2.0, 12).into_vec();
        let bias: Vec<f32> = (0..rows).map(|i| (i as f32).sin()).collect();
        let mut whole = vec![0.0f32; rows * p];
        gemm_bias(&mut whole, &w, &bias, &cols, q, p);
        let mut split = vec![0.0f32; rows * p];
        let cut = 2;
        gemm_bias(
            &mut split[..cut * p],
            &w[..cut * q],
            &bias[..cut],
            &cols,
            q,
            p,
        );
        gemm_bias(
            &mut split[cut * p..],
            &w[cut * q..],
            &bias[cut..],
            &cols,
            q,
            p,
        );
        assert_eq!(whole, split);
    }

    #[test]
    fn zero_q_leaves_bias() {
        let mut y = vec![9.0f32; 4];
        gemm_bias(&mut y, &[], &[3.0, -1.0], &[], 0, 2);
        assert_eq!(y, vec![3.0, 3.0, -1.0, -1.0]);
    }
}
