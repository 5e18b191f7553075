//! Parallel-vs-serial determinism suite for the tensor kernels.
//!
//! The parallel layer's contract (see `DESIGN.md`) is that every kernel
//! produces bit-identical results for any thread count. These tests run
//! each kernel under pool widths 1, 2, and 4 via
//! [`parallel::with_threads`] and compare the raw `f32` buffers with
//! `assert_eq!` — no tolerances. Shapes are chosen to be awkward:
//! batch 1 (degenerate batch split), a single output channel (degenerate
//! channel split), and H·W = 15 (not divisible by 2 or 4), so chunk
//! boundaries land mid-structure in every decomposition; the conv cases
//! add 8×8 maps so the forward and input-gradient AVX bodies (which need
//! a width that is a multiple of 8) run too.

use enode_tensor::conv::Conv2d;
use enode_tensor::dense::Dense;
use enode_tensor::norm::GroupNorm;
use enode_tensor::{init, parallel, Tensor};

const THREADS: [usize; 3] = [1, 2, 4];

/// Runs `f` once per pool width and asserts every run's output buffers
/// are bit-identical to the width-1 run.
fn assert_same_bits<F: Fn() -> Vec<Tensor>>(what: &str, f: F) {
    let baseline = parallel::with_threads(1, &f);
    for &t in &THREADS[1..] {
        let got = parallel::with_threads(t, &f);
        assert_eq!(baseline.len(), got.len());
        for (i, (b, g)) in baseline.iter().zip(&got).enumerate() {
            assert_eq!(
                b.data(),
                g.data(),
                "{what}: output {i} differs at {t} threads"
            );
        }
    }
}

fn conv_cases() -> Vec<(Conv2d, Tensor, Tensor)> {
    // (conv, x, dy) triples covering both decomposition branches:
    //  - n >= threads (batch split) and n < threads (per-sample split),
    //  - m = 1 (single output channel) and c = 1 (single input channel),
    //  - H*W = 15, not divisible by 2 or 4,
    //  - 8x8 maps (the training shape) at batch 8 and 2, whose width is a
    //    multiple of 8, so the forward and input-gradient AVX bodies run
    //    under both splits.
    vec![
        (
            Conv2d::new_seeded(3, 4, 3, 11),
            init::uniform(&[5, 3, 5, 3], -1.0, 1.0, 12),
            init::uniform(&[5, 4, 5, 3], -1.0, 1.0, 13),
        ),
        (
            Conv2d::new_seeded(3, 4, 3, 21),
            init::uniform(&[1, 3, 5, 3], -1.0, 1.0, 22),
            init::uniform(&[1, 4, 5, 3], -1.0, 1.0, 23),
        ),
        (
            Conv2d::new_seeded(2, 1, 3, 31),
            init::uniform(&[2, 2, 5, 3], -1.0, 1.0, 32),
            init::uniform(&[2, 1, 5, 3], -1.0, 1.0, 33),
        ),
        (
            Conv2d::new_seeded(1, 3, 1, 41),
            init::uniform(&[3, 1, 5, 3], -1.0, 1.0, 42),
            init::uniform(&[3, 3, 5, 3], -1.0, 1.0, 43),
        ),
        (
            Conv2d::new_seeded(4, 4, 3, 51),
            init::uniform(&[8, 4, 8, 8], -1.0, 1.0, 52),
            init::uniform(&[8, 4, 8, 8], -1.0, 1.0, 53),
        ),
        (
            Conv2d::new_seeded(4, 4, 3, 61),
            init::uniform(&[2, 4, 8, 8], -1.0, 1.0, 62),
            init::uniform(&[2, 4, 8, 8], -1.0, 1.0, 63),
        ),
    ]
}

#[test]
fn conv2d_forward_is_bit_identical_across_thread_counts() {
    for (i, (conv, x, _)) in conv_cases().into_iter().enumerate() {
        assert_same_bits(&format!("conv forward case {i}"), || vec![conv.forward(&x)]);
    }
}

#[test]
fn conv2d_backward_input_is_bit_identical_across_thread_counts() {
    for (i, (conv, _, dy)) in conv_cases().into_iter().enumerate() {
        assert_same_bits(&format!("conv backward_input case {i}"), || {
            vec![conv.backward_input(&dy)]
        });
    }
}

#[test]
fn conv2d_backward_params_is_bit_identical_across_thread_counts() {
    for (i, (conv, x, dy)) in conv_cases().into_iter().enumerate() {
        assert_same_bits(&format!("conv backward_params case {i}"), || {
            let (dw, db) = conv.backward_params(&x, &dy);
            vec![dw, db]
        });
    }
}

#[test]
fn dense_kernels_are_bit_identical_across_thread_counts() {
    // Batch 5 (odd, not divisible by 2 or 4) and batch 1.
    for (i, n) in [5usize, 1].into_iter().enumerate() {
        let dense = Dense::new_seeded(7, 3, 51);
        let x = init::uniform(&[n, 7], -1.0, 1.0, 52);
        let dy = init::uniform(&[n, 3], -1.0, 1.0, 53);
        assert_same_bits(&format!("dense forward case {i}"), || {
            vec![dense.forward(&x)]
        });
        assert_same_bits(&format!("dense backward_input case {i}"), || {
            vec![dense.backward_input(&dy)]
        });
        assert_same_bits(&format!("dense backward_params case {i}"), || {
            let (dw, db) = dense.backward_params(&x, &dy);
            vec![dw, db]
        });
    }
}

#[test]
fn groupnorm_is_bit_identical_across_thread_counts() {
    // Batch 3 and batch 1 at H*W = 15, and the training shape: batch 8
    // of 8x8 maps, whose rows fill the AVX bodies.
    for (i, (n, h, w)) in [(3usize, 5usize, 3usize), (1, 5, 3), (8, 8, 8)]
        .into_iter()
        .enumerate()
    {
        let gn = GroupNorm::new(4, 2);
        let x = init::uniform(&[n, 4, h, w], -2.0, 2.0, 61);
        let dy = init::uniform(&[n, 4, h, w], -1.0, 1.0, 62);
        assert_same_bits(&format!("groupnorm case {i}"), || {
            let (y, cache) = gn.forward(&x);
            let (dx, dgamma, dbeta) = gn.backward(&x, &cache, &dy);
            // Expose the f64 moments bit-exactly as four integer-valued
            // f32s each (16-bit chunks — exact in an f32 mantissa and
            // never NaN, unlike a raw bit reinterpretation).
            let mut chunks = Vec::with_capacity(cache.mean.len() * 8);
            for v in cache.mean.iter().chain(&cache.inv_std) {
                let bits = v.to_bits();
                for shift in [48, 32, 16, 0] {
                    chunks.push(((bits >> shift) as u16) as f32);
                }
            }
            let stats = Tensor::from_vec(chunks.clone(), &[chunks.len()]);
            vec![y, stats, dx, dgamma, dbeta]
        });
    }
}

#[test]
fn env_pool_and_override_pool_agree() {
    // `with_threads(k, ..)` must reproduce whatever the ambient pool
    // computes: run once on the session default pool and once pinned.
    let conv = Conv2d::new_seeded(2, 2, 3, 71);
    let x = init::uniform(&[4, 2, 5, 3], -1.0, 1.0, 72);
    let ambient = conv.forward(&x);
    let pinned = parallel::with_threads(parallel::current_threads().max(1), || conv.forward(&x));
    assert_eq!(ambient.data(), pinned.data());
}
