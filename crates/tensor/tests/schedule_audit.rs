//! Schedule-permutation determinism audit for every parallelized tensor
//! kernel, plus the reduction-order mutation test.
//!
//! The plain determinism suite (`determinism.rs`) varies only the pool
//! width. This suite drives [`enode_tensor::sanitize::audit`], which
//! additionally replays every broadcast in reversed and rotated lane
//! orders and under adversarial grain overrides (1 and `usize::MAX`) —
//! the schedules under which a reduction that combines partials in
//! lane-completion order, rather than item order, changes its bits.
//!
//! The `unordered_*` tests are the seeded-mutation half of the contract:
//! a deliberately buggy completion-order reduction MUST be flagged by the
//! audit, and the item-order fix of the same kernel must pass.

use enode_tensor::conv::Conv2d;
use enode_tensor::dense::Dense;
use enode_tensor::matmul::gemm_bias;
use enode_tensor::norm::GroupNorm;
use enode_tensor::sanitize::audit;
use enode_tensor::{init, parallel, Tensor};
use std::sync::Mutex;

fn bufs(ts: &[&Tensor]) -> Vec<Vec<f32>> {
    ts.iter().map(|t| t.data().to_vec()).collect()
}

#[test]
fn conv2d_all_three_passes_survive_schedule_audit() {
    // Batch 8 keeps the batch split live up to 7 threads; batch 2 forces
    // the channel/row splits at 4 and 7 threads — the audit matrix covers
    // both decompositions of each pass. The forward and input-gradient
    // AVX bodies need a width that is a multiple of 8: the 5×3 maps take
    // their portable bodies, the 8×8 maps (the training shape) the AVX
    // ones.
    let cases = [
        (8usize, 3usize, 4usize, 5usize, 3usize),
        (2, 3, 4, 5, 3),
        (8, 4, 4, 8, 8),
        (2, 4, 4, 8, 8),
    ];
    for (i, (n, c, m, h, w)) in cases.into_iter().enumerate() {
        let conv = Conv2d::new_seeded(c, m, 3, 11);
        let x = init::uniform(&[n, c, h, w], -1.0, 1.0, 12);
        let dy = init::uniform(&[n, m, h, w], -1.0, 1.0, 13);
        audit::assert_deterministic(&format!("conv2d.forward case {i}"), || {
            bufs(&[&conv.forward(&x)])
        });
        audit::assert_deterministic(&format!("conv2d.backward_input case {i}"), || {
            bufs(&[&conv.backward_input(&dy)])
        });
        audit::assert_deterministic(&format!("conv2d.backward_params case {i}"), || {
            let (dw, db) = conv.backward_params(&x, &dy);
            bufs(&[&dw, &db])
        });
    }
}

#[test]
fn dense_all_three_passes_survive_schedule_audit() {
    let dense = Dense::new_seeded(7, 5, 51);
    let x = init::uniform(&[9, 7], -1.0, 1.0, 52);
    let dy = init::uniform(&[9, 5], -1.0, 1.0, 53);
    audit::assert_deterministic("dense.forward", || bufs(&[&dense.forward(&x)]));
    audit::assert_deterministic("dense.backward_input", || {
        bufs(&[&dense.backward_input(&dy)])
    });
    audit::assert_deterministic("dense.backward_params", || {
        let (dw, db) = dense.backward_params(&x, &dy);
        bufs(&[&dw, &db])
    });
}

#[test]
fn groupnorm_both_passes_survive_schedule_audit() {
    // Batch 5 at H*W = 15, and the training shape: batch 8 of 8x8 maps.
    for (i, (n, h, w)) in [(5usize, 5usize, 3usize), (8, 8, 8)]
        .into_iter()
        .enumerate()
    {
        groupnorm_survives_schedule_audit(&format!("groupnorm.forward+backward case {i}"), n, h, w);
    }
}

fn groupnorm_survives_schedule_audit(label: &str, n: usize, h: usize, w: usize) {
    let gn = GroupNorm::new(4, 2);
    let x = init::uniform(&[n, 4, h, w], -2.0, 2.0, 61);
    let dy = init::uniform(&[n, 4, h, w], -1.0, 1.0, 62);
    audit::assert_deterministic(label, || {
        let (y, cache) = gn.forward(&x);
        let (dx, dgamma, dbeta) = gn.backward(&x, &cache, &dy);
        let mut out = bufs(&[&y, &dx, &dgamma, &dbeta]);
        // The f64 per-group moments, exposed bit-exactly as 16-bit chunks
        // (integer-valued f32s) so a last-ulp f64 divergence cannot hide
        // in a rounded cast.
        for stats in [&cache.mean, &cache.inv_std] {
            let mut chunks = Vec::with_capacity(stats.len() * 4);
            for v in stats {
                let bits = v.to_bits();
                for shift in [48, 32, 16, 0] {
                    chunks.push(((bits >> shift) as u16) as f32);
                }
            }
            out.push(chunks);
        }
        out
    });
}

#[test]
fn fused_conv_gn_act_epilogue_survives_schedule_audit() {
    // The fused conv→GroupNorm→activation kernel: batch 8 keeps the batch
    // split live, batch 2 forces the row split; width 16 additionally
    // exercises the 8-wide AVX conv blocks, width 3 the portable body.
    use enode_tensor::activation::Activation;
    for (i, (n, w)) in [(8usize, 3usize), (2, 3), (4, 16)].into_iter().enumerate() {
        let conv = Conv2d::new_seeded(3, 4, 3, 11);
        let gn = GroupNorm::new(4, 2);
        let x = init::uniform(&[n, 3, 5, w], -1.0, 1.0, 12);
        audit::assert_deterministic(&format!("conv2d.fused_forward case {i}"), || {
            bufs(&[&conv.forward_fused(&x, Some(&gn), Some(Activation::Tanh))])
        });
        // Cross-path identity: the fused epilogue shares the conv rows,
        // moment, normalize, and activation kernels with the op-by-op
        // pass, so the outputs must agree bit for bit.
        let fused = conv.forward_fused(&x, Some(&gn), Some(Activation::Tanh));
        let (y, _) = gn.forward(&conv.forward(&x));
        let unfused = Activation::Tanh.forward(&y);
        assert_eq!(
            fused.data(),
            unfused.data(),
            "fused/unfused mismatch case {i}"
        );
    }
}

#[test]
fn gemm_bias_row_split_survives_schedule_audit() {
    // The row split conv2d uses when the batch underfills the pool:
    // disjoint output rows, each computed by the serial gemm kernel.
    let (rows, q, p) = (9usize, 6, 15);
    let w = init::uniform(&[rows, q], -1.0, 1.0, 71);
    let bias = init::uniform(&[rows], -1.0, 1.0, 72);
    let cols = init::uniform(&[q, p], -1.0, 1.0, 73);
    audit::assert_deterministic("gemm_bias row split", || {
        let mut y = vec![0.0f32; rows * p];
        parallel::parallel_for_disjoint(&mut y, rows, 1, |r, yrows| {
            gemm_bias(
                yrows,
                &w.data()[r.start * q..r.end * q],
                &bias.data()[r.start..r.end],
                cols.data(),
                q,
                p,
            );
        });
        vec![y]
    });
}

/// Values whose sum is grouping-sensitive at f32 precision: near 1e8 the
/// f32 ulp is 8, so `1e8 + 1` rounds back to `1e8` and any fold order
/// that separates the `1e8 / -1e8` cancellation from the `1.0` terms
/// produces different bits than the left-to-right serial fold.
const SENSITIVE: [f32; 4] = [1e8, 1.0, 1.0, -1e8];

/// The seeded mutation: per-item partials pushed in lane-COMPLETION order
/// and folded in that order. Under a permuted schedule the fold order
/// changes, so the result is not bit-identical to the serial baseline.
fn unordered_sum(vals: &[f32]) -> f32 {
    let order: Mutex<Vec<f32>> = Mutex::new(Vec::new());
    parallel::parallel_for(vals.len(), 1, |r| {
        let partials: Vec<f32> = r.map(|i| vals[i]).collect();
        order.lock().unwrap().extend(partials);
    });
    order.into_inner().unwrap().iter().fold(0.0, |a, &b| a + b)
}

/// The fix: per-item partials land in item-indexed slots and are folded
/// in item order — the serial fold, whatever the schedule.
fn ordered_sum(vals: &[f32]) -> f32 {
    let n = vals.len();
    let mut partials = vec![0.0f32; n];
    parallel::parallel_for_disjoint(&mut partials, n, 1, |r, slab| {
        for (local, i) in r.enumerate() {
            slab[local] = vals[i];
        }
    });
    partials.iter().fold(0.0, |a, &b| a + b)
}

#[test]
fn unordered_reduction_mutation_is_detected_by_audit() {
    // Sanity: the serial fold of the probe values is 0.0 (the lone +1.0
    // terms are absorbed next to 1e8), while the reversed-chunk order
    // [1, -1e8, 1e8, 1] folds to 1.0 — the bug is observable at all.
    assert_eq!(SENSITIVE.iter().fold(0.0f32, |a, &b| a + b), 0.0);
    assert_eq!(
        [1.0f32, -1e8, 1e8, 1.0].iter().fold(0.0f32, |a, &b| a + b),
        1.0
    );
    let err = audit::check_determinism("unordered combine (seeded mutation)", || {
        vec![vec![unordered_sum(&SENSITIVE)]]
    })
    .expect_err("the completion-order reduction must fail the audit");
    assert!(
        err.contains("determinism audit failed"),
        "unexpected report: {err}"
    );
}

#[test]
fn ordered_reduction_passes_the_same_audit() {
    audit::assert_deterministic("item-order combine (fixed)", || {
        vec![vec![ordered_sum(&SENSITIVE)]]
    });
}

#[test]
fn audit_matrix_has_the_documented_shape() {
    let cases = audit::standard_cases();
    // 4 live widths + 3 reversed + 2 rotated + 2 grain-1 + reversed
    // grain-1 + serial-grain (see DESIGN.md §9).
    assert_eq!(cases.len(), 13);
    assert!(cases.iter().any(|c| c.threads == 7));
    assert!(cases.iter().any(|c| c.grain == Some(usize::MAX)));
}
