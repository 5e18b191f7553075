//! New-vs-referent parity of the training backward kernels.
//!
//! The direct SIMD kernels behind `Conv2d::backward_input`,
//! `Conv2d::backward_params`, `GroupNorm::backward` and
//! `Activation::backward` must reproduce the frozen serial code in
//! [`enode_bench::referent`] bit for bit, at pool widths 1, 2 and 4.
//!
//! - Conv: a shape matrix that crosses 8-aligned and ragged map widths,
//!   1/3/5 kernels, output-channel counts on both sides of the 8-lane
//!   group and of the 2-, 4- and 8-channel limits for packing 4 or 2
//!   samples per vector, and both decompositions (batch 8 against batches
//!   1–3 under a wider pool; batch 3 packs one pair and runs its odd
//!   sample alone). `dy` carries exact `0.0` and `-0.0` entries and one
//!   all-`-0.0` channel, so the sign-of-zero arguments behind the bitwise
//!   claim are exercised.
//!   Weights are finite: the input gradient's border taps add `0·w`, which
//!   is a bitwise no-op only for finite `w`, as in the forward kernel.
//! - GroupNorm: batches 1–8, groupings of one to four channels per group,
//!   8-aligned, ragged and single-pixel maps, non-unit γ and β (unit γ
//!   would hide the rounding of `dy·γ`), signed zeros in `dy`, and one
//!   constant slab whose variance is zero.
//! - Activations: all four, over tiny inputs, signed zeros, the tanh
//!   clamp, ±100, ±∞ and NaN, at a length of `8k + 3`.

use enode_bench::referent::{
    activation_backward_ref, conv2d_backward_input_ref, conv2d_backward_params_ref,
    groupnorm_backward_ref,
};
use enode_tensor::activation::Activation;
use enode_tensor::conv::Conv2d;
use enode_tensor::norm::GroupNorm;
use enode_tensor::{init, parallel, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// A uniform `dy` with every seventh entry replaced by `0.0` or `-0.0`
/// and the first sample's last channel all `-0.0`.
fn signed_zero_grad(shape: [usize; 4], seed: u64) -> Tensor {
    let [_, m, h, w] = shape;
    let mut dy = init::uniform(&shape, -1.0, 1.0, seed);
    let data = dy.data_mut();
    for (i, v) in data.iter_mut().enumerate() {
        match i % 7 {
            2 => *v = 0.0,
            5 => *v = -0.0,
            _ => {}
        }
    }
    data[(m - 1) * h * w..m * h * w].fill(-0.0);
    dy
}

#[test]
fn conv_backward_kernels_match_the_frozen_referents_bitwise() {
    let mut seed = 1000u64;
    for (h, w) in [(5usize, 8usize), (4, 5)] {
        for k in [1usize, 3, 5] {
            for m in [1usize, 3, 4, 8, 9] {
                for c in [1usize, 4] {
                    for n in [1usize, 2, 3, 8] {
                        seed += 3;
                        let conv = Conv2d::new_seeded(c, m, k, seed);
                        let x = init::uniform(&[n, c, h, w], -1.0, 1.0, seed + 1);
                        let dy = signed_zero_grad([n, m, h, w], seed + 2);
                        let dx_ref = conv2d_backward_input_ref(&conv, &dy);
                        let (dw_ref, db_ref) =
                            conv2d_backward_params_ref(&conv, &x, &dy, &mut Vec::new());
                        for threads in [1usize, 2, 4] {
                            let (dx, (dw, db)) = parallel::with_threads(threads, || {
                                (conv.backward_input(&dy), conv.backward_params(&x, &dy))
                            });
                            let case = format!("n={n} c={c} m={m} k={k} {h}x{w}, {threads} lanes");
                            assert_eq!(bits(&dx), bits(&dx_ref), "dx: {case}");
                            assert_eq!(bits(&dw), bits(&dw_ref), "dW: {case}");
                            assert_eq!(bits(&db), bits(&db_ref), "db: {case}");
                        }
                    }
                }
            }
        }
    }
}

/// A GroupNorm with non-unit, sign-mixed γ and non-zero β.
fn affine_groupnorm(c: usize, groups: usize) -> GroupNorm {
    let mut gn = GroupNorm::new(c, groups);
    let (gamma, beta) = gn.params_mut();
    for (i, (g, b)) in gamma.data_mut().iter_mut().zip(beta.data_mut()).enumerate() {
        *g = [1.37, -0.61, 0.093, 2.9][i % 4] + 0.01 * i as f32;
        *b = 0.25 - 0.17 * i as f32;
    }
    gn
}

#[test]
fn groupnorm_backward_matches_the_frozen_referent_bitwise() {
    let mut seed = 2000u64;
    for (c, groups) in [(4usize, 2usize), (4, 1), (4, 4), (6, 3), (8, 4)] {
        for (h, w) in [(8usize, 8usize), (5, 3), (1, 1)] {
            for n in [1usize, 2, 3, 8] {
                seed += 3;
                let gn = affine_groupnorm(c, groups);
                let mut x = init::uniform(&[n, c, h, w], -2.0, 2.0, seed);
                // The last sample's first group is constant: zero variance.
                let slab = (c / groups) * h * w;
                x.data_mut()[(n - 1) * c * h * w..][..slab].fill(0.75);
                let dy = signed_zero_grad([n, c, h, w], seed + 1);
                let (_, cache) = gn.forward(&x);
                let (dx_ref, dg_ref, db_ref) = groupnorm_backward_ref(&gn, &x, &cache, &dy);
                for threads in [1usize, 2, 4] {
                    let (dx, dg, db) =
                        parallel::with_threads(threads, || gn.backward(&x, &cache, &dy));
                    let case = format!("n={n} c={c} groups={groups} {h}x{w}, {threads} lanes");
                    assert_eq!(bits(&dx), bits(&dx_ref), "dx: {case}");
                    assert_eq!(bits(&dg), bits(&dg_ref), "dgamma: {case}");
                    assert_eq!(bits(&db), bits(&db_ref), "dbeta: {case}");
                }
            }
        }
    }
}

#[test]
fn activation_backward_matches_the_frozen_referent_bitwise() {
    // 8·9 + 3 elements: the special values, then a sweep across the
    // active region; the gradient mixes signs, zeros, infinities and NaN.
    let special = [
        0.0f32,
        -0.0,
        3e-4,
        -3e-4,
        1e-30,
        -2.5e-4,
        8.5,
        -8.5,
        100.0,
        -100.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];
    let len = 8 * 9 + 3;
    let sweep = init::uniform(&[len - special.len()], -6.0, 6.0, 31);
    let mut xs = special.to_vec();
    xs.extend_from_slice(sweep.data());
    let x = Tensor::from_vec(xs, &[len]);
    let mut dy = init::uniform(&[len], -1.0, 1.0, 37);
    for (i, v) in dy.data_mut().iter_mut().enumerate() {
        match i % 11 {
            1 => *v = -0.0,
            4 => *v = 0.0,
            7 => *v = f32::INFINITY,
            9 => *v = f32::NAN,
            _ => {}
        }
    }
    for act in [
        Activation::Relu,
        Activation::Tanh,
        Activation::Sigmoid,
        Activation::Softplus,
    ] {
        let expect = activation_backward_ref(act, &x, &dy);
        for threads in [1usize, 2, 4] {
            let got = parallel::with_threads(threads, || act.backward(&x, &dy));
            assert_eq!(bits(&got), bits(&expect), "{act:?}, {threads} lanes");
        }
    }
}
