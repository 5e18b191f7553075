//! New-vs-referent parity of the conv input- and weight-gradient kernels.
//!
//! The direct SIMD kernels behind `Conv2d::backward_input` and
//! `Conv2d::backward_params` must reproduce the frozen loop nest and im2col
//! lowering in [`enode_bench::referent`] bit for bit, at pool widths 1, 2
//! and 4, over a shape matrix that crosses 8-aligned and ragged map widths,
//! 1/3/5 kernels, output-channel counts on both sides of the 8-lane group,
//! and both decompositions (batch 8 against batches 1–2 under a wider
//! pool). `dy` carries exact `0.0` and `-0.0` entries and one all-`-0.0`
//! channel, so the sign-of-zero arguments behind the bitwise claim are
//! exercised. Weights are finite: the input gradient's border taps add
//! `0·w`, which is a bitwise no-op only for finite `w`, as in the forward
//! kernel.

use enode_bench::referent::{conv2d_backward_input_ref, conv2d_backward_params_ref};
use enode_tensor::conv::Conv2d;
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
                    for n in [1usize, 2, 8] {
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
