//! Bit-level pin of the three conv passes at the training shape and its
//! tails.
//!
//! `train_image` trains on batches of eight 4×8×8 images, a shape the
//! training pin (16×16) never runs. This pin takes `Conv2d::forward`,
//! `backward_input` and `backward_params` at that shape, then over tails
//! that reach every dispatch arm: batches of 1, 3 and 5 (partial sample
//! packs in the weight gradient, and the channel splits at pool widths 2
//! and 4), channel counts in {1, 3, 4, 5, 8, 9} (partial channel passes
//! and lane groups), row widths in {5, 8, 12, 16, 24, 32} (portable rows,
//! and odd block counts at 8 and 16 lanes) and kernels in {1, 3, 5}. The
//! digest was recorded before the backward kernels were blocked and must
//! not move when a kernel is rewritten, at any pool width.

use enode::hw::fingerprint::Fnv64;
use enode::tensor::conv::Conv2d;
use enode::tensor::{init, parallel, Tensor};

/// `(n, c, m, h, w, k)`: the training shape first, then the tails.
const SHAPES: [(usize, usize, usize, usize, usize, usize); 20] = [
    (8, 4, 4, 8, 8, 3),
    (1, 4, 4, 8, 8, 3),
    (3, 4, 4, 8, 8, 3),
    (5, 4, 4, 8, 8, 3),
    (5, 1, 1, 4, 5, 3),
    (3, 3, 5, 3, 12, 5),
    (1, 5, 3, 5, 16, 1),
    (5, 8, 9, 2, 24, 3),
    (3, 9, 8, 3, 32, 1),
    (8, 4, 1, 4, 16, 3),
    (5, 3, 4, 5, 8, 5),
    (3, 1, 8, 5, 24, 3),
    (1, 9, 4, 3, 12, 3),
    (8, 5, 5, 4, 5, 1),
    (5, 4, 3, 3, 32, 3),
    (3, 8, 1, 2, 16, 5),
    (5, 9, 9, 2, 8, 1),
    (1, 1, 9, 3, 24, 5),
    (8, 3, 8, 3, 12, 3),
    (3, 5, 4, 3, 16, 5),
];

fn write_tensor(h: &mut Fnv64, t: &Tensor) {
    for v in t.data() {
        h.write(&v.to_bits().to_le_bytes());
    }
}

/// FNV-1a over, per shape in order, the bits of `forward(x)`,
/// `backward_input(dy)` and `backward_params(x, dy)`'s `dW` then `db`.
fn conv_digest() -> String {
    let mut h = Fnv64::new();
    for (i, &(n, c, m, hh, ww, k)) in SHAPES.iter().enumerate() {
        let seed = 1000 + 10 * i as u64;
        let mut conv = Conv2d::new_seeded(c, m, k, seed);
        let bias = init::uniform(&[m], -0.5, 0.5, seed + 1);
        conv.bias_mut().data_mut().copy_from_slice(bias.data());
        let x = init::uniform(&[n, c, hh, ww], -1.0, 1.0, seed + 2);
        let dy = init::uniform(&[n, m, hh, ww], -1.0, 1.0, seed + 3);
        write_tensor(&mut h, &conv.forward(&x));
        write_tensor(&mut h, &conv.backward_input(&dy));
        let (dw, db) = conv.backward_params(&x, &dy);
        write_tensor(&mut h, &dw);
        write_tensor(&mut h, &db);
    }
    h.hex()
}

#[test]
fn conv_passes_at_the_training_shape_and_tails_match_the_pinned_digest_at_every_pool_width() {
    for threads in [1usize, 2, 4] {
        let digest = parallel::with_threads(threads, conv_digest);
        assert_eq!(digest, "1daa88eb2f64d420", "pool width {threads}");
    }
}
