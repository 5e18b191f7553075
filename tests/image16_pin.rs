//! Bit-level pin of the image NODE at 16×16, the serving benchmark's shape.
//!
//! The serving and stepping pins run 8×8 images, and the training pin
//! reaches 16-pixel rows only through the unfused forward of a batch of
//! eight; on an AVX-512F host a 16-pixel row is the shape the 16-wide conv
//! body runs. This pin serves single 16×16×4 images through
//! `forward_model` (the fused conv→GroupNorm→act forward) and takes one
//! `Trainer::step` on a batch of three (the unfused forward, the ACA local
//! forward and the conv backward kernels). Three samples split by batch at
//! pool widths 1 and 2 and by output channel at width 4, so the forward's
//! partial channel ranges run too. The digest was recorded before the
//! 16-wide body existed and must not move when a kernel is rewritten, at
//! any pool width.

use enode::hw::fingerprint::Fnv64;
use enode::node::train::trainer::Target;
use enode::prelude::*;
use enode::tensor::parallel;
use enode::workloads::images::SyntheticImages;

fn write_tensor(h: &mut Fnv64, t: &Tensor) {
    for v in t.data() {
        h.write(&v.to_bits().to_le_bytes());
    }
}

/// FNV-1a over, per served image, its logits' bits and its NFE and
/// trials as `u64`s; then the training step's loss bits and every
/// parameter's bits in `params_mut()` order.
fn image16_digest() -> String {
    let task = SyntheticImages::new(10, 4, 16, 0.5, 13);
    let model = NodeModel::image_classifier_normed(4, 2, 2, 10, 2, 7);
    let opts = NodeSolveOptions::new(1e-4);
    let mut h = Fnv64::new();
    for seed in 200..203 {
        let x = task.batch(1, seed).inputs;
        assert_eq!(x.shape(), &[1, 4, 16, 16]);
        let (logits, trace) = forward_model(&model, &x, &opts).expect("forward");
        write_tensor(&mut h, &logits);
        let stats = trace.total_stats();
        h.write_u64(stats.nfe as u64);
        h.write_u64(stats.trials as u64);
    }
    let mut trainer = Trainer::new(model, NodeSolveOptions::new(1e-3), 0.01);
    let batch = task.batch(3, 300);
    let target = Target::Labels(batch.labels.clone().expect("labelled batch"));
    let loss = trainer.step(&batch.inputs, &target).expect("step").loss;
    h.write(&loss.to_bits().to_le_bytes());
    let mut model = trainer.model().clone();
    for p in model.params_mut() {
        write_tensor(&mut h, p);
    }
    h.hex()
}

#[test]
fn image16_forward_and_training_step_match_the_pinned_digest_at_every_pool_width() {
    for threads in [1usize, 2, 4] {
        let digest = parallel::with_threads(threads, image16_digest);
        assert_eq!(digest, "a298a1c172b42d68", "pool width {threads}");
    }
}
