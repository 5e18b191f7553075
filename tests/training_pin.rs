//! Bit-level pin of a short seeded training run.
//!
//! Three `Trainer::step`s of the normed image classifier on CIFAR-like
//! batches exercise the whole training path — forward solve, ACA backward
//! with the conv input and weight gradients, GroupNorm backward, Adam.
//! The digest of the losses and final parameters is the one the pre-SIMD
//! backward kernels produced; it must not move when a kernel is
//! rewritten, at any pool width.

use enode::hw::fingerprint::Fnv64;
use enode::node::train::trainer::Target;
use enode::prelude::*;
use enode::tensor::parallel;
use enode::workloads::images::SyntheticImages;

/// FNV-1a over the three losses' bits, then every parameter's bits in
/// `params_mut()` order (each `f32` as 4 little-endian bytes).
fn training_digest() -> String {
    let task = SyntheticImages::cifar_like(4, 7);
    let model = NodeModel::image_classifier_normed(4, 2, 2, 10, 2, 11);
    let mut trainer = Trainer::new(model, NodeSolveOptions::new(1e-3), 0.01);
    let mut h = Fnv64::new();
    for seed in 100..103 {
        let batch = task.batch(8, seed);
        let target = Target::Labels(batch.labels.clone().expect("labelled batch"));
        let loss = trainer.step(&batch.inputs, &target).expect("step").loss;
        h.write(&loss.to_bits().to_le_bytes());
    }
    let mut model = trainer.model().clone();
    for p in model.params_mut() {
        for v in p.data() {
            h.write(&v.to_bits().to_le_bytes());
        }
    }
    h.hex()
}

#[test]
fn three_training_steps_match_the_pinned_digest_at_every_pool_width() {
    for threads in [1usize, 2, 4] {
        let digest = parallel::with_threads(threads, training_digest);
        assert_eq!(digest, "a930fb7d80b1f7bf", "pool width {threads}");
    }
}
