//! Seeded inputs. The model weights and the image class prototypes are
//! fixed; `--seed` chooses the samples, so runs on different seeds serve
//! the same model on different inputs.

use enode_hw::fingerprint::Fnv64;
use enode_node::model::NodeModel;
use enode_tensor::{Rng64, Tensor};
use enode_workloads::images::SyntheticImages;
use enode_workloads::lotka_volterra::LotkaVolterra;

/// Seed of every model's weights.
pub const MODEL_SEED: u64 = 7;
/// Seed of the synthetic image classes' prototypes.
pub const TASK_SEED: u64 = 11;
/// Seed of the set-up inputs. Set-up is timed on the same inputs for
/// every run seed, so `setup_s` does not depend on which inputs a seed
/// drew.
pub const SETUP_SEED: u64 = 0x5e70;

/// The Lotka–Volterra-sized dynamic-system NODE served by `serve_dynsys`.
pub fn dynsys_model() -> NodeModel {
    NodeModel::dynamic_system(2, 16, 2, MODEL_SEED)
}

/// The normed image classifier of `serve_image` and `train_image`.
pub fn image_model() -> NodeModel {
    NodeModel::image_classifier_normed(4, 2, 2, 10, 2, MODEL_SEED)
}

/// Splits a stream seed off the run seed so the streams of one run are
/// independent.
fn fork(seed: u64, stream: u64) -> u64 {
    let mut s = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    enode_tensor::rng::splitmix64(&mut s)
}

/// `n` Lotka–Volterra initial states `[1, 2]` for stream `stream`.
pub fn dynsys_inputs(seed: u64, stream: u64, n: usize) -> Vec<Tensor> {
    let lv = LotkaVolterra::default();
    let mut rng = Rng64::seed_from_u64(fork(seed, stream));
    (0..n)
        .map(|_| {
            let y0 = lv.random_initial(&mut rng);
            Tensor::from_vec(y0.iter().map(|&v| v as f32).collect(), &[1, 2])
        })
        .collect()
}

/// `n` CIFAR-like 4-channel `size`×`size` images with their labels.
pub fn images(seed: u64, stream: u64, n: usize, size: usize) -> (Tensor, Vec<usize>) {
    let task = SyntheticImages::new(10, 4, size, 0.5, TASK_SEED);
    let ds = task.batch(n, fork(seed, stream));
    (ds.inputs, ds.labels.expect("image batches carry labels"))
}

/// Splits an `[N, ...]` batch into `N` single-sample tensors `[1, ...]`.
pub fn samples(batch: &Tensor) -> Vec<Tensor> {
    let n = batch.shape()[0];
    let len = batch.len() / n;
    let mut shape = batch.shape().to_vec();
    shape[0] = 1;
    (0..n)
        .map(|i| Tensor::from_vec(batch.data()[i * len..(i + 1) * len].to_vec(), &shape))
        .collect()
}

/// FNV-1a digest of tensors' shapes and bit patterns (stream identity).
pub fn digest<'a>(tensors: impl IntoIterator<Item = &'a Tensor>) -> u64 {
    let mut h = Fnv64::new();
    for t in tensors {
        for &d in t.shape() {
            h.write_u64(d as u64);
        }
        for v in t.data() {
            h.write(&v.to_bits().to_le_bytes());
        }
    }
    h.finish()
}
