//! Frozen reference kernels and the host normalization built on them.
//!
//! The benchmark host runs in speed phases: the same solve takes 1.3–1.7×
//! longer for seconds at a time, with no guest-visible cause. A run
//! therefore alternates short work slices with a slice of one of these
//! kernels, timed while the program under test is idle, and scales every
//! time sample of a work slice by `nominal / observed` of the referent
//! measured just before it. A normalized time reads as "on this host in
//! its fast phase".
//!
//! The kernels are deliberately self-contained: they call nothing in the
//! workspace, so no change to the program can move them. Each one is
//! shaped like the dominant work of the workload it normalizes.

use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each part per observation. Their mean is kept, not
/// their median: a stolen or preempted repetition is part of the host's
/// speed, which the work slices pay for too.
const REPS: usize = 5;

/// One reference kernel and its work size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kernel {
    /// `evals` evaluations of a `3 → 16 → 2` tanh MLP with a fresh heap
    /// buffer per layer output: the shape of the dynamic-system `f`.
    Mlp { evals: usize },
    /// `reps` passes of a zero-padded 3×3 convolution over 4 channels of a
    /// `size`×`size` map, then per-channel normalization and tanh: the
    /// shape of the image `f`.
    Conv { size: usize, reps: usize },
}

/// A kernel with its nominal time (µs) in the host's fast phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Part {
    /// The kernel.
    pub kernel: Kernel,
    /// Nominal median time of one repetition (µs).
    pub nominal_us: f64,
}

/// A workload's referent: a fixed mix of kernels.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Referent {
    /// Printed beside every slice.
    pub name: &'static str,
    /// Threads the referent runs on at once: as many CPUs as the
    /// workload keeps busy.
    pub threads: usize,
    /// The kernels, timed in order.
    pub parts: &'static [Part],
}

impl Referent {
    /// The same kernels, observed on the calling thread alone.
    pub fn on_one_thread(self) -> Referent {
        Referent { threads: 1, ..self }
    }

    /// Sum of the parts' nominal times (µs).
    pub fn nominal_us(&self) -> f64 {
        self.parts.iter().map(|p| p.nominal_us).sum()
    }

    /// Times every part on this thread and `threads - 1` helper threads
    /// at once and returns the sum of the parts' times (µs), each the
    /// mean over the threads of the mean of [`REPS`] repetitions.
    ///
    /// The thread count matters: on a two-vCPU VM a kernel can run 1.7×
    /// slower while the other vCPU is busy too. A serving workload keeps
    /// both CPUs busy (the generator and the worker) and the scheduler
    /// moves its threads between them, so its referent runs on both; the
    /// one-lane training loop leaves the other CPU idle, so its referent
    /// runs on the training thread alone.
    pub fn observe(&self) -> f64 {
        self.parts
            .iter()
            .map(|p| {
                std::thread::scope(|s| {
                    let helpers: Vec<_> = (1..self.threads)
                        .map(|_| s.spawn(|| observe_kernel(p.kernel)))
                        .collect();
                    let own = observe_kernel(p.kernel);
                    let others: f64 = helpers
                        .into_iter()
                        .map(|h| h.join().expect("referent helper"))
                        .sum();
                    (own + others) / self.threads as f64
                })
            })
            .sum()
    }
}

/// Mean wall time (µs) of [`REPS`] repetitions of `kernel`.
fn observe_kernel(kernel: Kernel) -> f64 {
    let t0 = Instant::now();
    for _ in 0..REPS {
        run(kernel);
    }
    t0.elapsed().as_secs_f64() * 1e6 / REPS as f64
}

/// Runs one repetition of `kernel`.
fn run(kernel: Kernel) {
    match kernel {
        Kernel::Mlp { evals } => {
            black_box(mlp(evals));
        }
        Kernel::Conv { size, reps } => {
            black_box(conv(size, reps));
        }
    }
}

/// Deterministic weights in `[-0.5, 0.5)` from a 64-bit LCG.
fn weights(n: usize, mut state: u64) -> Vec<f32> {
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect()
}

// The per-layer heap buffers are the point: the program's `f` allocates
// a tensor per op.
#[allow(clippy::useless_vec)]
fn mlp(evals: usize) -> f32 {
    let w1 = weights(16 * 3, 1);
    let b1 = weights(16, 2);
    let w2 = weights(2 * 16, 3);
    let b2 = weights(2, 4);
    let mut x = vec![0.5f32, -0.25];
    let mut t = 0.0f32;
    for _ in 0..evals {
        let input = black_box(vec![x[0], x[1], t]);
        let mut h = vec![0.0f32; 16];
        for (j, hj) in h.iter_mut().enumerate() {
            let row = &w1[j * 3..j * 3 + 3];
            *hj = (row[0] * input[0] + row[1] * input[1] + row[2] * input[2] + b1[j]).tanh();
        }
        let h = black_box(h);
        let mut y = vec![0.0f32; 2];
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = b2[i]
                + w2[i * 16..i * 16 + 16]
                    .iter()
                    .zip(&h)
                    .map(|(w, v)| w * v)
                    .sum::<f32>();
        }
        x = vec![x[0] + 0.01 * y[0], x[1] + 0.01 * y[1]];
        t += 1e-3;
    }
    x[0] + x[1]
}

fn conv(size: usize, reps: usize) -> f32 {
    const C: usize = 4;
    let n = size * size;
    let w = weights(C * C * 9, 5);
    let mut x = weights(C * n, 6);
    let mut y = vec![0.0f32; C * n];
    for _ in 0..reps {
        for co in 0..C {
            for i in 0..size {
                for j in 0..size {
                    let mut s = 0.0f32;
                    for ci in 0..C {
                        for di in 0..3 {
                            let ii = i + di;
                            if ii < 1 || ii > size {
                                continue;
                            }
                            for dj in 0..3 {
                                let jj = j + dj;
                                if jj < 1 || jj > size {
                                    continue;
                                }
                                s += w[((co * C + ci) * 3 + di) * 3 + dj]
                                    * x[ci * n + (ii - 1) * size + (jj - 1)];
                            }
                        }
                    }
                    y[co * n + i * size + j] = s;
                }
            }
        }
        for c in 0..C {
            let plane = &y[c * n..(c + 1) * n];
            let mean = plane.iter().map(|&v| v as f64).sum::<f64>() / n as f64;
            let var = plane
                .iter()
                .map(|&v| (v as f64 - mean) * (v as f64 - mean))
                .sum::<f64>()
                / n as f64;
            let inv = 1.0 / (var + 1e-5).sqrt();
            for k in 0..n {
                x[c * n + k] = (((y[c * n + k] as f64 - mean) * inv) as f32).tanh();
            }
        }
        black_box(&mut x);
    }
    x.iter().sum()
}

/// Referent observations a slice's factor averages, centred on the
/// slice: one observation is a few milliseconds and jitters by ±15%,
/// while the host's speed phases last seconds.
pub const WINDOW: usize = 5;

/// One time sample: the slice it was measured in and its raw value.
pub type Sample = (u32, f32);

/// Host-speed factors of the slices of one run, in slice order.
#[derive(Clone, Debug, Default)]
pub struct Normalizer {
    /// Observed referent time (µs) before each slice.
    pub observed_us: Vec<f64>,
    nominal_us: f64,
}

impl Normalizer {
    /// A normalizer for `referent` with no slices yet.
    pub fn new(referent: &Referent) -> Self {
        Normalizer {
            observed_us: Vec::new(),
            nominal_us: referent.nominal_us(),
        }
    }

    /// A normalizer with given nominal and observed times (tests).
    pub fn from_parts(nominal_us: f64, observed_us: Vec<f64>) -> Self {
        Normalizer {
            observed_us,
            nominal_us,
        }
    }

    /// Observes the referent and opens a new slice; returns its index.
    pub fn begin_slice(&mut self, referent: &Referent) -> usize {
        self.observed_us.push(referent.observe());
        self.observed_us.len() - 1
    }

    /// Factor of slice `i`: nominal referent time over the mean of the
    /// [`WINDOW`] observations centred on slice `i`.
    pub fn factor(&self, i: usize) -> f64 {
        let half = WINDOW / 2;
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(self.observed_us.len());
        self.nominal_us / crate::stats::mean(&self.observed_us[lo..hi])
    }

    /// A raw time measured in slice `i`, normalized.
    pub fn norm(&self, i: usize, raw: f64) -> f64 {
        raw * self.factor(i)
    }

    /// Median observed referent time (µs) over the run's slices.
    pub fn median_observed_us(&self) -> f64 {
        crate::stats::median(&self.observed_us)
    }
}

/// One work slice: operations verified in it, raw wall and CPU time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SliceStat {
    /// Normalization slice.
    pub slice: usize,
    /// Verified operations completed in the slice.
    pub ops: u64,
    /// Raw wall time (ns).
    pub wall_ns: f64,
    /// Raw process CPU time over all threads (ns).
    pub cpu_ns: f64,
}

impl Normalizer {
    /// Normalized operations per second over `slices`.
    pub fn throughput(&self, slices: &[SliceStat]) -> f64 {
        let ops: u64 = slices.iter().map(|s| s.ops).sum();
        let secs: f64 = slices
            .iter()
            .map(|s| self.norm(s.slice, s.wall_ns))
            .sum::<f64>()
            / 1e9;
        ops as f64 / secs
    }

    /// Normalized CPU milliseconds per operation over `slices`.
    pub fn cpu_ms_per_op(&self, slices: &[SliceStat]) -> f64 {
        let ops: u64 = slices.iter().map(|s| s.ops).sum();
        let cpu: f64 = slices.iter().map(|s| self.norm(s.slice, s.cpu_ns)).sum();
        cpu / 1e6 / ops as f64
    }

    /// Every sample, normalized, in input order.
    pub fn norm_all(&self, samples: &[Sample]) -> Vec<f64> {
        samples
            .iter()
            .map(|&(s, v)| self.norm(s as usize, f64::from(v)))
            .collect()
    }

    /// Every sample, normalized, rounded to a whole number and sorted
    /// ascending.
    pub fn norm_sorted(&self, samples: &[Sample]) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .norm_all(samples)
            .iter()
            .map(|x| x.round() as u64)
            .collect();
        v.sort_unstable();
        v
    }
}

/// Raw operations per second over `slices`.
pub fn raw_throughput(slices: &[SliceStat]) -> f64 {
    let ops: u64 = slices.iter().map(|s| s.ops).sum();
    ops as f64 / (slices.iter().map(|s| s.wall_ns).sum::<f64>() / 1e9)
}
