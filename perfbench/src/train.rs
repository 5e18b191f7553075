//! The training workload: a fixed, seeded sequence of `Trainer::step`
//! iterations (ACA backward plus Adam) on batches of CIFAR-like images,
//! at pool width [`WIDTH`].
//!
//! A cycle trains [`BATCHES`] fresh copies of the same initial model, one
//! per seeded batch, round-robin for [`STEPS`] steps each, then starts
//! over. Every cycle does identical work, so a time-limited run measures
//! the same mix however many cycles it completes, and averaging over
//! several batches keeps the cost from hinging on one seed's batch.

use crate::gate::{same_bits, Gate};
use crate::host;
use crate::referent::{Kernel, Normalizer, Part, Referent, Sample, SliceStat};
use crate::report::{self, metric, Metric};
use crate::spans::{Recorder, Span};
use crate::stats::{self, OpSamples};
use crate::streams;
use crate::timing::{checkpoint_states, time_per_call};
use enode_node::inference::{forward_model, NodeSolveOptions};
use enode_node::loss::cross_entropy_logits;
use enode_node::model::NodeModel;
use enode_node::train::adjoint::aca_backward_model;
use enode_node::train::trainer::{Target, TrainReport};
use enode_node::train::Trainer;
use enode_tensor::network::{Op, OpCache};
use enode_tensor::{arena, parallel, Tensor};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Distinct batches per cycle: a step's cost depends on its batch by
/// ±10%, so the cycle averages over many.
pub const BATCHES: usize = 64;
/// Steps per batch per cycle. Two are enough to check that training
/// lowers the loss, and a 30-s run in the host's slow phase still reaches
/// the second round.
pub const STEPS: usize = 2;
/// Steps of the traced run: the first of the cycle.
const TRACED_STEPS: usize = 16;
/// Images per batch.
pub const BATCH: usize = 8;
/// Image height and width.
const SIZE: usize = 8;
/// Adam learning rate.
const LR: f32 = 0.01;
/// Solver tolerance of the forward pass.
const TOLERANCE: f64 = 1e-4;
/// Pool lanes of the training loop. Width 2 on this VM's two vCPUs made
/// every parallel region wait on a cross-CPU wake-up, whose latency
/// varies with the host, and ran no faster (`parallel.scaling` ≈ 1.03);
/// the traced run still times the forward pass at both widths.
pub const WIDTH: usize = 1;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Length of one work slice.
const SLICE_MS: u64 = 400;
/// Step-time samples kept per run (see [`OpSamples`]); a 30-s run takes
/// a few hundred steps.
const STEP_SAMPLES: usize = 1 << 12;

/// Host-speed referent: the convolution kernel on 8×8 maps.
pub const REFERENT: Referent = Referent {
    name: "conv8",
    threads: 1,
    parts: &[Part {
        kernel: Kernel::Conv { size: 8, reps: 30 },
        nominal_us: 630.0,
    }],
};

/// Command-line options of a training run.
pub struct RunArgs {
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

/// One batch and its labels.
pub struct Batch {
    /// `[BATCH, 4, SIZE, SIZE]` images.
    pub x: Tensor,
    /// Labels of the images.
    pub labels: Vec<usize>,
}

/// The seeded batch stream of one run.
pub fn stream(seed: u64) -> Vec<Batch> {
    (0..BATCHES)
        .map(|b| {
            let (x, labels) = streams::images(seed, 100 + b as u64, BATCH, SIZE);
            Batch { x, labels }
        })
        .collect()
}

/// Solve options of the forward pass.
pub fn options() -> NodeSolveOptions {
    NodeSolveOptions::new(TOLERANCE)
}

/// The round-robin training cycle.
struct Cycle {
    init: NodeModel,
    trainers: Vec<Trainer>,
    k: usize,
    first: Vec<f32>,
}

impl Cycle {
    fn new(init: NodeModel) -> Self {
        Cycle {
            init,
            trainers: Vec::new(),
            k: 0,
            first: vec![0.0; BATCHES],
        }
    }

    /// Batch and trainer of the next step, starting a cycle if needed.
    fn next(&mut self) -> usize {
        if self.k == 0 {
            self.trainers = (0..BATCHES)
                .map(|_| Trainer::new(self.init.clone(), options(), LR))
                .collect();
        }
        self.k % BATCHES
    }

    /// Records a step's outcome; at a batch's last step of the cycle,
    /// checks that its loss fell.
    fn record(&mut self, b: usize, res: &Result<TrainReport, String>, gate: &mut Gate) {
        let round = self.k / BATCHES;
        match res {
            Ok(r) if r.loss.is_finite() => {
                gate.pass();
                if round == 0 {
                    self.first[b] = r.loss;
                }
                if round == STEPS - 1 {
                    let (first, last) = (self.first[b], r.loss);
                    gate.require(last < first, || {
                        format!("batch {b}: last loss {last} is not below the first {first}")
                    });
                }
            }
            Ok(r) => gate.fail(format!("step {} on batch {b}: loss {}", self.k, r.loss)),
            Err(e) => gate.fail(format!("step {} on batch {b} failed: {e}", self.k)),
        }
        self.k = (self.k + 1) % (BATCHES * STEPS);
    }
}

fn step(trainer: &mut Trainer, batch: &Batch) -> Result<TrainReport, String> {
    trainer
        .step(&batch.x, &Target::Labels(batch.labels.clone()))
        .map_err(|e| e.to_string())
}

/// Results of the untraced loop.
#[derive(Debug)]
pub struct Untraced {
    /// Raw time (ns) of each `Trainer::step`.
    pub steps: OpSamples,
    /// The work slices (ops are steps).
    pub slices: Vec<SliceStat>,
    /// Raw set-up times (s).
    pub setup: Vec<Sample>,
}

/// Set-up (model build, `Trainer::new`, first cold step on a
/// seed-independent batch) repeated, then the time-limited training loop.
fn run_untraced(data: &[Batch], norm: &mut Normalizer, seconds: f64, gate: &mut Gate) -> Untraced {
    let mut out = Untraced {
        steps: OpSamples::new(STEP_SAMPLES),
        slices: Vec::new(),
        setup: Vec::new(),
    };
    let (x, labels) = streams::images(streams::SETUP_SEED, 0, BATCH, SIZE);
    let setup_batch = Batch { x, labels };
    for _ in 0..SETUP_REPS {
        let slice = norm.begin_slice(&REFERENT) as u32;
        let t0 = Instant::now();
        let mut trainer = Trainer::new(streams::image_model(), options(), LR);
        let res = step(&mut trainer, &setup_batch);
        out.setup.push((slice, t0.elapsed().as_secs_f32()));
        match res {
            Ok(r) if r.loss.is_finite() => gate.pass(),
            Ok(r) => gate.fail(format!("cold step: loss {}", r.loss)),
            Err(e) => gate.fail(format!("cold step failed: {e}")),
        }
    }
    let mut cycle = Cycle::new(streams::image_model());
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < end {
        let slice = norm.begin_slice(&REFERENT);
        out.steps.begin_slice(slice);
        let slice_end = Instant::now() + Duration::from_millis(SLICE_MS);
        let cpu0 = host::cpu_ns();
        let start = Instant::now();
        let mut ops = 0;
        loop {
            let b = cycle.next();
            let t0 = Instant::now();
            let res = step(&mut cycle.trainers[b], &data[b]);
            let ns = t0.elapsed().as_nanos() as u64;
            if res.as_ref().is_ok_and(|r| r.loss.is_finite()) {
                ops += 1;
                out.steps.push(ns);
            }
            cycle.record(b, &res, gate);
            if Instant::now() >= slice_end {
                break;
            }
        }
        out.slices.push(SliceStat {
            slice,
            ops,
            wall_ns: start.elapsed().as_nanos() as f64,
            cpu_ns: host::cpu_ns().saturating_sub(cpu0) as f64,
        });
    }
    out
}

/// Raw times (ns) of one traced step.
#[derive(Clone, Copy, Debug)]
pub struct TracedStep {
    /// Normalization slice.
    pub slice: usize,
    /// `Trainer::step`.
    pub step: f64,
    /// `forward_model` at the workload's pool width.
    pub forward: f64,
    /// `aca_backward_model`.
    pub backward: f64,
    /// `forward_model` at pool width 2.
    pub forward_width2: f64,
}

/// Results of the traced cycle.
#[derive(Debug, Default)]
pub struct Traced {
    /// Every span.
    pub rec: Recorder,
    /// Every traced step.
    pub steps: Vec<TracedStep>,
    /// Counters summed over the cycle.
    pub nfe_forward: f64,
    /// Local-forward evaluations of the ACA backward pass.
    pub nfe_local_forward: f64,
    /// Vector-Jacobian products.
    pub vjp_evals: f64,
    /// Checkpoint bytes.
    pub checkpoint_bytes: f64,
    /// Peak training-state bytes.
    pub state_peak_bytes: f64,
    /// Training states for the kernel re-timing.
    pub states: Vec<(usize, f32, Tensor)>,
    /// Arena high-water mark of the training thread (KB).
    pub arena_high_water_kb: f64,
    /// Arena checkouts per `Trainer::step` on the training thread.
    pub arena_checkouts_per_op: f64,
}

/// Runs the first [`TRACED_STEPS`] steps of a cycle, timing each
/// `Trainer::step`, then `forward_model` and `aca_backward_model` on the
/// step's batch and pre-step parameters, and `forward_model` again at
/// pool width 2.
fn run_traced(data: &[Batch], norm: &mut Normalizer, gate: &mut Gate) -> Traced {
    let mut out = Traced::default();
    let mut cycle = Cycle::new(streams::image_model());
    let opts = options();
    let mut checkouts = 0;
    for k in 0..TRACED_STEPS {
        let slice = norm.begin_slice(&REFERENT);
        let b = cycle.next();
        let batch = &data[b];
        let before = cycle.trainers[b].model().clone();
        let arena0 = arena::stats().total_checkouts;
        let t0 = out.rec.now();
        let res = step(&mut cycle.trainers[b], batch);
        let t1 = out.rec.now();
        checkouts += arena::stats().total_checkouts - arena0;
        let fwd = forward_model(&before, &batch.x, &opts);
        let t2 = out.rec.now();
        let Ok((logits, trace)) = fwd else {
            gate.fail(format!("step {k}: forward_model failed"));
            cycle.record(b, &res, gate);
            continue;
        };
        let (loss, dlogits, _) = cross_entropy_logits(&logits, &batch.labels);
        let head = before.head().expect("the image classifier has a head");
        let cache = trace.head_cache.as_ref().expect("a head leaves its cache");
        let (a_final, _, _) = head.backward(cache, &dlogits);
        let t3 = out.rec.now();
        let (_, _, bwd) = aca_backward_model(&before, &trace, &a_final);
        let t4 = out.rec.now();
        let w2 = parallel::with_threads(2, || forward_model(&before, &batch.x, &opts));
        let t5 = out.rec.now();
        if let Ok(r) = &res {
            gate.require(r.loss.to_bits() == loss.to_bits(), || {
                format!(
                    "step {k}: Trainer::step loss {} differs from forward_model's {loss}",
                    r.loss
                )
            });
            gate.require(r.profile.backward == bwd, || {
                format!(
                    "step {k}: Trainer::step backward profile differs from aca_backward_model's"
                )
            });
            out.nfe_forward += r.profile.forward.nfe as f64;
            out.nfe_local_forward += r.profile.backward.nfe_local_forward as f64;
            out.vjp_evals += r.profile.backward.vjp_evals as f64;
            out.checkpoint_bytes += r.profile.checkpoint_bytes as f64;
            out.state_peak_bytes += r.profile.backward.training_state_peak_bytes as f64;
        }
        gate.require(
            w2.as_ref().is_ok_and(|(y, _)| same_bits(y, &logits)),
            || format!("step {k}: forward_model at width 2 differs from width {WIDTH}"),
        );
        if k == 0 {
            out.states = checkpoint_states(std::slice::from_ref(&trace));
        }
        let id = k as u64;
        let span = |name, parent, start_ns, end_ns| Span {
            id,
            name,
            parent,
            start_ns,
            end_ns,
            wait: false,
            slice,
        };
        let root = out.rec.push(span("train.iteration", None, t0, t5));
        out.rec.push(span("train.step", Some(root), t0, t1));
        out.rec.push(span("train.forward", Some(root), t1, t2));
        out.rec.push(span("train.backward", Some(root), t3, t4));
        out.rec
            .push(span("train.forward_width2", Some(root), t4, t5));
        out.steps.push(TracedStep {
            slice,
            step: (t1 - t0) as f64,
            forward: (t2 - t1) as f64,
            backward: (t4 - t3) as f64,
            forward_width2: (t5 - t4) as f64,
        });
        cycle.record(b, &res, gate);
    }
    out.arena_high_water_kb = arena::stats().high_water_elems as f64 * 4.0 / 1024.0;
    out.arena_checkouts_per_op = checkouts as f64 / out.steps.len().max(1) as f64;
    if let Err(e) = out.rec.check_nesting() {
        gate.require(false, || e);
    }
    out
}

/// Per-evaluation training-kernel times (ns, raw) on the recorded states:
/// `Network::eval` and the unfused conv and GroupNorm passes.
fn training_kernels(
    model: &NodeModel,
    states: &[(usize, f32, Tensor)],
    min_ms: f64,
) -> BTreeMap<&'static str, f64> {
    let per_state = |total: f64| total / states.len().max(1) as f64;
    let mut convs = Vec::new();
    let mut norms = Vec::new();
    for (l, t, h) in states {
        let net = &model.layers()[*l];
        let (_, caches) = net.forward_at(*t, h);
        for (op, cache) in net.ops().iter().zip(&caches) {
            match (op, cache) {
                (Op::Conv2d(c), OpCache::Conv { x }) => {
                    let dy = c.forward(x);
                    convs.push((c, x.clone(), dy));
                }
                (Op::GroupNorm(g), OpCache::GroupNorm { x, cache }) => {
                    let (dy, _) = g.forward(x);
                    norms.push((g, x.clone(), cache.clone(), dy));
                }
                _ => {}
            }
        }
    }
    let mut m = BTreeMap::new();
    m.insert(
        "tensor.f_eval_us",
        per_state(time_per_call(min_ms, || {
            for (l, t, h) in states {
                black_box(model.layers()[*l].eval(*t, h));
            }
        })),
    );
    m.insert(
        "tensor.conv_fwd_us",
        per_state(time_per_call(min_ms, || {
            for (c, x, _) in &convs {
                black_box(c.forward(x));
            }
        })),
    );
    m.insert(
        "tensor.conv_bwd_input_us",
        per_state(time_per_call(min_ms, || {
            for (c, _, dy) in &convs {
                black_box(c.backward_input(dy));
            }
        })),
    );
    m.insert(
        "tensor.conv_bwd_params_us",
        per_state(time_per_call(min_ms, || {
            for (c, x, dy) in &convs {
                black_box(c.backward_params(x, dy));
            }
        })),
    );
    m.insert(
        "tensor.groupnorm_fwd_us",
        per_state(time_per_call(min_ms, || {
            for (g, x, _, _) in &norms {
                black_box(g.forward(x));
            }
        })),
    );
    m.insert(
        "tensor.groupnorm_bwd_us",
        per_state(time_per_call(min_ms, || {
            for (g, x, cache, dy) in &norms {
                black_box(g.backward(x, cache, dy));
            }
        })),
    );
    m
}

/// Runs the training workload and returns its metrics.
///
/// # Errors
///
/// A percentile the run has too few iterations for.
pub fn run(args: &RunArgs, gate: &mut Gate) -> Result<Vec<Metric>, String> {
    let data = stream(args.seed);
    println!(
        "pool width {WIDTH}; {BATCHES} batches x {STEPS} steps per cycle, {BATCH} images of 4x{SIZE}x{SIZE}; stream digest {:016x}",
        streams::digest(data.iter().map(|b| &b.x))
    );
    println!(
        "referent {} (nominal {:.1} us) on {} thread(s)",
        REFERENT.name,
        REFERENT.nominal_us(),
        REFERENT.threads
    );
    parallel::with_threads(WIDTH, || {
        let mut norm = Normalizer::new(&REFERENT);
        if !args.trace {
            let mut u = run_untraced(&data, &mut norm, args.seconds, gate);
            report::print_slices("untraced", &u.slices, &norm, BATCH as f64);
            report::print_setup(&u.setup, &norm);
            return end_to_end(&mut u, &norm, gate.ok_share());
        }
        let u = run_untraced(&data, &mut norm, args.seconds * 0.4, gate);
        report::print_slices("untraced", &u.slices, &norm, BATCH as f64);
        let t = run_traced(&data, &mut norm, gate);
        let slice = norm.begin_slice(&REFERENT);
        let kernels = training_kernels(&streams::image_model(), &t.states, 40.0);
        println!("{}", t.rec.write("train_image"));
        t.rec.print_aggregates();
        let mut m = per_layer(&u, &t, &norm);
        for (name, ns) in kernels {
            m.insert(name, norm.norm(slice, ns) / 1e3);
        }
        Ok(report::listed(report::PER_LAYER, &m))
    })
}

fn end_to_end(u: &mut Untraced, norm: &Normalizer, ok_share: f64) -> Result<Vec<Metric>, String> {
    stats::print_percentiles("step raw", u.steps.sorted(|_| 1.0), 1e6, "ms");
    let lat = u.steps.sorted(|s| norm.factor(s));
    stats::print_percentiles("step normalized", lat, 1e6, "ms");
    let p50 = stats::percentile(lat, 50)? as f64 / 1e6;
    let p75 = stats::percentile(lat, 75)? as f64 / 1e6;
    report::print_memory(&u.steps);
    Ok(vec![
        metric("setup_s", "s", stats::median(&norm.norm_all(&u.setup))),
        metric(
            "throughput_per_s",
            "1/s",
            norm.throughput(&u.slices) * BATCH as f64,
        ),
        metric("latency_p50_ms", "ms", p50),
        metric("latency_p75_ms", "ms", p75),
        metric("ok_share", "share", ok_share),
        metric("cpu_ms_per_op", "ms", norm.cpu_ms_per_op(&u.slices)),
        metric("peak_rss_mb", "MB", host::peak_rss_mb()),
    ])
}

fn per_layer(u: &Untraced, t: &Traced, norm: &Normalizer) -> BTreeMap<&'static str, f64> {
    let n = t.steps.len().max(1) as f64;
    let mean_ms = |f: fn(&TracedStep) -> f64| {
        t.steps
            .iter()
            .map(|s| norm.norm(s.slice, f(s)))
            .sum::<f64>()
            / n
            / 1e6
    };
    let step = mean_ms(|s| s.step);
    let forward = mean_ms(|s| s.forward);
    let backward = mean_ms(|s| s.backward);
    let traced: Vec<SliceStat> = t
        .steps
        .iter()
        .map(|s| SliceStat {
            slice: s.slice,
            ops: 1,
            wall_ns: s.step,
            cpu_ns: 0.0,
        })
        .collect();
    let mut m = BTreeMap::new();
    m.insert("train.step_ms", step);
    m.insert("train.forward_ms", forward);
    m.insert("train.backward_ms", backward);
    m.insert("train.rest_ms", step - forward - backward);
    m.insert("train.nfe_forward", t.nfe_forward / n);
    m.insert("train.nfe_local_forward", t.nfe_local_forward / n);
    m.insert("train.vjp_evals", t.vjp_evals / n);
    m.insert("train.checkpoint_kb", t.checkpoint_bytes / n / 1024.0);
    m.insert("train.state_peak_kb", t.state_peak_bytes / n / 1024.0);
    m.insert(
        "parallel.scaling",
        t.steps.iter().map(|s| s.forward).sum::<f64>()
            / t.steps.iter().map(|s| s.forward_width2).sum::<f64>(),
    );
    m.insert("arena.high_water_kb", t.arena_high_water_kb);
    m.insert("arena.checkouts_per_op", t.arena_checkouts_per_op);
    m.insert(
        "trace.overhead_share",
        1.0 - norm.throughput(&traced) / norm.throughput(&u.slices),
    );
    m
}
