//! Static roofline cost model (`W084`/`W085`): predicts serial-vs-parallel
//! benefit for each registered kernel split from its affine access summary
//! and cross-checks the prediction against the committed
//! `BENCH_kernels.json` measurements.
//!
//! # Model
//!
//! The classic two-term roofline, specialized to the edge pool:
//!
//! ```text
//! t_serial   = flops / P            + bytes / BW
//! t_parallel = flops / (P · E)      + bytes / BW + t_dispatch
//! ```
//!
//! where `P` is peak scalar flops of one lane, `BW` the shared memory
//! bandwidth (memory traffic does not scale with lanes), `E = min(lanes,
//! host_cpus)` the *effective* parallelism, and `t_dispatch` the fixed
//! cost of waking the pool. `flops` comes straight from the summary;
//! `bytes` is the sum of the proven access footprints from
//! [`crate::affine`] (a broadcast read is fetched once, not per item).
//!
//! # Lints
//!
//! * **W084** — the committed measurement deviates from the prediction by
//!   more than [`DEVIATION_TOLERANCE`]×: the baseline is stale, the
//!   summary's flops/footprint is wrong, or the kernel hits an effect the
//!   roofline cannot see. Both directions count.
//! * **W085** — the baseline host had fewer physical cores than the
//!   bench's high thread count, the model predicts `< 1×` for that
//!   degenerate host, and the measurement agrees: the committed
//!   `host_cpus: 1` caveat, machine-checked instead of hand-waved.
//!
//! The pass is deterministic: it reasons about the *committed* baseline
//! (its recorded `host_cpus`), never the machine running the lint.

use crate::diag::{Code, Diagnostic, Diagnostics};
use enode_hw::json::{self, Value};
use enode_tensor::access::KernelAccessSummary;

/// The committed kernel-bench baseline at the repo root.
pub const SHIPPED_BASELINE: &str = include_str!("../../../BENCH_kernels.json");

/// Measured-vs-predicted speedup ratio (either direction) above which
/// `W084` fires. Generous on purpose: the roofline is a planning model,
/// not a simulator, and single-run wall-clock has real variance.
pub const DEVIATION_TOLERANCE: f64 = 4.0;

/// Minimum single-thread `speedup_vs_referent` the microkernel rewrite
/// must hold on its acceptance-tracked rows; a committed baseline below
/// this is a perf regression surfaced as `W084` on ingest.
pub const REFERENT_MIN_SPEEDUP: f64 = 2.0;

/// The bench rows whose serial-referent column the ingest cross-check
/// enforces at [`REFERENT_MIN_SPEEDUP`] (the microkernel acceptance set).
pub const REFERENT_TRACKED_ROWS: [&str; 4] = [
    "conv2d_forward_b8",
    "dense_forward_b64",
    "groupnorm_forward_b8",
    "node_batched_inference_b8",
];

/// Machine constants for one edge lane. Round numbers on purpose — the
/// model predicts *ratios*, which are insensitive to the absolute scale.
#[derive(Clone, Copy, Debug)]
pub struct RooflineModel {
    /// Peak sustained scalar f32 flops of a single lane.
    pub peak_flops_per_lane: f64,
    /// Shared memory bandwidth in bytes/s (does not scale with lanes).
    pub mem_bw_bytes_per_s: f64,
    /// Fixed cost of dispatching work to the pool, in seconds.
    pub dispatch_overhead_s: f64,
}

impl RooflineModel {
    /// The nominal edge-class host the serving stack targets.
    pub const EDGE: RooflineModel = RooflineModel {
        peak_flops_per_lane: 2.0e9,
        mem_bw_bytes_per_s: 1.0e10,
        dispatch_overhead_s: 5.0e-6,
    };
}

/// Static cost of one kernel invocation under a [`RooflineModel`].
#[derive(Clone, Copy, Debug)]
pub struct CostEstimate {
    /// Total scalar operations (`items × flops_per_item`).
    pub flops: f64,
    /// Total bytes moved, from the access footprints.
    pub bytes: f64,
    /// `flops / bytes` — the roofline's x-axis.
    pub arithmetic_intensity: f64,
    /// Predicted serial wall-clock in seconds.
    pub serial_secs: f64,
}

/// Bytes moved per invocation: each access's footprint times the
/// region's element width. A broadcast read (`stride_per_item == 0`)
/// streams its set once; every other access is per-item. Thread-local
/// scratch stays in cache and is not counted.
pub fn bytes_moved(s: &KernelAccessSummary) -> f64 {
    let mut bytes = 0.0f64;
    for a in &s.accesses {
        let elem_bytes = s.region(a.region).map_or(4, |r| r.elem_bytes) as f64;
        let elems = if a.stride_per_item == 0 {
            a.count
        } else {
            s.items * a.count
        } as f64;
        bytes += elems * elem_bytes;
    }
    bytes
}

/// Computes the static cost of one summary.
pub fn cost_of(model: &RooflineModel, s: &KernelAccessSummary) -> CostEstimate {
    let flops = (s.items * s.flops_per_item) as f64;
    let bytes = bytes_moved(s);
    CostEstimate {
        flops,
        bytes,
        arithmetic_intensity: flops / bytes.max(1.0),
        serial_secs: flops / model.peak_flops_per_lane + bytes / model.mem_bw_bytes_per_s,
    }
}

/// Predicted `t_serial / t_parallel` for `lanes` software threads on a
/// host with `host_cpus` physical cores.
///
/// A summary whose grain is `usize::MAX` records a split the planner's
/// work-size floor keeps serial ([`crate::parallelcheck`], `W044`): the
/// parallel run executes the serial code path with no dispatch, so the
/// model predicts exactly 1× rather than the sub-1× a forced split would
/// score.
pub fn predicted_speedup(
    model: &RooflineModel,
    s: &KernelAccessSummary,
    lanes: usize,
    host_cpus: usize,
) -> f64 {
    if s.grain == usize::MAX {
        return 1.0;
    }
    let c = cost_of(model, s);
    let eff = lanes.min(host_cpus).max(1) as f64;
    let t_serial = c.serial_secs;
    let t_parallel = c.flops / (model.peak_flops_per_lane * eff)
        + c.bytes / model.mem_bw_bytes_per_s
        + model.dispatch_overhead_s;
    t_serial / t_parallel
}

/// One measured kernel row from `BENCH_kernels.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct MeasuredKernel {
    /// Bench row name, e.g. `"conv2d_forward_b8"`.
    pub name: String,
    /// Measured `secs_low / secs_high` speedup.
    pub speedup: f64,
    /// Measured single-thread speedup over the pinned pre-microkernel
    /// serial referent (`secs_referent / secs_low`, schema v2 rows only).
    pub speedup_vs_referent: Option<f64>,
}

/// The fields of the committed kernel-bench baseline the cost pass
/// consumes.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchBaseline {
    /// Physical cores of the machine that produced the baseline.
    pub host_cpus: usize,
    /// Thread count of the `secs_high` measurements.
    pub threads_high: usize,
    /// Measured kernel rows, in file order.
    pub kernels: Vec<MeasuredKernel>,
}

/// Reads the subset of `enode-bench-kernels/v1`/`v2` the cost pass needs
/// (v2 adds the optional per-row serial-referent columns) through the
/// one JSON reader. `None` on malformed JSON, a foreign schema, a missing
/// field or an empty `kernels` list.
pub fn parse_baseline(text: &str) -> Option<BenchBaseline> {
    let doc = json::parse(text).ok()?;
    if !doc
        .get("schema")?
        .as_str()?
        .starts_with("enode-bench-kernels/")
    {
        return None;
    }
    let kernels = doc
        .get("kernels")?
        .as_array()?
        .iter()
        .map(|k| {
            Some(MeasuredKernel {
                name: k.get("name")?.as_str()?.to_string(),
                speedup: k.get("speedup")?.as_f64()?,
                speedup_vs_referent: k.get("speedup_vs_referent").and_then(Value::as_f64),
            })
        })
        .collect::<Option<Vec<_>>>()?;
    (!kernels.is_empty()).then_some(BenchBaseline {
        host_cpus: doc.get("host_cpus")?.as_usize()?,
        threads_high: doc.get("threads_high")?.as_usize()?,
        kernels,
    })
}

/// Affine summaries at the *bench* shapes (which differ from the
/// representative lint shapes in [`crate::affine::registered_summaries`]),
/// keyed by the bench row each one predicts. Rows with no summary
/// (serial preprocessing, the bare solver step) are deliberately absent.
pub fn bench_shape_summaries() -> Vec<(&'static str, KernelAccessSummary)> {
    use enode_tensor::{conv, dense, norm};
    // Bench stage: conv2d 8->8 channels, 3x3, 16x16 maps, batch 8;
    // dense 64->64 at batch 64; groupnorm 8 ch / 4 groups at batch 8.
    let (n, c, m, k, h, w) = (8usize, 8usize, 8usize, 3usize, 16usize, 16usize);
    vec![
        (
            "conv2d_forward_b8",
            conv::forward_batch_access(n, c, m, k, h, w),
        ),
        (
            "conv2d_backward_input_b8",
            conv::backward_input_batch_access(n, c, m, k, h, w),
        ),
        (
            "conv2d_backward_params_b8",
            conv::backward_params_batch_access(n, c, m, k, h, w),
        ),
        ("dense_forward_b64", dense::forward_access(64, 64, 64)),
        ("groupnorm_forward_b8", norm::forward_access(8, 8, 4, 256)),
        (
            "node_batched_inference_b8",
            enode_node::eval::batched_access(8),
        ),
        (
            "run_bench_lv_inference",
            KernelAccessSummary::coarse_fanout("bench.run_benches", 3, 1 << 24, 512),
        ),
    ]
}

/// Cross-checks a parsed baseline against the model: `W084` on
/// measured-vs-predicted deviation, `W085` when the model agrees the
/// split cannot win on the (core-starved) measurement host.
pub fn cross_check(model: &RooflineModel, baseline: &BenchBaseline) -> Diagnostics {
    let mut ds = Diagnostics::new();
    // Serial-referent ingest gate: the acceptance-tracked rows must hold
    // their single-thread win over the pinned pre-microkernel kernels.
    for k in &baseline.kernels {
        if !REFERENT_TRACKED_ROWS.contains(&k.name.as_str()) {
            continue;
        }
        if let Some(v) = k.speedup_vs_referent {
            if v < REFERENT_MIN_SPEEDUP {
                ds.push(Diagnostic::new(
                    Code::W084CostModelDeviation,
                    k.name.clone(),
                    format!(
                        "single-thread speedup vs the pinned serial referent is {v:.3}x, \
                         below the {REFERENT_MIN_SPEEDUP:.1}x the microkernel rewrite \
                         commits to; the kernel (or the committed baseline) has regressed"
                    ),
                ));
            }
        }
    }
    let summaries = bench_shape_summaries();
    for (row, s) in &summaries {
        let Some(measured) = baseline.kernels.iter().find(|k| k.name == *row) else {
            continue;
        };
        let predicted = predicted_speedup(model, s, baseline.threads_high, baseline.host_cpus);
        let m = measured.speedup;
        let ratio = (predicted / m).max(m / predicted);
        if ratio > DEVIATION_TOLERANCE {
            ds.push(
                Diagnostic::new(
                    Code::W084CostModelDeviation,
                    *row,
                    format!(
                        "measured parallel speedup {m:.3}x deviates from the roofline \
                         prediction {predicted:.3}x by {ratio:.1}x (tolerance {:.1}x)",
                        DEVIATION_TOLERANCE
                    ),
                )
                .with_note("kernel", s.kernel),
            );
        } else if baseline.host_cpus < baseline.threads_high && predicted < 1.0 && m < 1.0 {
            ds.push(
                Diagnostic::new(
                    Code::W085CostFutileSplit,
                    *row,
                    format!(
                        "roofline agrees with the measured {m:.3}x slowdown: the baseline \
                         host has {} core(s) for {} bench threads, so the split cannot \
                         amortize its dispatch overhead there (machine-checked host_cpus \
                         caveat, not a kernel defect)",
                        baseline.host_cpus, baseline.threads_high
                    ),
                )
                .with_note("kernel", s.kernel),
            );
        }
    }
    ds
}

/// Lints the committed `BENCH_kernels.json` under the edge model — the
/// entry point `lint_everything` and `enode-lint` use.
pub fn lint_shipped_baseline() -> Diagnostics {
    let mut ds = Diagnostics::new();
    match parse_baseline(SHIPPED_BASELINE) {
        Some(b) => ds.extend(cross_check(&RooflineModel::EDGE, &b)),
        None => ds.push(Diagnostic::new(
            Code::W084CostModelDeviation,
            "BENCH_kernels.json",
            "committed baseline does not parse as enode-bench-kernels/v1 or v2; the \
             roofline cross-check cannot run",
        )),
    }
    ds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_baseline_parses() {
        let b = parse_baseline(SHIPPED_BASELINE).expect("committed baseline must parse");
        assert_eq!(b.host_cpus, 1);
        assert_eq!(b.threads_high, 4);
        assert_eq!(b.kernels.len(), 9);
        assert_eq!(b.kernels[0].name, "conv2d_forward_b8");
        assert!((b.kernels[0].speedup - 0.950).abs() < 1e-9);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_baseline("").is_none());
        assert!(parse_baseline("{\"schema\": \"other/v1\"}").is_none());
        // Schema line alone, no kernel rows.
        assert!(parse_baseline("{\"schema\": \"enode-bench-kernels/v1\"}").is_none());
        // A kernel row without its speedup, and the committed baseline cut
        // short of its closing brackets.
        let no_speedup = SHIPPED_BASELINE.replace("\"speedup\": 0.950", "\"x\": 0.950");
        assert!(parse_baseline(&no_speedup).is_none());
        assert!(parse_baseline(
            SHIPPED_BASELINE
                .trim_end()
                .trim_end_matches(['}', ']', '\n', ' '])
        )
        .is_none());
    }

    #[test]
    fn speedup_scales_with_effective_cores() {
        // A heavy kernel: near-linear on 4 real cores, below 1x when the
        // host has a single core (dispatch overhead with no parallelism).
        let s = bench_shape_summaries()
            .into_iter()
            .find(|(n, _)| *n == "conv2d_forward_b8")
            .unwrap()
            .1;
        let four = predicted_speedup(&RooflineModel::EDGE, &s, 4, 4);
        let one = predicted_speedup(&RooflineModel::EDGE, &s, 4, 1);
        assert!(four > 2.0, "4-core prediction {four}");
        assert!(one < 1.0, "1-core prediction {one}");
    }

    #[test]
    fn serial_floor_is_32_dispatches_of_lane_work() {
        // The planner's floor (`enode_tensor` cannot depend on this crate)
        // is derived from these roofline constants; recalibrating one
        // must move the other.
        let m = RooflineModel::EDGE;
        let floor = (32.0 * m.dispatch_overhead_s * m.peak_flops_per_lane).round() as usize;
        assert_eq!(floor, enode_tensor::parallel::SERIAL_FLOOR_FLOPS);
    }

    #[test]
    fn arithmetic_intensity_is_flops_over_bytes() {
        let s = KernelAccessSummary::coarse_fanout("x", 4, 1000, 8);
        let c = cost_of(&RooflineModel::EDGE, &s);
        assert!((c.flops - 4000.0).abs() < 1e-9);
        assert!((c.bytes - 32.0).abs() < 1e-9);
        assert!((c.arithmetic_intensity - 125.0).abs() < 1e-9);
    }

    #[test]
    fn shipped_baseline_yields_exactly_the_host_caveat_warnings() {
        // The committed baseline was captured on a 1-core container; the
        // model must machine-check that caveat for every slowed-down row
        // with a summary, and raise no deviation warnings. Rows that now
        // beat 1x even on the starved host (dense, groupnorm, node — the
        // SIMD single-thread rewrites made the serial leg fast enough that
        // dispatch noise dominates) carry no caveat.
        let ds = lint_shipped_baseline();
        assert_eq!(ds.error_count(), 0, "{}", ds.render());
        assert!(
            !ds.has_code(Code::W084CostModelDeviation),
            "{}",
            ds.render()
        );
        let subjects: Vec<&str> = ds.items().iter().map(|d| d.subject.as_str()).collect();
        assert_eq!(
            subjects,
            vec![
                "conv2d_forward_b8",
                "conv2d_backward_input_b8",
                "conv2d_backward_params_b8",
                "run_bench_lv_inference",
            ],
            "{}",
            ds.render()
        );
        assert!(ds
            .items()
            .iter()
            .all(|d| d.code == Code::W085CostFutileSplit));
    }

    #[test]
    fn inflated_measurement_is_w084() {
        // A 40x claim on a 4-core host: the model tops out near linear,
        // so the deviation gate must trip.
        let b = BenchBaseline {
            host_cpus: 4,
            threads_high: 4,
            kernels: vec![MeasuredKernel {
                name: "conv2d_forward_b8".to_string(),
                speedup: 40.0,
                speedup_vs_referent: None,
            }],
        };
        let ds = cross_check(&RooflineModel::EDGE, &b);
        assert!(ds.has_code(Code::W084CostModelDeviation), "{}", ds.render());
        assert!(!ds.has_code(Code::W085CostFutileSplit), "{}", ds.render());
    }

    #[test]
    fn referent_regression_is_w084_on_ingest() {
        // A tracked row whose single-thread win over the pinned serial
        // referent fell below 2x must trip the ingest gate; untracked
        // rows and rows without the column stay silent.
        let b = BenchBaseline {
            host_cpus: 1,
            threads_high: 4,
            kernels: vec![
                MeasuredKernel {
                    name: "dense_forward_b64".to_string(),
                    speedup: 1.0,
                    speedup_vs_referent: Some(1.4),
                },
                MeasuredKernel {
                    name: "rkf45_fixed_solve_50steps".to_string(),
                    speedup: 1.0,
                    speedup_vs_referent: Some(0.5),
                },
            ],
        };
        let ds = cross_check(&RooflineModel::EDGE, &b);
        let w084: Vec<&str> = ds
            .items()
            .iter()
            .filter(|d| d.code == Code::W084CostModelDeviation)
            .map(|d| d.subject.as_str())
            .collect();
        assert_eq!(w084, ["dense_forward_b64"], "{}", ds.render());
    }

    #[test]
    fn floor_serial_summary_predicts_exactly_one() {
        // Grain usize::MAX records a floor-serial split: the parallel run
        // is the serial code path, so the model must predict 1.0x, not
        // the sub-1x of a forced dispatch.
        let s = bench_shape_summaries()
            .into_iter()
            .find(|(n, _)| *n == "groupnorm_forward_b8")
            .unwrap()
            .1;
        assert_eq!(s.grain, usize::MAX, "bench-shape groupnorm is floor-serial");
        let p = predicted_speedup(&RooflineModel::EDGE, &s, 4, 4);
        assert!((p - 1.0).abs() < 1e-12, "predicted {p}");
    }

    #[test]
    fn multi_core_baseline_raises_no_futile_split() {
        // Same measurements, but captured on a real 4-core host: the
        // host_cpus caveat no longer applies (sub-1x there would be a
        // genuine finding, surfaced as deviation once it crosses the
        // tolerance — not silently excused).
        let mut b = parse_baseline(SHIPPED_BASELINE).unwrap();
        b.host_cpus = 4;
        let ds = cross_check(&RooflineModel::EDGE, &b);
        assert!(!ds.has_code(Code::W085CostFutileSplit), "{}", ds.render());
    }
}
