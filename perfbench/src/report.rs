//! The run's result: human-readable lines, then one JSON object as the
//! last line of standard output.

use std::fmt::Write as _;

/// One named metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The final JSON line. Non-finite values cannot be written as JSON and
/// mark the run incorrect.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            body,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            value,
            m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        correct && finite
    )
}

/// The end-to-end metrics, printed by an untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p75_ms", "ms"),
    ("ok_share", "share"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, printed by a traced run: `(name, unit)`. A
/// layer that is not on a workload's path reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fleet.admit_us", "us"),
    ("server.submit_us", "us"),
    ("server.form_batch_us", "us"),
    ("server.deliver_us", "us"),
    ("server.queue_wait_ms", "ms"),
    ("server.batch_size_mean", "count"),
    ("server.overhead_share", "share"),
    ("request.handoff_us", "us"),
    ("node.solve_us_per_req", "us"),
    ("node.fanout_share", "share"),
    ("node.nfe_per_req", "count"),
    ("node.trials_per_req", "count"),
    ("node.rejected_per_req", "count"),
    ("ode.self_share", "share"),
    ("tensor.f_eval_us", "us"),
    ("tensor.dense_us", "us"),
    ("tensor.conv_fused_us", "us"),
    ("tensor.conv_fwd_us", "us"),
    ("tensor.conv_bwd_input_us", "us"),
    ("tensor.conv_bwd_params_us", "us"),
    ("tensor.groupnorm_fwd_us", "us"),
    ("tensor.groupnorm_bwd_us", "us"),
    ("train.step_ms", "ms"),
    ("train.forward_ms", "ms"),
    ("train.backward_ms", "ms"),
    ("train.rest_ms", "ms"),
    ("train.nfe_forward", "count"),
    ("train.nfe_local_forward", "count"),
    ("train.vjp_evals", "count"),
    ("train.checkpoint_kb", "KB"),
    ("train.state_peak_kb", "KB"),
    ("parallel.scaling", "ratio"),
    ("arena.high_water_kb", "KB"),
    ("arena.checkouts_per_op", "count"),
    ("model.costmodel_ratio", "ratio"),
    ("trace.overhead_share", "share"),
];

/// The listed metrics in list order, taking each value from `values`
/// (0 when the workload does not measure it).
pub fn listed(
    list: &[(&'static str, &'static str)],
    values: &std::collections::BTreeMap<&'static str, f64>,
) -> Vec<Metric> {
    list.iter()
        .map(|&(name, unit)| metric(name, unit, values.get(name).copied().unwrap_or(0.0)))
        .collect()
}

/// Prints peak memory beside the current resident split and the runner's
/// per-operation sample buffers, a fixed part of it.
pub fn print_memory(samples: &crate::stats::OpSamples) {
    println!(
        "memory: VmHWM {:.3} MB (now RssAnon {:.3} MB, RssFile {:.3} MB); runner sample buffers {:.3} MB, kept {} of {} samples (one in {})",
        crate::host::peak_rss_mb(),
        crate::host::status_mb("RssAnon"),
        crate::host::status_mb("RssFile"),
        samples.bytes() as f64 / (1024.0 * 1024.0),
        samples.len(),
        samples.seen(),
        samples.stride()
    );
}

/// Prints each set-up time raw, with its factor, and normalized.
pub fn print_setup(setup: &[crate::referent::Sample], norm: &crate::referent::Normalizer) {
    for &(slice, raw) in setup {
        println!(
            "setup: raw {raw:.6} s  factor {:.4}  normalized {:.6} s",
            norm.factor(slice as usize),
            norm.norm(slice as usize, f64::from(raw))
        );
    }
}

/// Prints one line per slice (referent time, factor, operations, raw and
/// normalized rate) and a summary. `scale` converts operations per second
/// to the throughput unit (images per training step, 1 for requests).
pub fn print_slices(
    what: &str,
    slices: &[crate::referent::SliceStat],
    norm: &crate::referent::Normalizer,
    scale: f64,
) {
    for s in slices {
        let raw = s.ops as f64 * scale / (s.wall_ns / 1e9);
        println!(
            "{what} slice {:>3}: referent {:>9.1} us  factor {:.4}  ops {:>6}  raw {:>10.3}/s  normalized {:>10.3}/s",
            s.slice,
            norm.observed_us[s.slice],
            norm.factor(s.slice),
            s.ops,
            raw,
            raw / norm.factor(s.slice)
        );
    }
    println!(
        "{what}: {} slices, referent median {:.1} us, throughput raw {:.3}/s normalized {:.3}/s",
        slices.len(),
        norm.median_observed_us(),
        crate::referent::raw_throughput(slices) * scale,
        norm.throughput(slices) * scale
    );
}
