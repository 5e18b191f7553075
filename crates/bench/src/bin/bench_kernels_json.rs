//! Emits the machine-readable kernel benchmark baseline.
//!
//! ```sh
//! cargo run --release -p enode-bench --bin bench_kernels_json            # full run -> BENCH_kernels.json
//! cargo run --release -p enode-bench --bin bench_kernels_json -- --quick /tmp/smoke.json
//! ```
//!
//! Besides the measured table, each row with a registered affine summary
//! gets the static roofline prediction for this host
//! ([`enode_analysis::cost`]), and the fresh measurements are
//! cross-checked against the model the same way `enode-lint` checks the
//! committed baseline — a deviation prints a `W084`-style warning before
//! the JSON is written. On a core-starved host the single-core caveat is
//! printed as an explicit warning row.
//!
//! See [`enode_bench::kernels_json`] for the format.

use enode_analysis::cost::{self, BenchBaseline, MeasuredKernel, RooflineModel};
use enode_bench::kernels_json::{measure, render_json, THREADS_HIGH};
use enode_bench::report::{self, ArtifactArgs};

fn main() {
    let args = ArtifactArgs::from_env("bench_kernels_json", &["--quick"], "BENCH_kernels.json");
    let quick = args.quick;
    eprintln!(
        "measuring kernels at 1 and {THREADS_HIGH} threads{} ...",
        if quick { " (quick)" } else { "" }
    );
    let timings = measure(quick);
    let host = report::host_cpus();
    let summaries = cost::bench_shape_summaries();
    println!(
        "{:<34} {:>12} {:>12} {:>8} {:>9} {:>12} {:>9}",
        "kernel", "1 thread", "N threads", "speedup", "roofline", "referent", "vs ref"
    );
    for t in &timings {
        let predicted = summaries
            .iter()
            .find(|(name, _)| *name == t.name)
            .map(|(_, s)| cost::predicted_speedup(&RooflineModel::EDGE, s, THREADS_HIGH, host));
        println!(
            "{:<34} {:>9.1} µs {:>9.1} µs {:>7.2}x {:>8} {:>9} {:>8}",
            t.name,
            t.secs_low * 1e6,
            t.secs_high * 1e6,
            t.speedup(),
            predicted.map_or_else(|| "-".to_string(), |p| format!("{p:.2}x")),
            t.secs_referent
                .map_or_else(|| "-".to_string(), |r| format!("{:.1} µs", r * 1e6)),
            t.speedup_vs_referent()
                .map_or_else(|| "-".to_string(), |v| format!("{v:.2}x")),
        );
    }
    if let Some(caveat) = report::host_caveat(THREADS_HIGH) {
        println!("{caveat}");
    }

    // The same cross-check `enode-lint` runs on the committed baseline,
    // applied to the numbers just measured.
    let fresh = BenchBaseline {
        host_cpus: host,
        threads_high: THREADS_HIGH,
        kernels: timings
            .iter()
            .map(|t| MeasuredKernel {
                name: t.name.to_string(),
                speedup: t.speedup(),
                speedup_vs_referent: t.speedup_vs_referent(),
            })
            .collect(),
    };
    let ds = cost::cross_check(&RooflineModel::EDGE, &fresh);
    if !ds.is_empty() {
        eprint!("{}", ds.render());
    }

    args.emit(&render_json(&timings, quick));

    // Regression gate: every rewritten kernel must at least match its
    // pinned pre-microkernel serial referent on this host. CI runs the
    // quick mode and fails the build on a single-thread regression.
    let mut regressed = false;
    for t in &timings {
        if let Some(v) = t.speedup_vs_referent() {
            if v < 1.0 {
                eprintln!(
                    "REGRESSION: {} is {v:.2}x vs the pinned serial referent (< 1.0x)",
                    t.name
                );
                regressed = true;
            }
        }
    }
    if regressed {
        std::process::exit(1);
    }
}
