//! Emits the machine-readable serving benchmark baseline.
//!
//! ```sh
//! cargo run --release -p enode-bench --bin serve_bench              # full sweep -> BENCH_serve.json
//! cargo run --release -p enode-bench --bin serve_bench -- --quick /tmp/serve.json
//! cargo run --release -p enode-bench --bin serve_bench -- --smoke  # CI: validate only, write nothing
//! cargo run --release -p enode-bench --bin serve_bench -- --check  # CI: diff the full sweep against BENCH_serve.json
//! ```
//!
//! The sweep is a deterministic discrete-event simulation (virtual clock,
//! fixed cost-model lanes): a rerun with the same seed reproduces every
//! row bit-for-bit; only `host_cpus` / `enode_threads_default` are host
//! metadata. See [`enode_bench::serve_json`] for the format.

use enode_bench::report;
use enode_bench::serve_json::{hw_sweep, pareto_frontier, render_json, sweep_shipped, validate};

fn main() {
    let mut quick = false;
    let mut smoke = false;
    let mut check = false;
    let mut out_path = String::from("BENCH_serve.json");
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--smoke" => {
                smoke = true;
                quick = true;
            }
            "--check" => check = true,
            flag if flag.starts_with("--") => usage(&format!("unknown flag {flag}")),
            path => out_path = path.to_string(),
        }
    }
    if check && quick {
        usage("--check compares the full sweep; it takes no --quick or --smoke");
    }
    eprintln!(
        "sweeping offered load x batch window over shipped policies{} ...",
        if quick { " (quick)" } else { "" }
    );
    let sweeps = sweep_shipped(quick);

    report::header(&[
        "policy",
        "deadline_us",
        "rps",
        "window_us",
        "completed",
        "shed",
        "rejected",
        "degraded",
        "p50_us",
        "p99_us",
        "mean_batch",
    ]);
    for sw in &sweeps {
        for r in &sw.rows {
            let m = &r.metrics;
            report::row(&[
                sw.policy.name,
                &sw.deadline_us.to_string(),
                &format!("{:.0}", r.offered_rps),
                &r.batch_window_us.to_string(),
                &m.completed.to_string(),
                &m.shed.to_string(),
                &m.rejected_full.to_string(),
                &m.degraded.to_string(),
                &m.latency_p50_us.to_string(),
                &m.latency_p99_us.to_string(),
                &format!("{:.2}", m.mean_batch),
            ]);
        }
    }

    eprintln!("\nsimulator-calibrated ladder walk (CostModel::from_table) ...");
    let hw = hw_sweep(quick);
    report::header(&[
        "policy",
        "deadline_us",
        "completed",
        "degraded",
        "tier_counts",
        "p99_us",
        "energy_uJ/req",
    ]);
    for row in &hw {
        let m = &row.result.metrics;
        let tiers = row
            .result
            .tier_counts
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join("/");
        report::row(&[
            &row.policy,
            &row.deadline_us.to_string(),
            &m.completed.to_string(),
            &m.degraded.to_string(),
            &tiers,
            &m.latency_p99_us.to_string(),
            &format!("{:.1}", row.energy_uj_per_req),
        ]);
    }
    eprintln!("\nstatic latency x energy Pareto frontier (COST_TABLE.json) ...");
    report::header(&["policy", "tier", "batch", "points", "us/req", "uJ/req"]);
    for p in pareto_frontier() {
        report::row(&[
            &p.policy,
            &p.tier.to_string(),
            &p.batch.to_string(),
            &p.points.to_string(),
            &format!("{:.1}", p.latency_us_per_req),
            &format!("{:.1}", p.energy_uj_per_req),
        ]);
    }

    let json = render_json(&sweeps, &hw, quick);
    if let Err(e) = validate(&json) {
        eprintln!("serve_bench: emitted document failed validation: {e}");
        std::process::exit(1);
    }
    if check {
        report::check_artifact(
            &out_path,
            &json,
            "cargo run --release -p enode-bench --bin serve_bench",
        );
        return;
    }
    if smoke {
        eprintln!("smoke OK: JSON well-formed, p50/p95/p99 and outcome fields present");
        if let Some(caveat) = report::host_caveat(enode_bench::kernels_json::THREADS_HIGH) {
            eprintln!("{caveat}");
        }
        return;
    }
    std::fs::write(&out_path, json).expect("failed to write the benchmark JSON");
    eprintln!("wrote {out_path}");
}

fn usage(problem: &str) -> ! {
    eprintln!("serve_bench: {problem}\nusage: serve_bench [--quick | --smoke | --check] [PATH]");
    std::process::exit(2);
}
