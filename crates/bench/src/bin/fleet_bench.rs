//! Emits the machine-readable fleet-serving benchmark.
//!
//! ```sh
//! cargo run --release -p enode-bench --bin fleet_bench              # full sweep -> BENCH_fleet.json
//! cargo run --release -p enode-bench --bin fleet_bench -- --quick /tmp/fleet.json
//! cargo run --release -p enode-bench --bin fleet_bench -- --smoke  # CI: validate only, write nothing
//! cargo run --release -p enode-bench --bin fleet_bench -- --check  # CI: diff the full sweep against BENCH_fleet.json
//! ```
//!
//! The sweep is a deterministic discrete-event simulation (virtual clock,
//! fixed cost-model lanes, consistent-hash routing): a rerun with the
//! same seed reproduces every cell bit-for-bit; only `host_cpus` /
//! `enode_threads_default` are host metadata. See
//! [`enode_bench::fleet_json`] for the format.

use enode_bench::fleet_json::{render_json, sweep_fleet, validate};
use enode_bench::report;

fn main() {
    let mut quick = false;
    let mut smoke = false;
    let mut check = false;
    let mut out_path = String::from("BENCH_fleet.json");
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
        "sweeping fleet size x tenants x offered load over the shipped registry{} ...",
        if quick { " (quick)" } else { "" }
    );
    let cells = sweep_fleet(quick);

    report::header(&[
        "size",
        "tenants",
        "rps/tenant",
        "offered",
        "completed",
        "shed",
        "rejected",
        "p50_us",
        "p99_us",
        "makespan_us",
    ]);
    for cell in &cells {
        let r = &cell.result;
        let offered: u64 = r.tenants.iter().map(|t| t.offered).sum();
        let completed: u64 = r.tenants.iter().map(|t| t.completed).sum();
        let shed: u64 = r.tenants.iter().map(|t| t.shed).sum();
        let rejected: u64 = r.tenants.iter().map(|t| t.rejected + t.not_resident).sum();
        let p50 = r.tenants.iter().map(|t| t.p50_us).max().unwrap_or(0);
        let p99 = r.tenants.iter().map(|t| t.p99_us).max().unwrap_or(0);
        report::row(&[
            &cell.fleet_size.to_string(),
            &cell.tenants_per_model.to_string(),
            &format!("{:.0}", cell.offered_rps),
            &offered.to_string(),
            &completed.to_string(),
            &shed.to_string(),
            &rejected.to_string(),
            &p50.to_string(),
            &p99.to_string(),
            &r.makespan_us.to_string(),
        ]);
    }

    let json = render_json(&cells, quick);
    if let Err(e) = validate(&json) {
        eprintln!("fleet_bench: emitted document failed validation: {e}");
        std::process::exit(1);
    }
    if check {
        report::check_artifact(
            &out_path,
            &json,
            "cargo run --release -p enode-bench --bin fleet_bench",
        );
        return;
    }
    if smoke {
        eprintln!(
            "smoke OK: JSON well-formed, per-tenant percentiles and residency fields present"
        );
        return;
    }
    std::fs::write(&out_path, json).expect("failed to write the benchmark JSON");
    eprintln!("wrote {out_path}");
}

fn usage(problem: &str) -> ! {
    eprintln!("fleet_bench: {problem}\nusage: fleet_bench [--quick | --smoke | --check] [PATH]");
    std::process::exit(2);
}
