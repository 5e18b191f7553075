//! Emits the machine-readable fleet-serving benchmark.
//!
//! ```sh
//! cargo run --release -p enode-bench --bin fleet_bench              # full sweep -> BENCH_fleet.json
//! cargo run --release -p enode-bench --bin fleet_bench -- --quick /tmp/fleet.json
//! cargo run --release -p enode-bench --bin fleet_bench -- --check  # CI: diff the full sweep against BENCH_fleet.json
//! ```
//!
//! The sweep is a deterministic discrete-event simulation (virtual clock,
//! fixed cost-model lanes, consistent-hash routing): a rerun with the
//! same seed reproduces every cell bit-for-bit; only `host_cpus` /
//! `enode_threads_default` are host metadata. See
//! [`enode_bench::fleet_json`] for the format.

use enode_bench::fleet_json::{render_json, sweep_fleet};
use enode_bench::report::{self, ArtifactArgs};

fn main() {
    let args = ArtifactArgs::from_env("fleet_bench", &["--quick", "--check"], "BENCH_fleet.json");
    let quick = args.quick;
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

    args.emit(&render_json(&cells, quick));
}
