//! Emits the simulator-derived serving cost table.
//!
//! ```sh
//! cargo run --release -p enode-bench --bin cost_table_json              # -> COST_TABLE.json
//! cargo run --release -p enode-bench --bin cost_table_json -- --check   # diff against the committed table
//! cargo run --release -p enode-bench --bin cost_table_json -- /tmp/t.json
//! ```
//!
//! The table is **byte-deterministic**: it is a pure function of the
//! shipped [`enode_serve::ServeConfig`]s and the cycle-level simulator
//! (no clocks, no host queries, no libm transcendentals), so `--check`
//! demanding byte identity with the committed file is a sound CI gate —
//! any drift means the ladder or the simulator changed and the table
//! (plus the `analysis::schedcheck` verdicts) must be regenerated
//! together.

use enode_bench::report::ArtifactArgs;
use enode_serve::shipped_cost_table;

fn main() {
    let args = ArtifactArgs::from_env("cost_table_json", &["--check"], "COST_TABLE.json");
    let table = shipped_cost_table();
    println!(
        "{:<20} {:>4} {:>5} {:>6} {:>7} {:>11} {:>10}",
        "policy", "tier", "batch", "points", "f_evals", "latency_us", "energy_uj"
    );
    for r in &table.rows {
        println!(
            "{:<20} {:>4} {:>5} {:>6} {:>7} {:>11} {:>10}",
            r.policy, r.tier, r.batch, r.points, r.f_evals, r.latency_us, r.energy_uj
        );
    }
    args.emit(&table.render_json());
}
