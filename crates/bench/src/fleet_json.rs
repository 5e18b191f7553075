//! The machine-readable fleet-serving benchmark (`BENCH_fleet.json`).
//!
//! Sweeps fleet size × tenants × offered load over the shipped registry
//! using the deterministic discrete-event fleet simulation in
//! [`enode_serve::fleet`]: every request really routes through the
//! consistent-hash ring into a whole [`enode_serve::Server`] instance and
//! solves the ODE (true outputs, true degradation tiers), but service
//! time is charged by the same fixed [`cost_model`] as `BENCH_serve.json`,
//! so a rerun with the same seed produces the same bytes on any host —
//! only `host_cpus` and `enode_threads_default` are host metadata.
//!
//! # JSON format (`schema: "enode-bench-fleet/v1"`)
//!
//! ```json
//! {
//!   "schema": "enode-bench-fleet/v1",
//!   "lanes": 4,                    // CostModel lanes (fixed, not host-derived)
//!   "host_cpus": 1,                // available_parallelism() on the host
//!   "enode_threads_default": 1,    // pool width this host would default to
//!   "quick": false,                // true when run with the reduced grid (CI smoke)
//!   "seed": 24301,                 // master seed for arrivals and inputs
//!   "cost_model": { "per_nfe_us": 20.0, "dispatch_overhead_us": 150, "lanes": 4 },
//!   "cells": [
//!     {
//!       "fleet_size": 2,           // simulated serve instances
//!       "tenants_per_model": 2,    // tenant bindings per served model
//!       "offered_rps": 240.0,      // open-loop offered load per tenant
//!       "requests_per_tenant": 32,
//!       "makespan_us": 1234,       // virtual time of the last event
//!       "tenants": [               // per-tenant outcome + latency percentiles
//!         { "tenant": "vision_a_0", "offered": 32, "submitted": 32,
//!           "completed": 32, "shed": 0, "failed": 0, "rejected": 0,
//!           "not_resident": 0, "p50_us": 2000, "p95_us": 4000, "p99_us": 4000 }
//!       ],
//!       "instances": [             // per-instance residency + server metrics
//!         { "instance": 0, "model": "edge_default", "alive": true,
//!           "resident_bytes": 2304, "resident_versions": [["edge_default", 1]],
//!           "tier_counts": [32, 0, 0], "metrics": { "submitted": 32, "...": 0 } }
//!       ]
//!     }
//!   ]
//! }
//! ```
//!
//! Latency percentiles are *simulated virtual-clock* latencies under the
//! cost model (nearest-rank over completed requests), not wall time: they
//! characterise routing, queueing and batching, not the emitting host.

use crate::report::host_cpus;
// Every cell runs under the `BENCH_serve.json` cost model, lane count and
// seed, so fleet and single-server numbers compare.
use crate::serve_json::{cost_model, LANES, SEED};
use enode_analysis::benchjson::json_escape;
use enode_node::inference::NodeSolveOptions;
use enode_node::model::NodeModel;
use enode_serve::{simulate_fleet, FleetConfig, FleetLoad, FleetRunResult, TenantBinding};
use enode_tensor::parallel;

/// The model every instance serves under both published names: the small
/// dynamic system the fleet determinism suite pins, cheap enough to sweep
/// thousands of requests yet exercising the adaptive stepsize search.
pub fn bench_models() -> Vec<(&'static str, NodeModel)> {
    let m = NodeModel::dynamic_system(2, 8, 1, 42);
    vec![("edge_default", m.clone()), ("streaming_keyword", m)]
}

/// State dimension of [`bench_models`] (request input shape `[1, dim]`).
pub const INPUT_DIM: usize = 2;

/// One fleet configuration cell: `size` instances (edge replicas first,
/// then streaming replicas; a singleton fleet serves only the edge
/// model), with `tenants_per_model` bindings derived per served model
/// from that model's first shipped binding (`vision_a_<k>` /
/// `keyword_a_<k>`), keeping its class, SLA, quota and design rate.
pub fn fleet_config(size: usize, tenants_per_model: usize) -> FleetConfig {
    assert!(size > 0 && tenants_per_model > 0);
    let mut cfg = FleetConfig::shipped();
    cfg.instances = size;
    cfg.assignment = (0..size)
        .map(|i| {
            if i < size.div_ceil(2) {
                "edge_default".to_string()
            } else {
                "streaming_keyword".to_string()
            }
        })
        .collect();
    let mut templates: Vec<TenantBinding> = Vec::new();
    for b in &cfg.registry.tenants {
        if cfg.assignment.contains(&b.model) && !templates.iter().any(|t| t.model == b.model) {
            templates.push(b.clone());
        }
    }
    cfg.registry.tenants = templates
        .iter()
        .flat_map(|t| {
            (0..tenants_per_model).map(move |k| TenantBinding {
                tenant: format!("{}_{k}", t.tenant),
                ..t.clone()
            })
        })
        .collect();
    cfg
}

/// One swept cell: the grid coordinates plus the full deterministic run.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetCell {
    /// Simulated serve instances.
    pub fleet_size: usize,
    /// Tenant bindings per served model.
    pub tenants_per_model: usize,
    /// Open-loop offered load per tenant (req/s).
    pub offered_rps: f64,
    /// Requests each tenant offers.
    pub requests_per_tenant: usize,
    /// The discrete-event run (per-tenant percentiles, per-instance
    /// residency and metrics, makespan).
    pub result: FleetRunResult,
}

/// Runs the full fleet-size × tenants × offered-load sweep. `quick`
/// shrinks the grid and the request count (the CI smoke configuration).
pub fn sweep_fleet(quick: bool) -> Vec<FleetCell> {
    let models = bench_models();
    let opts = NodeSolveOptions::new(1e-4);
    let cost = cost_model();
    let (sizes, tenant_counts, rates, requests): (Vec<usize>, Vec<usize>, Vec<f64>, usize) =
        if quick {
            (vec![2], vec![1, 2], vec![240.0], 8)
        } else {
            // 3840 req/s/tenant drives the singleton and pair fleets past
            // saturation: queues fill, quotas engage and the door rejects.
            (
                vec![1, 2, 4],
                vec![1, 2, 4],
                vec![60.0, 240.0, 960.0, 3840.0],
                32,
            )
        };
    let mut out = Vec::new();
    for &size in &sizes {
        for &tenants in &tenant_counts {
            for &rate in &rates {
                let cfg = fleet_config(size, tenants);
                let load = FleetLoad {
                    requests_per_tenant: requests,
                    rate_rps: rate,
                    input_dim: INPUT_DIM,
                    seed: SEED,
                };
                let result = simulate_fleet(&cfg, &models, &opts, &load, &cost);
                out.push(FleetCell {
                    fleet_size: size,
                    tenants_per_model: tenants,
                    offered_rps: rate,
                    requests_per_tenant: requests,
                    result,
                });
            }
        }
    }
    out
}

/// Renders the sweep as the committed `BENCH_fleet.json` document.
pub fn render_json(cells: &[FleetCell], quick: bool) -> String {
    let cost = cost_model();
    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"enode-bench-fleet/v1\",\n");
    s.push_str(&format!("  \"lanes\": {LANES},\n"));
    s.push_str(&format!("  \"host_cpus\": {},\n", host_cpus()));
    s.push_str(&format!(
        "  \"enode_threads_default\": {},\n",
        parallel::default_threads()
    ));
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"seed\": {SEED},\n"));
    s.push_str(&format!(
        "  \"cost_model\": {{ \"per_nfe_us\": {:.1}, \"dispatch_overhead_us\": {}, \"lanes\": {} }},\n",
        cost.per_nfe_us, cost.dispatch_overhead_us, cost.lanes
    ));
    s.push_str("  \"cells\": [\n");
    for (c_ix, cell) in cells.iter().enumerate() {
        let r = &cell.result;
        s.push_str(&format!(
            "    {{ \"fleet_size\": {}, \"tenants_per_model\": {}, \"offered_rps\": {:.1}, \
             \"requests_per_tenant\": {}, \"makespan_us\": {},\n",
            cell.fleet_size,
            cell.tenants_per_model,
            cell.offered_rps,
            cell.requests_per_tenant,
            r.makespan_us
        ));
        s.push_str("      \"tenants\": [\n");
        for (i, t) in r.tenants.iter().enumerate() {
            s.push_str(&format!(
                "        {{ \"tenant\": \"{}\", \"offered\": {}, \"submitted\": {}, \
                 \"completed\": {}, \"shed\": {}, \"failed\": {}, \"rejected\": {}, \
                 \"not_resident\": {}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {} }}{}\n",
                json_escape(&t.tenant),
                t.offered,
                t.submitted,
                t.completed,
                t.shed,
                t.failed,
                t.rejected,
                t.not_resident,
                t.p50_us,
                t.p95_us,
                t.p99_us,
                if i + 1 < r.tenants.len() { "," } else { "" }
            ));
        }
        s.push_str("      ],\n");
        s.push_str("      \"instances\": [\n");
        for (i, inst) in r.instances.iter().enumerate() {
            let versions = inst
                .resident_versions
                .iter()
                .map(|(name, v)| format!("[\"{}\", {v}]", json_escape(name)))
                .collect::<Vec<_>>()
                .join(",");
            let tiers = inst
                .tier_counts
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",");
            s.push_str(&format!(
                "        {{ \"instance\": {}, \"model\": \"{}\", \"alive\": {}, \
                 \"resident_bytes\": {}, \"resident_versions\": [{}], \
                 \"tier_counts\": [{}], \"metrics\": {} }}{}\n",
                inst.instance,
                json_escape(&inst.model),
                inst.alive,
                inst.resident_bytes,
                versions,
                tiers,
                inst.metrics.to_json(),
                if i + 1 < r.instances.len() { "," } else { "" }
            ));
        }
        s.push_str("      ]\n");
        s.push_str(&format!(
            "    }}{}\n",
            if c_ix + 1 < cells.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Validates an emitted document: well-formed JSON and every field the
/// acceptance tracking reads is present. The `fleet_bench` binary runs
/// this on its own output (and `--smoke` gates CI on it).
pub fn validate(json: &str) -> Result<(), String> {
    crate::serve_json::validate_json(json)?;
    for field in [
        "\"schema\": \"enode-bench-fleet/v1\"",
        "\"fleet_size\"",
        "\"tenants_per_model\"",
        "\"offered_rps\"",
        "\"makespan_us\"",
        "\"p50_us\"",
        "\"p95_us\"",
        "\"p99_us\"",
        "\"shed\"",
        "\"rejected\"",
        "\"not_resident\"",
        "\"resident_bytes\"",
        "\"resident_versions\"",
        "\"tier_counts\"",
        "\"host_cpus\"",
    ] {
        if !json.contains(field) {
            return Err(format!("missing required field {field}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_emits_a_valid_document() {
        let cells = sweep_fleet(true);
        // 1 size × 2 tenant counts × 1 rate.
        assert_eq!(cells.len(), 2);
        for cell in &cells {
            assert_eq!(cell.result.instances.len(), cell.fleet_size);
            // Both served models get tenants_per_model bindings each.
            assert_eq!(cell.result.tenants.len(), 2 * cell.tenants_per_model);
            // Fleet-door and instance-side accounting reconcile.
            let door: u64 = cell.result.tenants.iter().map(|t| t.submitted).sum();
            let queued: u64 = cell
                .result
                .instances
                .iter()
                .map(|i| i.metrics.submitted)
                .sum();
            assert_eq!(door, queued);
            // Every instance pins exactly its served model's live bytes.
            assert!(cell.result.instances.iter().all(|i| i.resident_bytes > 0));
        }
        let json = render_json(&cells, true);
        validate(&json).expect("emitted document must validate");
        assert!(json.contains("\"tenant\": \"vision_a_0\""));
        assert!(json.contains("\"tenant\": \"keyword_a_0\""));
        assert!(json.contains("\"quick\": true"));
    }

    #[test]
    fn quick_sweep_is_byte_identical() {
        let a = render_json(&sweep_fleet(true), true);
        let b = render_json(&sweep_fleet(true), true);
        assert_eq!(a, b, "rerun must reproduce the document bit-for-bit");
    }

    #[test]
    fn validate_flags_missing_fields() {
        let err = validate("{\"schema\": \"enode-bench-fleet/v1\"}").unwrap_err();
        assert!(err.contains("missing required field"));
    }

    #[test]
    fn singleton_fleet_serves_only_the_edge_model() {
        let cfg = fleet_config(1, 4);
        assert_eq!(cfg.assignment, ["edge_default"]);
        assert_eq!(cfg.registry.tenants.len(), 4);
        assert!(cfg
            .registry
            .tenants
            .iter()
            .all(|b| b.model == "edge_default"));
        // Cells must be structurally sound or Fleet::new would panic.
        cfg.validate();
        fleet_config(4, 1).validate();
    }
}
