//! Static analysis for the eNODE stack.
//!
//! [`ir`] lowers a whole pipeline artifact (model, solver schedule, ACA
//! checkpoint plan, hardware mapping) into one typed dataflow program
//! graph whose node ids are topological, so each pass over it is one
//! loop in id order. Ten lint families report [`Diagnostic`]s with
//! stable codes:
//!
//! * [`tableau`] — Butcher-tableau consistency (`E001`–`E006`,
//!   `W001`–`W002`): row sums, explicitness, order conditions through
//!   order 4, embedded-pair order, FSAL flags.
//! * [`ddg`] — depth-first DDG schedules (`E010`–`E012`, `W010`): cycle
//!   detection, wave-pipeline edge legality, peak buffer liveness, the
//!   one-row-lag retirement bound.
//! * [`shape`] — embedded-network shapes and FP16 range (`E020`–`E022`,
//!   `W020`): NCHW shape inference and worst-case interval propagation
//!   against `F16::MAX`, each one fold over the op chain.
//! * [`hwcheck`] — hardware-configuration feasibility (`E030`–`E033`,
//!   `W030`–`W033`): buffer provisioning, weight residency, DRAM and
//!   ring-link bandwidth, layer-to-core mapping.
//! * [`parallelcheck`] — parallel kernel-split decompositions (`W040`–`W042`,
//!   `W044`) over the one registry of kernel-split summaries: grain
//!   degeneracy, partial-buffer size, false sharing, the serial work
//!   floor.
//! * [`precision`] — FP16 range and rounding-error accumulation across
//!   the unrolled solver schedule (`E050`–`E056`, `W050`–`W053`).
//! * [`consistency`] — cross-artifact agreement between the model, the
//!   solver plan, and the hardware configuration (`E060`–`E062`).
//! * [`cost`] — static roofline cost model (`W084`–`W085`): predicted
//!   serial-vs-parallel benefit from the same summaries' flops and region
//!   sizes, cross-checked against the committed `BENCH_kernels.json`.
//! * [`schedcheck`] — the serving-policy pass (`E072`, `W070`–`W071`,
//!   `E090`–`E096`, `W090`–`W093`): degradation-ladder order and
//!   reachability, then one closed-form worst-case response time per
//!   tolerance class and tier under the simulator-calibrated
//!   `COST_TABLE.json` against the deadline floor, design-load
//!   serviceability, per-request energy and sustained-power budgets, and
//!   table-provenance checks.
//! * [`fleetcheck`] — fleet registry & residency proofs (`E110`–`E114`,
//!   `W110`–`W111`): aggregate weight-SRAM residency per instance,
//!   rebalance feasibility under every single-node loss (each surviving
//!   instance's share of its tenants' rates), tenant-SLA ladder coverage
//!   (on [`schedcheck`]'s response-time bound), and published-version
//!   fingerprint provenance.
//!
//! Both committed-artifact ingests read through the one JSON reader,
//! `enode_hw::json`: [`cost`] parses `BENCH_kernels.json`, and
//! [`schedcheck`] reads `COST_TABLE.json` with
//! `enode_hw::table::CostTable::from_json`, beside the writer that
//! renders it.
//!
//! [`registry`] carries a rustc-style long explanation for every code
//! (`enode-lint --explain CODE`, `docs/LINTS.md`).
//!
//! The `enode-lint` binary runs every family over the paper's shipped
//! tableaux, pipelines and Table I configurations and exits nonzero if
//! any error-severity diagnostic fires.

pub mod consistency;
pub mod cost;
pub mod ddg;
pub mod diag;
pub mod fleetcheck;
pub mod hwcheck;
pub mod ir;
pub mod parallelcheck;
pub mod precision;
pub mod registry;
pub mod schedcheck;
pub mod shape;
pub mod tableau;

pub use diag::{Code, Diagnostic, Diagnostics, Severity};
pub use ir::PipelineArtifact;

use enode_hw::config::HwConfig;
use enode_node::inference::NodeSolveOptions;
use enode_node::model::NodeModel;

/// The paper's representative pipeline artifacts: each bundles a model
/// with the state shape and worst-case input magnitude it is linted
/// against, its solver plan, and (for the edge-inference workloads) the
/// Table I hardware configuration it is mapped onto.
///
/// `van_der_pol` is the FP16-datapath exemplar: it stores solver state in
/// binary16 at a loose tolerance, exercising the full `E05x` rounding
/// model on an artifact that must stay clean.
pub fn paper_pipelines() -> Vec<PipelineArtifact> {
    vec![
        PipelineArtifact::new(
            "three_body dynamic_system(12, 32, 2)",
            NodeModel::dynamic_system(12, 32, 2, 5),
            vec![1, 12],
            4.0,
            NodeSolveOptions::new(1e-6),
            None,
        ),
        PipelineArtifact::new(
            "lotka_volterra dynamic_system(2, 24, 2)",
            NodeModel::dynamic_system(2, 24, 2, 7),
            vec![1, 2],
            4.0,
            NodeSolveOptions::new(1e-6),
            None,
        ),
        PipelineArtifact::new(
            "van_der_pol dynamic_system(2, 16, 2)",
            NodeModel::dynamic_system(2, 16, 2, 42),
            vec![1, 2],
            4.0,
            NodeSolveOptions::new(1e-2).with_fp16_storage(),
            None,
        ),
        PipelineArtifact::new(
            "edge image_classifier(4 ch, 2 conv)",
            NodeModel::image_classifier(4, 2, 2, 10, 9),
            vec![1, 4, 16, 16],
            1.0,
            NodeSolveOptions::new(1e-6),
            Some(HwConfig::config_a()),
        ),
        PipelineArtifact::new(
            "normed image_classifier(8 ch, 4 conv)",
            NodeModel::image_classifier_normed(8, 4, 2, 10, 4, 11),
            vec![1, 8, 16, 16],
            1.0,
            NodeSolveOptions::new(1e-6),
            Some(HwConfig::config_b()),
        ),
    ]
}

/// Nominal pool width the kernel-split lints model, fixed so the results
/// do not depend on the linting host's core count.
const NOMINAL_POOL: usize = 4;

/// Runs all lint families over everything the repository ships: the
/// tableau catalog, their depth-first DDGs, the paper's pipelines (shape,
/// precision and consistency passes), both Table I hardware
/// configurations, the registered parallel kernel splits, and the
/// shipped serving policies.
///
/// The result is sorted by `(code, artifact, message)` and deduplicated,
/// so the report is byte-identical regardless of pass registration order.
pub fn lint_everything() -> Diagnostics {
    let mut ds = Diagnostics::new();
    ds.extend(tableau::lint_all_tableaux());
    ds.extend(ddg::lint_all_ddgs());
    for artifact in paper_pipelines() {
        for (l, layer) in artifact.model.layers().iter().enumerate() {
            ds.extend(shape::lint_network(
                &format!("{} layer {l}", artifact.name),
                layer,
                &artifact.state_shape,
                artifact.input_bound,
            ));
        }
        ds.extend(precision::lint_precision(&artifact));
        ds.extend(consistency::lint_consistency(&artifact));
    }
    ds.extend(hwcheck::lint_paper_configs());
    ds.extend(parallelcheck::lint_registered_splits(NOMINAL_POOL));
    ds.extend(schedcheck::lint_shipped_policies());
    ds.extend(cost::lint_shipped_baseline());
    ds.extend(fleetcheck::lint_shipped_fleet());
    ds.sort_and_dedup();
    ds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn everything_shipped_lints_clean() {
        // Zero errors, and the only warnings are the ones raised *by
        // design* on the committed artifacts: the W085 host-caveat
        // advisories from the 1-core bench baseline (see
        // `cost::lint_shipped_baseline`) and the W044 serial-floor
        // records for the kernels the split planner deliberately keeps
        // serial at the registered shapes.
        let ds = lint_everything();
        assert_eq!(
            ds.error_count(),
            0,
            "shipped artifacts must lint error-clean:\n{}",
            ds.render()
        );
        assert!(
            ds.items()
                .iter()
                .all(|d| d.code == Code::W085CostFutileSplit
                    || d.code == Code::W044ParSerialFloorEngaged),
            "only the by-design W085/W044 advisories may fire on shipped artifacts:\n{}",
            ds.render()
        );
        let floor: Vec<&str> = ds
            .items()
            .iter()
            .filter(|d| d.code == Code::W044ParSerialFloorEngaged)
            .map(|d| d.subject.as_str())
            .collect();
        assert_eq!(
            floor,
            ["dense.forward", "groupnorm.forward"],
            "{}",
            ds.render()
        );
        assert_eq!(ds.warning_count(), 6, "{}", ds.render());
    }

    #[test]
    fn lint_everything_is_sorted() {
        // Even on a clean run this must hold; check with a seeded defect.
        let mut ds = lint_everything();
        ds.push(Diagnostic::new(Code::E001TableauRowSum, "zz", "late"));
        ds.push(Diagnostic::new(Code::E001TableauRowSum, "aa", "early"));
        ds.sort_and_dedup();
        let keys: Vec<_> = ds
            .items()
            .iter()
            .map(|d| (d.code.as_str(), d.subject.clone(), d.message.clone()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
