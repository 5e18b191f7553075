//! Cross-artifact consistency lints.
//!
//! Codes: `E060`–`E062`.
//!
//! Each check relates two artifacts that the single-family lints see in
//! isolation:
//!
//! * **`E060`** — the layer→core mapping (`enode-hw`) is only valid when
//!   the weights it assumes resident actually fit the weight buffer, in
//!   total and per core. The per-layer footprints come from the model
//!   itself, not from the `HwConfig`'s nominal layer dims.
//! * **`E061`** — the ACA checkpoint plan (`enode-node`) must fit the
//!   on-chip training buffer: live checkpoints plus the per-interval
//!   replay caches. A replayed step recomputes every op of the layer's
//!   network (each feeds the layer's final state, which the last adjoint
//!   replay reads), so every op's backward cache counts.
//! * **`E062`** — the stepsize-controller bounds (`enode-node`) must be
//!   satisfiable against the solver schedule: `dt_min` below the nominal
//!   stepsize, shrink factor inside `(0, 1)`, and the rejection-trial
//!   budget sufficient to walk from `default_dt` down to `dt_min`.

use crate::diag::{Code, Diagnostic, Diagnostics};
use crate::ir::{lower_pipeline, op_cache_bytes_fp16, op_weight_bytes_fp16, PipelineArtifact};
use enode_hw::mapping::per_core_weight_bytes;
use enode_node::inference::ControllerKind;
use enode_tensor::network::Op;

/// Runs the cross-artifact consistency checks on one pipeline artifact.
pub fn lint_consistency(artifact: &PipelineArtifact) -> Diagnostics {
    let mut ds = Diagnostics::new();
    let subject = artifact.name.as_str();
    let solver = &artifact.solver;
    let lowered = lower_pipeline(artifact);
    let tableau = &lowered.tableau;

    // --- E062: controller bounds vs the solver schedule ---
    if solver.dt_min >= solver.default_dt {
        ds.push(
            Diagnostic::new(
                Code::E062XArtControllerBounds,
                subject,
                format!(
                    "dt_min {:.1e} is not below the nominal stepsize {:.1e}",
                    solver.dt_min, solver.default_dt
                ),
            )
            .with_note("dt_min", format!("{:.1e}", solver.dt_min))
            .with_note("default_dt", format!("{:.1e}", solver.default_dt)),
        );
    }
    // Worst-case per-rejection shrink factor of the configured controller
    // (the classic controller clamps its rescale at 0.2; the slope
    // controller's shrink depends on runtime history, so it is skipped).
    let shrink = match solver.controller {
        ControllerKind::Conventional { shrink }
        | ControllerKind::ConventionalConstantInit { shrink } => {
            if !(shrink > 0.0 && shrink < 1.0) {
                ds.push(
                    Diagnostic::new(
                        Code::E062XArtControllerBounds,
                        subject,
                        format!("controller shrink factor {shrink} is outside (0, 1)"),
                    )
                    .with_note("shrink", shrink),
                );
                None
            } else {
                Some(shrink)
            }
        }
        ControllerKind::Classic => Some(0.2),
        ControllerKind::SlopeAdaptive { .. } => None,
    };
    if let Some(shrink) = shrink {
        if solver.dt_min < solver.default_dt {
            // Trials to walk default_dt down to dt_min by repeated shrink;
            // the search must be able to reach its own lower bound.
            let trials = ((solver.dt_min / solver.default_dt).ln() / shrink.ln()).ceil() as usize;
            if trials > solver.max_trials_per_point {
                ds.push(
                    Diagnostic::new(
                        Code::E062XArtControllerBounds,
                        subject,
                        format!(
                            "{trials} shrink trials to reach dt_min {:.1e} from {:.1e} exceed \
                             max_trials_per_point {}",
                            solver.dt_min, solver.default_dt, solver.max_trials_per_point
                        ),
                    )
                    .with_note("trials_needed", trials)
                    .with_note("max_trials_per_point", solver.max_trials_per_point)
                    .with_note("shrink", shrink)
                    .with_note("tableau_order", tableau.order())
                    .with_note("error_order", tableau.error_order()),
                );
            }
        }
    }

    let Some(cfg) = &artifact.hw else {
        return ds;
    };

    // --- E060: mapping residency vs actual layer weight footprints ---
    for (layer, net) in artifact.model.layers().iter().enumerate() {
        let total: u64 = net.ops().iter().map(op_weight_bytes_fp16).sum();
        if total > cfg.weight_buffer_bytes {
            ds.push(
                Diagnostic::new(
                    Code::E060XArtMapResidency,
                    subject,
                    format!(
                        "layer {layer} weights ({total} B fp16) exceed the {} B weight buffer",
                        cfg.weight_buffer_bytes
                    ),
                )
                .with_note("layer", layer)
                .with_note("weight_bytes", total)
                .with_note("weight_buffer_bytes", cfg.weight_buffer_bytes),
            );
            continue;
        }
        // Per-core share under the round-robin placement.
        let compute_bytes: Vec<u64> = net
            .ops()
            .iter()
            .filter(|op| matches!(op, Op::Conv2d(_) | Op::Dense(_)))
            .map(op_weight_bytes_fp16)
            .collect();
        if compute_bytes.is_empty() || cfg.cores == 0 {
            continue;
        }
        let share = cfg.weight_buffer_bytes / cfg.cores as u64;
        let per_core = per_core_weight_bytes(&compute_bytes, cfg.cores);
        if let Some((core, &bytes)) = per_core
            .iter()
            .enumerate()
            .max_by_key(|&(_, &b)| b)
            .filter(|&(_, &b)| b > share)
        {
            ds.push(
                Diagnostic::new(
                    Code::E060XArtMapResidency,
                    subject,
                    format!(
                        "core {core} hosts {bytes} B of layer {layer} weights, above the \
                         {share} B per-core share of the weight buffer"
                    ),
                )
                .with_note("layer", layer)
                .with_note("core", core)
                .with_note("core_bytes", bytes)
                .with_note("per_core_share", share),
            );
        }
    }

    // --- E061: ACA checkpoint plan vs the training buffer ---
    let stride = solver.checkpoint_stride.max(1);
    let state_elems: usize = artifact.state_shape.iter().product();
    let state_bytes = 2 * state_elems as u64;
    for (layer, net) in artifact.model.layers().iter().enumerate() {
        let Some(shapes) = &lowered.op_shapes[layer] else {
            continue;
        };
        // Caches one replayed step needs: every op's (ConcatTime caches
        // nothing), once per stage.
        let per_step_cache: u64 = net
            .ops()
            .iter()
            .zip(shapes)
            .map(|(op, shape)| op_cache_bytes_fp16(op, shape))
            .sum::<u64>()
            * tableau.stages() as u64;
        let checkpoints = lowered.n_steps.div_ceil(stride) as u64;
        let working_set = checkpoints * state_bytes + stride as u64 * per_step_cache;
        if working_set > cfg.training_buffer_bytes {
            ds.push(
                Diagnostic::new(
                    Code::E061XArtAcaBuffer,
                    subject,
                    format!(
                        "ACA working set {working_set} B for layer {layer} exceeds the {} B \
                         training buffer",
                        cfg.training_buffer_bytes
                    ),
                )
                .with_note("layer", layer)
                .with_note("checkpoint_bytes", checkpoints * state_bytes)
                .with_note("replay_cache_bytes", stride as u64 * per_step_cache)
                .with_note("checkpoint_stride", stride)
                .with_note("stages", tableau.stages())
                .with_note("training_buffer_bytes", cfg.training_buffer_bytes),
            );
        }
    }

    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use enode_hw::config::HwConfig;
    use enode_node::inference::NodeSolveOptions;
    use enode_node::model::NodeModel;

    fn image_artifact(cfg: HwConfig) -> PipelineArtifact {
        PipelineArtifact::new(
            "edge",
            NodeModel::image_classifier(4, 2, 2, 10, 9),
            vec![1, 4, 16, 16],
            1.0,
            NodeSolveOptions::new(1e-6),
            Some(cfg),
        )
    }

    #[test]
    fn shipped_style_mapped_artifact_is_clean() {
        let ds = lint_consistency(&image_artifact(HwConfig::config_a()));
        assert!(ds.is_empty(), "{}", ds.render());
    }

    #[test]
    fn undersized_weight_buffer_fires_e060() {
        let mut cfg = HwConfig::config_a();
        cfg.weight_buffer_bytes = 512;
        let ds = lint_consistency(&image_artifact(cfg));
        assert!(ds.has_code(Code::E060XArtMapResidency), "{}", ds.render());
    }

    #[test]
    fn undersized_training_buffer_fires_e061() {
        let mut cfg = HwConfig::config_a();
        cfg.training_buffer_bytes = 1024;
        let ds = lint_consistency(&image_artifact(cfg));
        assert!(ds.has_code(Code::E061XArtAcaBuffer), "{}", ds.render());
    }

    #[test]
    fn inverted_stepsize_bounds_fire_e062() {
        let mut a = image_artifact(HwConfig::config_a());
        a.solver.dt_min = 0.5; // >= default_dt 0.1
        let ds = lint_consistency(&a);
        assert!(
            ds.has_code(Code::E062XArtControllerBounds),
            "{}",
            ds.render()
        );
    }

    #[test]
    fn insufficient_trial_budget_fires_e062() {
        let mut a = image_artifact(HwConfig::config_a());
        a.solver.max_trials_per_point = 4; // 0.1 -> 1e-10 needs ~30 halvings
        let ds = lint_consistency(&a);
        assert!(
            ds.has_code(Code::E062XArtControllerBounds),
            "{}",
            ds.render()
        );
    }
}
