//! FP16 precision lints over the lowered solver schedule.
//!
//! Codes: `E050`–`E056`, `W050`–`W053`.
//!
//! One forward sweep in node-id order propagates a
//! magnitude/rounding-error pair (`RangeErr`) through every node of the
//! [`crate::ir::lower_pipeline`] graph: network ops amplify the incoming
//! error by their perturbation gain, RK combines mix stage values with
//! the tableau weights, and — when the artifact stores state in binary16
//! — every node output injects one half-ulp relative rounding
//! (`2⁻¹¹·magnitude`, the paper's PE design: wide accumulation, one
//! FP16 writeback per value). ACA checkpoints add a quantization on
//! store, and adjoint replays amplify it by the interval's growth factor
//! `(1 + h·Σ|b|)^steps`.
//!
//! Guaranteed failures are errors: any op (`E050`), RK combine (`E051`),
//! checkpoint (`E054`), or replay (`E056`) whose worst-case magnitude
//! exceeds `f16::MAX`; non-finite parameters (`E052`); degenerate
//! GroupNorm groups (`E053`); a tolerance below the subnormal threshold
//! (`E055`). Possible precision loss is a warning: a near-subnormal
//! tolerance (`W050`), error-estimate cancellation noise (`W051`),
//! per-step rounding above the error budget (`W052`), and checkpoint
//! quantization that rivals the tolerance after replay (`W053`).

use crate::diag::{Code, Diagnostic, Diagnostics};
use crate::ir::{
    group_elems, lower_pipeline, op_error_gain, op_output_bound, LoweredPipeline, Node, NodeKind,
    PipelineArtifact,
};
use enode_tensor::f16::F16;
use enode_tensor::network::Op;
use std::collections::HashSet;

/// Relative magnitude of one FP16 rounding: half an ulp, `2⁻¹¹`.
const F16_REL: f64 = 1.0 / 2048.0;

/// Value per node: worst-case magnitude plus accumulated rounding error,
/// both absolute.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct RangeErr {
    mag: f64,
    err: f64,
}

impl RangeErr {
    fn new(mag: f64, err: f64) -> Self {
        RangeErr { mag, err }
    }
}

/// The forward range/error pass: the schedule facts a node's value
/// depends on besides its predecessors' values.
struct PrecisionPass<'a> {
    artifact: &'a PipelineArtifact,
    lowered: &'a LoweredPipeline,
}

impl PrecisionPass<'_> {
    /// One FP16 rounding injected when a value of magnitude `mag` is
    /// written back to storage; zero when the artifact keeps FP32 state.
    fn round(&self, mag: f64) -> f64 {
        if self.artifact.solver.fp16_storage {
            mag * F16_REL
        } else {
            0.0
        }
    }

    fn op(&self, layer: usize, op_index: usize) -> &Op {
        &self.artifact.model.layers()[layer].ops()[op_index]
    }

    fn op_in_shape(&self, layer: usize, op_index: usize) -> &[usize] {
        &self.lowered.op_shapes[layer]
            .as_ref()
            .expect("shapes checked")[op_index]
    }

    /// The node's value from its predecessors' values, `deps`, in the
    /// order [`NodeKind`] documents.
    fn transfer(&self, node: &Node, deps: &[RangeErr]) -> RangeErr {
        let h = self.lowered.h;
        let tab = &self.lowered.tableau;
        match &node.kind {
            NodeKind::StateInput { .. } => match deps.first() {
                // Layer 0 boundary: the caller's input bound, exact.
                None => RangeErr::new(self.artifact.input_bound, 0.0),
                Some(d) => *d,
            },
            NodeKind::NetOp {
                layer, op_index, ..
            } => {
                let d = deps[0];
                let op = self.op(*layer, *op_index);
                let shape = self.op_in_shape(*layer, *op_index);
                let mag = op_output_bound(op, shape, d.mag);
                let err = d.err * op_error_gain(op, shape) + self.round(mag);
                RangeErr::new(mag, err)
            }
            NodeKind::StageInput { stage, .. } => {
                // p_i = y + h Σ_j a_ij k_j; stage 0 is y itself (no new
                // arithmetic, no new rounding).
                let y = deps[0];
                if *stage == 0 {
                    return y;
                }
                let row = &tab.a()[*stage];
                let mut mag = y.mag;
                let mut err = y.err;
                for (j, k) in deps[1..].iter().enumerate() {
                    mag += h * row[j].abs() * k.mag;
                    err += h * row[j].abs() * k.err;
                }
                RangeErr::new(mag, err + self.round(mag))
            }
            NodeKind::Solution { .. } => {
                // y⁺ = y + h Σ_i b_i k_i.
                let y = deps[0];
                let mut mag = y.mag;
                let mut err = y.err;
                for (i, k) in deps[1..].iter().enumerate() {
                    mag += h * tab.b()[i].abs() * k.mag;
                    err += h * tab.b()[i].abs() * k.err;
                }
                RangeErr::new(mag, err + self.round(mag))
            }
            NodeKind::ErrorEstimate { .. } => {
                // e = h Σ_i d_i k_i (only lowered for adaptive tableaux).
                let d = tab.error_weights().expect("adaptive tableau");
                let mut mag = 0.0;
                let mut err = 0.0;
                for (i, k) in deps.iter().enumerate() {
                    mag += h * d[i].abs() * k.mag;
                    err += h * d[i].abs() * k.err;
                }
                RangeErr::new(mag, err + self.round(mag))
            }
            NodeKind::Checkpoint { fp16, .. } => {
                let d = deps[0];
                let quant = if *fp16 { d.mag * F16_REL } else { 0.0 };
                RangeErr::new(d.mag, d.err + quant)
            }
            NodeKind::AdjointReplay { steps, fp16, .. } => {
                // Replaying from a quantized checkpoint: the store error
                // grows by the interval's Lipschitz-style bound
                // (1 + h·Σ|b|)^steps before the backward pass consumes it.
                let ck = deps[0];
                let end = deps[1];
                let quant = if *fp16 { ck.mag * F16_REL } else { 0.0 };
                let gain = (1.0 + h * tab.abs_b_sum()).powi(*steps as i32);
                RangeErr::new(end.mag + quant * gain, end.err + quant * gain)
            }
            // Placement nodes carry no numeric value.
            NodeKind::MapLayer { .. } => RangeErr::default(),
        }
    }
}

/// Runs the FP16 precision pass family on one pipeline artifact.
pub fn lint_precision(artifact: &PipelineArtifact) -> Diagnostics {
    let mut ds = Diagnostics::new();
    let subject = artifact.name.as_str();
    let f16_max = F16::MAX.to_f32() as f64;
    let f16_min_pos = F16::MIN_POSITIVE.to_f32() as f64;
    let tol = artifact.solver.tolerance;

    // E055 / W050: the controller compares the error estimate against the
    // tolerance; in FP16 state that comparison dies below the subnormals.
    if artifact.solver.fp16_storage {
        if tol < f16_min_pos {
            ds.push(
                Diagnostic::new(
                    Code::E055PrecToleranceSubnormal,
                    subject,
                    format!(
                        "tolerance {tol:.1e} is below the f16 subnormal threshold {f16_min_pos:.1e}"
                    ),
                )
                .with_note("tolerance", format!("{tol:.1e}"))
                .with_note("f16_min_positive", format!("{f16_min_pos:.1e}")),
            );
        } else if tol < 16.0 * f16_min_pos {
            ds.push(
                Diagnostic::new(
                    Code::W050PrecToleranceNearSubnormal,
                    subject,
                    format!(
                        "tolerance {tol:.1e} is within 16x of the f16 subnormal threshold \
                         {f16_min_pos:.1e}"
                    ),
                )
                .with_note("tolerance", format!("{tol:.1e}"))
                .with_note("f16_min_positive", format!("{f16_min_pos:.1e}")),
            );
        }
    }

    let lowered = lower_pipeline(artifact);

    // E052 / E053: parameter-level checks, independent of the dataflow.
    let mut params_finite = true;
    for (layer, net) in artifact.model.layers().iter().enumerate() {
        for (op_index, op) in net.ops().iter().enumerate() {
            let tensors: Vec<&[f32]> = match op {
                Op::Conv2d(c) => vec![c.weight().data(), c.bias().data()],
                Op::Dense(d) => vec![d.weight().data(), d.bias().data()],
                Op::GroupNorm(g) => vec![g.gamma().data(), g.beta().data()],
                Op::Activation(_) | Op::ConcatTime => vec![],
            };
            if tensors.iter().any(|t| t.iter().any(|v| !v.is_finite())) {
                params_finite = false;
                ds.push(
                    Diagnostic::new(
                        Code::E052PrecNonFiniteParam,
                        subject,
                        format!("layer {layer} op {op_index} has non-finite parameter values"),
                    )
                    .with_note("layer", layer)
                    .with_note("op_index", op_index),
                );
            }
            if let (Op::GroupNorm(g), Some(shapes)) = (op, &lowered.op_shapes[layer]) {
                let n = group_elems(g, &shapes[op_index]);
                if n <= 1 {
                    ds.push(
                        Diagnostic::new(
                            Code::E053PrecDegenerateGroupNorm,
                            subject,
                            format!(
                                "layer {layer} op {op_index}: GroupNorm group of {n} element(s) \
                                 has no variance to normalize"
                            ),
                        )
                        .with_note("layer", layer)
                        .with_note("op_index", op_index)
                        .with_note("group_elems", n),
                    );
                }
            }
        }
    }

    // The dataflow pass needs inferrable shapes (E02x reports failures)
    // and finite parameters (E052 above; bounds would be NaN).
    if !params_finite || lowered.op_shapes.iter().any(|s| s.is_none()) {
        return ds;
    }

    let pass = PrecisionPass {
        artifact,
        lowered: &lowered,
    };
    let fp16 = artifact.solver.fp16_storage;

    // One sweep in node-id order: ids are topological, so every
    // predecessor's value is final when a node reads it. Each node's
    // value is checked as it is computed, reporting the first offending
    // site per (layer, op / combine kind), earliest step first.
    let mut values: Vec<RangeErr> = Vec::with_capacity(lowered.graph.nodes().len());
    let mut op_overflow = HashSet::new();
    let mut combine_overflow = HashSet::new();
    let mut layer_once: HashSet<(u8, usize)> = HashSet::new();
    for (id, node) in lowered.graph.nodes().iter().enumerate() {
        let deps: Vec<RangeErr> = node.preds.iter().map(|&p| values[p]).collect();
        let v = pass.transfer(node, &deps);
        values.push(v);
        let loc = lowered.graph.location(id);
        match &node.kind {
            NodeKind::NetOp {
                layer, op_index, ..
            } => {
                if v.mag > f16_max && op_overflow.insert((*layer, *op_index)) {
                    ds.push(
                        Diagnostic::new(
                            Code::E050PrecOpOverflow,
                            subject,
                            format!(
                                "worst-case magnitude {:.1} at {loc} exceeds F16::MAX = {f16_max}",
                                v.mag
                            ),
                        )
                        .with_note("location", &loc)
                        .with_note("magnitude", format!("{:.1}", v.mag)),
                    );
                }
            }
            NodeKind::StageInput { layer, .. }
            | NodeKind::Solution { layer, .. }
            | NodeKind::ErrorEstimate { layer, .. } => {
                let kind_tag = match &node.kind {
                    NodeKind::StageInput { .. } => 0u8,
                    NodeKind::Solution { .. } => 1,
                    _ => 2,
                };
                if v.mag > f16_max && combine_overflow.insert((*layer, kind_tag)) {
                    ds.push(
                        Diagnostic::new(
                            Code::E051PrecCombineOverflow,
                            subject,
                            format!(
                                "RK combine at {loc} reaches worst-case magnitude {:.1} > \
                                 F16::MAX = {f16_max}",
                                v.mag
                            ),
                        )
                        .with_note("location", &loc)
                        .with_note("magnitude", format!("{:.1}", v.mag)),
                    );
                }
                // W051: the estimate is a difference of near-equal terms;
                // its operands' rounding noise must stay well under tol.
                if let NodeKind::ErrorEstimate { layer, .. } = &node.kind {
                    let noise = v.mag * F16_REL;
                    if fp16 && noise > 0.1 * tol && layer_once.insert((0, *layer)) {
                        ds.push(
                            Diagnostic::new(
                                Code::W051PrecCancellation,
                                subject,
                                format!(
                                    "fp16 rounding noise {noise:.1e} in the error estimate at \
                                     {loc} exceeds 0.1x tolerance {tol:.1e}"
                                ),
                            )
                            .with_note("location", &loc)
                            .with_note("noise", format!("{noise:.1e}"))
                            .with_note("tolerance", format!("{tol:.1e}")),
                        );
                    }
                }
                // W052: rounding injected across a single accepted step
                // must stay inside the budget the controller allots per
                // step. Measured at the very first solution (layer 0,
                // step 0), the only combine whose inputs carry zero
                // inherited error — everywhere else the worst-case
                // trajectory error compounds and would swamp the
                // per-step injection.
                if let NodeKind::Solution { layer: 0, step: 0 } = &node.kind {
                    if fp16 && v.err > 10.0 * tol && layer_once.insert((1, 0)) {
                        ds.push(
                            Diagnostic::new(
                                Code::W052PrecErrorBudget,
                                subject,
                                format!(
                                    "fp16 rounding error {:.1e} after one step at {loc} exceeds \
                                     10x tolerance {tol:.1e}",
                                    v.err
                                ),
                            )
                            .with_note("location", &loc)
                            .with_note("step_error", format!("{:.1e}", v.err))
                            .with_note("tolerance", format!("{tol:.1e}")),
                        );
                    }
                }
            }
            NodeKind::Checkpoint { layer, fp16, .. } => {
                if *fp16 && v.mag > f16_max && layer_once.insert((2, *layer)) {
                    ds.push(
                        Diagnostic::new(
                            Code::E054PrecCheckpointOverflow,
                            subject,
                            format!(
                                "fp16 checkpoint at {loc} stores worst-case magnitude {:.1} > \
                                 F16::MAX = {f16_max}",
                                v.mag
                            ),
                        )
                        .with_note("location", &loc)
                        .with_note("magnitude", format!("{:.1}", v.mag)),
                    );
                }
            }
            NodeKind::AdjointReplay {
                layer,
                steps,
                fp16: ck_fp16,
                ..
            } => {
                if *ck_fp16 && v.mag > f16_max && layer_once.insert((3, *layer)) {
                    ds.push(
                        Diagnostic::new(
                            Code::E056PrecAdjointReplayOverflow,
                            subject,
                            format!(
                                "adjoint replay at {loc} amplifies worst-case magnitude to \
                                 {:.1} > F16::MAX = {f16_max}",
                                v.mag
                            ),
                        )
                        .with_note("location", &loc)
                        .with_note("magnitude", format!("{:.1}", v.mag)),
                    );
                }
                // W053: quantization alone, amplified over a multi-step
                // recompute interval, must stay well under the tolerance.
                if *ck_fp16 && *steps > 1 {
                    let ck = values[node.preds[0]];
                    let gain = (1.0 + lowered.h * lowered.tableau.abs_b_sum()).powi(*steps as i32);
                    let amp = ck.mag * F16_REL * gain;
                    if amp > 0.1 * tol && layer_once.insert((4, *layer)) {
                        ds.push(
                            Diagnostic::new(
                                Code::W053PrecAdjointQuantization,
                                subject,
                                format!(
                                    "fp16 checkpoint quantization {amp:.1e} replayed over \
                                     {steps} steps at {loc} exceeds 0.1x tolerance {tol:.1e}"
                                ),
                            )
                            .with_note("location", &loc)
                            .with_note("amplified_quantization", format!("{amp:.1e}"))
                            .with_note("recompute_steps", steps)
                            .with_note("tolerance", format!("{tol:.1e}")),
                        );
                    }
                }
            }
            NodeKind::StateInput { .. } | NodeKind::MapLayer { .. } => {}
        }
    }

    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use enode_node::inference::NodeSolveOptions;
    use enode_node::model::NodeModel;

    fn fp16_artifact(tol: f64, stride: usize) -> PipelineArtifact {
        PipelineArtifact::new(
            "vdp",
            NodeModel::dynamic_system(2, 16, 2, 42),
            vec![1, 2],
            4.0,
            NodeSolveOptions::new(tol)
                .with_fp16_storage()
                .with_checkpoint_stride(stride),
            None,
        )
    }

    #[test]
    fn shipped_style_fp16_artifact_is_clean() {
        let ds = lint_precision(&fp16_artifact(1e-2, 1));
        assert!(ds.is_empty(), "{}", ds.render());
    }

    #[test]
    fn tight_tolerance_fires_subnormal_and_budget_warnings() {
        let ds = lint_precision(&fp16_artifact(1e-6, 1));
        assert!(
            ds.has_code(Code::E055PrecToleranceSubnormal),
            "{}",
            ds.render()
        );
        assert!(ds.has_code(Code::W051PrecCancellation), "{}", ds.render());
        assert!(ds.has_code(Code::W052PrecErrorBudget), "{}", ds.render());
    }

    #[test]
    fn near_subnormal_tolerance_fires_w050() {
        let ds = lint_precision(&fp16_artifact(5e-4, 1));
        assert!(
            ds.has_code(Code::W050PrecToleranceNearSubnormal),
            "{}",
            ds.render()
        );
        assert!(!ds.has_code(Code::E055PrecToleranceSubnormal));
    }

    #[test]
    fn long_recompute_interval_fires_w053() {
        // Stride 8 at a loose tolerance: quantization alone survives the
        // replay amplification check only for short intervals.
        let ds = lint_precision(&fp16_artifact(2e-4, 8));
        assert!(
            ds.has_code(Code::W053PrecAdjointQuantization),
            "{}",
            ds.render()
        );
    }

    #[test]
    fn fp32_storage_disables_rounding_model() {
        let mut a = fp16_artifact(1e-6, 1);
        a.solver.fp16_storage = false;
        let ds = lint_precision(&a);
        assert!(ds.is_empty(), "{}", ds.render());
    }
}
