//! The adaptive-checkpoint-adjoint (ACA) backward pass.
//!
//! For each checkpoint interval the backward pass performs a local forward
//! step (recovering the paper's "training states"), then forms the exact
//! vector-Jacobian products of the Runge–Kutta update:
//!
//! With `k_i = f(t + c_i·h, p_i)`, `p_i = y + h·Σ_{j<i} a_ij·k_j` and
//! `y⁺ = y + h·Σ b_i·k_i`, given the incoming adjoint `ā = ∂L/∂y⁺`:
//!
//! ```text
//! g_i = h·b_i·ā + Σ_{m>i} h·a_mi·q_m      (cotangent of k_i)
//! q_i = (∂f/∂p_i)ᵀ g_i                    (VJP through the embedded NN)
//! ∂L/∂y = ā + Σ_i q_i
//! ∂L/∂θ += Σ_i (∂f/∂θ at stage i)ᵀ g_i
//! ```
//!
//! This is the discrete adjoint of the integrator — the gradient of the
//! *computed* forward map, which is what the ACA method's local forward +
//! backward recomputation evaluates.

use crate::inference::{ForwardTrace, LayerTrace};
use crate::model::NodeModel;
use enode_ode::stepper::{stage_input, Stepper};
use enode_tensor::network::{Network, OpCache};
use enode_tensor::Tensor;

/// Profiling counters of a backward pass (feeds Figs 3/4 and the hardware
/// memory models).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackwardProfile {
    /// Function evaluations in local forward steps.
    pub nfe_local_forward: usize,
    /// Vector-Jacobian products through the embedded network.
    pub vjp_evals: usize,
    /// Checkpoints read back (one per interval).
    pub checkpoint_reads: usize,
    /// Peak bytes of live training states within one interval (FP16
    /// accounting: 2 bytes/element).
    pub training_state_peak_bytes: u64,
    /// Total bytes of training states produced across all intervals.
    pub training_state_total_bytes: u64,
}

impl BackwardProfile {
    fn merge(&mut self, other: &BackwardProfile) {
        self.nfe_local_forward += other.nfe_local_forward;
        self.vjp_evals += other.vjp_evals;
        self.checkpoint_reads += other.checkpoint_reads;
        self.training_state_peak_bytes = self
            .training_state_peak_bytes
            .max(other.training_state_peak_bytes);
        self.training_state_total_bytes += other.training_state_total_bytes;
    }
}

fn cache_bytes(caches: &[OpCache]) -> u64 {
    caches
        .iter()
        .map(|c| match c {
            OpCache::Conv { x } | OpCache::Dense { x } | OpCache::Activation { x } => {
                x.storage_bytes(2) as u64
            }
            OpCache::GroupNorm { x, cache } => {
                (x.storage_bytes(2) + (cache.mean.len() + cache.inv_std.len()) * 8) as u64
            }
            OpCache::ConcatTime { .. } => 0,
        })
        .sum()
}

/// Runs the ACA backward pass over one integration layer.
///
/// `a_out` is the adjoint at the layer output (`∂L/∂h(T)`). Returns the
/// adjoint at the layer input, the parameter gradients (aligned with
/// `f.params()`), and profiling counters.
///
/// # Panics
///
/// Panics if the trace does not match the layer (checkpoint/step counts).
pub fn aca_backward_layer(
    f: &Network,
    trace: &LayerTrace,
    a_out: &Tensor,
) -> (Tensor, Vec<Tensor>, BackwardProfile) {
    assert!(
        !trace.checkpoints.is_empty() && trace.checkpoints[0].step == 0,
        "trace must start with the layer-input checkpoint"
    );
    let tableau = trace.tableau.tableau();
    let s = tableau.stages();
    let n_steps = trace.steps.len();
    let mut profile = BackwardProfile::default();
    let mut a = a_out.clone();
    let mut grads: Vec<Tensor> = f
        .params()
        .iter()
        .map(|p| Tensor::zeros(p.shape()))
        .collect();

    // The segment replay (sparse checkpoints) advances full RK steps on
    // the stepping core; the local forward forms its stage inputs with the
    // core's partial-state arithmetic into one reused buffer.
    let mut eval = |t: f64, p: &Tensor, out: &mut Tensor| f.eval_into(t as f32, p, out);
    let mut replay: Option<Stepper<'_, Tensor>> = None;
    let mut p = Tensor::zeros_like(&trace.checkpoints[0].state);
    // The training states of one interval — each stage's k_i and network
    // caches — are rewritten in place by every interval of the layer.
    let mut stages: Vec<Tensor> = (0..s).map(|_| Tensor::zeros_like(&p)).collect();
    let mut stage_caches: Vec<Vec<OpCache>> = vec![Vec::new(); s];

    // Process checkpoint segments in reverse: checkpoint j covers steps
    // [ck[j].step, next checkpoint's step) — the last segment runs to the
    // final step.
    for j in (0..trace.checkpoints.len()).rev() {
        let ck = &trace.checkpoints[j];
        let seg_start = ck.step;
        let seg_end = trace
            .checkpoints
            .get(j + 1)
            .map(|c| c.step)
            .unwrap_or(n_steps);
        if seg_start == seg_end {
            continue;
        }
        profile.checkpoint_reads += 1;
        debug_assert!((ck.t - trace.steps[seg_start].t0).abs() < 1e-9);

        // Replay the segment forward, recovering the left-edge state of
        // every interior step (stride 1 ⇒ single-step segments, no replay).
        let mut lefts: Vec<Tensor> = Vec::with_capacity(seg_end - seg_start);
        let mut ystate = ck.state.clone();
        for i in seg_start..seg_end {
            lefts.push(ystate.clone());
            if i + 1 < seg_end {
                let step = &trace.steps[i];
                let stepper = replay.get_or_insert_with(|| Stepper::new(tableau, &ystate));
                profile.nfe_local_forward += stepper
                    .fixed(&mut eval, step.t0, step.dt, 1, &mut ystate, &mut ())
                    .nfe;
            }
        }

        for i in (seg_start..seg_end).rev() {
            let step = &trace.steps[i];
            let y = &lefts[i - seg_start];
            let t = step.t0;
            let h = step.dt;

            // 1. Local forward step: recompute integral states k_i and the
            //    per-stage network caches — the paper's "training states".
            let mut interval_bytes = 0u64;
            for i in 0..s {
                stage_input(tableau, i, h, y, &stages[..i], &mut p);
                let (k, caches) = (&mut stages[i], &mut stage_caches[i]);
                f.forward_at_into((t + tableau.c()[i] * h) as f32, &p, k, caches);
                profile.nfe_local_forward += 1;
                interval_bytes += cache_bytes(caches) + k.storage_bytes(2) as u64;
            }
            profile.training_state_peak_bytes =
                profile.training_state_peak_bytes.max(interval_bytes);
            profile.training_state_total_bytes += interval_bytes;

            // 2+3. Backward through the RK update: stage cotangents in
            // reverse.
            let mut qs: Vec<Option<Tensor>> = vec![None; s];
            for i in (0..s).rev() {
                // g_i = h·b_i·ā + Σ_{m>i} h·a_mi·q_m
                let mut g = Tensor::zeros(a.shape());
                if tableau.b()[i] != 0.0 {
                    g.axpy((h * tableau.b()[i]) as f32, &a);
                }
                for (m, qm) in qs.iter().enumerate().skip(i + 1) {
                    let ami = tableau.a()[m][i];
                    if ami != 0.0 {
                        if let Some(qm) = qm {
                            g.axpy((h * ami) as f32, qm);
                        }
                    }
                }
                if g.norm_inf() == 0.0 {
                    // Stage contributes nothing downstream (e.g. zero b and
                    // a column): skip the VJP entirely.
                    qs[i] = None;
                    continue;
                }
                let (q, dtheta) = f.backward(&stage_caches[i], &g);
                profile.vjp_evals += 1;
                for (acc, d) in grads.iter_mut().zip(&dtheta) {
                    acc.axpy(1.0, d);
                }
                qs[i] = Some(q);
            }

            // ∂L/∂y = ā + Σ_i q_i.
            for q in qs.into_iter().flatten() {
                a.axpy(1.0, &q);
            }
        }
    }

    (a, grads, profile)
}

/// Runs the ACA backward pass over a whole model (all integration layers in
/// reverse). `a_final` is the adjoint at the last layer's output —
/// *before* the classifier head, whose backward the trainer handles.
///
/// Returns the adjoint at the model input, per-layer parameter gradients,
/// and merged profiling counters.
pub fn aca_backward_model(
    model: &NodeModel,
    trace: &ForwardTrace,
    a_final: &Tensor,
) -> (Tensor, Vec<Vec<Tensor>>, BackwardProfile) {
    assert_eq!(
        trace.layers.len(),
        model.num_layers(),
        "trace/model layer count mismatch"
    );
    let mut a = a_final.clone();
    let mut per_layer: Vec<Vec<Tensor>> = vec![Vec::new(); model.num_layers()];
    let mut profile = BackwardProfile::default();
    for li in (0..model.num_layers()).rev() {
        let (a_in, grads, p) = aca_backward_layer(&model.layers()[li], &trace.layers[li], &a);
        per_layer[li] = grads;
        profile.merge(&p);
        a = a_in;
    }
    (a, per_layer, profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::{forward_layer, forward_model, NodeSolveOptions};
    use enode_tensor::dense::Dense;
    use enode_tensor::network::Op;
    use enode_tensor::{init, Tensor};

    fn small_net(seed: u64) -> Network {
        Network::new(vec![
            Op::ConcatTime,
            Op::dense(Dense::new_seeded(3, 8, seed)),
            Op::tanh(),
            Op::dense(Dense::new_seeded(8, 2, seed + 1)),
        ])
    }

    /// L(y0) = <v, h(T)> where h solves the NODE from y0.
    fn loss_of(f: &Network, y0: &Tensor, v: &Tensor, opts: &NodeSolveOptions) -> f32 {
        let (y, _) = forward_layer(f, y0, (0.0, 1.0), opts).unwrap();
        y.dot(v)
    }

    #[test]
    fn adjoint_matches_finite_difference_wrt_input() {
        let f = small_net(11);
        let mut y0 = init::uniform(&[1, 2], -0.5, 0.5, 12);
        let v = init::uniform(&[1, 2], -1.0, 1.0, 13);
        let opts = NodeSolveOptions::new(1e-8).with_default_dt(0.05);
        let (_, trace) = forward_layer(&f, &y0, (0.0, 1.0), &opts).unwrap();
        let (a0, _, _) = aca_backward_layer(&f, &trace, &v);
        let eps = 1e-2;
        for i in 0..2 {
            let orig = y0.data()[i];
            y0.data_mut()[i] = orig + eps;
            let lp = loss_of(&f, &y0, &v, &opts);
            y0.data_mut()[i] = orig - eps;
            let lm = loss_of(&f, &y0, &v, &opts);
            y0.data_mut()[i] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - a0.data()[i]).abs() < 3e-2 * fd.abs().max(0.2),
                "a0[{i}]: fd {fd} vs adjoint {}",
                a0.data()[i]
            );
        }
    }

    #[test]
    fn gradients_match_finite_difference_wrt_params() {
        let mut f = small_net(21);
        let y0 = init::uniform(&[2, 2], -0.5, 0.5, 22);
        let v = init::uniform(&[2, 2], -1.0, 1.0, 23);
        let opts = NodeSolveOptions::new(1e-8).with_default_dt(0.05);
        let (_, trace) = forward_layer(&f, &y0, (0.0, 1.0), &opts).unwrap();
        let (_, grads, _) = aca_backward_layer(&f, &trace, &v);
        assert_eq!(grads.len(), f.param_count());
        let eps = 1e-2;
        // Spot-check entries in the first weight matrix and last bias.
        for (pi, idx) in [(0usize, 0usize), (0, 7), (2, 3), (3, 1)] {
            let orig = f.params()[pi].data()[idx];
            f.params_mut()[pi].data_mut()[idx] = orig + eps;
            let lp = loss_of(&f, &y0, &v, &opts);
            f.params_mut()[pi].data_mut()[idx] = orig - eps;
            let lm = loss_of(&f, &y0, &v, &opts);
            f.params_mut()[pi].data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grads[pi].data()[idx]).abs() < 3e-2 * fd.abs().max(0.2),
                "grad[{pi}][{idx}]: fd {fd} vs {}",
                grads[pi].data()[idx]
            );
        }
    }

    #[test]
    fn sparse_checkpoints_give_identical_gradients() {
        // Bounded-memory ACA: stride-k checkpointing replays segments but
        // walks the exact same discrete computation graph, so gradients
        // match the dense-checkpoint run to rounding.
        let f = small_net(71);
        let y0 = init::uniform(&[2, 2], -0.5, 0.5, 72);
        let v = init::uniform(&[2, 2], -1.0, 1.0, 73);
        let dense_opts = NodeSolveOptions::new(1e-6).with_default_dt(0.05);
        let sparse_opts = dense_opts.with_checkpoint_stride(3);
        let (y_d, tr_d) = forward_layer(&f, &y0, (0.0, 1.0), &dense_opts).unwrap();
        let (y_s, tr_s) = forward_layer(&f, &y0, (0.0, 1.0), &sparse_opts).unwrap();
        // Identical forward solution and step sequence.
        assert_eq!(y_d.data(), y_s.data());
        assert_eq!(tr_d.steps.len(), tr_s.steps.len());
        // Far fewer stored checkpoints.
        assert!(
            tr_s.checkpoints.len() * 2 < tr_d.checkpoints.len(),
            "sparse {} vs dense {}",
            tr_s.checkpoints.len(),
            tr_d.checkpoints.len()
        );
        let (a_d, g_d, p_d) = aca_backward_layer(&f, &tr_d, &v);
        let (a_s, g_s, p_s) = aca_backward_layer(&f, &tr_s, &v);
        assert!((&a_d - &a_s).norm_inf() < 1e-5, "adjoints diverge");
        for (gd, gs) in g_d.iter().zip(&g_s) {
            assert!((gd - gs).norm_inf() < 1e-5, "gradients diverge");
        }
        // The memory saving is paid in recomputation.
        assert!(p_s.nfe_local_forward > p_d.nfe_local_forward);
    }

    #[test]
    fn stride_reduces_checkpoint_bytes() {
        let f = small_net(81);
        let y0 = init::uniform(&[1, 2], -0.5, 0.5, 82);
        let opts = NodeSolveOptions::new(1e-6).with_default_dt(0.02);
        let (_, dense) = forward_layer(&f, &y0, (0.0, 1.0), &opts).unwrap();
        let (_, sparse) =
            forward_layer(&f, &y0, (0.0, 1.0), &opts.with_checkpoint_stride(4)).unwrap();
        assert!(sparse.checkpoint_bytes(2) * 3 < dense.checkpoint_bytes(2));
    }

    #[test]
    fn adjoint_gradcheck_through_group_norm() {
        // GroupNorm's backward is the most intricate layer gradient; check
        // it end-to-end through the integrator's adjoint.
        use crate::model::NodeModel;
        let model = NodeModel::image_classifier_normed(4, 1, 1, 2, 2, 61);
        let f = model.layers()[0].clone();
        let mut y0 = init::uniform(&[1, 4, 4, 4], -0.5, 0.5, 62);
        let v = init::uniform(&[1, 4, 4, 4], -1.0, 1.0, 63);
        let opts = NodeSolveOptions::new(1e-5).with_default_dt(0.1);
        let (_, trace) = forward_layer(&f, &y0, (0.0, 1.0), &opts).unwrap();
        let (a0, _, _) = aca_backward_layer(&f, &trace, &v);
        let eps = 1e-2;
        for idx in [0usize, 17, 40, 63] {
            let orig = y0.data()[idx];
            y0.data_mut()[idx] = orig + eps;
            let lp = forward_layer(&f, &y0, (0.0, 1.0), &opts).unwrap().0.dot(&v);
            y0.data_mut()[idx] = orig - eps;
            let lm = forward_layer(&f, &y0, (0.0, 1.0), &opts).unwrap().0.dot(&v);
            y0.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - a0.data()[idx]).abs() < 5e-2 * fd.abs().max(0.2),
                "a0[{idx}]: fd {fd} vs adjoint {}",
                a0.data()[idx]
            );
        }
    }

    #[test]
    fn backward_reuses_forward_stepsizes() {
        // ACA uses the stepsizes obtained in the forward pass (§II-C):
        // nfe in the backward local forwards = s × intervals, no search.
        let f = small_net(31);
        let y0 = init::uniform(&[1, 2], -0.5, 0.5, 32);
        let opts = NodeSolveOptions::new(1e-5);
        let (y, trace) = forward_layer(&f, &y0, (0.0, 1.0), &opts).unwrap();
        let (_, _, profile) = aca_backward_layer(&f, &trace, &Tensor::ones(y.shape()));
        assert_eq!(profile.checkpoint_reads, trace.steps.len());
        assert_eq!(profile.nfe_local_forward, 4 * trace.steps.len());
    }

    #[test]
    fn model_backward_chains_layers() {
        let model = NodeModel::new(vec![small_net(41), small_net(43)], (0.0, 1.0));
        let x = init::uniform(&[1, 2], -0.5, 0.5, 44);
        let opts = NodeSolveOptions::new(1e-6);
        let (y, trace) = forward_model(&model, &x, &opts).unwrap();
        let (a0, per_layer, profile) = aca_backward_model(&model, &trace, &Tensor::ones(y.shape()));
        assert_eq!(a0.shape(), x.shape());
        assert_eq!(per_layer.len(), 2);
        assert_eq!(per_layer[0].len(), model.layers()[0].param_count());
        assert!(profile.vjp_evals > 0);
        assert!(profile.training_state_total_bytes > 0);
    }

    #[test]
    fn training_state_peak_is_one_interval() {
        // ACA's point: peak live training states cover ONE interval, not
        // the whole trajectory — peak < total for multi-step solves.
        let f = small_net(51);
        let y0 = init::uniform(&[1, 2], -0.5, 0.5, 52);
        let opts = NodeSolveOptions::new(1e-7).with_default_dt(0.02);
        let (y, trace) = forward_layer(&f, &y0, (0.0, 1.0), &opts).unwrap();
        assert!(trace.steps.len() > 3);
        let (_, _, profile) = aca_backward_layer(&f, &trace, &Tensor::ones(y.shape()));
        assert!(
            profile.training_state_peak_bytes * 2 < profile.training_state_total_bytes,
            "peak {} vs total {}",
            profile.training_state_peak_bytes,
            profile.training_state_total_bytes
        );
    }
}
