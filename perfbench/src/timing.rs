//! Re-timing helpers of the layer-profile pass: kernels on recorded
//! solver states, and pool-width scaling.

use enode_node::inference::ForwardTrace;
use enode_node::model::NodeModel;
use enode_tensor::network::{Op, OpCache};
use enode_tensor::{parallel, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// Mean ns per call of `f`, repeated until at least `min_ms` elapsed.
pub fn time_per_call(min_ms: f64, mut f: impl FnMut()) -> f64 {
    let mut calls = 0u64;
    let mut batch = 1u64;
    let t0 = Instant::now();
    loop {
        for _ in 0..batch {
            f();
        }
        calls += batch;
        let el = t0.elapsed().as_secs_f64() * 1e3;
        if el >= min_ms {
            return el * 1e6 / calls as f64;
        }
        batch *= 2;
    }
}

/// Per-evaluation kernel times (ns, raw) of `f` at the recorded states.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelTimes {
    /// `Network::eval`.
    pub f_eval: f64,
    /// `Dense::forward` calls.
    pub dense: f64,
    /// `Conv2d::forward_fused` calls.
    pub conv_fused: f64,
}

/// States `(layer, t, h)` recorded at the checkpoints of `traces`.
pub fn checkpoint_states(traces: &[ForwardTrace]) -> Vec<(usize, f32, Tensor)> {
    let mut out = Vec::new();
    for trace in traces {
        for (l, layer) in trace.layers.iter().enumerate() {
            for ck in &layer.checkpoints {
                out.push((l, ck.t as f32, ck.state.clone()));
            }
        }
    }
    out
}

/// Times `Network::eval` and its dense and fused-conv kernels on the
/// recorded states, per evaluation.
pub fn kernel_times(
    model: &NodeModel,
    states: &[(usize, f32, Tensor)],
    min_ms: f64,
) -> KernelTimes {
    let per_state = |total: f64| total / states.len().max(1) as f64;
    let f_eval = per_state(time_per_call(min_ms, || {
        for (l, t, h) in states {
            black_box(model.layers()[*l].eval(*t, h));
        }
    }));
    // Inputs of every dense op and every fused conv group, from one
    // cached forward pass per state.
    let mut dense = Vec::new();
    let mut fused = Vec::new();
    for (l, t, h) in states {
        let net = &model.layers()[*l];
        let (_, caches) = net.forward_at(*t, h);
        let ops = net.ops();
        for (i, op) in ops.iter().enumerate() {
            match (op, &caches[i]) {
                (Op::Dense(d), OpCache::Dense { x }) => dense.push((d, x.clone())),
                (Op::Conv2d(c), OpCache::Conv { x }) => {
                    let gn = match ops.get(i + 1) {
                        Some(Op::GroupNorm(g)) => Some(g),
                        _ => None,
                    };
                    let act_at = i + 1 + usize::from(gn.is_some());
                    let act = match ops.get(act_at) {
                        Some(Op::Activation(a)) => Some(*a),
                        _ => None,
                    };
                    fused.push((c, gn, act, x.clone()));
                }
                _ => {}
            }
        }
    }
    let dense_t = if dense.is_empty() {
        0.0
    } else {
        per_state(time_per_call(min_ms, || {
            for (d, x) in &dense {
                black_box(d.forward(x));
            }
        }))
    };
    let fused_t = if fused.is_empty() {
        0.0
    } else {
        per_state(time_per_call(min_ms, || {
            for (c, gn, act, x) in &fused {
                black_box(c.forward_fused(x, *gn, *act));
            }
        }))
    };
    KernelTimes {
        f_eval,
        dense: dense_t,
        conv_fused: fused_t,
    }
}

/// Time of `work` at pool width 1 over its time at width 2, interleaved
/// so both widths see the same host phase.
pub fn pool_scaling(mut work: impl FnMut()) -> f64 {
    let (mut w1, mut w2) = (0.0, 0.0);
    for _ in 0..3 {
        let t0 = Instant::now();
        parallel::with_threads(1, &mut work);
        w1 += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        parallel::with_threads(2, &mut work);
        w2 += t0.elapsed().as_secs_f64();
    }
    w1 / w2
}
