//! Network shape and FP16-range lints.
//!
//! Codes: `E020`–`E022`, `W020`.
//!
//! Two static analyses over an embedded-NN [`Network`], both one fold
//! over its op chain:
//!
//! 1. **NCHW shape inference** — threads a symbolic shape through the op
//!    chain (`ir::infer_shapes`) and reports the first op that rejects its
//!    input (`E020`), then checks that the chain as a whole preserves the
//!    state shape (`E021`) — `dh/dt = f(t, h)` only makes sense when `f`
//!    maps the state space to itself.
//! 2. **FP16 interval propagation** — threads a worst-case absolute
//!    magnitude bound through the same chain and flags any intermediate
//!    that can exceed `F16::MAX` (`E022`) or come within 2× of it
//!    (`W020`), the failure mode the paper's FP16 datapath must avoid.

use crate::diag::{Code, Diagnostic, Diagnostics};
use crate::ir::{infer_shapes, op_output_bound};
use enode_tensor::f16::F16;
use enode_tensor::network::Network;

/// Largest worst-case magnitude over the network's input and every op
/// output, for inputs bounded by `input_bound`; `op_in_shapes` are the
/// ops' input shapes (GroupNorm's bound depends on the group size).
fn worst_case_magnitude(net: &Network, op_in_shapes: &[Vec<usize>], input_bound: f64) -> f64 {
    let mut bound = input_bound;
    let mut worst = input_bound;
    for (op, shape) in net.ops().iter().zip(op_in_shapes) {
        bound = op_output_bound(op, shape, bound);
        worst = worst.max(bound);
    }
    worst
}

/// Runs the shape and FP16-range lints on one network.
///
/// `input_bound` is the largest absolute state magnitude the caller
/// expects to feed `f` (e.g. normalized images → 1.0, dynamic-system
/// states → a few units).
pub fn lint_network(
    subject: &str,
    net: &Network,
    input_shape: &[usize],
    input_bound: f64,
) -> Diagnostics {
    let mut ds = Diagnostics::new();

    // E020: per-op shape legality.
    let shapes = match infer_shapes(net.ops(), input_shape) {
        Ok(s) => s,
        Err((idx, reason)) => {
            ds.push(
                Diagnostic::new(
                    Code::E020ShapeMismatch,
                    subject,
                    format!("op {idx} rejects its input: {reason}"),
                )
                .with_note("op_index", idx)
                .with_note("input_shape", format!("{input_shape:?}")),
            );
            return ds;
        }
    };

    // E021: f must be an endomap of the state space.
    let out_shape = &shapes.output;
    if out_shape != input_shape {
        ds.push(
            Diagnostic::new(
                Code::E021ShapeNotPreserved,
                subject,
                format!("f maps {input_shape:?} to {out_shape:?}; dh/dt needs matching shapes"),
            )
            .with_note("input_shape", format!("{input_shape:?}"))
            .with_note("output_shape", format!("{out_shape:?}")),
        );
    }

    // E022 / W020: FP16 range.
    let f16_max = F16::MAX.to_f32() as f64;
    let worst = worst_case_magnitude(net, &shapes.inputs, input_bound);
    if worst > f16_max {
        ds.push(
            Diagnostic::new(
                Code::E022Fp16Overflow,
                subject,
                format!("worst-case magnitude {worst:.1} exceeds F16::MAX = {f16_max}"),
            )
            .with_note("worst_case", format!("{worst:.1}"))
            .with_note("f16_max", f16_max),
        );
    } else if worst > f16_max / 2.0 {
        ds.push(
            Diagnostic::new(
                Code::W020Fp16NearOverflow,
                subject,
                format!("worst-case magnitude {worst:.1} is within 2x of F16::MAX"),
            )
            .with_note("worst_case", format!("{worst:.1}"))
            .with_note("f16_max", f16_max),
        );
    }

    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use enode_tensor::conv::Conv2d;
    use enode_tensor::dense::Dense;
    use enode_tensor::network::Op;
    use enode_tensor::norm::GroupNorm;
    use enode_tensor::Tensor;

    fn conv_net() -> Network {
        Network::new(vec![
            Op::ConcatTime,
            Op::conv2d(Conv2d::new_seeded(3, 4, 3, 1)),
            Op::group_norm(GroupNorm::new(4, 2)),
            Op::relu(),
            Op::conv2d(Conv2d::new_seeded(4, 2, 3, 2)),
        ])
    }

    #[test]
    fn well_formed_conv_net_is_clean() {
        let ds = lint_network("conv_net", &conv_net(), &[1, 2, 8, 8], 1.0);
        assert!(ds.is_empty(), "{}", ds.render());
    }

    #[test]
    fn well_formed_dense_net_is_clean() {
        let f = Network::new(vec![
            Op::ConcatTime,
            Op::dense(Dense::new_seeded(3, 16, 1)),
            Op::tanh(),
            Op::dense(Dense::new_seeded(16, 2, 2)),
        ]);
        let ds = lint_network("dense_net", &f, &[1, 2], 2.0);
        assert!(ds.is_empty(), "{}", ds.render());
    }

    #[test]
    fn channel_mismatch_fires_e020() {
        // Net expects 3 channels after ConcatTime, feed 4-channel input.
        let ds = lint_network("bad_channels", &conv_net(), &[1, 4, 8, 8], 1.0);
        assert!(ds.has_code(Code::E020ShapeMismatch), "{}", ds.render());
        // Downstream lints must not run on an uninferrable chain.
        assert!(!ds.has_code(Code::E021ShapeNotPreserved));
    }

    #[test]
    fn rank_mismatch_fires_e020() {
        let ds = lint_network("bad_rank", &conv_net(), &[1, 2], 1.0);
        assert!(ds.has_code(Code::E020ShapeMismatch), "{}", ds.render());
    }

    #[test]
    fn non_preserving_net_fires_e021() {
        // 2 -> 5 features: not an endomap.
        let f = Network::new(vec![Op::dense(Dense::new_seeded(2, 5, 1))]);
        let ds = lint_network("grows", &f, &[1, 2], 1.0);
        assert!(ds.has_code(Code::E021ShapeNotPreserved), "{}", ds.render());
    }

    #[test]
    fn huge_weights_fire_e022() {
        // One dense layer with weights of 40000: bound = 2·40000 > 65504.
        let w = Tensor::from_vec(vec![40000.0, 40000.0, 0.0, 0.0], &[2, 2]);
        let b = Tensor::zeros(&[2]);
        let f = Network::new(vec![Op::dense(Dense::from_parts(w, b))]);
        let ds = lint_network("overflow", &f, &[1, 2], 1.0);
        assert!(ds.has_code(Code::E022Fp16Overflow), "{}", ds.render());
    }

    #[test]
    fn large_weights_fire_w020() {
        // Bound = 40000: above F16::MAX/2 = 32752, below F16::MAX.
        let w = Tensor::from_vec(vec![40000.0, 0.0, 0.0, 40000.0], &[2, 2]);
        let b = Tensor::zeros(&[2]);
        let f = Network::new(vec![Op::dense(Dense::from_parts(w, b))]);
        let ds = lint_network("near_overflow", &f, &[1, 2], 1.0);
        assert!(ds.has_code(Code::W020Fp16NearOverflow), "{}", ds.render());
        assert!(!ds.has_code(Code::E022Fp16Overflow));
    }

    #[test]
    fn saturating_activation_resets_bound() {
        // tanh clamps to 1, so a huge weight BEFORE tanh overflows but the
        // same weight AFTER a tanh sandwich with small outer weights is ok.
        let w_big = Tensor::from_vec(vec![50000.0], &[1, 1]);
        let overflow = Network::new(vec![Op::dense(Dense::from_parts(
            w_big.clone(),
            Tensor::zeros(&[1]),
        ))]);
        assert!(lint_network("pre", &overflow, &[1, 1], 2.0).has_code(Code::E022Fp16Overflow));

        let safe = Network::new(vec![
            Op::tanh(),
            Op::dense(Dense::from_parts(
                Tensor::from_vec(vec![2.0], &[1, 1]),
                Tensor::zeros(&[1]),
            )),
        ]);
        let ds = lint_network("post", &safe, &[1, 1], 60000.0);
        // Input bound 60000 itself is near-overflow -> W020 fires, but no
        // hard overflow occurs anywhere in the chain.
        assert!(!ds.has_code(Code::E022Fp16Overflow), "{}", ds.render());
    }

    #[test]
    fn shipped_models_infer_and_fit_fp16() {
        use enode_node::model::NodeModel;
        let m = NodeModel::dynamic_system(4, 32, 2, 7);
        for layer in m.layers() {
            let shapes = infer_shapes(layer.ops(), &[1, 4]).expect("shape chain must infer");
            assert_eq!(shapes.output, vec![1, 4]);
            assert!(worst_case_magnitude(layer, &shapes.inputs, 4.0) < 65504.0);
        }
    }
}
