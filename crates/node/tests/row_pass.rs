//! `Network::eval_into`'s two regimes against the op-by-op pass.
//!
//! A vector state with fewer rows than one register tile (`N < MR = 4`)
//! runs `f` one row at a time over two stack rows, or over two rows of one
//! arena checkout when a row is wider than the stack bound (64 floats).
//! Every other state runs the launch chain. `Network::forward_at` takes
//! neither, so at every rank-2 shape the repository ships, with every
//! activation, at N = 1..=5 (across the `MR` boundary) and at several
//! times, `eval_into` must give its bits.

use enode_node::model::NodeModel;
use enode_tensor::activation::Activation;
use enode_tensor::dense::Dense;
use enode_tensor::network::{Network, Op};
use enode_tensor::{arena, init, Tensor};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Checks `f` on `d`-feature inputs and returns the arena checkouts one
/// warm single-row `eval_into` makes.
fn check(name: &str, f: &Network, d: usize) -> u64 {
    for n in 1..=5 {
        for (i, t) in [0.0f32, 0.37, 1.0, -2.5].into_iter().enumerate() {
            let seed = 1000 * n as u64 + 10 * d as u64 + i as u64;
            let mut x = init::uniform(&[n, d], -3.0, 3.0, seed).into_vec();
            // A signed zero, a value below tanh's pass-through threshold
            // and one past its clamp.
            let specials = [-0.0, 1e-5, -12.0];
            let k = specials.len().min(x.len());
            x[..k].copy_from_slice(&specials[..k]);
            let x = Tensor::from_vec(x, &[n, d]);
            let (want, _) = f.forward_at(t, &x);
            let mut out = Tensor::full(want.shape(), f32::NAN);
            f.eval_into(t, &x, &mut out);
            assert_eq!(bits(&out), bits(&want), "{name}: N = {n}, t = {t}");
        }
    }
    let x = init::uniform(&[1, d], -1.0, 1.0, 7);
    let mut out = f.eval(0.5, &x);
    let before = arena::stats().total_checkouts;
    f.eval_into(0.5, &x, &mut out);
    arena::stats().total_checkouts - before
}

/// Checks every layer of `model`; none may touch the arena.
fn check_model(name: &str, model: &NodeModel, d: usize) {
    for (l, f) in model.layers().iter().enumerate() {
        let checkouts = check(&format!("{name} layer {l}"), f, d);
        assert_eq!(
            checkouts, 0,
            "{name} layer {l}: the row pass checked out arena scratch"
        );
    }
}

#[test]
fn every_shipped_rank2_model_matches_the_op_by_op_pass() {
    // perfbench's `serve_dynsys` model and the analysed workloads.
    check_model(
        "dynamic_system(2, 16, 2)",
        &NodeModel::dynamic_system(2, 16, 2, 7),
        2,
    );
    check_model(
        "three_body (12, 32, 2)",
        &NodeModel::dynamic_system(12, 32, 2, 5),
        12,
    );
    check_model(
        "lotka_volterra (2, 24, 2)",
        &NodeModel::dynamic_system(2, 24, 2, 7),
        2,
    );
    // The serving tests' model.
    check_model(
        "dynamic_system(2, 8, 1)",
        &NodeModel::dynamic_system(2, 8, 1, 42),
        2,
    );
    // ANODE: the flow runs in 2 + 2 dimensions.
    let anode = NodeModel::dynamic_system_augmented(2, 2, 24, 1, 7);
    check_model("dynamic_system_augmented(2, 2, 24, 1)", &anode, 4);
}

#[test]
fn rows_wider_than_the_stack_take_one_arena_checkout() {
    let wide = NodeModel::dynamic_system(2, 80, 1, 3);
    let checkouts = check("dynamic_system(2, 80, 1)", &wide.layers()[0], 2);
    assert_eq!(
        checkouts, 1,
        "a wide row pass takes its two rows from one checkout"
    );
}

#[test]
fn every_activation_matches_the_op_by_op_pass() {
    for act in [
        Activation::Tanh,
        Activation::Relu,
        Activation::Sigmoid,
        Activation::Softplus,
    ] {
        let f = Network::new(vec![
            Op::ConcatTime,
            Op::dense(Dense::new_seeded(3, 16, 11)),
            Op::Activation(act),
            Op::dense(Dense::new_seeded(16, 2, 12)),
        ]);
        assert_eq!(check(&format!("{act:?}"), &f, 2), 0);
    }
    // An activation at the head (the input must be copied, not written),
    // two in a row and one at the tail, which runs in place on `out`.
    let f = Network::new(vec![
        Op::Activation(Activation::Sigmoid),
        Op::ConcatTime,
        Op::dense(Dense::new_seeded(4, 9, 13)),
        Op::relu(),
        Op::Activation(Activation::Softplus),
        Op::dense(Dense::new_seeded(9, 3, 14)),
        Op::tanh(),
    ]);
    let x = init::uniform(&[2, 3], -2.0, 2.0, 15);
    let before = bits(&x);
    assert_eq!(check("stacked activations", &f, 3), 0);
    let mut out = f.eval(0.0, &x);
    f.eval_into(0.25, &x, &mut out);
    assert_eq!(bits(&x), before, "eval_into must not write its input");
}
