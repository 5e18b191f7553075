//! Bit-level pin of the adaptive stepping paths.
//!
//! The serving and training pins cover the shipped configuration only
//! (RK23, conventional search, stride-1 checkpoints). This pin covers the
//! rest of the stepsize search:
//!
//! * `forward_layer` under every controller and every embedded-pair
//!   tableau, on a dynamic-system layer and on a small image layer, each
//!   also with the priority window (Ĥ = 4), FP16 storage and checkpoint
//!   stride 3. Hashed: output, stats, step records and checkpoints.
//! * `solve_adaptive` and `solve_fixed` on Lotka–Volterra and van der Pol.
//!   Hashed: every point's `t`, `dt`, `y`, `dy` and trial count, and the
//!   accepted/rejected counts.
//! * `forward_layer` under every embedded-pair tableau × {conventional,
//!   classic} on states of 15 and 75 elements. Every other pin integrates
//!   a state whose length is a multiple of 8 (or is 2), so only this one
//!   runs the stage arithmetic's vector bodies followed by a scalar tail.
//!
//! `solve_adaptive`'s function-evaluation count is hashed on its own: it
//! reuses `k₁ = f(t, y)` after a rejected trial (the value cannot depend
//! on the rejected stepsize), so its NFE is one below a search that
//! re-evaluates `k₁` for every rejection.

use enode::hw::fingerprint::Fnv64;
use enode::node::inference::{forward_layer, ControllerKind, LayerTrace, NodeSolveOptions};
use enode::ode::controller::{
    ClassicController, ConventionalSearchController, PiController, SlopeAdaptiveController,
    StepController,
};
use enode::ode::solver::{solve_adaptive, solve_fixed, AdaptiveOptions, Solution};
use enode::prelude::*;
use enode::tensor::{init, parallel};

fn write_tensor(h: &mut Fnv64, t: &Tensor) {
    for v in t.data() {
        h.write(&v.to_bits().to_le_bytes());
    }
}

fn write_layer(h: &mut Fnv64, y: &Tensor, trace: &LayerTrace) {
    write_tensor(h, y);
    let s = trace.stats;
    for v in [
        s.points,
        s.trials,
        s.rejected,
        s.nfe,
        s.rows_processed as usize,
        s.rows_total as usize,
        s.early_stops,
    ] {
        h.write_u64(v as u64);
    }
    for r in &trace.steps {
        h.write_f64_bits(r.t0);
        h.write_f64_bits(r.dt);
        h.write_u64(r.trials as u64);
    }
    for c in &trace.checkpoints {
        h.write_u64(c.step as u64);
        h.write_f64_bits(c.t);
        write_tensor(h, &c.state);
    }
}

const CONTROLLERS: [ControllerKind; 4] = [
    ControllerKind::Conventional { shrink: 0.5 },
    ControllerKind::ConventionalConstantInit { shrink: 0.5 },
    ControllerKind::Classic,
    ControllerKind::SlopeAdaptive { s_acc: 3, s_rej: 3 },
];

const TABLEAUX: [TableauKind; 4] = [
    TableauKind::HeunEuler,
    TableauKind::Rk23,
    TableauKind::Rkf45,
    TableauKind::Dopri5,
];

/// Digest of every `forward_layer` case, in a fixed order.
fn layer_digest() -> String {
    let dynsys = NodeModel::dynamic_system(2, 16, 1, 7);
    let image = NodeModel::image_classifier_normed(4, 2, 1, 10, 2, 7);
    let cases = [
        (
            &dynsys.layers()[0],
            init::uniform(&[8, 2], -1.0, 1.0, 31),
            1e-4,
        ),
        (
            &image.layers()[0],
            init::uniform(&[1, 4, 8, 8], -1.0, 1.0, 32),
            1e-3,
        ),
    ];
    let mut h = Fnv64::new();
    for (f, y0, tol) in &cases {
        for controller in CONTROLLERS {
            for tableau in TABLEAUX {
                // A large initial stepsize forces rejected trials.
                let base = NodeSolveOptions::new(*tol)
                    .with_default_dt(0.5)
                    .with_controller(controller)
                    .with_tableau(tableau);
                for opts in [
                    base,
                    base.with_priority(4),
                    base.with_fp16_storage(),
                    base.with_checkpoint_stride(3),
                ] {
                    let (y, trace) = forward_layer(f, y0, (0.0, 1.0), &opts).expect("layer solve");
                    write_layer(&mut h, &y, &trace);
                }
            }
        }
    }
    h.hex()
}

/// Digest of `forward_layer` on states whose length is not a multiple
/// of 8: a `[5, 3]` dynamic-system state (15 elements) and a `[1, 3, 5, 5]`
/// image state (75 elements).
fn tail_digest() -> String {
    let dynsys = NodeModel::dynamic_system(3, 16, 1, 7);
    let image = NodeModel::image_classifier_normed(3, 2, 1, 10, 1, 7);
    let cases = [
        (
            &dynsys.layers()[0],
            init::uniform(&[5, 3], -1.0, 1.0, 41),
            1e-4,
        ),
        (
            &image.layers()[0],
            init::uniform(&[1, 3, 5, 5], -1.0, 1.0, 42),
            1e-3,
        ),
    ];
    let mut h = Fnv64::new();
    for (f, y0, tol) in &cases {
        for controller in [CONTROLLERS[0], CONTROLLERS[2]] {
            for tableau in TABLEAUX {
                let opts = NodeSolveOptions::new(*tol)
                    .with_default_dt(0.5)
                    .with_controller(controller)
                    .with_tableau(tableau);
                let (y, trace) = forward_layer(f, y0, (0.0, 1.0), &opts).expect("layer solve");
                write_layer(&mut h, &y, &trace);
            }
        }
    }
    h.hex()
}

fn lotka_volterra() -> impl Fn(f64, &Vec<f64>) -> Vec<f64> {
    |_t, y| vec![1.5 * y[0] - y[0] * y[1], y[0] * y[1] - 3.0 * y[1]]
}

fn van_der_pol() -> impl Fn(f64, &Vec<f64>) -> Vec<f64> {
    |_t, y| vec![y[1], 2.0 * (1.0 - y[0] * y[0]) * y[1] - y[0]]
}

fn write_solution(h: &mut Fnv64, sol: &Solution<Vec<f64>>) {
    h.write_u64(sol.stats.accepted as u64);
    h.write_u64(sol.stats.rejected as u64);
    for p in &sol.points {
        h.write_f64_bits(p.t);
        h.write_f64_bits(p.dt);
        h.write_u64(p.trials as u64);
        for &v in &p.y {
            h.write_f64_bits(v);
        }
        match &p.dy {
            Some(dy) => {
                for &v in dy {
                    h.write_f64_bits(v);
                }
            }
            None => h.write_u64(u64::MAX),
        }
    }
}

fn controllers(tableau: &ButcherTableau) -> Vec<Box<dyn StepController>> {
    vec![
        Box::new(ClassicController::new(tableau.error_order()).with_default_dt(0.5)),
        Box::new(PiController::new(tableau.error_order()).with_default_dt(0.5)),
        Box::new(ConventionalSearchController::new(0.5, 0.5)),
        Box::new(SlopeAdaptiveController::new(3, 3).with_default_dt(0.5)),
    ]
}

/// Digests of every `solve_adaptive` and `solve_fixed` case: the points
/// and search counts, and separately the adaptive solves' NFE.
fn solver_digests() -> (String, String) {
    let mut points = Fnv64::new();
    let mut nfe = Fnv64::new();
    for (f, y0, t1) in [
        (
            Box::new(lotka_volterra()) as Box<dyn Fn(f64, &Vec<f64>) -> Vec<f64>>,
            vec![1.0, 1.0],
            8.0,
        ),
        (Box::new(van_der_pol()), vec![2.0, 0.0], 6.0),
    ] {
        for tableau in enode::ode::tableau::all_tableaux() {
            if tableau.is_adaptive() {
                for tol in [1e-4, 1e-7] {
                    for mut ctl in controllers(&tableau) {
                        let sol = solve_adaptive(
                            &f,
                            0.0,
                            t1,
                            y0.clone(),
                            &tableau,
                            ctl.as_mut(),
                            &AdaptiveOptions::new(tol),
                        )
                        .expect("adaptive solve");
                        write_solution(&mut points, &sol);
                        nfe.write_u64(sol.stats.nfe as u64);
                    }
                }
            }
            let sol = solve_fixed(&f, 0.0, t1, y0.clone(), &tableau, 97);
            write_solution(&mut points, &sol);
            points.write_u64(sol.stats.nfe as u64);
        }
    }
    (points.hex(), nfe.hex())
}

#[test]
fn forward_layer_matches_the_pinned_digest() {
    assert_eq!(layer_digest(), "a2ea65326c23a002");
}

#[test]
fn forward_layer_on_odd_lengths_matches_the_pinned_digest_at_every_pool_width() {
    for threads in [1usize, 4] {
        let digest = parallel::with_threads(threads, tail_digest);
        assert_eq!(digest, "74f35d32f3083fe3", "pool width {threads}");
    }
}

#[test]
fn solver_points_and_nfe_match_the_pinned_digests() {
    let (points, nfe) = solver_digests();
    assert_eq!(points, "d419f3afe35c9b1d", "points");
    // The NFE of a search that re-evaluates `k₁` on every retry, minus
    // each solve's rejected count (that NFE's own digest is
    // b7f78b1d132b8f42).
    assert_eq!(nfe, "e5fef4fe617ba2e1", "nfe");
}
