//! Heap-allocation budgets of the small-state NODE hot path.
//!
//! A dynamic-system solve runs a few dozen MACs per function evaluation,
//! so a single heap allocation per evaluation would cost more than the
//! arithmetic. A counting global allocator pins the budgets: a warm
//! `Network::eval_into` allocates nothing, a stats-only serving solve
//! makes the same fixed set of allocations whatever its NFE, a traced
//! solve adds only its per-point checkpoints and records, and the ACA
//! backward's local forward rewrites its training states in place.
//!
//! `eval_into` has two regimes, and each keeps its intermediates off the
//! heap in its own way. A vector state with fewer rows than one register
//! tile (every serving solve of a dynamic system) runs the row pass over
//! two stack rows, so it does not touch even the thread-local arena: the
//! dynamic-system test also pins that it makes no arena checkout, which
//! is what a silent fall-back to the launch chain would change. Feature
//! maps and larger batches run the launch chain, whose intermediates
//! share one arena checkout.
//!
//! The counter is thread-local because the test harness runs tests on
//! parallel threads; each measurement sees only its own thread.

use enode_node::inference::{forward_model, forward_model_stats, NodeSolveOptions};
use enode_node::model::NodeModel;
use enode_tensor::{arena, init, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also serves thread teardown, after this
    // thread's counters are gone.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Runs `f` and returns its result with the bytes it allocated on this
/// thread.
fn allocated_bytes<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

/// The Lotka–Volterra-sized model the `serve_dynsys` benchmark serves.
fn dynsys() -> NodeModel {
    NodeModel::dynamic_system(2, 16, 2, 7)
}

#[test]
fn dynsys_eval_into_allocates_nothing() {
    let model = dynsys();
    let f = &model.layers()[0];
    let h = Tensor::from_vec(vec![0.3, -0.7], &[1, 2]);
    let mut out = f.eval(0.0, &h);
    let checkouts = arena::stats().total_checkouts;
    let ((), allocs) = allocations(|| f.eval_into(0.5, &h, &mut out));
    assert_eq!(allocs, 0, "f.eval_into allocated");
    assert_eq!(
        arena::stats().total_checkouts,
        checkouts,
        "f.eval_into checked out arena scratch: the row pass fell back to the launch chain"
    );
    // `eval` allocates its output and nothing else.
    let (y, allocs) = allocations(|| f.eval(0.5, &h));
    assert_eq!(y.data(), out.data());
    assert_eq!(allocs, 1, "f.eval made {allocs} allocations");
}

#[test]
fn image_eval_into_allocates_nothing() {
    // The `serve_image` model: two fused conv→GroupNorm→activation
    // launches, the first into the arena, the second into `out`.
    let model = NodeModel::image_classifier_normed(4, 2, 2, 10, 2, 7);
    let f = &model.layers()[0];
    let x = init::uniform(&[1, 4, 16, 16], -1.0, 1.0, 3);
    let mut out = f.eval(0.0, &x);
    let ((), allocs) = allocations(|| f.eval_into(0.5, &x, &mut out));
    assert_eq!(allocs, 0, "f.eval_into allocated");
}

#[test]
fn stats_only_solve_allocations_do_not_grow_with_nfe() {
    // The serving solve records nothing and evaluates `f` into the
    // stepper's buffers, so its allocations are a fixed per-solve set:
    // the state, the stepper's buffers, one controller per layer and the
    // projected output.
    let model = dynsys();
    let x = init::uniform(&[1, 2], -1.0, 1.0, 500);
    let mut counts = Vec::new();
    for (tol, nfe) in [(1e-4, 62), (1e-6, 128)] {
        let opts = NodeSolveOptions::new(tol);
        forward_model_stats(&model, &x, &opts).expect("warm-up solve");
        let (solved, allocs) = allocations(|| forward_model_stats(&model, &x, &opts));
        assert_eq!(solved.expect("solve").1.nfe, nfe, "ε = {tol}");
        counts.push(allocs);
    }
    assert_eq!(
        counts[0], counts[1],
        "allocations grew with NFE: {counts:?}"
    );
    assert!(counts[0] <= 13, "{} allocations (budget 13)", counts[0]);
}

#[test]
fn traced_dynsys_solve_allocates_per_point_not_per_evaluation() {
    // On top of the fixed set, the traced solve clones one checkpoint per
    // accepted point and grows its record vectors.
    let model = dynsys();
    let opts = NodeSolveOptions::new(1e-4);
    let x = init::uniform(&[1, 2], -1.0, 1.0, 500);
    forward_model(&model, &x, &opts).expect("warm-up solve");
    let (solved, allocs) = allocations(|| forward_model(&model, &x, &opts));
    assert_eq!(solved.expect("solve").1.total_stats().nfe, 62);
    assert!(allocs <= 49, "{allocs} allocations (budget 49)");
}

#[test]
fn training_states_are_rewritten_in_place() {
    // The ACA backward keeps one (k_i, caches) pair per stage for a whole
    // layer: a warm `forward_at_into` allocates no tensor, only the
    // GroupNorm moments and its list of spare buffers — less than one
    // state's bytes. Allocating an interval's states (six cached op
    // inputs and the output) afresh makes the allocator trim the heap top
    // and fault it back in every interval.
    let model = NodeModel::image_classifier_normed(4, 2, 2, 10, 2, 7);
    let f = &model.layers()[0];
    let x = init::uniform(&[1, 4, 16, 16], -1.0, 1.0, 3);
    let (mut out, mut caches) = f.forward_at(0.0, &x);
    let ((), bytes) = allocated_bytes(|| f.forward_at_into(0.5, &x, &mut out, &mut caches));
    let state_bytes = (x.len() * std::mem::size_of::<f32>()) as u64;
    assert!(
        bytes < state_bytes,
        "forward_at_into allocated {bytes} bytes (one state is {state_bytes})"
    );
    let (fresh, fresh_caches) = f.forward_at(0.5, &x);
    assert_eq!(out.data(), fresh.data());
    assert_eq!(caches.len(), fresh_caches.len());
}
