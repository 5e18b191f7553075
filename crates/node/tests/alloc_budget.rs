//! Heap-allocation budgets of the small-state NODE hot path.
//!
//! A dynamic-system solve runs a few dozen MACs per function evaluation,
//! so a handful of heap allocations per evaluation would cost more than
//! the arithmetic. A counting global allocator pins the budgets: one
//! evaluation of the Lotka–Volterra-sized `f` allocates only its three
//! owned intermediates (time concat, hidden layer, output), and a whole
//! Standard-class solve stays within five allocations per evaluation.
//!
//! The counter is thread-local because the test harness runs tests on
//! parallel threads; each measurement sees only its own thread.

use enode_node::inference::{forward_model, NodeSolveOptions};
use enode_node::model::NodeModel;
use enode_tensor::{init, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also serves thread teardown, after this
    // thread's counter is gone.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

/// The Lotka–Volterra-sized model the `serve_dynsys` benchmark serves.
fn dynsys() -> NodeModel {
    NodeModel::dynamic_system(2, 16, 2, 7)
}

#[test]
fn dynsys_f_eval_allocates_only_its_owned_intermediates() {
    let model = dynsys();
    let f = &model.layers()[0];
    let h = Tensor::from_vec(vec![0.3, -0.7], &[1, 2]);
    let warm = f.eval(0.0, &h);
    let (y, allocs) = allocations(|| f.eval(0.5, &h));
    assert_eq!(y.shape(), warm.shape());
    assert!(allocs <= 3, "f.eval made {allocs} allocations (budget 3)");
}

#[test]
fn standard_dynsys_solve_stays_within_five_allocations_per_evaluation() {
    let model = dynsys();
    let opts = NodeSolveOptions::new(1e-4);
    let x = init::uniform(&[1, 2], -1.0, 1.0, 500);
    forward_model(&model, &x, &opts).expect("warm-up solve");
    let (solved, allocs) = allocations(|| forward_model(&model, &x, &opts));
    let nfe = solved.expect("solve").1.total_stats().nfe as u64;
    assert!(nfe > 0);
    let per_eval = allocs as f64 / nfe as f64;
    assert!(
        per_eval <= 5.0,
        "{allocs} allocations over {nfe} evaluations = {per_eval:.2} per evaluation (budget 5)"
    );
}
