//! A scoped worker-pool parallel execution layer.
//!
//! The build is fully offline (no rayon), so this module implements the
//! small slice of a data-parallel runtime the workspace needs on plain
//! `std::thread`: a persistent pool of workers, a blocking
//! [`parallel_for`]-style broadcast over index ranges, disjoint-slice
//! variants for writing shared output buffers safely, and a
//! [`parallel_map`] for independent tasks (per-sample NODE solves,
//! independent benches).
//!
//! # Thread count
//!
//! The global pool sizes itself from the `ENODE_THREADS` environment
//! variable when set, otherwise from
//! [`std::thread::available_parallelism`]. [`with_threads`] overrides the
//! pool for the current thread's dynamic extent — the determinism tests
//! and the benchmark harness use it to compare 1/2/4-thread runs inside
//! one process.
//!
//! # Determinism contract
//!
//! Every helper here splits work into *contiguous chunks of a fixed item
//! decomposition*; each item writes disjoint output and performs exactly
//! the arithmetic the serial loop performs, in the same order. Reductions
//! in the kernels built on top (conv weight-grad, GroupNorm parameter
//! grads) combine per-item partials serially in item order — a fixed tree
//! independent of the thread count. Together this makes every parallel
//! result **bit-identical** to the serial result for any pool size,
//! mirroring how the eNODE PE array parallelizes a conv across channels
//! without changing the accumulation order within an output pixel.
//!
//! # Nesting
//!
//! Calls from inside a pool worker run serially on that worker (the pool
//! is not re-entrant); only the outermost parallel region fans out. This
//! keeps `with_threads(1)` a true serial baseline and makes nested
//! kernel parallelism (batched inference over samples, conv inside each
//! sample) deadlock-free by construction.
//!
//! # Sanitizing and auditing
//!
//! Every helper here is instrumented for [`crate::sanitize`]: under the
//! `sanitize` cargo feature, each parallel region registers shadow
//! regions for the buffers it splits and each lane claims its byte range
//! before writing, so overlaps, double-claims, out-of-region writes, and
//! coverage gaps fail fast with lane indices and kernel labels. Two
//! always-available hooks support the schedule-permutation determinism
//! audit: [`with_schedule`] replays every broadcast serially in a
//! permuted lane order, and [`with_grain_override`] substitutes an
//! adversarial grain into every decomposition. Both are thread-local
//! overrides that cost one cell read per parallel *region* (not per
//! item), so the default path is unaffected.

use crate::sanitize;
use crate::synctrace;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A type-erased broadcast job: `call(ctx, worker_index, worker_count)`.
#[derive(Clone, Copy)]
struct Job {
    ctx: *const (),
    call: unsafe fn(*const (), usize, usize),
}

// SAFETY: `ctx` points at a closure that outlives the broadcast (the
// submitting thread blocks until every worker finishes) and the closure
// is `Sync`, so sharing the pointer across worker threads is sound.
unsafe impl Send for Job {}

struct Slot {
    epoch: u64,
    job: Option<Job>,
    pending: usize,
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    slot: Mutex<Slot>,
    work: Condvar,
    done: Condvar,
}

/// Locks ignoring poisoning: panic state is tracked explicitly in
/// [`Slot::panicked`], and a submitter that re-raises a worker panic
/// while holding the submit guard must not wedge later broadcasts.
fn lock_pool<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A persistent pool of `threads - 1` workers; the submitting thread acts
/// as worker 0 of every broadcast.
pub struct ThreadPool {
    shared: Arc<Shared>,
    submit: Mutex<()>,
    threads: usize,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

thread_local! {
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    static OVERRIDE: std::cell::RefCell<Option<Arc<ThreadPool>>> =
        const { std::cell::RefCell::new(None) };
    static SCHEDULE: std::cell::Cell<Option<Schedule>> = const { std::cell::Cell::new(None) };
    static GRAIN: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// A lane execution order for the determinism audit: how a
/// [`with_schedule`] replay permutes the lanes of every broadcast.
///
/// Under the determinism contract (see the module docs) the result of a
/// parallel region must not depend on which lane runs first, so replaying
/// a kernel under any of these orders must be bit-identical to the live
/// pool. The audit harness ([`crate::sanitize::audit`]) uses that to
/// flush out schedule-dependent reductions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Lanes in ascending order (the serial replay of the live pool).
    Forward,
    /// Lanes in descending order.
    Reverse,
    /// Lanes rotated left by `k`: `k, k+1, …, 0, …, k-1`.
    Rotate(usize),
}

impl Schedule {
    /// The lane visit order for a `lanes`-wide broadcast.
    pub fn order(self, lanes: usize) -> Vec<usize> {
        match self {
            Schedule::Forward => (0..lanes).collect(),
            Schedule::Reverse => (0..lanes).rev().collect(),
            Schedule::Rotate(k) => (0..lanes).map(|i| (i + k) % lanes.max(1)).collect(),
        }
    }
}

/// Runs `f` with every broadcast on this thread replayed *serially* in
/// the schedule's lane order instead of fanning out to the pool. The
/// decomposition (chunk count and ranges) is exactly what the live pool
/// would use, so any observable difference is a violation of the
/// determinism contract. The override is thread-local and restored on
/// exit, even on panic.
pub fn with_schedule<R>(schedule: Schedule, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Schedule>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCHEDULE.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SCHEDULE.with(|s| s.replace(Some(schedule))));
    f()
}

/// Runs `f` with every decomposition on this thread using `grain` instead
/// of the kernel's own grain: `1` forces maximal splitting, `usize::MAX`
/// forces a single serial chunk. Audit-only; thread-local and restored on
/// exit, even on panic.
pub fn with_grain_override<R>(grain: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            GRAIN.with(|g| g.set(self.0));
        }
    }
    let _restore = Restore(GRAIN.with(|g| g.replace(Some(grain))));
    f()
}

impl ThreadPool {
    /// Creates a pool that runs broadcasts over `threads` lanes
    /// (`threads - 1` spawned workers plus the caller).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "thread pool needs at least one thread");
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                epoch: 0,
                job: None,
                pending: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(threads.saturating_sub(1));
        for idx in 1..threads {
            let sh = Arc::clone(&shared);
            let total = threads;
            handles.push(
                std::thread::Builder::new()
                    .name(format!("enode-pool-{idx}"))
                    .spawn(move || worker_loop(&sh, idx, total))
                    .expect("failed to spawn pool worker"),
            );
        }
        ThreadPool {
            shared,
            submit: Mutex::new(()),
            threads,
            handles: Mutex::new(handles),
        }
    }

    /// Total broadcast lanes (spawned workers + the submitting thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(lane, lanes)` once per lane, blocking until all lanes
    /// finish. Lane 0 runs on the calling thread. Falls back to a single
    /// serial call when the pool has one lane or when called from inside a
    /// pool worker (the pool is not re-entrant).
    ///
    /// # Panics
    ///
    /// Re-raises a panic if any lane panicked.
    pub fn broadcast<F: Fn(usize, usize) + Sync>(&self, f: &F) {
        if self.threads <= 1 || IN_WORKER.with(|w| w.get()) {
            f(0, 1);
            return;
        }
        if let Some(schedule) = SCHEDULE.with(|s| s.get()) {
            // Audit replay: run every lane serially on this thread in the
            // permuted order. IN_WORKER is set so nested regions degrade
            // to serial exactly as they would on a real pool worker.
            struct Reset<'a>(&'a std::cell::Cell<bool>);
            impl Drop for Reset<'_> {
                fn drop(&mut self) {
                    self.0.set(false);
                }
            }
            IN_WORKER.with(|w| {
                w.set(true);
                let _reset = Reset(w);
                for lane in schedule.order(self.threads) {
                    f(lane, self.threads);
                }
            });
            return;
        }
        let _submit = lock_pool(&self.submit);
        let _t_submit = synctrace::lock_acquired("pool.submit");
        unsafe fn call_closure<F: Fn(usize, usize) + Sync>(
            ctx: *const (),
            lane: usize,
            lanes: usize,
        ) {
            // SAFETY: `ctx` was produced from `&F` below and the broadcast
            // has not completed, so the reference is live.
            let f = unsafe { &*(ctx as *const F) };
            f(lane, lanes);
        }
        {
            let mut slot = lock_pool(&self.shared.slot);
            let _t_slot = synctrace::lock_acquired("pool.slot");
            slot.epoch += 1;
            slot.job = Some(Job {
                ctx: f as *const F as *const (),
                call: call_closure::<F>,
            });
            slot.pending = self.threads - 1;
            slot.panicked = false;
            self.shared.work.notify_all();
        }
        // Whatever happens on lane 0 (including a panic), we must not
        // return before every worker is done with the borrowed closure.
        struct WaitAll<'a>(&'a Shared);
        impl Drop for WaitAll<'_> {
            fn drop(&mut self) {
                let mut slot = lock_pool(&self.0.slot);
                let _t_slot = synctrace::lock_acquired("pool.slot");
                while slot.pending > 0 {
                    slot = self
                        .0
                        .done
                        .wait(slot)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                slot.job = None;
            }
        }
        // Lane 0 counts as a worker while the region runs, so a nested
        // parallel region on the submitting thread degrades to serial
        // instead of re-entering this non-reentrant broadcast.
        struct Lane0<'a>(&'a std::cell::Cell<bool>);
        impl Drop for Lane0<'_> {
            fn drop(&mut self) {
                self.0.set(false);
            }
        }
        let panicked = {
            let _wait = WaitAll(&self.shared);
            IN_WORKER.with(|w| {
                w.set(true);
                let _lane0 = Lane0(w);
                f(0, self.threads);
            });
            // _wait drops here: blocks until workers drain, then we check
            // the panic flag under a fresh lock below.
            drop(_wait);
            let mut slot = lock_pool(&self.shared.slot);
            let _t_slot = synctrace::lock_acquired("pool.slot");
            std::mem::take(&mut slot.panicked)
        };
        if panicked {
            panic!("a pool worker panicked during a parallel region");
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut slot = lock_pool(&self.shared.slot);
            let _t_slot = synctrace::lock_acquired("pool.slot");
            slot.shutdown = true;
            self.shared.work.notify_all();
        }
        let mut handles = lock_pool(&self.handles);
        let _t_handles = synctrace::lock_acquired("pool.handles");
        for h in handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, lane: usize, lanes: usize) {
    IN_WORKER.with(|w| w.set(true));
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut slot = lock_pool(&shared.slot);
            let _t_slot = synctrace::lock_acquired("pool.slot");
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.epoch != seen_epoch {
                    seen_epoch = slot.epoch;
                    break slot.job.expect("job present at new epoch");
                }
                slot = shared
                    .work
                    .wait(slot)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // A panicking job must not kill the worker (later broadcasts would
        // wait forever on a dead lane): catch it, record it for the
        // submitter to re-raise, and always decrement `pending`.
        // SAFETY: the submitter blocks until `pending` hits zero, so the
        // closure behind `ctx` outlives this call.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
            (job.call)(job.ctx, lane, lanes)
        }))
        .is_err();
        let mut slot = lock_pool(&shared.slot);
        let _t_slot = synctrace::lock_acquired("pool.slot");
        if panicked {
            slot.panicked = true;
        }
        slot.pending -= 1;
        if slot.pending == 0 {
            shared.done.notify_all();
        }
    }
}

/// Thread count requested by the environment: `ENODE_THREADS` when set to
/// a positive integer, else [`std::thread::available_parallelism`].
pub fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        if let Ok(v) = std::env::var("ENODE_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

fn pool_with(threads: usize) -> Arc<ThreadPool> {
    static REGISTRY: OnceLock<Mutex<HashMap<usize, Arc<ThreadPool>>>> = OnceLock::new();
    let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = lock_pool(registry);
    Arc::clone(
        map.entry(threads)
            .or_insert_with(|| Arc::new(ThreadPool::new(threads))),
    )
}

/// The pool governing parallel regions on this thread: the
/// [`with_threads`] override when inside one, else the global
/// [`default_threads`]-sized pool.
pub fn current_pool() -> Arc<ThreadPool> {
    if let Some(p) = OVERRIDE.with(|o| o.borrow().clone()) {
        return p;
    }
    pool_with(default_threads())
}

/// Lane count of [`current_pool`] (1 inside a pool worker, where nested
/// regions run serially).
///
/// Every split planner asks this before deciding whether to fan out, so it
/// answers from the [`with_threads`] override or [`default_threads`]
/// without touching the pool registry: no lock, no `Arc` clone, and no
/// pool is built. The global pool is still built by the first region
/// that actually fans out.
pub fn current_threads() -> usize {
    if IN_WORKER.with(|w| w.get()) {
        return 1;
    }
    OVERRIDE
        .with(|o| o.borrow().as_ref().map(|p| p.threads()))
        .unwrap_or_else(default_threads)
}

/// Runs `f` with every parallel region on this thread using a
/// `threads`-lane pool (pools are cached and reused across calls). The
/// override is thread-local and restored on exit, even on panic.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let pool = pool_with(threads);
    struct Restore(Option<Arc<ThreadPool>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| *o.borrow_mut() = self.0.take());
        }
    }
    let prev = OVERRIDE.with(|o| o.borrow_mut().replace(pool));
    let _restore = Restore(prev);
    f()
}

/// Balanced contiguous chunk `i` of `0..n` split `ways` ways: sizes differ
/// by at most one, earlier chunks take the remainder. The one chunk law:
/// every broadcast here hands lane `i` this range (so the
/// `parallel_for_disjoint*` lanes write disjoint subslices that cover the
/// buffer), and the serving cost model (`enode_serve::CostModel`) prices
/// a batch's lanes with it.
///
/// # Panics
///
/// Panics unless `i < ways`.
pub fn chunk(n: usize, ways: usize, i: usize) -> Range<usize> {
    assert!(i < ways, "chunk {i} of {ways} ways");
    let base = n / ways;
    let rem = n % ways;
    let start = i * base + i.min(rem);
    let end = start + base + usize::from(i < rem);
    start..end
}

/// Number of chunks a `lanes`-wide pool splits `n` items into, given a
/// minimum grain per chunk: at least one, at most one per lane. The
/// runtime applies it at the current pool width (with a live
/// [`with_grain_override`] replacing `grain`); the split lints
/// (`analysis::parallelcheck`) at a modeled pool width.
pub fn plan_chunks(lanes: usize, n: usize, grain: usize) -> usize {
    lanes.min(n / grain.max(1)).max(1)
}

/// [`parallel_for`] with the executing lane index exposed — the internal
/// backbone that lets the disjoint helpers attribute shadow-memory claims
/// to the lane that makes them. The index decomposition itself is claimed
/// against an `"indices"` shadow region, so a chunking bug that visited
/// an index twice (or never) fails fast under the `sanitize` feature.
fn parallel_for_lanes<F: Fn(Range<usize>, usize) + Sync>(n: usize, grain: usize, f: F) {
    if n == 0 {
        return;
    }
    let shadow = sanitize::region_enter("indices", n);
    let grain = GRAIN.with(|g| g.get()).unwrap_or(grain);
    let ways = plan_chunks(current_threads(), n, grain);
    if ways <= 1 {
        sanitize::claim(&shadow, 0, 0..n);
        f(0..n, 0);
        return;
    }
    current_pool().broadcast(&|lane, lanes| {
        let ways = ways.min(lanes);
        if lane < ways {
            let r = chunk(n, ways, lane);
            if !r.is_empty() {
                sanitize::claim(&shadow, lane, r.clone());
                f(r, lane);
            }
        }
    });
}

/// Runs `f` over contiguous subranges of `0..n` covering every index
/// exactly once, in parallel across the current pool. `grain` is the
/// minimum number of items that justifies a chunk — pass the approximate
/// item count below which threading overhead dominates.
///
/// `f` must only perform disjoint work per index (use the
/// `parallel_for_disjoint*` variants to write shared buffers).
pub fn parallel_for<F: Fn(Range<usize>) + Sync>(n: usize, grain: usize, f: F) {
    parallel_for_lanes(n, grain, |r, _lane| f(r));
}

/// Minimum scalar work one chunk should carry: below ~16k operations per
/// chunk, dispatch overhead dominates.
pub const MIN_CHUNK_FLOPS: usize = 16 * 1024;

/// Suggested `grain` for items that each perform roughly `flops_per_item`
/// scalar operations: enough items per chunk that a chunk carries at least
/// [`MIN_CHUNK_FLOPS`].
pub fn grain_for(flops_per_item: usize) -> usize {
    MIN_CHUNK_FLOPS.div_ceil(flops_per_item.max(1))
}

/// Minimum *total* scalar work that justifies fanning a kernel out at all.
///
/// Derived from the `analysis::cost` roofline constants (`enode_tensor`
/// cannot depend on `enode-analysis`, so a test in `analysis::cost` pins
/// this value to `32 × dispatch_overhead_s × peak_flops_per_lane`): one
/// dispatch costs 5 µs and a lane retires 2 Gflop/s, so a broadcast burns
/// ~10k flops of latency per dispatch before any lane does useful work.
/// Requiring 32 dispatch-equivalents of total work keeps the worst-case
/// overhead share near 3% — below that, the measured baselines on this
/// host (GroupNorm 0.61×, dense 0.86× under 4 threads) show fan-out
/// losing outright, so the planner runs serial instead.
pub const SERIAL_FLOOR_FLOPS: usize = 32 * 5 * 2_000;

/// Work-size-aware variant of [`grain_for`]: when the kernel's *total*
/// work (`items × flops_per_item`) is below [`SERIAL_FLOOR_FLOPS`], the
/// returned grain is `usize::MAX`, which `plan_chunks` resolves to a
/// single serial chunk — the automatic serial fallback for tiny kernels.
/// Above the floor it is exactly `grain_for(flops_per_item)`.
///
/// The static side of this policy is `analysis::parallelcheck`'s
/// W044 lint, which reports registered splits whose shipped shapes engage
/// the floor (so the serial path is documented, not silent).
pub fn grain_for_sized(items: usize, flops_per_item: usize) -> usize {
    if items.saturating_mul(flops_per_item) < SERIAL_FLOOR_FLOPS {
        usize::MAX
    } else {
        grain_for(flops_per_item)
    }
}

/// A raw pointer that asserts cross-thread shareability for disjoint
/// writes.
struct SendPtr<T>(*mut T);
// SAFETY: only used by the disjoint helpers below, which hand each lane a
// non-overlapping subslice.
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than a field read) so closures capture the whole
    /// `Sync` wrapper, not the raw pointer inside it.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Shared preflight for every disjoint-split variant: the grain must be
/// positive and each buffer must split into a whole stride per item. The
/// assert names the offending buffer (`data`, or `a`/`b`/`c` for the
/// multi-buffer variants) so the report points at the actual argument.
fn validate_disjoint(bufs: &[(usize, &str)], items: usize, grain: usize) {
    assert!(
        grain > 0,
        "disjoint split needs a positive grain (got 0 for {items} items)"
    );
    if items == 0 {
        return;
    }
    for &(len, name) in bufs {
        assert!(
            len.is_multiple_of(items),
            "disjoint split: buffer `{name}` (len {len}) is not a whole \
             number of strides for {items} items"
        );
    }
}

/// Splits `data` into `items` equal strides and runs
/// `f(item_range, chunk_slice)` over contiguous item chunks in parallel;
/// `chunk_slice` is exactly `data[range.start * s .. range.end * s]` with
/// `s = data.len() / items`.
///
/// # Panics
///
/// Panics if `grain` is zero or `items` does not evenly divide
/// `data.len()`.
pub fn parallel_for_disjoint<T: Send, F>(data: &mut [T], items: usize, grain: usize, f: F)
where
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    validate_disjoint(&[(data.len(), "data")], items, grain);
    if items == 0 {
        return;
    }
    let stride = data.len() / items;
    let bytes = std::mem::size_of::<T>();
    let ptr = SendPtr(data.as_mut_ptr());
    let shadow = sanitize::region_enter("data", std::mem::size_of_val(data));
    parallel_for_lanes(items, grain, |r, lane| {
        sanitize::claim(
            &shadow,
            lane,
            r.start * stride * bytes..r.end * stride * bytes,
        );
        // SAFETY: chunks over `0..items` are disjoint, so the derived
        // subslices never overlap across lanes; `ptr` outlives the region
        // because the caller's `&mut data` borrow does.
        let slice = unsafe {
            std::slice::from_raw_parts_mut(ptr.get().add(r.start * stride), r.len() * stride)
        };
        f(r, slice);
    });
}

/// Two-buffer variant of [`parallel_for_disjoint`]: each item owns stride
/// `a.len() / items` of `a` and `b.len() / items` of `b`.
///
/// # Panics
///
/// Panics if `grain` is zero or `items` does not evenly divide both
/// lengths.
pub fn parallel_for_disjoint2<A: Send, B: Send, F>(
    a: &mut [A],
    b: &mut [B],
    items: usize,
    grain: usize,
    f: F,
) where
    F: Fn(Range<usize>, &mut [A], &mut [B]) + Sync,
{
    validate_disjoint(&[(a.len(), "a"), (b.len(), "b")], items, grain);
    if items == 0 {
        return;
    }
    let (sa, sb) = (a.len() / items, b.len() / items);
    let (ba, bb) = (std::mem::size_of::<A>(), std::mem::size_of::<B>());
    let (pa, pb) = (SendPtr(a.as_mut_ptr()), SendPtr(b.as_mut_ptr()));
    let shadow_a = sanitize::region_enter("a", std::mem::size_of_val(a));
    let shadow_b = sanitize::region_enter("b", std::mem::size_of_val(b));
    parallel_for_lanes(items, grain, |r, lane| {
        sanitize::claim(&shadow_a, lane, r.start * sa * ba..r.end * sa * ba);
        sanitize::claim(&shadow_b, lane, r.start * sb * bb..r.end * sb * bb);
        // SAFETY: as in `parallel_for_disjoint`, per-lane item ranges are
        // disjoint and both borrows outlive the region.
        let (sl_a, sl_b) = unsafe {
            (
                std::slice::from_raw_parts_mut(pa.get().add(r.start * sa), r.len() * sa),
                std::slice::from_raw_parts_mut(pb.get().add(r.start * sb), r.len() * sb),
            )
        };
        f(r, sl_a, sl_b);
    });
}

/// Three-buffer variant of [`parallel_for_disjoint`].
///
/// # Panics
///
/// Panics if `grain` is zero or `items` does not evenly divide all three
/// lengths.
pub fn parallel_for_disjoint3<A: Send, B: Send, C: Send, F>(
    a: &mut [A],
    b: &mut [B],
    c: &mut [C],
    items: usize,
    grain: usize,
    f: F,
) where
    F: Fn(Range<usize>, &mut [A], &mut [B], &mut [C]) + Sync,
{
    validate_disjoint(
        &[(a.len(), "a"), (b.len(), "b"), (c.len(), "c")],
        items,
        grain,
    );
    if items == 0 {
        return;
    }
    let (sa, sb, sc) = (a.len() / items, b.len() / items, c.len() / items);
    let (ba, bb, bc) = (
        std::mem::size_of::<A>(),
        std::mem::size_of::<B>(),
        std::mem::size_of::<C>(),
    );
    let (pa, pb, pc) = (
        SendPtr(a.as_mut_ptr()),
        SendPtr(b.as_mut_ptr()),
        SendPtr(c.as_mut_ptr()),
    );
    let shadow_a = sanitize::region_enter("a", std::mem::size_of_val(a));
    let shadow_b = sanitize::region_enter("b", std::mem::size_of_val(b));
    let shadow_c = sanitize::region_enter("c", std::mem::size_of_val(c));
    parallel_for_lanes(items, grain, |r, lane| {
        sanitize::claim(&shadow_a, lane, r.start * sa * ba..r.end * sa * ba);
        sanitize::claim(&shadow_b, lane, r.start * sb * bb..r.end * sb * bb);
        sanitize::claim(&shadow_c, lane, r.start * sc * bc..r.end * sc * bc);
        // SAFETY: as in `parallel_for_disjoint`.
        let (sl_a, sl_b, sl_c) = unsafe {
            (
                std::slice::from_raw_parts_mut(pa.get().add(r.start * sa), r.len() * sa),
                std::slice::from_raw_parts_mut(pb.get().add(r.start * sb), r.len() * sb),
                std::slice::from_raw_parts_mut(pc.get().add(r.start * sc), r.len() * sc),
            )
        };
        f(r, sl_a, sl_b, sl_c);
    });
}

/// Maps `f` over `items` in parallel, returning results in input order.
/// Each item is one unit of work (grain 1): use for coarse independent
/// tasks such as per-sample NODE solves or whole benches.
pub fn parallel_map<T: Sync, R: Send, F: Fn(&T) -> R + Sync>(items: &[T], f: F) -> Vec<R> {
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    parallel_for_disjoint(&mut out, items.len(), 1, |range, slots| {
        for (slot, idx) in slots.iter_mut().zip(range) {
            *slot = Some(f(&items[idx]));
        }
    });
    out.into_iter()
        .map(|r| r.expect("every map slot filled"))
        .collect()
}

/// Runs two closures, in parallel when the pool has idle lanes, and
/// returns both results.
pub fn join<RA: Send, RB: Send>(
    a: impl FnOnce() -> RA + Send,
    b: impl FnOnce() -> RB + Send,
) -> (RA, RB) {
    if current_threads() <= 1 {
        return (a(), b());
    }
    let mut ra = None;
    let mut rb = None;
    {
        let (ma, mb) = (
            Mutex::new((&mut ra, Some(a))),
            Mutex::new((&mut rb, Some(b))),
        );
        current_pool().broadcast(&|lane, _| match lane {
            0 => {
                let mut g = ma.lock().unwrap();
                let f = g.1.take().expect("lane 0 runs once");
                *g.0 = Some(f());
            }
            1 => {
                let mut g = mb.lock().unwrap();
                let f = g.1.take().expect("lane 1 runs once");
                *g.0 = Some(f());
            }
            _ => {}
        });
    }
    (
        ra.expect("join closure a ran"),
        rb.expect("join closure b ran"),
    )
}

/// Borrows a reusable per-thread `f32` scratch buffer of exactly `len`
/// elements. Buffers come from the thread-local bump arena
/// ([`crate::arena`]), so repeated kernel calls (e.g. a conv's padded
/// plane inside a solver loop) stop churning the allocator; nested
/// checkouts on one thread get distinct buffers.
///
/// The buffer's contents are unspecified on entry — callers must fully
/// overwrite what they read.
pub fn with_scratch_f32<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    crate::arena::with_arena_f32(len, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn chunks_cover_and_balance() {
        for n in 0..40usize {
            for ways in 1..12usize {
                let mut next = 0;
                for i in 0..ways {
                    let r = chunk(n, ways, i);
                    // Contiguous and in lane order, sizes within one.
                    assert_eq!(r.start, next, "n={n} ways={ways} i={i}");
                    assert!(r.len() == n / ways || r.len() == n / ways + 1);
                    next = r.end;
                }
                assert_eq!(next, n, "chunks must cover 0..{n}");
            }
        }
    }

    #[test]
    fn parallel_for_touches_every_index_once() {
        for threads in [1usize, 2, 4] {
            with_threads(threads, || {
                let counters: Vec<AtomicUsize> = (0..37).map(|_| AtomicUsize::new(0)).collect();
                parallel_for(37, 1, |r| {
                    for i in r {
                        counters[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
            });
        }
    }

    #[test]
    fn disjoint_write_matches_serial() {
        let serial: Vec<f32> = (0..24).map(|i| (i * i) as f32).collect();
        for threads in [1usize, 2, 4] {
            let mut out = vec![0.0f32; 24];
            with_threads(threads, || {
                parallel_for_disjoint(&mut out, 8, 1, |range, slab| {
                    for (k, item) in range.enumerate() {
                        for j in 0..3 {
                            let i = item * 3 + j;
                            slab[k * 3 + j] = (i * i) as f32;
                        }
                    }
                });
            });
            assert_eq!(out, serial, "threads={threads}");
        }
    }

    #[test]
    fn map_preserves_order() {
        let items: Vec<usize> = (0..19).collect();
        for threads in [1usize, 3] {
            let out = with_threads(threads, || parallel_map(&items, |&i| i * 2 + 1));
            assert_eq!(out, (0..19).map(|i| i * 2 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn join_returns_both() {
        for threads in [1usize, 2] {
            let (a, b) = with_threads(threads, || join(|| 6 * 7, || "ok"));
            assert_eq!((a, b), (42, "ok"));
        }
    }

    #[test]
    fn nested_regions_run_serially_without_deadlock() {
        with_threads(4, || {
            let counters: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
            parallel_for(8, 1, |outer| {
                for i in outer {
                    // Nested region: must degrade to serial on this lane.
                    parallel_for(4, 1, |inner| {
                        counters[i].fetch_add(inner.len(), Ordering::Relaxed);
                    });
                }
            });
            assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 4));
        });
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let result = std::panic::catch_unwind(|| {
            with_threads(2, || {
                parallel_for(2, 1, |r| {
                    if r.contains(&1) {
                        panic!("boom");
                    }
                });
            });
        });
        assert!(result.is_err(), "panic must propagate to the submitter");
        // The pool must still be usable afterwards.
        with_threads(2, || {
            let hits = AtomicUsize::new(0);
            parallel_for(4, 1, |r| {
                hits.fetch_add(r.len(), Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 4);
        });
    }

    #[test]
    fn disjoint2_panicking_lane_does_not_poison_the_pool() {
        let mut a = vec![0.0f32; 12];
        let mut b = vec![0u32; 6];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_threads(4, || {
                parallel_for_disjoint2(&mut a, &mut b, 6, 1, |r, _, _| {
                    if r.contains(&4) {
                        panic!("boom2");
                    }
                });
            });
        }));
        assert!(result.is_err(), "panic must propagate to the submitter");
        with_threads(4, || {
            parallel_for_disjoint2(&mut a, &mut b, 6, 1, |r, sa, sb| {
                sa.fill(r.start as f32);
                sb.fill(r.start as u32);
            });
        });
        assert_eq!(b[5], 5);
    }

    #[test]
    fn disjoint3_panicking_lane_does_not_poison_the_pool() {
        let mut a = vec![0.0f32; 8];
        let mut b = vec![0.0f32; 4];
        let mut c = vec![0u8; 12];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_threads(4, || {
                parallel_for_disjoint3(&mut a, &mut b, &mut c, 4, 1, |r, _, _, _| {
                    if r.contains(&2) {
                        panic!("boom3");
                    }
                });
            });
        }));
        assert!(result.is_err(), "panic must propagate to the submitter");
        with_threads(4, || {
            parallel_for_disjoint3(&mut a, &mut b, &mut c, 4, 1, |r, _, sb, _| {
                sb.fill(1.0 + r.start as f32);
            });
        });
        assert_eq!(b, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "buffer `b` (len 7) is not a whole number of strides")]
    fn disjoint2_names_the_offending_buffer() {
        let mut a = vec![0.0f32; 8];
        let mut b = vec![0.0f32; 7];
        parallel_for_disjoint2(&mut a, &mut b, 4, 1, |_, _, _| {});
    }

    #[test]
    #[should_panic(expected = "buffer `c` (len 5) is not a whole number of strides")]
    fn disjoint3_names_the_offending_buffer() {
        let mut a = vec![0.0f32; 8];
        let mut b = vec![0.0f32; 4];
        let mut c = vec![0.0f32; 5];
        parallel_for_disjoint3(&mut a, &mut b, &mut c, 4, 1, |_, _, _, _| {});
    }

    #[test]
    fn dropped_pool_joins_every_worker() {
        // Dropping a pool joins its workers rather than detaching them:
        // once `drop` returns, no worker still holds the shared slot.
        for _ in 0..20 {
            let pool = ThreadPool::new(3);
            pool.broadcast(&|_, _| {});
            let shared = Arc::downgrade(&pool.shared);
            drop(pool);
            assert_eq!(
                shared.strong_count(),
                0,
                "a dropped pool left a worker running"
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive grain")]
    fn disjoint_rejects_zero_grain() {
        let mut a = vec![0.0f32; 8];
        parallel_for_disjoint(&mut a, 4, 0, |_, _| {});
    }

    #[test]
    fn schedule_replay_covers_every_index_in_permuted_order() {
        with_threads(4, || {
            for schedule in [Schedule::Forward, Schedule::Reverse, Schedule::Rotate(2)] {
                with_schedule(schedule, || {
                    let hits: Vec<AtomicUsize> = (0..11).map(|_| AtomicUsize::new(0)).collect();
                    parallel_for(11, 1, |r| {
                        for i in r {
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        }
                    });
                    assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
                });
            }
        });
    }

    #[test]
    fn grain_override_forces_the_requested_chunking() {
        with_threads(4, || {
            // usize::MAX forces one serial chunk even for large n.
            with_grain_override(usize::MAX, || {
                let regions = AtomicUsize::new(0);
                parallel_for(100, 1, |_r| {
                    regions.fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(regions.load(Ordering::Relaxed), 1);
            });
            // grain 1 allows the full pool width.
            with_grain_override(1, || {
                let regions = AtomicUsize::new(0);
                parallel_for(100, usize::MAX, |_r| {
                    regions.fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(regions.load(Ordering::Relaxed), 4);
            });
        });
    }

    #[test]
    fn sized_grain_floors_tiny_kernels_to_serial() {
        // Below the floor: one serial chunk regardless of pool width.
        assert_eq!(grain_for_sized(10, 100), usize::MAX);
        assert_eq!(plan_chunks(4, 10, grain_for_sized(10, 100)), 1);
        // At/above the floor: identical to the plain grain policy.
        let per_item = SERIAL_FLOOR_FLOPS / 8;
        assert_eq!(grain_for_sized(8, per_item), grain_for(per_item));
        assert_eq!(grain_for_sized(usize::MAX, 2), grain_for(2));
    }

    #[test]
    fn scratch_reuses_and_nests() {
        with_scratch_f32(16, |a| {
            a.fill(1.0);
            with_scratch_f32(8, |b| {
                b.fill(2.0);
                assert_eq!(a.len(), 16);
                assert_eq!(b.len(), 8);
            });
            assert!(a.iter().all(|&v| v == 1.0));
        });
        // Second checkout reuses a pooled buffer (no way to observe the
        // allocation directly; this exercises the resize path).
        with_scratch_f32(32, |a| assert_eq!(a.len(), 32));
    }

    #[test]
    fn current_threads_agrees_with_current_pool() {
        assert_eq!(current_threads(), current_pool().threads());
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            assert_eq!(current_threads(), current_pool().threads());
            // Inside a lane (the submitter's lane 0 included) nested
            // regions run serially.
            let lanes = Mutex::new(Vec::new());
            current_pool().broadcast(&|_, _| lanes.lock().unwrap().push(current_threads()));
            assert_eq!(*lanes.lock().unwrap(), vec![1; 3]);
        });
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = current_threads();
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(2, || assert_eq!(current_threads(), 2));
            assert_eq!(current_threads(), 3);
        });
        assert_eq!(current_threads(), outer);
    }
}
