//! The serving runtime: bounded ingress queue, dynamic batcher,
//! deadline-aware degradation, and worker threads.
//!
//! # Lifecycle of a request
//!
//! 1. **Admission** — [`Server::submit`] either enqueues the request and
//!    returns a [`Ticket`], or refuses it with
//!    [`Rejected::QueueFull`] / [`Rejected::ShuttingDown`]. The queue is
//!    strictly bounded; backpressure is the caller's problem, explicitly.
//! 2. **Shedding** — every batch-formation attempt first sheds requests
//!    whose deadline has already passed ([`Rejected::DeadlineExpired`]).
//!    A shed request never reaches the solver.
//! 3. **Batching** — the batcher anchors on the head request (highest
//!    priority, earliest arrival), picks its degradation tier from the
//!    remaining deadline slack, and coalesces queued requests with the
//!    same `(tolerance class, tier)` key up to `max_batch`. An underfull
//!    batch dispatches once the head has waited `batch_window_us`.
//! 4. **Dispatch** — the batch runs through
//!    [`enode_node::eval::forward_model_batched_with`] under the tier's
//!    [`SolveOverride`](enode_node::inference::SolveOverride). Per-sample solves are independent, so a
//!    response's bits depend only on `(input, class, tier)` — never on
//!    who shared the batch. That is the determinism contract the batcher
//!    tests pin down. Failure is per sample too: a sample whose solve
//!    fails resolves alone as [`Rejected::SolveFailed`], and the rest of
//!    its batch is delivered.
//! 5. **Delivery** — each ticket resolves exactly once; metrics record
//!    the outcome (`completed`/`degraded`/`shed`/`failed`/`cancelled`
//!    reconcile exactly with `submitted`).
//!
//! # Two execution modes
//!
//! With `config.workers > 0` the server spawns worker threads that pull
//! batches (the deployment mode; wall or virtual clock). With
//! `config.workers == 0` nothing runs until the owner pumps batches via
//! [`Server::form_batch`] / [`Server::solve_batch`] /
//! [`Server::deliver_batch`] — the discrete-event simulation mode the
//! load generator uses to produce bit-reproducible latency numbers.

use crate::clock::Clock;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::policies::ServeConfig;
use crate::request::{Priority, Rejected, Request, Response, Ticket, TicketInner, ToleranceClass};
use enode_node::eval::forward_model_batched_with;
use enode_node::inference::{NodeError, NodeSolveOptions};
use enode_node::model::NodeModel;
use enode_tensor::synctrace;
use enode_tensor::Tensor;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// An admitted request waiting in the ingress queue.
struct Pending {
    input: Tensor,
    deadline_us: u64,
    class: ToleranceClass,
    priority: Priority,
    submitted_us: u64,
    ticket: Arc<TicketInner>,
}

struct QueueState {
    queue: VecDeque<Pending>,
    /// Batches formed but not yet delivered.
    in_flight: usize,
    /// `drain()` is waiting: dispatch underfull batches immediately.
    draining: bool,
    /// `shutdown()` ran: no admissions, workers exit when idle.
    closed: bool,
}

struct Core {
    model: NodeModel,
    base_opts: NodeSolveOptions,
    config: ServeConfig,
    clock: Clock,
    metrics: Metrics,
    state: Mutex<QueueState>,
    /// Wakes workers: new work, drain, shutdown.
    work_cv: Condvar,
    /// Wakes `drain()`: queue emptied or a batch delivered.
    idle_cv: Condvar,
    /// Test failpoint: the next `deliver` panics after taking ownership
    /// of the batch, exercising the panic-safe delivery guard.
    #[cfg(test)]
    deliver_panic_once: std::sync::atomic::AtomicBool,
}

/// A batch the batcher formed but has not yet solved. In pump mode the
/// owner holds this across a simulated queueing delay.
pub struct PreparedBatch {
    entries: Vec<Pending>,
    class: ToleranceClass,
    tier: usize,
}

impl PreparedBatch {
    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the batch is empty (never produced by the batcher).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The degradation tier the batch will be served at.
    pub fn tier(&self) -> usize {
        self.tier
    }

    /// The tolerance class shared by every request in the batch.
    pub fn class(&self) -> ToleranceClass {
        self.class
    }
}

/// A solved batch awaiting delivery. Exposes the solver-effort numbers
/// the load generator's cost model converts into simulated service time.
pub struct SolvedBatch {
    entries: Vec<Pending>,
    tier: usize,
    /// Each entry's output row or its own solver failure, in batch order;
    /// `Err` when the solve panicked and every ticket gets the failure.
    outcome: Result<Vec<Result<Tensor, NodeError>>, Rejected>,
    /// NFE of each successful sample, in batch order.
    nfe: Vec<u64>,
}

impl SolvedBatch {
    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the batch is empty (never produced by the batcher).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The tier the batch was served at.
    pub fn tier(&self) -> usize {
        self.tier
    }

    /// Function evaluations of each successfully solved sample, in batch
    /// order — one per request when the whole batch succeeded, none when
    /// the solve panicked. Deterministic for a given
    /// `(input, class, tier)`.
    ///
    /// A sample whose solve failed has no entry: the list is shorter than
    /// the batch and no longer lines up with batch positions, and the
    /// evaluations the failed solve spent before it failed (up to a whole
    /// trial budget on a stepsize underflow) are not counted anywhere. A
    /// consumer that prices the list, such as
    /// [`crate::hwcost::CostModel::service_us`], charges a partly failed
    /// batch as a smaller batch of its successes.
    pub fn per_sample_nfe(&self) -> &[u64] {
        &self.nfe
    }
}

/// The deadline-aware batching inference server.
pub struct Server {
    core: Arc<Core>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Builds a server for `model` and spawns `config.workers` worker
    /// threads (zero means pump mode — see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`ServeConfig::validate`].
    pub fn new(
        model: NodeModel,
        base_opts: NodeSolveOptions,
        config: ServeConfig,
        clock: Clock,
    ) -> Self {
        config.validate();
        let worker_count = config.workers;
        let core = Arc::new(Core {
            model,
            base_opts,
            config,
            clock,
            metrics: Metrics::new(),
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                in_flight: 0,
                draining: false,
                closed: false,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            #[cfg(test)]
            deliver_panic_once: std::sync::atomic::AtomicBool::new(false),
        });
        let workers = (0..worker_count)
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("enode-serve-{i}"))
                    .spawn(move || worker_loop(&core))
                    .expect("spawn serve worker")
            })
            .collect();
        Server { core, workers }
    }

    /// The server's clock (clone it to drive virtual time from a test).
    pub fn clock(&self) -> &Clock {
        &self.core.clock
    }

    /// The policy the server runs.
    pub fn config(&self) -> &ServeConfig {
        &self.core.config
    }

    /// Live metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    /// Plain-data metrics snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.core.metrics.snapshot()
    }

    /// Requests currently queued (not yet batched).
    pub fn queue_len(&self) -> usize {
        let st = lock_state(&self.core.state);
        let _t = synctrace::lock_acquired("server.state");
        st.queue.len()
    }

    /// Submits a request.
    ///
    /// # Errors
    ///
    /// [`Rejected::QueueFull`] when admission control refuses the
    /// request, [`Rejected::ShuttingDown`] after [`Server::shutdown`].
    pub fn submit(&self, request: Request) -> Result<Ticket, Rejected> {
        let core = &self.core;
        let mut st = lock_state(&core.state);
        let _t = synctrace::lock_acquired("server.state");
        if st.closed {
            return Err(Rejected::ShuttingDown);
        }
        if st.queue.len() >= core.config.queue_capacity {
            // Relaxed: a door-reject participates in no cross-counter
            // invariant (it is excluded from `submitted`).
            core.metrics
                .counters
                .rejected_full
                .fetch_add(1, Ordering::Relaxed);
            return Err(Rejected::QueueFull {
                capacity: core.config.queue_capacity,
            });
        }
        let inner = TicketInner::new();
        st.queue.push_back(Pending {
            input: request.input,
            deadline_us: request.deadline_us,
            class: request.tolerance_class,
            priority: request.priority,
            submitted_us: core.clock.now_us(),
            ticket: Arc::clone(&inner),
        });
        // Relaxed: the state mutex already orders this increment before
        // any dispatch of the same request, which is what the snapshot
        // inequality needs (the resolution side carries the Release).
        core.metrics
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        core.work_cv.notify_one();
        Ok(Ticket { inner })
    }

    /// Blocks until every admitted request has been resolved, forcing
    /// underfull batches to dispatch immediately (window bypassed). This
    /// is how virtual-clock tests terminate without time ever advancing.
    ///
    /// # Panics
    ///
    /// Panics in pump mode (`workers == 0`) — there is nobody to wait
    /// for; pump with [`Server::form_batch`] instead.
    pub fn drain(&self) {
        let core = &self.core;
        let mut st = lock_state(&core.state);
        let _t = synctrace::lock_acquired("server.state");
        if st.closed {
            // After shutdown the queue is already swept, in-flight work
            // was delivered before the join loop returned, and the
            // workers (the only idle_cv notifiers) are gone — waiting
            // here would hang forever.
            return;
        }
        assert!(
            !self.workers.is_empty(),
            "drain() needs worker threads; in pump mode call form_batch in a loop"
        );
        st.draining = true;
        core.work_cv.notify_all();
        while !(st.queue.is_empty() && st.in_flight == 0) {
            st = core
                .idle_cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        st.draining = false;
    }

    /// Stops admissions, sweeps the queue (each swept ticket resolves to
    /// [`Rejected::ShuttingDown`] and counts as `cancelled`), and joins
    /// the workers. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        let core = &self.core;
        {
            let mut st = lock_state(&core.state);
            let _t = synctrace::lock_acquired("server.state");
            if !st.closed {
                st.closed = true;
                let swept: Vec<Pending> = st.queue.drain(..).collect();
                // Release: a swept request's resolution must publish its
                // earlier admission to the snapshot inequality.
                core.metrics
                    .counters
                    .cancelled
                    .fetch_add(swept.len() as u64, Ordering::Release);
                for p in swept {
                    p.ticket.fill(Err(Rejected::ShuttingDown));
                }
            }
            core.work_cv.notify_all();
            core.idle_cv.notify_all();
        }
        // Join outside the state lock: a worker finishing its in-flight
        // batch must be able to take the lock to deliver, and `let _ =`
        // absorbs a panicked worker's Err so one poisoned thread cannot
        // wedge the remaining joins.
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    // ---- pump mode (discrete-event simulation) -------------------------

    /// Sheds expired requests, then forms a batch if one is ready (full,
    /// window expired at the current clock, or `force`). Returns `None`
    /// when nothing is dispatchable yet.
    pub fn form_batch(&self, force: bool) -> Option<PreparedBatch> {
        let mut st = lock_state(&self.core.state);
        let _t = synctrace::lock_acquired("server.state");
        self.core.try_form(&mut st, force)
    }

    /// Runs the solver on a formed batch (any thread; the caller controls
    /// when, so a simulation can charge queueing delay first).
    pub fn solve_batch(&self, batch: PreparedBatch) -> SolvedBatch {
        self.core.solve(batch)
    }

    /// Delivers a solved batch at the current clock time: resolves every
    /// ticket and records latency/outcome metrics.
    pub fn deliver_batch(&self, solved: SolvedBatch) {
        self.core.deliver(solved);
    }

    /// The earliest `submitted + batch_window` over queued requests —
    /// the next moment the batcher would dispatch an underfull batch.
    /// `None` when the queue is empty.
    pub fn next_window_expiry_us(&self) -> Option<u64> {
        let st = lock_state(&self.core.state);
        let _t = synctrace::lock_acquired("server.state");
        st.queue
            .iter()
            .map(|p| p.submitted_us + self.core.config.batch_window_us)
            .min()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn lock_state(state: &Mutex<QueueState>) -> MutexGuard<'_, QueueState> {
    state
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Core {
    /// Sheds every queued request whose deadline has passed. Runs under
    /// the state lock at each formation attempt, so no expired request is
    /// ever dispatched.
    fn shed_expired(&self, st: &mut QueueState) {
        let now = self.clock.now_us();
        let queued = st.queue.len();
        let mut kept = VecDeque::with_capacity(st.queue.len());
        for p in st.queue.drain(..) {
            if now >= p.deadline_us {
                // Release: a shed resolution must publish the request's
                // earlier admission to the snapshot inequality.
                self.metrics.counters.shed.fetch_add(1, Ordering::Release);
                p.ticket.fill(Err(Rejected::DeadlineExpired {
                    deadline_us: p.deadline_us,
                    now_us: now,
                }));
            } else {
                kept.push_back(p);
            }
        }
        st.queue = kept;
        // A shed that empties the queue can leave the server idle with
        // nothing in flight, which `drain` waits for; every other path
        // that empties it (delivery, shutdown) notifies on its own.
        if queued > 0 && st.queue.is_empty() {
            self.idle_cv.notify_all();
        }
    }

    /// The queue position the batcher anchors on: highest priority first,
    /// earliest arrival within a priority.
    fn head_index(queue: &VecDeque<Pending>) -> Option<usize> {
        queue
            .iter()
            .position(|p| p.priority == Priority::High)
            .or(if queue.is_empty() { None } else { Some(0) })
    }

    /// Sheds, then forms one batch if dispatchable. Increments
    /// `in_flight` on success.
    fn try_form(&self, st: &mut QueueState, force: bool) -> Option<PreparedBatch> {
        self.shed_expired(st);
        let head = Self::head_index(&st.queue)?;
        let now = self.clock.now_us();
        let head_req = &st.queue[head];
        let class = head_req.class;
        let tier = self
            .config
            .tier_for_slack(head_req.deadline_us.saturating_sub(now));
        let window_open = now
            < head_req
                .submitted_us
                .saturating_add(self.config.batch_window_us);
        // Candidate order: the head, then every compatible request in
        // priority-then-arrival order.
        let mut picks: Vec<usize> = Vec::with_capacity(self.config.max_batch);
        picks.push(head);
        for pri in [Priority::High, Priority::Normal] {
            for (i, p) in st.queue.iter().enumerate() {
                if picks.len() >= self.config.max_batch {
                    break;
                }
                if i == head || p.priority != pri || p.class != class {
                    continue;
                }
                if self
                    .config
                    .tier_for_slack(p.deadline_us.saturating_sub(now))
                    != tier
                {
                    continue;
                }
                picks.push(i);
            }
        }
        let full = picks.len() >= self.config.max_batch;
        if !(full || !window_open || force || st.draining || st.closed) {
            return None;
        }
        picks.sort_unstable();
        let mut entries = Vec::with_capacity(picks.len());
        for &i in picks.iter().rev() {
            entries.push(st.queue.remove(i).expect("picked index in range"));
        }
        entries.reverse();
        st.in_flight += 1;
        Some(PreparedBatch {
            entries,
            class,
            tier,
        })
    }

    /// Runs the solver on a formed batch, catching panics so a poisoned
    /// request cannot take the worker (or the queue) down with it.
    fn solve(&self, batch: PreparedBatch) -> SolvedBatch {
        let PreparedBatch {
            entries,
            class,
            tier,
        } = batch;
        let n = entries.len();
        // Relaxed: the batch count participates in no cross-counter
        // invariant; it is only read for mean batch size at quiescence.
        self.metrics
            .counters
            .batches
            .fetch_add(1, Ordering::Relaxed);
        self.metrics.batch_size.record(n as u64);
        let ovr = self.config.tiers[tier].solve_override(class);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut shape = entries[0].input.shape().to_vec();
            shape[0] = n;
            let mut data = Vec::new();
            for p in &entries {
                data.extend_from_slice(p.input.data());
            }
            let inputs = Tensor::from_vec(data, &shape);
            forward_model_batched_with(&self.model, &inputs, &self.base_opts, ovr)
        }));
        let mut nfe = Vec::with_capacity(n);
        let outcome = match result {
            Ok(samples) => Ok(samples
                .into_iter()
                .map(|res| {
                    res.map(|(row, stats)| {
                        nfe.push(stats.nfe as u64);
                        row
                    })
                })
                .collect()),
            Err(_) => Err(Rejected::WorkerPanic),
        };
        SolvedBatch {
            entries,
            tier,
            outcome,
            nfe,
        }
    }

    /// Resolves every ticket of a solved batch at the current clock time
    /// and records the outcome metrics.
    ///
    /// Panic-safe: ticket fills, the `in_flight` decrement, and the
    /// condvar notifies are owned by a drop guard, so a panic anywhere in
    /// delivery (or the test failpoint) resolves every still-pending
    /// ticket to [`Rejected::WorkerPanic`] instead of stranding
    /// [`Server::drain`] and the shutdown join loop.
    fn deliver(&self, solved: SolvedBatch) {
        let SolvedBatch {
            entries,
            tier,
            outcome,
            ..
        } = solved;
        let now = self.clock.now_us();
        let n = entries.len();
        let mut guard = DeliverGuard {
            core: self,
            remaining: entries.into(),
        };
        #[cfg(test)]
        if self.deliver_panic_once.swap(false, Ordering::SeqCst) {
            panic!("injected deliver panic (test failpoint)");
        }
        match outcome {
            Ok(samples) => {
                // A short outcome list resolves the tail of the batch as
                // failed (via the guard) instead of leaving tickets in limbo.
                for sample in samples {
                    let Some(p) = guard.remaining.pop_front() else {
                        break;
                    };
                    match sample {
                        Ok(output) => {
                            let latency = now.saturating_sub(p.submitted_us);
                            self.metrics.latency_us.record(latency);
                            // Release, completed before degraded: the
                            // snapshot reads degraded first, so
                            // `degraded <= completed` holds in every
                            // snapshot (see metrics.rs).
                            self.metrics
                                .counters
                                .completed
                                .fetch_add(1, Ordering::Release);
                            if tier > 0 {
                                self.metrics
                                    .counters
                                    .degraded
                                    .fetch_add(1, Ordering::Release);
                            }
                            p.ticket.fill(Ok(Response {
                                output,
                                tier,
                                batch_size: n,
                                submitted_us: p.submitted_us,
                                completed_us: now,
                            }));
                        }
                        Err(e) => {
                            // Release: a failure resolution publishes its
                            // admission.
                            self.metrics.counters.failed.fetch_add(1, Ordering::Release);
                            p.ticket.fill(Err(Rejected::SolveFailed(e)));
                        }
                    }
                }
            }
            Err(reason) => {
                // Release: failure resolutions publish their admissions.
                self.metrics
                    .counters
                    .failed
                    .fetch_add(n as u64, Ordering::Release);
                while let Some(p) = guard.remaining.pop_front() {
                    p.ticket.fill(Err(reason.clone()));
                }
            }
        }
        // Guard drops here: fails any leftover entries, decrements
        // `in_flight`, and notifies both condvars exactly once.
    }
}

/// Drop guard that finishes a delivery no matter how it exits.
struct DeliverGuard<'a> {
    core: &'a Core,
    remaining: VecDeque<Pending>,
}

impl Drop for DeliverGuard<'_> {
    fn drop(&mut self) {
        let leftover = self.remaining.len() as u64;
        if leftover > 0 {
            // Release: these resolutions publish their admissions.
            self.core
                .metrics
                .counters
                .failed
                .fetch_add(leftover, Ordering::Release);
            for p in self.remaining.drain(..) {
                p.ticket.fill(Err(Rejected::WorkerPanic));
            }
        }
        let mut st = lock_state(&self.core.state);
        let _t = synctrace::lock_acquired("server.state");
        st.in_flight -= 1;
        self.core.idle_cv.notify_all();
        self.core.work_cv.notify_all();
    }
}

/// The worker thread body: pull a batch (respecting the batch window),
/// solve, deliver, repeat until shutdown.
fn worker_loop(core: &Core) {
    loop {
        let batch = {
            let mut st = lock_state(&core.state);
            let _t = synctrace::lock_acquired("server.state");
            loop {
                if let Some(b) = core.try_form(&mut st, false) {
                    break Some(b);
                }
                if st.closed {
                    break None;
                }
                if core.clock.is_virtual() || st.queue.is_empty() {
                    // Virtual time only moves when the owner moves it, and
                    // the owner notifies via submit/drain/shutdown — a
                    // timeout would spin without making progress.
                    st = core
                        .work_cv
                        .wait(st)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                } else {
                    // Wall clock with an open window: sleep until the
                    // head's window (or next deadline) can change the
                    // formation decision.
                    let now = core.clock.now_us();
                    let window_end = st
                        .queue
                        .iter()
                        .map(|p| p.submitted_us + core.config.batch_window_us)
                        .chain(st.queue.iter().map(|p| p.deadline_us))
                        .min()
                        .unwrap_or(now);
                    let wait_us = window_end.saturating_sub(now).max(100);
                    let (guard, _) = core
                        .work_cv
                        .wait_timeout(st, Duration::from_micros(wait_us))
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    st = guard;
                }
            }
        };
        match batch {
            Some(b) => {
                // A panic anywhere in solve/deliver must not kill the
                // worker: the delivery guard has already resolved the
                // batch's tickets and `in_flight`, so the loop can keep
                // serving subsequent requests.
                let _ = catch_unwind(AssertUnwindSafe(|| {
                    let solved = core.solve(b);
                    core.deliver(solved);
                }));
            }
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;
    use enode_tensor::init;

    fn tiny_model() -> NodeModel {
        NodeModel::dynamic_system(2, 8, 1, 7)
    }

    fn req(seed: u64, deadline_us: u64) -> Request {
        Request {
            input: init::uniform(&[1, 2], -1.0, 1.0, seed),
            deadline_us,
            tolerance_class: ToleranceClass::Standard,
            priority: Priority::Normal,
        }
    }

    fn test_server(workers: usize, clock: Clock) -> Server {
        let mut cfg = ServeConfig::edge_default();
        cfg.workers = workers;
        Server::new(tiny_model(), NodeSolveOptions::new(1e-4), cfg, clock)
    }

    #[test]
    fn submit_drain_completes_every_request() {
        let clock = Clock::virtual_at(0);
        let server = test_server(2, clock);
        let tickets: Vec<Ticket> = (0..6)
            .map(|i| server.submit(req(i, 1_000_000)).unwrap())
            .collect();
        server.drain();
        for t in tickets {
            let resp = t.wait().expect("completed");
            assert_eq!(resp.tier, 0, "ample slack serves at full quality");
            assert_eq!(resp.output.shape(), &[1, 2]);
        }
        let s = server.snapshot();
        assert_eq!(s.submitted, 6);
        assert_eq!(s.completed, 6);
        assert_eq!(s.degraded, 0);
        assert!(s.reconciles());
    }

    #[test]
    fn queue_full_is_an_explicit_rejection() {
        let clock = Clock::virtual_at(0);
        let mut cfg = ServeConfig::edge_default();
        cfg.queue_capacity = 2;
        cfg.workers = 0; // pump mode: nothing dequeues behind our back
        let server = Server::new(tiny_model(), NodeSolveOptions::new(1e-4), cfg, clock);
        let _t0 = server.submit(req(0, 1_000_000)).unwrap();
        let _t1 = server.submit(req(1, 1_000_000)).unwrap();
        match server.submit(req(2, 1_000_000)) {
            Err(Rejected::QueueFull { capacity }) => assert_eq!(capacity, 2),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(server.snapshot().rejected_full, 1);
        assert_eq!(server.snapshot().submitted, 2);
    }

    #[test]
    fn pump_mode_forms_solves_delivers() {
        let clock = Clock::virtual_at(0);
        let server = test_server(0, clock.clone());
        let t = server.submit(req(3, 500_000)).unwrap();
        // Window still open and batch underfull: not dispatchable.
        assert!(server.form_batch(false).is_none());
        assert_eq!(server.next_window_expiry_us(), Some(2_000));
        clock.set_us(2_000);
        let batch = server.form_batch(false).expect("window expired");
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.tier(), 0);
        let solved = server.solve_batch(batch);
        assert!(!solved.per_sample_nfe().is_empty());
        clock.set_us(5_000);
        server.deliver_batch(solved);
        let resp = t.wait().unwrap();
        assert_eq!(resp.submitted_us, 0);
        assert_eq!(resp.completed_us, 5_000);
        assert_eq!(resp.latency_us(), 5_000);
    }

    #[test]
    fn batches_split_by_tolerance_class() {
        let clock = Clock::virtual_at(0);
        let server = test_server(0, clock);
        let _a = server.submit(req(0, 1_000_000)).unwrap();
        let mut strict = req(1, 1_000_000);
        strict.tolerance_class = ToleranceClass::Strict;
        let _b = server.submit(strict).unwrap();
        let _c = server.submit(req(2, 1_000_000)).unwrap();
        let batch = server.form_batch(true).expect("forced");
        assert_eq!(batch.len(), 2, "strict request must not share the batch");
        assert_eq!(batch.class(), ToleranceClass::Standard);
    }

    #[test]
    fn high_priority_anchors_the_batch() {
        let clock = Clock::virtual_at(0);
        let server = test_server(0, clock);
        let _a = server.submit(req(0, 1_000_000)).unwrap();
        let mut hi = req(1, 1_000_000);
        hi.priority = Priority::High;
        hi.tolerance_class = ToleranceClass::Relaxed;
        let _b = server.submit(hi).unwrap();
        let batch = server.form_batch(true).expect("forced");
        assert_eq!(
            batch.class(),
            ToleranceClass::Relaxed,
            "head is the High request"
        );
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn shutdown_sweeps_queue_and_refuses_new_work() {
        let clock = Clock::virtual_at(0);
        let mut server = test_server(0, clock);
        let t = server.submit(req(0, 1_000_000)).unwrap();
        server.shutdown();
        assert_eq!(t.wait(), Err(Rejected::ShuttingDown));
        assert_eq!(server.snapshot().cancelled, 1);
        assert!(matches!(
            server.submit(req(1, 1_000_000)),
            Err(Rejected::ShuttingDown)
        ));
        assert!(server.snapshot().reconciles());
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let clock = Clock::virtual_at(0);
        let mut server = test_server(2, clock);
        let t = server.submit(req(0, 1_000_000)).unwrap();
        server.shutdown();
        server.shutdown(); // second call must not hang on the join loop
        assert_eq!(t.wait(), Err(Rejected::ShuttingDown));
        assert!(server.snapshot().reconciles());
        drop(server); // Drop runs shutdown() a third time
    }

    #[test]
    fn drain_after_shutdown_returns_immediately() {
        let clock = Clock::virtual_at(0);
        let mut server = test_server(2, clock);
        server.shutdown();
        // The workers (the only idle_cv notifiers) are joined; drain must
        // notice `closed` and return instead of parking forever.
        server.drain();
        assert!(server.snapshot().reconciles());
    }

    #[test]
    fn worker_panic_mid_delivery_resolves_tickets_and_keeps_serving() {
        let clock = Clock::virtual_at(0);
        let mut server = test_server(1, clock);
        server.core.deliver_panic_once.store(true, Ordering::SeqCst);
        let t = server.submit(req(0, 1_000_000)).unwrap();
        // Must not deadlock: the delivery guard decrements in_flight and
        // wakes drain() even though the delivery panicked.
        server.drain();
        assert_eq!(t.wait(), Err(Rejected::WorkerPanic));
        let s = server.snapshot();
        assert_eq!(s.failed, 1);
        assert!(s.reconciles());
        // The worker survived the panic and still serves.
        let t2 = server.submit(req(1, 1_000_000)).unwrap();
        server.drain();
        assert!(t2.wait().is_ok());
        assert!(server.snapshot().reconciles());
        server.shutdown();
    }

    #[test]
    fn pump_mode_delivery_panic_still_resolves_tickets() {
        let clock = Clock::virtual_at(0);
        let server = test_server(0, clock);
        server.core.deliver_panic_once.store(true, Ordering::SeqCst);
        let t = server.submit(req(0, 1_000_000)).unwrap();
        let solved = server.solve_batch(server.form_batch(true).unwrap());
        // Pump mode has no worker catch_unwind around delivery, so the
        // injected panic reaches the caller; the guard must still have
        // resolved the ticket and released in_flight on the way out.
        let unwound = catch_unwind(AssertUnwindSafe(|| server.deliver_batch(solved)));
        assert!(unwound.is_err(), "failpoint panic propagates in pump mode");
        assert_eq!(t.wait(), Err(Rejected::WorkerPanic));
        let s = server.snapshot();
        assert_eq!(s.failed, 1);
        assert!(s.reconciles());
        // in_flight was released: a fresh request pumps normally.
        let t2 = server.submit(req(1, 1_000_000)).unwrap();
        server.deliver_batch(server.solve_batch(server.form_batch(true).unwrap()));
        assert!(t2.wait().is_ok());
    }

    #[test]
    fn max_batch_bounds_coalescing() {
        let clock = Clock::virtual_at(0);
        let mut cfg = ServeConfig::edge_default();
        cfg.workers = 0;
        cfg.max_batch = 3;
        let server = Server::new(tiny_model(), NodeSolveOptions::new(1e-4), cfg, clock);
        for i in 0..5 {
            server.submit(req(i, 1_000_000)).unwrap();
        }
        let b1 = server.form_batch(false).expect("full batch dispatches");
        assert_eq!(b1.len(), 3);
        assert!(
            server.form_batch(false).is_none(),
            "remainder waits out its window"
        );
        let b2 = server.form_batch(true).expect("forced remainder");
        assert_eq!(b2.len(), 2);
        server.deliver_batch(server.solve_batch(b1));
        server.deliver_batch(server.solve_batch(b2));
        let s = server.snapshot();
        assert_eq!(s.batches, 2);
        assert!((s.mean_batch - 2.5).abs() < 1e-9);
    }
}
