//! Runtime coverage for the serving runtime's wakeups, shutdown and
//! metrics ordering: the submit notify that wakes a parked worker, the
//! delivery notify that wakes a parked `drain`, the wall-clock batch
//! window's timeout-bounded wait, shutdown racing a parked worker on both
//! clock flavours, and a multi-threaded stress of the metrics ordering
//! protocol (`consistent()` on every mid-flight snapshot, `reconciles()`
//! at quiescence).

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::drain_bounded;
use enode_node::inference::NodeSolveOptions;
use enode_node::model::NodeModel;
use enode_serve::{Clock, Priority, Rejected, Request, ServeConfig, Server, ToleranceClass};
use enode_tensor::init;

fn server_with(clock: Clock, workers: usize) -> Server {
    let mut cfg = ServeConfig::edge_default();
    cfg.workers = workers;
    Server::new(
        NodeModel::dynamic_system(2, 8, 1, 42),
        NodeSolveOptions::new(1e-4),
        cfg,
        clock,
    )
}

fn req(seed: u64, deadline_us: u64) -> Request {
    Request {
        input: init::uniform(&[1, 2], -1.0, 1.0, seed),
        deadline_us,
        tolerance_class: ToleranceClass::Standard,
        priority: Priority::Normal,
    }
}

#[test]
fn a_parked_worker_wakes_on_submit() {
    // One worker, wall clock, empty queue: the worker parks on the
    // untimed empty-queue wait in `worker_loop`, which only a notify can
    // end. `submit`'s notify must wake it; without that notify the
    // request sits in the queue until some unrelated wakeup.
    let s = server_with(Clock::wall(), 1);
    std::thread::sleep(Duration::from_millis(100));
    let deadline = s.clock().now_us() + 30_000_000;
    let t = s.submit(req(3, deadline)).unwrap();
    let start = Instant::now();
    let result = loop {
        if let Some(result) = t.try_take() {
            break result;
        }
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "the parked worker never woke for the submitted request"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    let resp = result.expect("30s of slack must complete");
    assert_eq!(resp.tier, 0, "30s of slack must not degrade");
}

#[test]
fn drain_wakes_on_the_last_delivery() {
    // Virtual clock, one worker, one request: the batch window never
    // closes, so the worker forms the batch only once `drain` asks for
    // it, and `drain` then parks until the server is empty. The delivery
    // that empties it is the last event, so its notify is the only thing
    // that can wake the parked `drain`.
    let s = server_with(Clock::virtual_at(0), 1);
    let t = s.submit(req(5, 30_000_000)).unwrap();
    let s = drain_bounded(s, Server::drain);
    let resp = t.wait().expect("30s of slack must complete");
    assert_eq!(resp.tier, 0, "30s of slack must not degrade");
    assert!(s.snapshot().reconciles());
}

#[test]
fn wall_clock_window_expires_with_no_notifier() {
    // One request, one worker, wall clock. The worker wakes on the submit
    // notify, cannot form a batch while the 2ms window is open, and parks
    // on the *timeout* wait. Nobody notifies again: the only way the
    // request completes is the timeout expiring and `try_form` seeing the
    // window closed.
    let s = server_with(Clock::wall(), 1);
    let deadline = s.clock().now_us() + 30_000_000;
    let t = s.submit(req(1, deadline)).unwrap();
    let resp = t.wait().expect("window expiry must dispatch the batch");
    assert_eq!(resp.tier, 0, "30s of slack must not degrade");
    let snap = s.snapshot();
    assert_eq!(snap.completed, 1);
    assert_eq!(snap.batches, 1);
}

#[test]
fn shutdown_while_worker_parked_on_the_batch_window() {
    // Submit, give the worker a moment to park on the window timeout,
    // then shut down. The sweep must resolve the queued ticket as
    // cancelled and the join must not hang on the parked worker.
    let mut s = server_with(Clock::wall(), 1);
    let deadline = s.clock().now_us() + 30_000_000;
    let mut tickets = Vec::new();
    for i in 0..2 {
        tickets.push(s.submit(req(10 + i, deadline)).unwrap());
    }
    // Short enough that the 2ms window is still open (worker parked on
    // the timeout wait) on any non-pathological scheduler.
    std::thread::sleep(Duration::from_micros(200));
    let start = Instant::now();
    s.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "join must not hang on the parked worker"
    );
    let snap = s.snapshot();
    for t in tickets {
        match t.wait() {
            Ok(_) | Err(Rejected::ShuttingDown) => {}
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    assert!(snap.reconciles(), "{}", snap.to_json());
}

#[test]
fn shutdown_while_worker_parked_on_the_virtual_clock_wait() {
    // With a virtual clock the worker parks on the *untimed* wait (a
    // timeout would spin — simulated time only moves when the owner moves
    // it), so shutdown's notify is the only thing that can wake it.
    let mut s = server_with(Clock::virtual_at(0), 1);
    std::thread::sleep(Duration::from_micros(200));
    let start = Instant::now();
    s.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "shutdown notify must wake the untimed wait"
    );
    assert!(s.snapshot().reconciles());
}

#[test]
fn four_thread_stress_keeps_every_snapshot_consistent() {
    // 4 submitter threads hammer one wall-clock server while a snapshot
    // thread asserts the under-load identity on every observation it
    // makes mid-flight; after drain + shutdown the strict quiescent
    // identity must hold. This is the runtime check of the
    // Release/Acquire protocol in `metrics::snapshot`: with Relaxed
    // resolution counters the consistent() assertion can fail on a
    // weakly-ordered core.
    const SUBMITTERS: usize = 4;
    const PER_THREAD: usize = 24;

    let s = Arc::new(server_with(Clock::wall(), 2));
    let stop = Arc::new(AtomicBool::new(false));

    let observer = {
        let s = Arc::clone(&s);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut observations = 0u64;
            while !stop.load(Ordering::Acquire) {
                let snap = s.snapshot();
                assert!(
                    snap.consistent(),
                    "mid-flight snapshot violated the under-load identity: {}",
                    snap.to_json()
                );
                observations += 1;
            }
            observations
        })
    };

    let submitters: Vec<_> = (0..SUBMITTERS)
        .map(|thread| {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let mut tickets = Vec::new();
                for i in 0..PER_THREAD {
                    let seed = (thread * PER_THREAD + i) as u64;
                    let deadline = s.clock().now_us() + 30_000_000;
                    loop {
                        match s.submit(req(seed, deadline)) {
                            Ok(t) => {
                                tickets.push(t);
                                break;
                            }
                            Err(Rejected::QueueFull { .. }) => std::thread::yield_now(),
                            Err(other) => panic!("unexpected rejection {other:?}"),
                        }
                    }
                }
                for t in tickets {
                    t.wait().expect("30s deadlines must complete");
                }
            })
        })
        .collect();

    for h in submitters {
        h.join().expect("submitter thread");
    }
    let s = drain_bounded(s, |s| s.drain());
    stop.store(true, Ordering::Release);
    let observations = observer.join().expect("observer thread");
    assert!(observations > 0, "the observer must have raced the load");

    let snap = s.snapshot();
    assert_eq!(snap.completed, (SUBMITTERS * PER_THREAD) as u64);
    assert!(snap.reconciles(), "{}", snap.to_json());
    assert!(snap.consistent(), "{}", snap.to_json());
}
