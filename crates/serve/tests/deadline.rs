//! Deadline semantics: expired work is shed before it ever reaches the
//! solver, thin slack degrades instead of missing, and the metrics
//! counters reconcile with the submitted count exactly.

mod common;

use common::drain_bounded;
use enode_node::inference::NodeSolveOptions;
use enode_node::model::NodeModel;
use enode_serve::{Clock, Priority, Rejected, Request, ServeConfig, Server, ToleranceClass};
use enode_tensor::init;

fn server(clock: Clock) -> Server {
    let mut cfg = ServeConfig::edge_default();
    cfg.workers = 1;
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
fn expired_request_is_shed_before_dispatch() {
    let clock = Clock::virtual_at(0);
    let s = server(clock.clone());
    let t = s.submit(req(1, 5_000)).unwrap();
    // The deadline passes while the request is still queued.
    clock.set_us(10_000);
    let s = drain_bounded(s, Server::drain);
    match t.wait() {
        Err(Rejected::DeadlineExpired {
            deadline_us,
            now_us,
        }) => {
            assert_eq!(deadline_us, 5_000);
            assert!(now_us >= 10_000);
        }
        other => panic!("expected DeadlineExpired, got {other:?}"),
    }
    let snap = s.snapshot();
    assert_eq!(snap.shed, 1);
    assert_eq!(
        snap.batches, 0,
        "a shed request must never reach the solver"
    );
    assert_eq!(snap.completed, 0);
}

#[test]
fn nearly_expired_request_degrades_but_completes() {
    let clock = Clock::virtual_at(0);
    let s = server(clock);
    // edge_default tier 0 wants >= 20ms of slack; offer only 3ms.
    let t = s.submit(req(2, 3_000)).unwrap();
    let s = drain_bounded(s, Server::drain);
    let resp = t.wait().expect("thin slack must degrade, not miss");
    assert!(resp.tier > 0, "expected a degraded tier, got tier 0");
    let snap = s.snapshot();
    assert_eq!(snap.completed, 1);
    assert_eq!(snap.degraded, 1);
    assert_eq!(snap.shed, 0);
}

#[test]
fn slack_bands_map_to_the_configured_ladder() {
    let clock = Clock::virtual_at(0);
    let s = server(clock);
    // Slack per tier in edge_default: >=20ms -> 0, >=8ms -> 1, else 2.
    let full = s.submit(req(3, 500_000)).unwrap();
    let mid = s.submit(req(4, 10_000)).unwrap();
    let thin = s.submit(req(5, 1_000)).unwrap();
    let s = drain_bounded(s, Server::drain);
    assert_eq!(full.wait().unwrap().tier, 0);
    assert_eq!(mid.wait().unwrap().tier, 1);
    assert_eq!(thin.wait().unwrap().tier, 2);
    assert_eq!(s.snapshot().degraded, 2);
}

#[test]
fn counters_reconcile_exactly_with_submissions() {
    let clock = Clock::virtual_at(0);
    let s = server(clock.clone());
    // 4 completed (2 of them degraded), 2 shed, 1 cancelled at shutdown.
    let mut tickets = Vec::new();
    for i in 0..2 {
        tickets.push(s.submit(req(10 + i, 1_000_000)).unwrap()); // tier 0
    }
    for i in 0..2 {
        tickets.push(s.submit(req(20 + i, 15_000)).unwrap()); // tier 1
    }
    for i in 0..2 {
        tickets.push(s.submit(req(30 + i, 2_000)).unwrap()); // will expire
    }
    clock.set_us(5_000); // expire the 2ms-deadline pair
    let mut s = drain_bounded(s, Server::drain);
    let late = s.submit(req(40, 1_000_000)).unwrap();
    s.shutdown(); // sweeps the late request as cancelled

    let mut completed = 0;
    let mut shed = 0;
    for t in tickets {
        match t.wait() {
            Ok(_) => completed += 1,
            Err(Rejected::DeadlineExpired { .. }) => shed += 1,
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    assert_eq!(late.wait(), Err(Rejected::ShuttingDown));
    assert_eq!(completed, 4);
    assert_eq!(shed, 2);

    let snap = s.snapshot();
    assert_eq!(snap.submitted, 7);
    assert_eq!(snap.completed, 4);
    assert_eq!(snap.degraded, 2);
    assert_eq!(snap.shed, 2);
    assert_eq!(snap.cancelled, 1);
    assert_eq!(snap.failed, 0);
    assert!(
        snap.reconciles(),
        "submitted != completed + shed + failed + cancelled"
    );
}

#[test]
fn queue_full_backpressure_is_not_counted_as_submitted() {
    let clock = Clock::virtual_at(0);
    let mut cfg = ServeConfig::edge_default();
    cfg.queue_capacity = 1;
    cfg.workers = 0; // pump mode: keep the queue full deterministically
    let s = Server::new(
        NodeModel::dynamic_system(2, 8, 1, 42),
        NodeSolveOptions::new(1e-4),
        cfg,
        clock,
    );
    let _held = s.submit(req(50, 1_000_000)).unwrap();
    assert!(matches!(
        s.submit(req(51, 1_000_000)),
        Err(Rejected::QueueFull { capacity: 1 })
    ));
    let snap = s.snapshot();
    assert_eq!(snap.submitted, 1);
    assert_eq!(snap.rejected_full, 1);
}
