//! The lock order the running code takes: drives the server, the worker
//! pool and a small fleet under the `synctrace` recorder, then checks the
//! observed `held → acquired` graph. It must be acyclic (an inversion
//! fails with the cycle named), touch exactly the six traced locks, and
//! hold exactly the expected nestings (a new nesting fails with the edge
//! named; add it to [`NESTINGS`] once its order is the intended one). The
//! server runs at 1, 2 and 4 workers so the recorder sees single-worker,
//! handoff and contended schedules.
//!
//! Without the feature the recorder is a no-op and this whole file is
//! compiled out; `ci.sh` runs it with `--features synctrace`.

#![cfg(feature = "synctrace")]

mod common;

use std::collections::BTreeSet;

use common::drain_bounded;
use enode_node::inference::NodeSolveOptions;
use enode_node::model::NodeModel;
use enode_serve::{
    Clock, Fleet, FleetConfig, Priority, Rejected, Request, ServeConfig, Server, ToleranceClass,
};
use enode_tensor::init;
use enode_tensor::parallel::ThreadPool;
use enode_tensor::synctrace;

/// Every lock id the runtime hooks.
const LOCKS: [&str; 6] = [
    "fleet.registry",
    "pool.handles",
    "pool.slot",
    "pool.submit",
    "server.state",
    "ticket.slot",
];

/// The nestings the runtime takes, outer lock first: a broadcast
/// publishes its job under the submitter lock, and shedding and the
/// shutdown sweep resolve tickets under the queue lock.
const NESTINGS: [(&str, &str); 2] = [
    ("pool.submit", "pool.slot"),
    ("server.state", "ticket.slot"),
];

fn req(seed: u64, deadline_us: u64) -> Request {
    Request {
        input: init::uniform(&[1, 2], -1.0, 1.0, seed),
        deadline_us,
        tolerance_class: ToleranceClass::Standard,
        priority: Priority::Normal,
    }
}

/// Admission, batching, delivery, deadline shedding, drain, a
/// post-shutdown rejection, and shutdown's queue sweep.
fn drive_server(workers: usize) {
    let mut cfg = ServeConfig::edge_default();
    cfg.workers = workers;
    let clock = Clock::virtual_at(0);
    let s = Server::new(
        NodeModel::dynamic_system(2, 8, 1, 42),
        NodeSolveOptions::new(1e-4),
        cfg,
        clock.clone(),
    );
    let mut tickets = Vec::new();
    for i in 0..6 {
        tickets.push(s.submit(req(i, 1_000_000)).unwrap());
    }
    tickets.push(s.submit(req(90, 2_000)).unwrap()); // will expire
    clock.set_us(5_000);
    let mut s = drain_bounded(s, Server::drain);
    let swept = s.submit(req(91, 1_000_000)).unwrap();
    s.shutdown();
    assert_eq!(
        s.submit(req(92, 1_000_000)).unwrap_err(),
        Rejected::ShuttingDown
    );
    for t in tickets {
        let _ = t.wait();
    }
    assert_eq!(swept.wait(), Err(Rejected::ShuttingDown));
}

/// The worker pool's broadcast, completion wait and drop.
fn drive_pool(threads: usize) {
    let pool = ThreadPool::new(threads);
    for _round in 0..3 {
        let lanes_run = std::sync::atomic::AtomicUsize::new(0);
        pool.broadcast(&|lane, lanes| {
            assert!(lane < lanes);
            lanes_run.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(lanes_run.into_inner(), threads);
    }
}

/// The shipped fleet: a publish, a few routed submits, then `finish`.
fn drive_fleet() {
    let m = NodeModel::dynamic_system(2, 8, 1, 42);
    let models = [("edge_default", m.clone()), ("streaming_keyword", m)];
    let mut fleet = Fleet::new(
        FleetConfig::shipped(),
        &models,
        NodeSolveOptions::new(1e-4),
        1,
        Clock::virtual_at(0),
    );
    assert_eq!(
        fleet.publish("edge_default", ServeConfig::edge_default()),
        2
    );
    for (i, tenant) in ["vision_a", "vision_b", "keyword_a", "keyword_b"]
        .into_iter()
        .enumerate()
    {
        let input = init::uniform(&[1, 2], -1.0, 1.0, 500 + i as u64);
        fleet.submit(tenant, input).expect("an idle fleet admits");
    }
    let result = drain_bounded(fleet, Fleet::drain).finish();
    let completed: u64 = result.tenants.iter().map(|t| t.completed).sum();
    assert_eq!(completed, 4);
}

fn edge_list<'a>(edges: impl IntoIterator<Item = &'a (String, String)>) -> String {
    edges
        .into_iter()
        .map(|(a, b)| format!("{a} -> {b}"))
        .collect::<Vec<_>>()
        .join(", ")
}

#[test]
fn observed_lock_order_is_acyclic_and_exactly_the_expected_nestings() {
    assert!(synctrace::enabled());
    synctrace::reset();

    for workers in [1, 2, 4] {
        drive_server(workers);
    }
    for threads in [2, 4] {
        drive_pool(threads);
    }
    drive_fleet();

    let report = synctrace::capture();
    if let Some(cycle) = report.lock_order_cycle() {
        panic!(
            "lock-order cycle observed: {} (observed edges: {})",
            cycle.join(" -> "),
            edge_list(&report.edges)
        );
    }
    let locks: BTreeSet<String> = LOCKS.iter().map(|l| l.to_string()).collect();
    assert_eq!(report.locks, locks, "observed lock ids");
    let expected: BTreeSet<(String, String)> = NESTINGS
        .iter()
        .map(|&(a, b)| (a.to_string(), b.to_string()))
        .collect();
    assert!(
        report.edges == expected,
        "unexpected nestings: [{}]; expected but not observed: [{}]",
        edge_list(report.edges.difference(&expected)),
        edge_list(expected.difference(&report.edges))
    );
}
