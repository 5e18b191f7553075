//! Batcher determinism audit: responses must be bit-identical across
//! worker counts and arrival orders, and a panicking request must not
//! wedge the queue.
//!
//! The contract under test: because batched dispatch solves each sample
//! independently, a response's bits depend only on
//! `(input, tolerance class, tier)`. Worker count, batch composition,
//! and arrival interleaving are all scheduling noise that must never
//! reach the numbers.

mod common;

use common::drain_bounded;
use enode_node::inference::NodeSolveOptions;
use enode_node::model::NodeModel;
use enode_serve::{
    Clock, Priority, Rejected, Request, ServeConfig, Server, Ticket, ToleranceClass,
};
use enode_tensor::init;

fn model() -> NodeModel {
    NodeModel::dynamic_system(2, 8, 1, 42)
}

fn server_with_workers(workers: usize) -> Server {
    let mut cfg = ServeConfig::edge_default();
    cfg.workers = workers;
    Server::new(
        model(),
        NodeSolveOptions::new(1e-4),
        cfg,
        Clock::virtual_at(0),
    )
}

/// A mixed workload: three tolerance classes, two deadline bands (full
/// quality and degraded), deterministic inputs.
fn workload() -> Vec<Request> {
    (0..12)
        .map(|i| {
            let class = match i % 3 {
                0 => ToleranceClass::Strict,
                1 => ToleranceClass::Standard,
                _ => ToleranceClass::Relaxed,
            };
            let deadline_us = if i % 2 == 0 { 1_000_000 } else { 10_000 };
            Request {
                input: init::uniform(&[1, 2], -1.0, 1.0, 1000 + i),
                deadline_us,
                tolerance_class: class,
                priority: Priority::Normal,
            }
        })
        .collect()
}

/// Runs the workload in the given submission order and returns, per
/// original request index, the response's `(output bits, tier)`.
fn run(workers: usize, order: &[usize]) -> Vec<(Vec<u32>, usize)> {
    let server = server_with_workers(workers);
    let reqs = workload();
    let mut tickets: Vec<Option<Ticket>> = (0..reqs.len()).map(|_| None).collect();
    for &i in order {
        tickets[i] = Some(server.submit(reqs[i].clone()).expect("admitted"));
    }
    drain_bounded(server, Server::drain);
    tickets
        .into_iter()
        .map(|t| {
            let resp = t.expect("submitted").wait().expect("completed");
            let bits = resp.output.data().iter().map(|v| v.to_bits()).collect();
            (bits, resp.tier)
        })
        .collect()
}

#[test]
fn responses_bit_identical_across_worker_counts() {
    let order: Vec<usize> = (0..12).collect();
    let one = run(1, &order);
    let two = run(2, &order);
    let four = run(4, &order);
    assert_eq!(one, two, "1 vs 2 serve workers changed response bits");
    assert_eq!(one, four, "1 vs 4 serve workers changed response bits");
}

#[test]
fn responses_bit_identical_across_arrival_orders() {
    let forward: Vec<usize> = (0..12).collect();
    let reverse: Vec<usize> = (0..12).rev().collect();
    // A fixed interleaved permutation (evens then odds).
    let shuffled: Vec<usize> = (0..12).step_by(2).chain((1..12).step_by(2)).collect();
    let a = run(2, &forward);
    let b = run(2, &reverse);
    let c = run(2, &shuffled);
    assert_eq!(a, b, "reversed arrivals changed response bits");
    assert_eq!(a, c, "shuffled arrivals changed response bits");
}

#[test]
fn degraded_tiers_are_deterministic_too() {
    let order: Vec<usize> = (0..12).collect();
    let results = run(1, &order);
    // Thin-slack requests (odd indices) must have been degraded, and the
    // assignment must be stable.
    for (i, (_, tier)) in results.iter().enumerate() {
        if i % 2 == 1 {
            assert!(*tier > 0, "request {i} with 10ms slack must degrade");
        } else {
            assert_eq!(*tier, 0, "request {i} with ample slack must not degrade");
        }
    }
}

#[test]
fn panicking_request_fails_alone_and_queue_survives() {
    let server = server_with_workers(2);
    // Wrong feature width: the dense layer's shape assert fires inside
    // the worker. This is a real assert, active in release builds.
    let poison = Request {
        input: init::uniform(&[1, 5], -1.0, 1.0, 9),
        deadline_us: 1_000_000,
        tolerance_class: ToleranceClass::Standard,
        priority: Priority::Normal,
    };
    let bad = server.submit(poison).expect("admitted");
    let server = drain_bounded(server, Server::drain);
    assert_eq!(bad.wait(), Err(Rejected::WorkerPanic));

    // The queue, the workers, and the pool must all still function.
    let good = server
        .submit(Request {
            input: init::uniform(&[1, 2], -1.0, 1.0, 10),
            deadline_us: 1_000_000,
            tolerance_class: ToleranceClass::Standard,
            priority: Priority::Normal,
        })
        .expect("queue must accept work after a worker panic");
    let server = drain_bounded(server, Server::drain);
    let resp = good.wait().expect("served after the panic");
    assert_eq!(resp.tier, 0);

    let s = server.snapshot();
    assert_eq!(s.submitted, 2);
    assert_eq!(s.completed, 1);
    assert_eq!(s.failed, 1);
    assert!(s.reconciles(), "panic outcomes must reconcile exactly");
}

#[test]
fn panicking_batchmate_fails_the_whole_batch_explicitly() {
    // One poisoned request sharing a batch with a good one: both tickets
    // must resolve (to WorkerPanic) — nothing may hang or drop silently.
    let server = server_with_workers(1);
    let good = server
        .submit(Request {
            input: init::uniform(&[1, 2], -1.0, 1.0, 11),
            deadline_us: 1_000_000,
            tolerance_class: ToleranceClass::Standard,
            priority: Priority::Normal,
        })
        .unwrap();
    let bad = server
        .submit(Request {
            input: init::uniform(&[1, 5], -1.0, 1.0, 12),
            deadline_us: 1_000_000,
            tolerance_class: ToleranceClass::Standard,
            priority: Priority::Normal,
        })
        .unwrap();
    let server = drain_bounded(server, Server::drain);
    assert_eq!(good.wait(), Err(Rejected::WorkerPanic));
    assert_eq!(bad.wait(), Err(Rejected::WorkerPanic));
    assert_eq!(server.snapshot().failed, 2);
    assert!(server.snapshot().reconciles());
}
