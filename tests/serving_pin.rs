//! Bit-level pin of a short pumped serving run.
//!
//! Two pump-mode servers (no worker threads, virtual clock) take a fixed
//! request stream: 24 requests to a Lotka–Volterra-sized dynamic-system
//! NODE, then 4 to the normed image classifier, alternating the Standard
//! and Strict tolerance classes. Every response runs the real solver, so
//! the digest of the served tiers, batch sizes and output bits pins the
//! whole serving path — admission, batch formation, per-sample solves and
//! delivery. It must not move when a kernel or the solver loop is
//! rewritten, at any pool width.

use enode::hw::fingerprint::Fnv64;
use enode::prelude::*;
use enode::tensor::{init, parallel};
use enode_serve::{Clock, Priority, Request, ServeConfig, Server, Ticket, ToleranceClass};

/// Submits before each pump (the ingress queue holds 16).
const PUMP_EVERY: usize = 8;

fn pump_server(model: NodeModel) -> Server {
    let mut cfg = ServeConfig::edge_default();
    cfg.workers = 0;
    Server::new(
        model,
        NodeSolveOptions::new(1e-4),
        cfg,
        Clock::virtual_at(0),
    )
}

/// Forms, solves and delivers batches until nothing is queued.
fn pump(server: &Server) {
    while let Some(batch) = server.form_batch(true) {
        let solved = server.solve_batch(batch);
        server.deliver_batch(solved);
    }
}

/// Submits `count` requests with inputs of shape `dims` (seeds `500 + i`,
/// even `i` Standard, odd `i` Strict), pumping after every
/// [`PUMP_EVERY`]th submit and at the end.
fn serve(server: &Server, dims: &[usize], count: u64) -> Vec<Ticket> {
    let mut tickets = Vec::new();
    for i in 0..count {
        let tolerance_class = if i % 2 == 0 {
            ToleranceClass::Standard
        } else {
            ToleranceClass::Strict
        };
        let request = Request {
            input: init::uniform(dims, -1.0, 1.0, 500 + i),
            deadline_us: 60_000_000,
            tolerance_class,
            priority: Priority::Normal,
        };
        tickets.push(server.submit(request).expect("admitted"));
        if tickets.len() % PUMP_EVERY == 0 {
            pump(server);
        }
    }
    pump(server);
    assert!(server.snapshot().reconciles(), "metrics must reconcile");
    tickets
}

/// FNV-1a over each ticket in submit order: its tier and batch size as
/// `u64`s, then its output's bits (each `f32` as 4 little-endian bytes).
fn serving_digest() -> String {
    let dynsys = pump_server(NodeModel::dynamic_system(2, 16, 2, 7));
    let image = pump_server(NodeModel::image_classifier_normed(4, 2, 2, 10, 2, 7));
    let mut tickets = serve(&dynsys, &[1, 2], 24);
    tickets.extend(serve(&image, &[1, 4, 8, 8], 4));
    let mut h = Fnv64::new();
    for ticket in tickets {
        let response = ticket.try_take().expect("delivered").expect("served");
        h.write_u64(response.tier as u64);
        h.write_u64(response.batch_size as u64);
        for v in response.output.data() {
            h.write(&v.to_bits().to_le_bytes());
        }
    }
    h.hex()
}

#[test]
fn pumped_serving_run_matches_the_pinned_digest_at_every_pool_width() {
    for threads in [1usize, 2, 4] {
        let digest = parallel::with_threads(threads, serving_digest);
        assert_eq!(digest, "ac946224a7b53f6d", "pool width {threads}");
    }
}
