//! Digest pin of the discrete-event serving simulator.
//!
//! The runs cover both arrival processes and both deployment shapes:
//! - one-instance open-loop runs of both shipped policies, 2 rates × 2
//!   batch windows, 48 requests each;
//! - 16 one-instance closed-loop runs: 2 policies × 4 client mixes × the
//!   policy's own queue capacity and a queue of 3, 64 requests each —
//!   including runs whose clients outnumber the queue slots and runs
//!   whose deadline sheds everything;
//! - one open-loop run of the shipped four-instance fleet.
//!
//! The single-server runs draw their traffic the way `BENCH_serve.json`
//! does (input stream forked from the master first, arrival jitter from
//! the master); the fleet run draws it through [`FleetLoad`]. Each run's
//! offered count, makespan, tier counts and drained metrics feed one
//! FNV-1a digest, plus every tenant's stats for the fleet run. Solves are
//! real, service time is charged by a fixed [`CostModel`], so the digest
//! must not move at any pool width.

use enode::hw::fingerprint::Fnv64;
use enode::prelude::*;
use enode::tensor::parallel;
use enode::tensor::rng::Rng64;
use enode_serve::{
    simulate_fleet, simulate_traffic, Arrivals, CostModel, FleetConfig, FleetLoad, FleetRunResult,
    MetricsSnapshot, ServeConfig, TenantTraffic, ToleranceClass,
};

const SEED: u64 = 24301;

fn cost() -> CostModel {
    CostModel {
        per_nfe_us: 20.0,
        dispatch_overhead_us: 150,
        lanes: 4,
    }
}

fn model() -> NodeModel {
    NodeModel::dynamic_system(2, 8, 1, 7)
}

/// Runs `policy` as a one-instance fleet: one client of `class` stamping
/// `deadline_us`, with a quota of its whole budget, offering `requests`
/// per `arrivals`.
fn single(
    policy: &ServeConfig,
    class: ToleranceClass,
    deadline_us: u64,
    arrivals: Arrivals,
    requests: usize,
) -> FleetRunResult {
    let mut master = Rng64::seed_from_u64(SEED);
    let mut input_rng = master.fork();
    let traffic = TenantTraffic::draw(arrivals, requests, &mut master, &mut input_rng);
    let config = FleetConfig::single(policy, class, deadline_us, requests);
    let opts = NodeSolveOptions::new(1e-4);
    simulate_traffic(
        &config,
        &[(policy.name, model())],
        &opts,
        &[traffic],
        2,
        &cost(),
    )
}

fn write_run(h: &mut Fnv64, offered: u64, makespan_us: u64, tiers: &[u64], m: &MetricsSnapshot) {
    h.write_u64(offered);
    h.write_u64(makespan_us);
    h.write_u64(tiers.len() as u64);
    for &n in tiers {
        h.write_u64(n);
    }
    h.write(m.to_json().as_bytes());
}

fn write_single(h: &mut Fnv64, r: &FleetRunResult) {
    let inst = &r.instances[0];
    write_run(
        h,
        r.tenants[0].offered,
        r.makespan_us,
        &inst.tier_counts,
        &inst.metrics,
    );
}

fn digest() -> String {
    let mut h = Fnv64::new();
    for policy in ServeConfig::shipped() {
        let deadline_us = policy.min_deadline_us * 2 / 5;
        for batch_window_us in [0, 2_000] {
            let p = ServeConfig {
                batch_window_us,
                ..policy.clone()
            };
            for rate_rps in [400.0, 4_000.0] {
                let arrivals = Arrivals::OpenLoop { rate_rps };
                let r = single(&p, ToleranceClass::Standard, deadline_us, arrivals, 48);
                write_single(&mut h, &r);
            }
        }
    }
    let closed = [
        (4, ToleranceClass::Standard, 200_000),
        (16, ToleranceClass::Strict, 20_000),
        (8, ToleranceClass::Relaxed, 5_000),
        (40, ToleranceClass::Standard, 1),
    ];
    for policy in ServeConfig::shipped() {
        for (clients, class, deadline_us) in closed {
            for queue_capacity in [policy.queue_capacity, 3] {
                let p = ServeConfig {
                    queue_capacity,
                    ..policy.clone()
                };
                let arrivals = Arrivals::ClosedLoop { clients };
                write_single(&mut h, &single(&p, class, deadline_us, arrivals, 64));
            }
        }
    }
    let load = FleetLoad {
        requests_per_tenant: 24,
        arrivals: Arrivals::OpenLoop { rate_rps: 240.0 },
        input_dim: 2,
        seed: SEED,
    };
    let models = [("edge_default", model()), ("streaming_keyword", model())];
    let opts = NodeSolveOptions::new(1e-4);
    let r = simulate_fleet(&FleetConfig::shipped(), &models, &opts, &load, &cost());
    h.write_u64(r.makespan_us);
    for inst in &r.instances {
        let offered = inst.metrics.submitted + inst.metrics.rejected_full;
        write_run(
            &mut h,
            offered,
            r.makespan_us,
            &inst.tier_counts,
            &inst.metrics,
        );
    }
    for t in &r.tenants {
        h.write(t.tenant.as_bytes());
        for v in [
            t.offered,
            t.submitted,
            t.completed,
            t.shed,
            t.failed,
            t.rejected,
            t.not_resident,
            t.p50_us,
            t.p95_us,
            t.p99_us,
        ] {
            h.write_u64(v);
        }
    }
    h.hex()
}

#[test]
fn simulator_runs_match_the_pinned_digest_at_every_pool_width() {
    for threads in [1usize, 4] {
        let digest = parallel::with_threads(threads, digest);
        assert_eq!(digest, "f76e8358647264e5", "pool width {threads}");
    }
}
