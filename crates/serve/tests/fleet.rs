//! Fleet determinism suite: response bits through the fleet router must
//! depend only on `(input, tolerance class, tier)` — never on the worker
//! count per instance, the arrival interleaving, or which instance the
//! consistent hash picked. `ci.sh` runs the serve suites under
//! `ENODE_THREADS=4` as well, pinning independence from the tensor
//! pool's parallelism.

use enode_node::inference::NodeSolveOptions;
use enode_node::model::NodeModel;
use enode_serve::{
    simulate_fleet, Arrivals, Clock, CostModel, Fleet, FleetConfig, FleetLoad, Registry,
    ServeConfig, TenantBinding, ToleranceClass,
};
use enode_tensor::init;

const TENANTS: [&str; 4] = ["vision_a", "vision_b", "keyword_a", "keyword_b"];
const PER_TENANT: usize = 3;

fn models() -> Vec<(&'static str, NodeModel)> {
    let m = NodeModel::dynamic_system(2, 8, 1, 42);
    vec![("edge_default", m.clone()), ("streaming_keyword", m)]
}

/// The fixed service-time charge of the committed benches.
fn cost() -> CostModel {
    CostModel {
        per_nfe_us: 20.0,
        dispatch_overhead_us: 150,
        lanes: 4,
    }
}

/// The fixed workload: every tenant submits `PER_TENANT` requests with
/// seed-determined inputs, identified by `(tenant index, request index)`.
fn workload() -> Vec<(usize, usize)> {
    (0..TENANTS.len())
        .flat_map(|t| (0..PER_TENANT).map(move |k| (t, k)))
        .collect()
}

/// Per-request `(output bits, tier)` keyed by `(tenant, request)`.
type Responses = Vec<((usize, usize), (Vec<u32>, usize))>;

/// Runs the workload in `order` against a shipped fleet with `workers`
/// threads per instance on a virtual clock, and returns the per-request
/// `(output bits, tier)` keyed by `(tenant, request)`.
fn run(workers: usize, order: &[(usize, usize)]) -> Responses {
    let clock = Clock::virtual_at(0);
    let mut fleet = Fleet::new(
        FleetConfig::shipped(),
        &models(),
        NodeSolveOptions::new(1e-4),
        workers,
        clock,
    );
    let mut tickets = Vec::with_capacity(order.len());
    for &(t, k) in order {
        let seed = 1000 + (t * 100 + k) as u64;
        let input = init::uniform(&[1, 2], -1.0, 1.0, seed);
        let ticket = fleet
            .submit_detached(TENANTS[t], input)
            .expect("workload fits every queue");
        tickets.push(((t, k), ticket));
    }
    fleet.drain();
    let mut out: Responses = tickets
        .into_iter()
        .map(|(key, ticket)| {
            let resp = ticket.wait().expect("workload completes");
            let bits = resp.output.data().iter().map(|v| v.to_bits()).collect();
            (key, (bits, resp.tier))
        })
        .collect();
    out.sort_by_key(|&(key, _)| key);
    out
}

#[test]
fn responses_are_bit_identical_across_worker_counts() {
    let order = workload();
    let base = run(1, &order);
    assert_eq!(base.len(), TENANTS.len() * PER_TENANT);
    for workers in [2, 4] {
        assert_eq!(run(workers, &order), base, "workers={workers}");
    }
}

#[test]
fn responses_are_bit_identical_across_arrival_orders() {
    let forward = workload();
    let mut reverse = workload();
    reverse.reverse();
    // Interleave tenants: all first requests, then all second, ...
    let mut interleaved = workload();
    interleaved.sort_by_key(|&(t, k)| (k, t));
    let base = run(2, &forward);
    assert_eq!(run(2, &reverse), base, "reverse order");
    assert_eq!(run(2, &interleaved), base, "interleaved order");
}

#[test]
fn simulated_fleet_sweeps_are_bit_identical() {
    let cfg = FleetConfig::shipped();
    let opts = NodeSolveOptions::new(1e-4);
    let load = FleetLoad {
        requests_per_tenant: 24,
        arrivals: Arrivals::OpenLoop { rate_rps: 120.0 },
        input_dim: 2,
        seed: 24301,
    };
    let a = simulate_fleet(&cfg, &models(), &opts, &load, &cost());
    let b = simulate_fleet(&cfg, &models(), &opts, &load, &cost());
    assert_eq!(a, b);
    // The sweep actually exercised the fleet.
    assert!(a.tenants.iter().all(|t| t.completed > 0));
    assert!(a.makespan_us > 0);
}

#[test]
fn closed_loop_tenants_each_offer_their_whole_budget() {
    // Four tenants with four clients each on the shipped four-instance
    // fleet: each model's queues and every tenant's quota hold all of
    // its clients, so no offer is refused and every request is offered.
    let cfg = FleetConfig::shipped();
    let opts = NodeSolveOptions::new(1e-4);
    let load = FleetLoad {
        requests_per_tenant: 24,
        arrivals: Arrivals::ClosedLoop { clients: 4 },
        input_dim: 2,
        seed: 24301,
    };
    let a = simulate_fleet(&cfg, &models(), &opts, &load, &cost());
    assert_eq!(a, simulate_fleet(&cfg, &models(), &opts, &load, &cost()));
    assert_eq!(a.tenants.len(), TENANTS.len());
    for t in &a.tenants {
        assert_eq!(t.offered, 24, "{t:?}");
        assert_eq!(
            t.offered,
            t.submitted + t.rejected + t.not_resident,
            "{t:?}"
        );
        assert_eq!(t.submitted, t.completed + t.shed + t.failed, "{t:?}");
        assert_eq!((t.rejected, t.not_resident), (0, 0), "{t:?}");
    }
    assert!(a.instances.iter().all(|i| i.metrics.submitted > 0));
}

#[test]
fn node_loss_mid_run_preserves_determinism_for_survivors() {
    let order = workload();
    let run_with_loss = || {
        let clock = Clock::virtual_at(0);
        let mut fleet = Fleet::new(
            FleetConfig::shipped(),
            &models(),
            NodeSolveOptions::new(1e-4),
            2,
            clock,
        );
        fleet.kill_instance(0);
        fleet.kill_instance(2);
        let mut tickets = Vec::new();
        for &(t, k) in &order {
            let seed = 1000 + (t * 100 + k) as u64;
            let input = init::uniform(&[1, 2], -1.0, 1.0, seed);
            tickets.push(((t, k), fleet.submit_detached(TENANTS[t], input).unwrap()));
        }
        fleet.drain();
        let mut out: Responses = tickets
            .into_iter()
            .map(|(key, ticket)| {
                let resp = ticket.wait().expect("survivors absorb the load");
                let bits = resp.output.data().iter().map(|v| v.to_bits()).collect();
                (key, (bits, resp.tier))
            })
            .collect();
        out.sort_by_key(|&(key, _)| key);
        out
    };
    let a = run_with_loss();
    assert_eq!(a, run_with_loss());
    // Rerouted responses keep the same bits as the full fleet at equal
    // tier: bits depend on (input, class, tier), not on the instance.
    let full = run(2, &order);
    for (x, y) in a.iter().zip(&full) {
        assert_eq!(x.0, y.0);
        if x.1 .1 == y.1 .1 {
            assert_eq!(x.1 .0, y.1 .0, "same tier must mean same bits");
        }
    }
}

#[test]
fn simulated_tier_counts_count_only_completed_requests() {
    // One trial per step on every tier: the Strict solves fail, and a
    // failed request is not a completed one in any tier.
    let mut policy = ServeConfig::edge_default();
    for tier in &mut policy.tiers {
        tier.max_trials = 1;
    }
    let registry = Registry::new();
    registry.publish(policy.name, policy);
    registry.bind(TenantBinding {
        tenant: "strict".to_string(),
        model: "edge_default".to_string(),
        class: ToleranceClass::Strict,
        sla_deadline_us: 1_000_000,
        quota: 16,
        rate_rps: 60.0,
    });
    let mut cfg = FleetConfig::shipped();
    cfg.instances = 1;
    cfg.assignment = vec!["edge_default".to_string()];
    cfg.registry = (*registry.snapshot()).clone();
    let load = FleetLoad {
        requests_per_tenant: 16,
        arrivals: Arrivals::OpenLoop { rate_rps: 60.0 },
        input_dim: 2,
        seed: 24301,
    };
    let run = simulate_fleet(
        &cfg,
        &models(),
        &NodeSolveOptions::new(1e-4),
        &load,
        &cost(),
    );
    assert!(run.instances[0].metrics.failed > 0, "{run:?}");
    for inst in &run.instances {
        assert_eq!(
            inst.tier_counts.iter().sum::<u64>(),
            inst.metrics.completed,
            "instance {}: {:?}",
            inst.instance,
            inst.tier_counts
        );
    }
}
