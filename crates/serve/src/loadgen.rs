//! Deterministic load generation: a discrete-event simulation of the
//! serving runtime under open- and closed-loop workloads.
//!
//! The simulation drives a pump-mode [`Server`] (`workers == 0`) on a
//! virtual clock. Batches really run through the solver — outputs and
//! per-sample NFE counts are the true deterministic values — but
//! *service time* is charged by a [`CostModel`] instead of measured, so
//! the entire latency distribution in `BENCH_serve.json` is
//! bit-reproducible: same seed, same policy, same lane count ⇒ the same
//! bytes, on any host.
//!
//! # Arrival processes
//!
//! * **Open loop** ([`LoadSpec::open_loop`]): arrivals are independent
//!   of completions. Inter-arrival gaps are jittered-uniform —
//!   `base × (0.5 + u)` with `u ∈ [0, 1)` from [`Rng64`] — which keeps
//!   the mean gap exactly `1/rate` without transcendental functions
//!   whose last bit could differ across libm builds.
//! * **Closed loop** ([`LoadSpec::closed_loop`]): a fixed population of
//!   clients, each submitting its next request the moment its previous
//!   one resolves. Offered load adapts to service capacity, so the queue
//!   never grows without bound — the classic saturation benchmark.

use crate::clock::Clock;
use crate::metrics::MetricsSnapshot;
use crate::policies::ServeConfig;
use crate::request::{Priority, Request, ToleranceClass};
use crate::server::{Server, SolvedBatch};
use enode_node::inference::NodeSolveOptions;
use enode_node::model::NodeModel;
use enode_tensor::rng::Rng64;
use enode_tensor::{init, parallel};

/// Converts a solved batch's function-evaluation counts into simulated
/// service time, mirroring how [`enode_tensor::parallel::parallel_map`]
/// actually schedules the per-sample solves: samples are split into
/// balanced contiguous chunks across `lanes`, and the batch takes as long
/// as its slowest lane (the makespan), plus a fixed dispatch overhead.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Simulated cost of one function evaluation (µs).
    pub per_nfe_us: f64,
    /// Fixed per-batch dispatch cost (µs).
    pub dispatch_overhead_us: u64,
    /// Parallel lanes the batch solve fans out over.
    pub lanes: usize,
}

impl CostModel {
    /// The default model: 2 µs per NFE, 150 µs dispatch overhead, lanes
    /// from the ambient pool width (`ENODE_THREADS`).
    pub fn default_for_pool() -> Self {
        CostModel {
            per_nfe_us: 2.0,
            dispatch_overhead_us: 150,
            lanes: parallel::default_threads(),
        }
    }

    /// Simulated service time (µs) for a batch with the given per-sample
    /// NFE counts: dispatch overhead plus the slowest-lane makespan under
    /// the pool's balanced contiguous decomposition.
    ///
    /// Fed [`crate::server::SolvedBatch::per_sample_nfe`], which lists
    /// only the samples that solved, a partly failed batch is priced as a
    /// smaller batch: its lanes are re-split over the successes and the
    /// work of a failed solve costs nothing, so the model undercounts it.
    pub fn service_us(&self, per_sample_nfe: &[u64]) -> u64 {
        let n = per_sample_nfe.len();
        if n == 0 {
            return self.dispatch_overhead_us;
        }
        let ways = self.lanes.max(1).min(n);
        let mut makespan = 0u64;
        // Same split as parallel.rs `chunk`: sizes differ by at most one,
        // earlier lanes take the remainder.
        let (base, rem) = (n / ways, n % ways);
        let mut start = 0;
        for lane in 0..ways {
            let len = base + usize::from(lane < rem);
            let lane_nfe: u64 = per_sample_nfe[start..start + len].iter().sum();
            let lane_us = (lane_nfe as f64 * self.per_nfe_us).ceil() as u64;
            makespan = makespan.max(lane_us);
            start += len;
        }
        self.dispatch_overhead_us + makespan
    }
}

/// How the workload offers requests to the server.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrivals {
    /// Fixed-rate arrivals (requests/s) with jittered-uniform gaps.
    OpenLoop {
        /// Offered load in requests per second.
        rate_rps: f64,
    },
    /// A fixed client population, each one-request-outstanding.
    ClosedLoop {
        /// Number of concurrent clients.
        clients: usize,
    },
}

/// A complete workload description. All randomness derives from `seed`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoadSpec {
    /// Total requests to offer.
    pub requests: usize,
    /// The arrival process.
    pub arrivals: Arrivals,
    /// Relative deadline stamped on each request (µs after submission).
    pub deadline_us: u64,
    /// Tolerance class of every request.
    pub class: ToleranceClass,
    /// Model input feature dimension (inputs are `[1, dim]` uniform
    /// samples in `[-1, 1]`).
    pub input_dim: usize,
    /// Master seed for arrival jitter and request inputs.
    pub seed: u64,
}

impl LoadSpec {
    /// An open-loop spec at `rate_rps` requests/s.
    pub fn open_loop(requests: usize, rate_rps: f64, deadline_us: u64) -> Self {
        LoadSpec {
            requests,
            arrivals: Arrivals::OpenLoop { rate_rps },
            deadline_us,
            class: ToleranceClass::Standard,
            input_dim: 2,
            seed: 0x5EED,
        }
    }

    /// A closed-loop spec with `clients` concurrent clients.
    pub fn closed_loop(requests: usize, clients: usize, deadline_us: u64) -> Self {
        LoadSpec {
            requests,
            arrivals: Arrivals::ClosedLoop { clients },
            deadline_us,
            class: ToleranceClass::Standard,
            input_dim: 2,
            seed: 0x5EED,
        }
    }
}

/// The outcome of one simulated run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// The policy's batch window during the run (µs).
    pub batch_window_us: u64,
    /// Offered load (requests/s) for open loop; `0.0` for closed loop.
    pub offered_rps: f64,
    /// Closed-loop client count; `0` for open loop.
    pub clients: usize,
    /// Requests offered (submitted + rejected at the door).
    pub offered: u64,
    /// Final metrics snapshot (drained: the identity holds exactly).
    pub metrics: MetricsSnapshot,
    /// Completed requests per degradation tier (index = tier).
    pub tier_counts: Vec<u64>,
    /// Virtual time at which the last event resolved (µs).
    pub makespan_us: u64,
}

/// Simulates `spec` against `policy`, returning drained metrics.
///
/// # Panics
///
/// Panics if the spec offers zero requests or the policy is invalid.
pub fn simulate(
    model: &NodeModel,
    base_opts: &NodeSolveOptions,
    policy: &ServeConfig,
    spec: &LoadSpec,
    cost: &CostModel,
) -> RunResult {
    assert!(
        spec.requests > 0,
        "load spec must offer at least one request"
    );
    let clock = Clock::virtual_at(0);
    let mut policy = policy.clone();
    policy.workers = 0; // pump mode: the event loop is the executor
    let server = Server::new(model.clone(), *base_opts, policy.clone(), clock.clone());

    let mut rng = Rng64::seed_from_u64(spec.seed);
    let mut input_rng = rng.fork();
    // Arrival schedule for the open loop; the closed loop generates
    // arrivals from completions instead.
    let mut arrival_times: Vec<u64> = Vec::new();
    let mut closed_clients = 0usize;
    match spec.arrivals {
        Arrivals::OpenLoop { rate_rps } => {
            assert!(rate_rps > 0.0, "open loop needs a positive rate");
            let base_gap_us = 1.0e6 / rate_rps;
            let mut t = 0.0f64;
            for _ in 0..spec.requests {
                t += base_gap_us * (0.5 + rng.gen_f64());
                arrival_times.push(t as u64);
            }
        }
        Arrivals::ClosedLoop { clients } => {
            assert!(clients > 0, "closed loop needs at least one client");
            closed_clients = clients.min(spec.requests);
            // Every client submits its first request at t = 0.
            arrival_times.extend((0..closed_clients).map(|_| 0u64));
        }
    }

    let mut next_input_seed = move || input_rng.next_u64();
    let make_request = |seed: u64, now: u64, spec: &LoadSpec| Request {
        input: init::uniform(&[1, spec.input_dim], -1.0, 1.0, seed),
        deadline_us: now + spec.deadline_us,
        tolerance_class: spec.class,
        priority: Priority::Normal,
    };

    let mut offered = 0u64;
    let mut submitted_total = 0usize; // offered to the queue (incl. rejected)
    let mut arrival_idx = 0usize;
    let mut busy_until: Option<u64> = None;
    let mut in_service: Option<SolvedBatch> = None;
    let mut tier_counts = vec![0u64; policy.tiers.len()];
    let mut makespan_us = 0u64;

    loop {
        // Next event: arrival, completion, or window expiry (the latter
        // only matters when the executor is free to act on it). Once the
        // full request budget is offered, leftover closed-loop refill
        // slots are dead entries — ignore them or the loop never ends.
        let next_arrival = if submitted_total < spec.requests {
            arrival_times.get(arrival_idx).copied()
        } else {
            None
        };
        let completion = busy_until;
        let window = if busy_until.is_none() {
            server.next_window_expiry_us()
        } else {
            None
        };
        let now_t = [next_arrival, completion, window]
            .into_iter()
            .flatten()
            .min();
        let Some(event_us) = now_t else {
            break; // no arrivals left, nothing in flight, queue empty
        };
        let event_us = event_us.max(clock.now_us());
        clock.set_us(event_us);
        makespan_us = event_us;

        // 1. Resolve a completed batch (and, closed loop, refill clients).
        if busy_until == Some(event_us) {
            let solved = in_service.take().expect("busy implies a batch in service");
            let tier = solved.tier();
            let completed = solved.per_sample_nfe().len() as u64;
            tier_counts[tier] += completed;
            server.deliver_batch(solved);
            busy_until = None;
            if closed_clients > 0 {
                for _ in 0..completed {
                    if submitted_total < spec.requests {
                        arrival_times.push(event_us);
                    }
                }
            }
        }

        // 2. Admit every arrival scheduled at or before this instant.
        while arrival_times
            .get(arrival_idx)
            .is_some_and(|&t| t <= event_us)
            && submitted_total < spec.requests
        {
            arrival_idx += 1;
            submitted_total += 1;
            offered += 1;
            let req = make_request(next_input_seed(), event_us, spec);
            let _ = server.submit(req); // QueueFull is recorded in metrics
        }

        // 3. If the executor is idle, try to dispatch.
        if busy_until.is_none() {
            if let Some(batch) = server.form_batch(false) {
                let solved = server.solve_batch(batch);
                let service = cost.service_us(solved.per_sample_nfe());
                busy_until = Some(event_us + service);
                in_service = Some(solved);
            }
        }
    }

    let metrics = server.snapshot();
    debug_assert!(metrics.reconciles(), "drained run must reconcile exactly");
    let (offered_rps, clients) = match spec.arrivals {
        Arrivals::OpenLoop { rate_rps } => (rate_rps, 0),
        Arrivals::ClosedLoop { clients } => (0.0, clients),
    };
    RunResult {
        batch_window_us: policy.batch_window_us,
        offered_rps,
        clients,
        offered,
        metrics,
        tier_counts,
        makespan_us,
    }
}

/// Sweeps offered load × batch window for one policy: the grid behind
/// `BENCH_serve.json`. Each cell reruns [`simulate`] with the policy's
/// window overridden.
pub fn sweep(
    model: &NodeModel,
    base_opts: &NodeSolveOptions,
    policy: &ServeConfig,
    rates_rps: &[f64],
    windows_us: &[u64],
    spec: &LoadSpec,
    cost: &CostModel,
) -> Vec<RunResult> {
    let mut rows = Vec::with_capacity(rates_rps.len() * windows_us.len());
    for &window in windows_us {
        for &rate in rates_rps {
            let mut p = policy.clone();
            p.batch_window_us = window;
            let run_spec = LoadSpec {
                arrivals: Arrivals::OpenLoop { rate_rps: rate },
                ..*spec
            };
            rows.push(simulate(model, base_opts, &p, &run_spec, cost));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (NodeModel, NodeSolveOptions, ServeConfig, CostModel) {
        let model = NodeModel::dynamic_system(2, 8, 1, 7);
        let opts = NodeSolveOptions::new(1e-4);
        let policy = ServeConfig::edge_default();
        let cost = CostModel {
            per_nfe_us: 2.0,
            dispatch_overhead_us: 150,
            lanes: 4,
        };
        (model, opts, policy, cost)
    }

    #[test]
    fn cost_model_makespan_matches_chunking() {
        let cost = CostModel {
            per_nfe_us: 1.0,
            dispatch_overhead_us: 10,
            lanes: 2,
        };
        // 3 samples over 2 lanes: chunks [0..2] and [2..3].
        assert_eq!(cost.service_us(&[5, 5, 7]), 10 + 10);
        // One lane dominates.
        assert_eq!(cost.service_us(&[100, 1, 1]), 10 + 101);
        // Empty batch is just overhead.
        assert_eq!(cost.service_us(&[]), 10);
    }

    #[test]
    fn open_loop_run_reconciles_and_is_deterministic() {
        let (model, opts, policy, cost) = setup();
        let spec = LoadSpec::open_loop(40, 400.0, 100_000);
        let a = simulate(&model, &opts, &policy, &spec, &cost);
        let b = simulate(&model, &opts, &policy, &spec, &cost);
        assert_eq!(a, b, "same seed must reproduce the run exactly");
        assert!(a.metrics.reconciles());
        assert_eq!(a.offered, 40);
        assert!(a.metrics.completed > 0);
        assert_eq!(
            a.tier_counts.iter().sum::<u64>(),
            a.metrics.completed,
            "every completed request is attributed to a tier"
        );
    }

    #[test]
    fn closed_loop_self_paces() {
        let (model, opts, policy, cost) = setup();
        let spec = LoadSpec::closed_loop(24, 4, 200_000);
        let r = simulate(&model, &opts, &policy, &spec, &cost);
        assert!(r.metrics.reconciles());
        assert_eq!(r.offered, 24);
        // Closed loop never overruns the queue: nothing is rejected.
        assert_eq!(r.metrics.rejected_full, 0);
        assert_eq!(r.metrics.completed + r.metrics.shed, 24);
    }

    #[test]
    fn overload_sheds_or_rejects_instead_of_collapsing() {
        let (model, opts, mut policy, mut cost) = setup();
        policy.queue_capacity = 8;
        // An expensive solve makes the offered load unserviceable.
        cost.per_nfe_us = 200.0;
        // Offer far beyond capacity with tight deadlines.
        let spec = LoadSpec {
            deadline_us: 30_000,
            ..LoadSpec::open_loop(60, 20_000.0, 30_000)
        };
        let r = simulate(&model, &opts, &policy, &spec, &cost);
        assert!(r.metrics.reconciles());
        assert!(
            r.metrics.rejected_full > 0 || r.metrics.shed > 0,
            "overload must be refused explicitly, not absorbed silently"
        );
        // Thin slack forces degraded tiers for whatever does complete.
        assert!(r.metrics.degraded <= r.metrics.completed);
    }

    #[test]
    fn sweep_covers_the_grid() {
        let (model, opts, policy, cost) = setup();
        let spec = LoadSpec::open_loop(12, 300.0, 100_000);
        let rows = sweep(
            &model,
            &opts,
            &policy,
            &[200.0, 800.0],
            &[0, 2_000],
            &spec,
            &cost,
        );
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|r| r.metrics.reconciles()));
        assert_eq!(rows[0].batch_window_us, 0);
        assert_eq!(rows[3].offered_rps, 800.0);
    }
}
