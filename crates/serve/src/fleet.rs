//! The fleet router: N simulated serve instances behind deterministic
//! consistent-hash routing.
//!
//! Each instance reuses [`Server`] wholesale — its own bounded queue,
//! batcher, worker set (or pump mode) and metrics — and serves one
//! assigned model from the registry, with the live version warmed into
//! its weight SRAM by a [`ResidencyManager`]. Requests route by FNV-1a
//! consistent hashing over `(tenant, sequence)` on a per-model ring of
//! virtual nodes; a routed instance that is dead, cold, or full is
//! skipped clockwise (node-loss rebalancing falls out of the same walk),
//! with a least-loaded fallback when the routed queue is saturated.
//!
//! # Determinism contract
//!
//! Routing depends only on `(fleet name, instance index, vnode)` and
//! `(tenant, per-tenant sequence)` — never on clocks, pointers, or map
//! iteration order. Driven by the discrete-event loop in
//! [`simulate_fleet`] (pump mode, virtual clock, [`CostModel`] service
//! times), two runs of the same [`FleetLoad`] produce byte-identical
//! results on any host; with worker threads, response bits still depend
//! only on `(input, class, tier)` exactly as the single-server
//! determinism suite pins.

use crate::clock::Clock;
use crate::loadgen::CostModel;
use crate::metrics::MetricsSnapshot;
use crate::registry::{Registry, RegistrySnapshot, TenantBinding};
use crate::request::{Priority, Rejected, Request, Ticket};
use crate::residency::ResidencyManager;
use crate::server::{Server, SolvedBatch};
use enode_hw::config::HwConfig;
use enode_hw::fingerprint::Fnv64;
use enode_node::inference::NodeSolveOptions;
use enode_node::model::NodeModel;
use enode_tensor::rng::Rng64;
use enode_tensor::{init, Tensor};

/// Virtual nodes per instance on each model's hash ring. 16 keeps the
/// key-space split within ~25% of even for the fleet sizes swept here.
pub const VNODES: usize = 16;

/// A static fleet deployment: how many instances, which model each one
/// serves, and over which registry state. This is the artifact the
/// `E11x` lints (`analysis::fleetcheck`) prove before anything runs.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetConfig {
    /// Fleet name (ring salt and lint subject).
    pub name: &'static str,
    /// Simulated serve instances.
    pub instances: usize,
    /// Virtual nodes per instance on each model ring.
    pub vnodes: usize,
    /// The per-instance SRAM envelope (Table I configuration).
    pub hw: HwConfig,
    /// The model each instance serves, indexed by instance.
    pub assignment: Vec<String>,
    /// The registry state the fleet deploys (models + tenants).
    pub registry: RegistrySnapshot,
}

impl FleetConfig {
    /// The shipped fleet: four Configuration-A instances, two per shipped
    /// policy, serving the [`crate::registry::shipped_registry`] tenants.
    /// Sized so any single node loss is absorbable (lint `E111`).
    pub fn shipped() -> FleetConfig {
        let registry = (*crate::registry::shipped_registry().snapshot()).clone();
        FleetConfig {
            name: "edge_fleet",
            instances: 4,
            vnodes: VNODES,
            hw: HwConfig::config_a(),
            assignment: vec![
                "edge_default".to_string(),
                "edge_default".to_string(),
                "streaming_keyword".to_string(),
                "streaming_keyword".to_string(),
            ],
            registry,
        }
    }

    /// Structural sanity (mirrors `ServeConfig::validate`): panics on a
    /// config the fleet cannot even be constructed from. The static lint
    /// `E114` reports the same conditions without panicking.
    pub fn validate(&self) {
        assert!(self.instances > 0, "fleet needs at least one instance");
        assert!(self.vnodes > 0, "fleet needs at least one vnode");
        assert_eq!(
            self.assignment.len(),
            self.instances,
            "assignment must name a model per instance"
        );
        for name in &self.assignment {
            assert!(
                self.registry.live(name).is_some(),
                "assigned model {name} has no live published version"
            );
        }
        for t in &self.registry.tenants {
            assert!(
                self.assignment.contains(&t.model),
                "tenant {} is bound to {}, which no instance serves",
                t.tenant,
                t.model
            );
        }
    }
}

/// The ring position of one `(instance, vnode)` pair.
pub fn ring_point(fleet: &str, instance: usize, vnode: usize) -> u64 {
    let mut h = Fnv64::new();
    h.write(fleet.as_bytes());
    h.write_u64(instance as u64);
    h.write_u64(vnode as u64);
    h.finish()
}

/// The routing key of one tenant request (`seq` is the tenant's
/// submission counter, so a tenant's traffic spreads over the ring
/// instead of pinning one instance).
pub fn request_key(tenant: &str, seq: u64) -> u64 {
    let mut h = Fnv64::new();
    h.write(tenant.as_bytes());
    h.write_u64(seq);
    h.finish()
}

/// One model's consistent-hash ring over the instances assigned to it.
#[derive(Clone, Debug)]
pub struct Ring {
    /// `(position, instance)`, sorted by position.
    points: Vec<(u64, usize)>,
}

impl Ring {
    /// Builds the ring for `members` (instance indices) with `vnodes`
    /// virtual nodes each.
    pub fn new(fleet: &str, members: &[usize], vnodes: usize) -> Ring {
        let mut points: Vec<(u64, usize)> = members
            .iter()
            .flat_map(|&i| (0..vnodes).map(move |v| (ring_point(fleet, i, v), i)))
            .collect();
        points.sort_unstable();
        Ring { points }
    }

    /// Walks the ring clockwise from `key`: the routed instance first,
    /// then each successor — the exact order keys rebalance in when a
    /// node drops out. Yields every point, so callers filter by
    /// liveness/residency and take the first acceptable instance.
    pub fn walk(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        let start = self.points.partition_point(|&(h, _)| h < key);
        let n = self.points.len();
        (0..n).map(move |i| self.points[(start + i) % n].1)
    }

    /// The primary owner of `key` (first point clockwise).
    pub fn route(&self, key: u64) -> Option<usize> {
        self.walk(key).next()
    }
}

/// One running instance: a whole [`Server`] plus its weight SRAM.
pub struct FleetInstance {
    /// The model this instance serves.
    pub model: String,
    /// The wrapped server (own queue, batcher, workers, metrics).
    pub server: Server,
    /// The instance's weight-residency accounting.
    pub residency: ResidencyManager,
    /// Dead instances are skipped by routing (node-loss rebalancing).
    pub alive: bool,
}

/// Per-tenant accounting; produced by [`Fleet::finish`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantStats {
    /// Tenant name.
    pub tenant: String,
    /// Requests offered (admitted + rejected at the fleet door).
    pub offered: u64,
    /// Requests admitted into some instance's queue.
    pub submitted: u64,
    /// Responses delivered.
    pub completed: u64,
    /// Shed after admission (deadline expired before dispatch).
    pub shed: u64,
    /// Failed after admission (worker panic / solver failure / swept by
    /// an instance shutdown).
    pub failed: u64,
    /// Refused at the fleet door: quota exhausted or every candidate
    /// queue full.
    pub rejected: u64,
    /// Refused at the fleet door: no live instance had the published
    /// version warm ([`Rejected::NotResident`]).
    pub not_resident: u64,
    /// Nearest-rank latency percentiles over completed requests (µs).
    pub p50_us: u64,
    /// 95th percentile (µs).
    pub p95_us: u64,
    /// 99th percentile (µs).
    pub p99_us: u64,
}

/// Per-instance accounting; produced by [`Fleet::finish`].
#[derive(Clone, Debug, PartialEq)]
pub struct InstanceStats {
    /// Instance index.
    pub instance: usize,
    /// Assigned model.
    pub model: String,
    /// Whether the instance was still alive at the end of the run.
    pub alive: bool,
    /// Total resident weight bytes (all versions, all cores).
    pub resident_bytes: u64,
    /// The resident `(model, version)` set, in warm-up order.
    pub resident_versions: Vec<(String, u32)>,
    /// Completed requests per degradation tier (filled by
    /// [`simulate_fleet`]; zeros under worker threads).
    pub tier_counts: Vec<u64>,
    /// The instance server's drained metrics.
    pub metrics: MetricsSnapshot,
}

/// The outcome of a fleet run.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetRunResult {
    /// Per-tenant stats, in registry bind order.
    pub tenants: Vec<TenantStats>,
    /// Per-instance stats, by instance index.
    pub instances: Vec<InstanceStats>,
    /// Virtual time of the last event (µs); 0 under worker threads.
    pub makespan_us: u64,
}

struct TenantState {
    binding: TenantBinding,
    seq: u64,
    outstanding: Vec<Ticket>,
    stats: TenantStats,
    latencies: Vec<u64>,
}

impl TenantState {
    /// Harvests already-resolved tickets into the running stats.
    fn sweep(&mut self) {
        let stats = &mut self.stats;
        let latencies = &mut self.latencies;
        self.outstanding.retain(|t| match t.try_take() {
            None => true,
            Some(Ok(resp)) => {
                stats.completed += 1;
                latencies.push(resp.latency_us());
                false
            }
            Some(Err(Rejected::DeadlineExpired { .. })) => {
                stats.shed += 1;
                false
            }
            Some(Err(_)) => {
                stats.failed += 1;
                false
            }
        });
    }
}

/// Nearest-rank percentile of an ascending-sorted latency list.
pub fn percentile_us(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 * pct).div_ceil(100).max(1);
    sorted[(rank - 1).min(sorted.len() as u64 - 1) as usize]
}

/// The running fleet.
pub struct Fleet {
    config: FleetConfig,
    registry: Registry,
    clock: Clock,
    instances: Vec<FleetInstance>,
    rings: Vec<(String, Ring)>,
    tenants: Vec<TenantState>,
}

impl Fleet {
    /// Builds the fleet: one [`Server`] per instance (spawning `workers`
    /// threads each; 0 = pump mode), warms every instance's assigned live
    /// version (pinned), and builds the per-model rings.
    ///
    /// `models` maps registry model names to the [`NodeModel`] each
    /// instance actually solves with.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`FleetConfig::validate`], a model name
    /// has no entry in `models`, or a live version overflows the SRAM
    /// envelope (lint `E110` proves this can't happen statically).
    pub fn new(
        config: FleetConfig,
        models: &[(&str, NodeModel)],
        base_opts: NodeSolveOptions,
        workers: usize,
        clock: Clock,
    ) -> Fleet {
        config.validate();
        let registry = Registry::from_snapshot(config.registry.clone());
        let snap = registry.snapshot();
        let mut instances = Vec::with_capacity(config.instances);
        for name in &config.assignment {
            let handle = snap.live(name).expect("validated: live version exists");
            let node_model = models
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("no NodeModel provided for model {name}"))
                .1
                .clone();
            let mut policy = handle.policy.clone();
            policy.workers = workers;
            let server = Server::new(node_model, base_opts, policy, clock.clone());
            let mut residency = ResidencyManager::new(&config.hw);
            residency
                .warm(handle, true)
                .unwrap_or_else(|e| panic!("live version of {name} cannot be warmed: {e:?}"));
            instances.push(FleetInstance {
                model: name.clone(),
                server,
                residency,
                alive: true,
            });
        }
        let mut rings: Vec<(String, Ring)> = Vec::new();
        for (name, _) in &snap.published {
            let members: Vec<usize> = config
                .assignment
                .iter()
                .enumerate()
                .filter(|(_, m)| *m == name)
                .map(|(i, _)| i)
                .collect();
            rings.push((
                name.clone(),
                Ring::new(config.name, &members, config.vnodes),
            ));
        }
        let tenants = snap
            .tenants
            .iter()
            .map(|b| TenantState {
                binding: b.clone(),
                seq: 0,
                outstanding: Vec::new(),
                stats: TenantStats {
                    tenant: b.tenant.clone(),
                    ..TenantStats::default()
                },
                latencies: Vec::new(),
            })
            .collect();
        Fleet {
            config,
            registry,
            clock,
            instances,
            rings,
            tenants,
        }
    }

    /// The static config the fleet was built from.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The live registry (publish/rollback go through here).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The instances, by index.
    pub fn instances(&self) -> &[FleetInstance] {
        &self.instances
    }

    /// Tenant names, in registry bind order (the submit index space).
    pub fn tenant_names(&self) -> Vec<String> {
        self.tenants
            .iter()
            .map(|t| t.binding.tenant.clone())
            .collect()
    }

    /// Routes `key` for `model`: the ring walk's first alive instance
    /// with `version` warm. `None` means no instance can serve it.
    fn route(&self, model: &str, version: u32, key: u64) -> Option<usize> {
        let ring = &self.rings.iter().find(|(n, _)| n == model)?.1;
        ring.walk(key).find(|&i| {
            let inst = &self.instances[i];
            inst.alive && inst.residency.is_resident(model, version)
        })
    }

    /// Submits one request for the tenant at `tenant_idx` (registry bind
    /// order). Routing, quota and residency admission happen here; queue
    /// admission happens in the chosen instance's [`Server::submit`].
    ///
    /// # Errors
    ///
    /// [`Rejected::QueueFull`] when the tenant's quota is exhausted (the
    /// reported capacity is the quota) or the chosen instance's queue is
    /// full; [`Rejected::NotResident`] when no alive instance holds the
    /// published version; [`Rejected::ShuttingDown`] from a dying
    /// instance.
    pub fn submit_by_index(&mut self, tenant_idx: usize, input: Tensor) -> Result<(), Rejected> {
        let ticket = self.submit_inner(tenant_idx, input)?;
        self.tenants[tenant_idx].outstanding.push(ticket);
        Ok(())
    }

    /// Like [`Fleet::submit`], but hands the [`Ticket`] to the caller
    /// instead of tracking it: the request is counted at the door
    /// (offered/submitted/rejected), but its outcome is the caller's to
    /// observe and is not folded into [`TenantStats`] — the determinism
    /// suite uses this to compare response bits directly.
    ///
    /// # Errors
    ///
    /// As [`Fleet::submit_by_index`].
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is not bound in the registry.
    pub fn submit_detached(&mut self, tenant: &str, input: Tensor) -> Result<Ticket, Rejected> {
        let idx = self
            .tenants
            .iter()
            .position(|t| t.binding.tenant == tenant)
            .unwrap_or_else(|| panic!("unknown tenant {tenant}"));
        self.submit_inner(idx, input)
    }

    fn submit_inner(&mut self, tenant_idx: usize, input: Tensor) -> Result<Ticket, Rejected> {
        let (model, class, sla, quota) = {
            let b = &self.tenants[tenant_idx].binding;
            (b.model.clone(), b.class, b.sla_deadline_us, b.quota)
        };
        let snap = self.registry.snapshot();
        let version = snap.live(&model).map(|h| h.version).unwrap_or(0);

        let ts = &mut self.tenants[tenant_idx];
        ts.stats.offered += 1;
        ts.sweep();
        if ts.outstanding.len() >= quota {
            ts.stats.rejected += 1;
            return Err(Rejected::QueueFull { capacity: quota });
        }
        let key = request_key(&ts.binding.tenant, ts.seq);
        ts.seq += 1;

        let routed = self.route(&model, version, key);
        let Some(primary) = routed else {
            let ts = &mut self.tenants[tenant_idx];
            ts.stats.not_resident += 1;
            return Err(Rejected::NotResident { model, version });
        };
        // Least-loaded fallback: a saturated primary hands off to the
        // shallowest candidate queue (ties to the lowest index).
        let target = if self.instances[primary].server.queue_len()
            >= self.instances[primary].server.config().queue_capacity
        {
            (0..self.instances.len())
                .filter(|&i| {
                    let inst = &self.instances[i];
                    inst.alive && inst.residency.is_resident(&model, version)
                })
                .min_by_key(|&i| (self.instances[i].server.queue_len(), i))
                .unwrap_or(primary)
        } else {
            primary
        };

        self.instances[target].residency.touch(&model, version);
        let request = Request {
            input,
            deadline_us: self.clock.now_us() + sla,
            tolerance_class: class,
            priority: Priority::Normal,
        };
        match self.instances[target].server.submit(request) {
            Ok(ticket) => {
                self.tenants[tenant_idx].stats.submitted += 1;
                Ok(ticket)
            }
            Err(e) => {
                self.tenants[tenant_idx].stats.rejected += 1;
                Err(e)
            }
        }
    }

    /// Submits one request by tenant name.
    ///
    /// # Errors
    ///
    /// As [`Fleet::submit_by_index`].
    ///
    /// # Panics
    ///
    /// Panics if `tenant` is not bound in the registry.
    pub fn submit(&mut self, tenant: &str, input: Tensor) -> Result<(), Rejected> {
        let idx = self
            .tenants
            .iter()
            .position(|t| t.binding.tenant == tenant)
            .unwrap_or_else(|| panic!("unknown tenant {tenant}"));
        self.submit_by_index(idx, input)
    }

    /// Publishes the next version of `name` and adopts it fleet-wide:
    /// every instance serving `name` warms the new version (pinned) and
    /// unpins its predecessor, which stays warm for rollback until SRAM
    /// pressure evicts it.
    pub fn publish(&mut self, name: &str, policy: crate::policies::ServeConfig) -> u32 {
        let handle = self.registry.publish(name, policy);
        for inst in self.instances.iter_mut().filter(|i| i.model == name) {
            if handle.version > 1 {
                inst.residency.set_pinned(name, handle.version - 1, false);
            }
            // A version too large for the envelope simply stays cold; the
            // routing layer then refuses with NotResident (and the static
            // lint E110 flags the config).
            let _ = inst.residency.warm(&handle, true);
        }
        handle.version
    }

    /// Rolls `name` back one version and re-adopts: the restored version
    /// is re-warmed and pinned (usually still resident), the rolled-back
    /// one unpinned.
    pub fn rollback(&mut self, name: &str) -> Option<u32> {
        let handle = self.registry.rollback(name)?;
        for inst in self.instances.iter_mut().filter(|i| i.model == name) {
            inst.residency.set_pinned(name, handle.version + 1, false);
            let _ = inst.residency.warm(&handle, true);
        }
        Some(handle.version)
    }

    /// Kills instance `i`: its queue is swept (tickets resolve
    /// `ShuttingDown`), and the ring walk re-routes its key range to the
    /// surviving instances of the same model.
    pub fn kill_instance(&mut self, i: usize) {
        if !self.instances[i].alive {
            return;
        }
        self.instances[i].alive = false;
        self.instances[i].server.shutdown();
    }

    /// Blocks until every alive instance's queue is empty and in-flight
    /// work is delivered (worker mode only — pump mode drains through the
    /// event loop instead).
    pub fn drain(&self) {
        for inst in self.instances.iter().filter(|i| i.alive) {
            inst.server.drain();
        }
    }

    /// Waits out all outstanding tickets and closes the books: per-tenant
    /// percentiles, per-instance residency and metrics.
    pub fn finish(mut self) -> FleetRunResult {
        let mut tenants = Vec::with_capacity(self.tenants.len());
        for mut ts in self.tenants {
            ts.sweep();
            for ticket in ts.outstanding.drain(..) {
                match ticket.wait() {
                    Ok(resp) => {
                        ts.stats.completed += 1;
                        ts.latencies.push(resp.latency_us());
                    }
                    Err(Rejected::DeadlineExpired { .. }) => ts.stats.shed += 1,
                    Err(_) => ts.stats.failed += 1,
                }
            }
            ts.latencies.sort_unstable();
            ts.stats.p50_us = percentile_us(&ts.latencies, 50);
            ts.stats.p95_us = percentile_us(&ts.latencies, 95);
            ts.stats.p99_us = percentile_us(&ts.latencies, 99);
            tenants.push(ts.stats);
        }
        let instances = self
            .instances
            .iter_mut()
            .enumerate()
            .map(|(i, inst)| {
                if inst.alive {
                    inst.server.shutdown();
                }
                InstanceStats {
                    instance: i,
                    model: inst.model.clone(),
                    alive: inst.alive,
                    resident_bytes: inst.residency.total_resident_bytes(),
                    resident_versions: inst
                        .residency
                        .resident()
                        .iter()
                        .map(|r| (r.name.clone(), r.version))
                        .collect(),
                    tier_counts: vec![0; inst.server.config().tiers.len()],
                    metrics: inst.server.snapshot(),
                }
            })
            .collect();
        FleetRunResult {
            tenants,
            instances,
            makespan_us: 0,
        }
    }
}

/// One fleet workload: every tenant offers an open-loop stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FleetLoad {
    /// Requests each tenant offers.
    pub requests_per_tenant: usize,
    /// Offered load per tenant (requests/s, jittered-uniform gaps).
    pub rate_rps: f64,
    /// Model input feature dimension.
    pub input_dim: usize,
    /// Master seed (arrival jitter and inputs; forked per tenant).
    pub seed: u64,
}

/// Simulates `load` against a fleet built from `config`, in pump mode on
/// a virtual clock: the discrete-event loop generalizes
/// [`crate::loadgen::simulate`] to N instances, each with its own
/// busy/idle state and batch window, charged through `cost`. Two runs
/// are bit-identical.
///
/// # Panics
///
/// Panics if the load offers zero requests or no tenants are bound.
pub fn simulate_fleet(
    config: &FleetConfig,
    models: &[(&str, NodeModel)],
    base_opts: &NodeSolveOptions,
    load: &FleetLoad,
    cost: &CostModel,
) -> FleetRunResult {
    assert!(load.requests_per_tenant > 0, "load must offer requests");
    assert!(
        !config.registry.tenants.is_empty(),
        "fleet load needs at least one tenant"
    );
    assert!(load.rate_rps > 0.0, "open loop needs a positive rate");
    let clock = Clock::virtual_at(0);
    let mut fleet = Fleet::new(config.clone(), models, *base_opts, 0, clock.clone());
    let n = fleet.instances.len();
    let tenant_count = fleet.tenants.len();

    // Per-tenant arrival streams, merged into one deterministic schedule:
    // (time, tenant, input seed), stably ordered by (time, tenant).
    let mut master = Rng64::seed_from_u64(load.seed);
    let mut events: Vec<(u64, usize, u64)> = Vec::new();
    let base_gap_us = 1.0e6 / load.rate_rps;
    for ti in 0..tenant_count {
        let mut arr_rng = master.fork();
        let mut input_rng = master.fork();
        let mut t = 0.0f64;
        for _ in 0..load.requests_per_tenant {
            t += base_gap_us * (0.5 + arr_rng.gen_f64());
            events.push((t as u64, ti, input_rng.next_u64()));
        }
    }
    events.sort_by_key(|&(t, ti, _)| (t, ti));

    let mut busy: Vec<Option<u64>> = vec![None; n];
    let mut in_service: Vec<Option<SolvedBatch>> = (0..n).map(|_| None).collect();
    let mut tier_counts: Vec<Vec<u64>> = fleet
        .instances
        .iter()
        .map(|inst| vec![0u64; inst.server.config().tiers.len()])
        .collect();
    let mut next_event = 0usize;
    let mut makespan_us = 0u64;

    loop {
        let next_arrival = events.get(next_event).map(|e| e.0);
        let next_completion = busy.iter().flatten().min().copied();
        let next_window = fleet
            .instances
            .iter()
            .enumerate()
            .filter(|(i, inst)| inst.alive && busy[*i].is_none())
            .filter_map(|(_, inst)| inst.server.next_window_expiry_us())
            .min();
        let Some(event_us) = [next_arrival, next_completion, next_window]
            .into_iter()
            .flatten()
            .min()
        else {
            break; // no arrivals left, nothing in flight, queues empty
        };
        let event_us = event_us.max(clock.now_us());
        clock.set_us(event_us);
        makespan_us = event_us;

        // 1. Resolve every batch completing at this instant.
        for i in 0..n {
            if busy[i] == Some(event_us) {
                let solved = in_service[i].take().expect("busy implies a batch");
                tier_counts[i][solved.tier()] += solved.per_sample_nfe().len() as u64;
                fleet.instances[i].server.deliver_batch(solved);
                busy[i] = None;
            }
        }

        // 2. Admit every arrival scheduled at or before this instant.
        while events
            .get(next_event)
            .is_some_and(|&(t, _, _)| t <= event_us)
        {
            let (_, ti, seed) = events[next_event];
            next_event += 1;
            let input = init::uniform(&[1, load.input_dim], -1.0, 1.0, seed);
            // Rejections are recorded in the tenant stats.
            let _ = fleet.submit_by_index(ti, input);
        }

        // 3. Dispatch every idle instance that can form a batch, in
        // instance order (deterministic tie-break at equal timestamps).
        for i in 0..n {
            if fleet.instances[i].alive && busy[i].is_none() {
                if let Some(batch) = fleet.instances[i].server.form_batch(false) {
                    let solved = fleet.instances[i].server.solve_batch(batch);
                    let service = cost.service_us(solved.per_sample_nfe());
                    busy[i] = Some(event_us + service);
                    in_service[i] = Some(solved);
                }
            }
        }
    }

    let mut result = fleet.finish();
    for (i, counts) in tier_counts.into_iter().enumerate() {
        result.instances[i].tier_counts = counts;
        debug_assert!(
            result.instances[i].metrics.reconciles(),
            "drained fleet instance must reconcile exactly"
        );
    }
    result.makespan_us = makespan_us;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::ServeConfig;

    fn bench_models() -> Vec<(&'static str, NodeModel)> {
        let m = NodeModel::dynamic_system(2, 8, 1, 42);
        vec![("edge_default", m.clone()), ("streaming_keyword", m)]
    }

    fn quick_load() -> FleetLoad {
        FleetLoad {
            requests_per_tenant: 12,
            rate_rps: 400.0,
            input_dim: 2,
            seed: 0x5EED,
        }
    }

    fn quick_cost() -> CostModel {
        CostModel {
            per_nfe_us: 2.0,
            dispatch_overhead_us: 150,
            lanes: 4,
        }
    }

    #[test]
    fn ring_walk_starts_at_the_owner_and_covers_all_members() {
        let ring = Ring::new("f", &[0, 1, 2], 4);
        let seen: Vec<usize> = ring.walk(request_key("tenant", 7)).collect();
        assert_eq!(seen.len(), 12);
        for m in 0..3 {
            assert!(seen.contains(&m));
        }
        // Deterministic: the same key walks the same order.
        let again: Vec<usize> = ring.walk(request_key("tenant", 7)).collect();
        assert_eq!(seen, again);
    }

    #[test]
    fn keys_spread_across_instances() {
        let ring = Ring::new("edge_fleet", &[0, 1, 2, 3], VNODES);
        let mut hits = [0usize; 4];
        for seq in 0..256 {
            hits[ring.route(request_key("vision_a", seq)).unwrap()] += 1;
        }
        for (i, &h) in hits.iter().enumerate() {
            assert!(h > 16, "instance {i} starved: {hits:?}");
        }
    }

    #[test]
    fn node_loss_rebalances_only_the_lost_keys() {
        let all = Ring::new("f", &[0, 1, 2, 3], VNODES);
        let mut moved = 0usize;
        let total = 512usize;
        for seq in 0..total as u64 {
            let key = request_key("t", seq);
            let before = all.route(key).unwrap();
            // Losing instance 2: the walk skips it; other keys stay put.
            let after = all.walk(key).find(|&i| i != 2).unwrap();
            if before != 2 {
                assert_eq!(before, after, "live key moved on unrelated loss");
            } else {
                assert_ne!(after, 2);
                moved += 1;
            }
        }
        assert!(moved > 0, "some keys must have been owned by the lost node");
    }

    #[test]
    fn fleet_simulation_reconciles_and_serves_every_tenant() {
        let cfg = FleetConfig::shipped();
        let r = simulate_fleet(
            &cfg,
            &bench_models(),
            &NodeSolveOptions::new(1e-4),
            &quick_load(),
            &quick_cost(),
        );
        assert_eq!(r.tenants.len(), 4);
        for t in &r.tenants {
            assert_eq!(t.offered, 12, "{}", t.tenant);
            assert_eq!(
                t.offered,
                t.submitted + t.rejected + t.not_resident,
                "{} door accounting",
                t.tenant
            );
            assert_eq!(
                t.submitted,
                t.completed + t.shed + t.failed,
                "{} ticket accounting",
                t.tenant
            );
            assert!(t.completed > 0, "{} must complete work", t.tenant);
            assert!(t.p50_us <= t.p95_us && t.p95_us <= t.p99_us);
        }
        for inst in &r.instances {
            assert!(inst.metrics.reconciles());
            assert!(inst.resident_bytes > 0);
            assert_eq!(inst.resident_versions.len(), 1);
        }
        // Everything admitted at the door landed in some instance queue.
        let door: u64 = r.tenants.iter().map(|t| t.submitted).sum();
        let queued: u64 = r.instances.iter().map(|i| i.metrics.submitted).sum();
        assert_eq!(door, queued);
    }

    #[test]
    fn simulation_is_bit_deterministic() {
        let cfg = FleetConfig::shipped();
        let opts = NodeSolveOptions::new(1e-4);
        let a = simulate_fleet(&cfg, &bench_models(), &opts, &quick_load(), &quick_cost());
        let b = simulate_fleet(&cfg, &bench_models(), &opts, &quick_load(), &quick_cost());
        assert_eq!(a, b);
    }

    #[test]
    fn killing_an_instance_reroutes_to_its_ring_successors() {
        let cfg = FleetConfig::shipped();
        let clock = Clock::virtual_at(0);
        let mut fleet = Fleet::new(cfg, &bench_models(), NodeSolveOptions::new(1e-4), 1, clock);
        fleet.kill_instance(0);
        for _ in 0..8 {
            fleet
                .submit("vision_a", init::uniform(&[1, 2], -1.0, 1.0, 7))
                .expect("survivor absorbs the lost node's keys");
        }
        fleet.drain();
        let r = fleet.finish();
        let edge_survivor = &r.instances[1];
        assert_eq!(edge_survivor.metrics.submitted, 8);
        assert_eq!(r.tenants[0].completed, 8);
    }

    #[test]
    fn publish_and_rollback_adopt_across_the_fleet() {
        let cfg = FleetConfig::shipped();
        let clock = Clock::virtual_at(0);
        let mut fleet = Fleet::new(cfg, &bench_models(), NodeSolveOptions::new(1e-4), 0, clock);
        let v2 = fleet.publish("edge_default", ServeConfig::edge_default());
        assert_eq!(v2, 2);
        for inst in fleet
            .instances()
            .iter()
            .filter(|i| i.model == "edge_default")
        {
            assert!(inst.residency.is_resident("edge_default", 2));
            // The predecessor stays warm for rollback (SRAM has room).
            assert!(inst.residency.is_resident("edge_default", 1));
        }
        assert_eq!(fleet.rollback("edge_default"), Some(1));
        assert_eq!(
            fleet
                .registry()
                .snapshot()
                .live("edge_default")
                .unwrap()
                .version,
            1
        );
        // Submitting still works against the rolled-back version.
        fleet
            .submit("vision_a", init::uniform(&[1, 2], -1.0, 1.0, 9))
            .expect("rolled-back version is warm");
    }

    #[test]
    fn quota_exhaustion_rejects_at_the_door() {
        let mut cfg = FleetConfig::shipped();
        for t in &mut cfg.registry.tenants {
            t.quota = 2;
        }
        let clock = Clock::virtual_at(0);
        let mut fleet = Fleet::new(
            cfg,
            &bench_models(),
            NodeSolveOptions::new(1e-4),
            0, // pump mode: nothing resolves, so outstanding grows
            clock,
        );
        for k in 0..2 {
            fleet
                .submit("vision_a", init::uniform(&[1, 2], -1.0, 1.0, k))
                .unwrap();
        }
        let err = fleet
            .submit("vision_a", init::uniform(&[1, 2], -1.0, 1.0, 9))
            .unwrap_err();
        assert_eq!(err, Rejected::QueueFull { capacity: 2 });
    }
}
