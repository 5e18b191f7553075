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
//! # The serving simulator
//!
//! [`simulate_traffic`] is the crate's one discrete-event loop: it drives
//! N pump-mode instances on a virtual clock from per-tenant
//! [`TenantTraffic`] (open or closed loop), solving every batch for real
//! and charging its service time through a [`CostModel`]. A single
//! server is a one-instance fleet ([`FleetConfig::single`]).
//!
//! # Determinism contract
//!
//! Routing depends only on `(fleet name, instance index, vnode)` and
//! `(tenant, per-tenant sequence)` — never on clocks, pointers, or map
//! iteration order. Driven by the event loop, two runs of the same
//! traffic produce byte-identical results on any host; with worker
//! threads, response bits still depend only on `(input, class, tier)`
//! exactly as the single-server determinism suite pins.

use crate::clock::Clock;
use crate::hwcost::CostModel;
use crate::metrics::MetricsSnapshot;
use crate::policies::ServeConfig;
use crate::registry::{Registry, RegistrySnapshot, TenantBinding};
use crate::request::{Priority, Rejected, Request, Ticket, ToleranceClass};
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

    /// A one-instance fleet serving `policy` to one tenant that stamps
    /// `class` and `deadline_us` on every request and may hold `quota`
    /// requests in flight: the single-server deployment.
    pub fn single(
        policy: &ServeConfig,
        class: ToleranceClass,
        deadline_us: u64,
        quota: usize,
    ) -> FleetConfig {
        let registry = Registry::new();
        registry.publish(policy.name, policy.clone());
        registry.bind(TenantBinding {
            tenant: "client".to_string(),
            model: policy.name.to_string(),
            class,
            sla_deadline_us: deadline_us,
            quota,
            rate_rps: policy.design_rate_rps,
        });
        FleetConfig {
            name: policy.name,
            instances: 1,
            vnodes: VNODES,
            hw: HwConfig::config_a(),
            assignment: vec![policy.name.to_string()],
            registry: (*registry.snapshot()).clone(),
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
    /// [`simulate_traffic`]; zeros under worker threads).
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
    pub fn publish(&mut self, name: &str, policy: ServeConfig) -> u32 {
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

/// How a tenant offers its requests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrivals {
    /// Fixed-rate arrivals with jittered-uniform gaps.
    OpenLoop {
        /// Offered load in requests per second.
        rate_rps: f64,
    },
    /// A fixed client population, each with one request outstanding.
    ClosedLoop {
        /// Number of concurrent clients.
        clients: usize,
    },
}

/// One fleet workload: every tenant offers the same arrival process.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FleetLoad {
    /// Requests each tenant offers.
    pub requests_per_tenant: usize,
    /// How each tenant offers them.
    pub arrivals: Arrivals,
    /// Model input feature dimension.
    pub input_dim: usize,
    /// Master seed: per tenant, an arrival fork, then an input fork.
    pub seed: u64,
}

/// When a tenant offers its requests.
#[derive(Clone, Debug, PartialEq)]
pub enum Offers {
    /// Open loop: every request's arrival instant (µs), ascending.
    At(Vec<u64>),
    /// Closed loop: this many clients offer at t = 0, and each offers
    /// again the instant its previous request resolves, whatever the
    /// outcome — a refusal at the door included.
    Clients(usize),
}

/// One tenant's traffic, as data.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantTraffic {
    /// When the tenant offers.
    pub offers: Offers,
    /// Each request's input seed, in offer order: the tenant's budget.
    pub input_seeds: Vec<u64>,
}

impl TenantTraffic {
    /// Draws `requests` input seeds from `input_rng` and, open loop, as
    /// many arrival instants from `arrival_rng`. Gaps are jittered-uniform
    /// — `(1/rate) × (0.5 + u)`, `u ∈ [0, 1)` — so the mean gap is exactly
    /// `1/rate`, with no transcendentals whose last bit varies across
    /// libm builds.
    pub fn draw(
        arrivals: Arrivals,
        requests: usize,
        arrival_rng: &mut Rng64,
        input_rng: &mut Rng64,
    ) -> TenantTraffic {
        let offers = match arrivals {
            Arrivals::OpenLoop { rate_rps } => {
                assert!(rate_rps > 0.0, "open loop needs a positive rate");
                let base_gap_us = 1.0e6 / rate_rps;
                let mut t = 0.0f64;
                let mut next = || {
                    t += base_gap_us * (0.5 + arrival_rng.gen_f64());
                    t as u64
                };
                Offers::At((0..requests).map(|_| next()).collect())
            }
            Arrivals::ClosedLoop { clients } => Offers::Clients(clients),
        };
        let input_seeds = (0..requests).map(|_| input_rng.next_u64()).collect();
        TenantTraffic {
            offers,
            input_seeds,
        }
    }
}

/// One tenant's side of the event loop.
struct Source<'a> {
    traffic: &'a TenantTraffic,
    /// Arrival instants, ascending; the first `offered` are spent.
    arrivals: Vec<u64>,
    offered: usize,
    /// Closed loop: resolved requests already turned into re-offers.
    resolved_seen: u64,
}

impl<'a> Source<'a> {
    fn new(traffic: &'a TenantTraffic) -> Self {
        let budget = traffic.input_seeds.len();
        let arrivals = match &traffic.offers {
            Offers::At(instants) => {
                assert_eq!(instants.len(), budget, "one arrival instant per seed");
                instants.clone()
            }
            Offers::Clients(clients) => {
                assert!(*clients > 0, "closed loop needs at least one client");
                vec![0; (*clients).min(budget)]
            }
        };
        Source {
            traffic,
            arrivals,
            offered: 0,
            resolved_seen: 0,
        }
    }

    /// The next arrival instant, while the budget lasts.
    fn next_arrival(&self) -> Option<u64> {
        let budget_left = self.offered < self.traffic.input_seeds.len();
        self.arrivals
            .get(self.offered)
            .copied()
            .filter(|_| budget_left)
    }

    /// Closed loop: every request of `tenant` resolved since the last call
    /// frees its client, which re-offers at `now_us`.
    fn refill(&mut self, tenant: &mut TenantState, now_us: u64) {
        if !matches!(self.traffic.offers, Offers::Clients(_)) {
            return;
        }
        tenant.sweep();
        let s = &tenant.stats;
        let resolved = s.completed + s.shed + s.failed + s.rejected + s.not_resident;
        if self.offered < self.traffic.input_seeds.len() {
            let freed = (resolved - self.resolved_seen) as usize;
            self.arrivals.extend(std::iter::repeat_n(now_us, freed));
        }
        self.resolved_seen = resolved;
    }
}

/// Runs `traffic` (one entry per bound tenant, in registry bind order)
/// against a fleet built from `config`, in pump mode on a virtual clock.
/// Each instance has its own busy/idle state and batch window; a batch's
/// service time is charged through `cost`. Inputs are `[1, input_dim]`
/// uniform samples in `[-1, 1]` from each request's seed. Two runs are
/// bit-identical.
///
/// # Panics
///
/// Panics if `traffic` does not give one well-formed stream per bound
/// tenant, or if a drained instance or tenant breaks its accounting
/// identity.
pub fn simulate_traffic(
    config: &FleetConfig,
    models: &[(&str, NodeModel)],
    base_opts: &NodeSolveOptions,
    traffic: &[TenantTraffic],
    input_dim: usize,
    cost: &CostModel,
) -> FleetRunResult {
    assert_eq!(
        traffic.len(),
        config.registry.tenants.len(),
        "traffic must give one stream per bound tenant"
    );
    let mut sources: Vec<Source> = traffic.iter().map(Source::new).collect();
    let clock = Clock::virtual_at(0);
    let mut fleet = Fleet::new(config.clone(), models, *base_opts, 0, clock.clone());
    // Per instance: the batch in service and the instant it completes.
    let mut in_service: Vec<Option<(u64, SolvedBatch)>> =
        fleet.instances.iter().map(|_| None).collect();
    let mut tier_counts: Vec<Vec<u64>> = fleet
        .instances
        .iter()
        .map(|inst| vec![0u64; inst.server.config().tiers.len()])
        .collect();

    loop {
        let next_arrival = sources.iter().filter_map(Source::next_arrival).min();
        let next_completion = in_service.iter().flatten().map(|(t, _)| *t).min();
        let next_window = fleet
            .instances
            .iter()
            .zip(&in_service)
            .filter(|(inst, busy)| inst.alive && busy.is_none())
            .filter_map(|(inst, _)| inst.server.next_window_expiry_us())
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

        // 1. Resolve every batch completing at this instant; the clients
        // of its requests re-offer now.
        let instances = fleet.instances.iter().zip(&mut in_service);
        for ((inst, slot), counts) in instances.zip(&mut tier_counts) {
            if let Some((_, solved)) = slot.take_if(|(t, _)| *t == event_us) {
                counts[solved.tier()] += solved.per_sample_nfe().len() as u64;
                inst.server.deliver_batch(solved);
            }
        }
        for (src, tenant) in sources.iter_mut().zip(&mut fleet.tenants) {
            src.refill(tenant, event_us);
        }

        // 2. Admit every arrival due by this instant, in (instant, tenant)
        // order.
        while let Some((_, ti)) = sources
            .iter()
            .enumerate()
            .filter_map(|(ti, s)| s.next_arrival().filter(|&t| t <= event_us).map(|t| (t, ti)))
            .min()
        {
            let src = &mut sources[ti];
            let seed = src.traffic.input_seeds[src.offered];
            src.offered += 1;
            let input = init::uniform(&[1, input_dim], -1.0, 1.0, seed);
            // Rejections are recorded in the tenant stats.
            let _ = fleet.submit_by_index(ti, input);
        }

        // 3. Dispatch every idle instance that can form a batch, in
        // instance order (deterministic tie-break at equal timestamps).
        for (inst, slot) in fleet.instances.iter().zip(&mut in_service) {
            if inst.alive && slot.is_none() {
                if let Some(batch) = inst.server.form_batch(false) {
                    let solved = inst.server.solve_batch(batch);
                    let service = cost.service_us(solved.per_sample_nfe());
                    *slot = Some((event_us + service, solved));
                }
            }
        }

        // 4. The clients of requests refused at the door in step 2 or shed
        // in step 3 re-offer at this instant.
        for (src, tenant) in sources.iter_mut().zip(&mut fleet.tenants) {
            src.refill(tenant, event_us);
        }
    }

    let makespan_us = clock.now_us(); // the last event's instant
    let mut result = fleet.finish();
    for (inst, counts) in result.instances.iter_mut().zip(tier_counts) {
        inst.tier_counts = counts;
        assert!(
            inst.metrics.reconciles(),
            "drained instance {} must reconcile exactly: {:?}",
            inst.instance,
            inst.metrics
        );
    }
    for t in &result.tenants {
        assert_eq!(
            t.submitted,
            t.completed + t.shed + t.failed,
            "drained tenant {} must account for every admitted request",
            t.tenant
        );
    }
    result.makespan_us = makespan_us;
    result
}

/// Simulates `load` against a fleet built from `config`: every bound
/// tenant's traffic is drawn from `load.seed` (per tenant, an arrival
/// fork, then an input fork) and run through [`simulate_traffic`].
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
    let mut master = Rng64::seed_from_u64(load.seed);
    let traffic: Vec<TenantTraffic> = config
        .registry
        .tenants
        .iter()
        .map(|_| {
            let mut arrival_rng = master.fork();
            let mut input_rng = master.fork();
            TenantTraffic::draw(
                load.arrivals,
                load.requests_per_tenant,
                &mut arrival_rng,
                &mut input_rng,
            )
        })
        .collect();
    simulate_traffic(config, models, base_opts, &traffic, load.input_dim, cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_models() -> Vec<(&'static str, NodeModel)> {
        let m = NodeModel::dynamic_system(2, 8, 1, 42);
        vec![("edge_default", m.clone()), ("streaming_keyword", m)]
    }

    fn load(requests_per_tenant: usize, arrivals: Arrivals) -> FleetLoad {
        FleetLoad {
            requests_per_tenant,
            arrivals,
            input_dim: 2,
            seed: 0x5EED,
        }
    }

    fn quick_load() -> FleetLoad {
        load(12, Arrivals::OpenLoop { rate_rps: 400.0 })
    }

    fn quick_cost() -> CostModel {
        CostModel {
            per_nfe_us: 2.0,
            dispatch_overhead_us: 150,
            lanes: 4,
        }
    }

    /// Runs `policy` as a one-instance fleet serving the small dynamic
    /// system to one tenant of `class` with `deadline_us`, which may hold
    /// its whole budget in flight.
    fn run_single(
        policy: &ServeConfig,
        cost: &CostModel,
        class: ToleranceClass,
        deadline_us: u64,
        load: &FleetLoad,
    ) -> FleetRunResult {
        let cfg = FleetConfig::single(policy, class, deadline_us, load.requests_per_tenant);
        let models = [(policy.name, NodeModel::dynamic_system(2, 8, 1, 7))];
        simulate_fleet(&cfg, &models, &NodeSolveOptions::new(1e-4), load, cost)
    }

    #[test]
    fn open_loop_run_reconciles_and_is_deterministic() {
        let policy = ServeConfig::edge_default();
        let load = load(40, Arrivals::OpenLoop { rate_rps: 400.0 });
        let run = || {
            run_single(
                &policy,
                &quick_cost(),
                ToleranceClass::Standard,
                100_000,
                &load,
            )
        };
        let a = run();
        assert_eq!(a, run(), "same seed must reproduce the run exactly");
        let (t, inst) = (&a.tenants[0], &a.instances[0]);
        assert!(inst.metrics.reconciles());
        assert_eq!(t.offered, 40);
        assert!(inst.metrics.completed > 0);
        assert_eq!(
            inst.tier_counts.iter().sum::<u64>(),
            inst.metrics.completed,
            "every completed request is attributed to a tier"
        );
    }

    #[test]
    fn closed_loop_self_paces() {
        let load = load(24, Arrivals::ClosedLoop { clients: 4 });
        let policy = ServeConfig::edge_default();
        let r = run_single(
            &policy,
            &quick_cost(),
            ToleranceClass::Standard,
            200_000,
            &load,
        );
        let m = &r.instances[0].metrics;
        assert!(m.reconciles());
        assert_eq!(r.tenants[0].offered, 24);
        // Closed loop never overruns the queue: nothing is rejected.
        assert_eq!(m.rejected_full, 0);
        assert_eq!(m.completed + m.shed, 24);
    }

    #[test]
    fn closed_loop_clients_resubmit_after_a_failed_request() {
        // One trial per step on every tier: every Strict solve fails. A
        // client whose request failed must still send its next one, so
        // the whole budget is offered.
        let mut policy = ServeConfig::edge_default();
        for tier in &mut policy.tiers {
            tier.max_trials = 1;
        }
        let load = load(32, Arrivals::ClosedLoop { clients: 4 });
        let r = run_single(
            &policy,
            &quick_cost(),
            ToleranceClass::Strict,
            200_000,
            &load,
        );
        let m = &r.instances[0].metrics;
        assert_eq!(r.tenants[0].offered, 32, "{m:?}");
        assert!(m.reconciles(), "{m:?}");
        assert_eq!(m.failed, 32, "{m:?}");
    }

    #[test]
    fn closed_loop_clients_resubmit_after_shed_and_refused_requests() {
        // A queue of two behind four clients refuses two submissions at
        // the door, and a 1-µs deadline sheds every admitted request when
        // its batch window expires. Nothing completes, yet every client
        // resubmits after each outcome, so the whole budget is offered.
        let mut policy = ServeConfig::edge_default();
        policy.queue_capacity = 2;
        let load = load(24, Arrivals::ClosedLoop { clients: 4 });
        let r = run_single(&policy, &quick_cost(), ToleranceClass::Standard, 1, &load);
        let m = &r.instances[0].metrics;
        assert_eq!(r.tenants[0].offered, 24, "{m:?}");
        assert!(m.reconciles(), "{m:?}");
        assert_eq!(m.completed, 0, "{m:?}");
        assert!(m.shed > 0 && m.rejected_full > 0, "{m:?}");
        assert_eq!(m.shed + m.rejected_full, 24, "{m:?}");
    }

    #[test]
    fn overload_sheds_or_rejects_instead_of_collapsing() {
        let mut policy = ServeConfig::edge_default();
        policy.queue_capacity = 8;
        // An expensive solve makes the offered load unserviceable.
        let cost = CostModel {
            per_nfe_us: 200.0,
            ..quick_cost()
        };
        // Offer far beyond capacity with tight deadlines.
        let load = load(60, Arrivals::OpenLoop { rate_rps: 20_000.0 });
        let r = run_single(&policy, &cost, ToleranceClass::Standard, 30_000, &load);
        let m = &r.instances[0].metrics;
        assert!(m.reconciles());
        assert!(
            m.rejected_full > 0 || m.shed > 0,
            "overload must be refused explicitly, not absorbed silently"
        );
        // Thin slack forces degraded tiers for whatever does complete.
        assert!(m.degraded <= m.completed);
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
        let fleet = std::sync::Arc::new(fleet);
        crate::server::drain_bounded(&fleet, Fleet::drain);
        let r = std::sync::Arc::into_inner(fleet)
            .expect("the drain helper is joined")
            .finish();
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
