//! Static fleet analysis (`E110`–`E114`, `W110`–`W111`): proves — before
//! any instance spins up — that a [`FleetConfig`] (registry state, tenant
//! bindings, instance assignment) can actually be deployed.
//!
//! # What is proved
//!
//! * **Aggregate residency** (`E110`/`W110`): every instance's pinned
//!   live version, charged to cores through the real round-robin
//!   placement ([`enode_hw::mapping::per_core_weight_bytes`]), fits the
//!   per-core weight-SRAM envelope — with an advisory when less than 1/8
//!   headroom remains for rollback versions.
//! * **Rebalance feasibility** (`E111`): for the nominal fleet *and*
//!   every single-instance-loss scenario, the per-tenant offered load is
//!   lowered into the same fixpoint IR every other pass uses (tenant
//!   nodes flowing into instance nodes over the consistent-hash split)
//!   and the converged per-instance load must stay within each policy's
//!   declared `design_rate_rps`.
//! * **SLA coverage** (`E112`): every tenant's SLA deadline is reachable
//!   by at least one tier of its policy's degradation ladder: the tier
//!   admits the SLA and its worst-case response time at the tenant's
//!   tolerance class fits it — the one bound E090 proves deadlines with
//!   (`ServiceModel::wcrt_us` in [`crate::schedcheck`]), priced by
//!   `COST_TABLE.json`.
//! * **Version provenance** (`E113`): every published [`ModelHandle`](enode_serve::registry::ModelHandle)'s
//!   recorded fingerprint matches the FNV-1a digest recomputed from its
//!   name, version, and ladder — a registry entry cannot silently drift
//!   from the policy it claims to serve.
//! * **Structure** (`E114`): the assignment names a live model per
//!   instance and every tenant's model is served somewhere.
//!
//! Like `E093` in [`crate::schedcheck`], the structural and provenance
//! checks short-circuit: verdicts derived from a malformed fleet or a
//! stale registry would be unsound, so nothing else runs until they pass.

use crate::benchjson::ParsedCostTable;
use crate::diag::{Code, Diagnostic, Diagnostics};
use crate::engine::{run_to_fixpoint, DataflowGraph, Direction, Lattice, Pass};
use crate::schedcheck::ServiceModel;
use enode_hw::mapping::per_core_weight_bytes;
use enode_serve::fleet::FleetConfig;
use enode_serve::registry::version_fingerprint;

/// A core must keep `1/HEADROOM_DENOM` of its weight buffer free after
/// the live set is pinned, or `W110` fires: a publish with less headroom
/// evicts rollback versions immediately.
pub const HEADROOM_DENOM: u64 = 8;

/// Node roles of the lowered fleet-load graph: tenants originate their
/// offered rate, instances accumulate their consistent-hash share of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetNode {
    /// One tenant binding (index into the registry's tenant list).
    Tenant(usize),
    /// One serve instance (index into the fleet assignment).
    Instance(usize),
}

/// One loss scenario of the fleet, lowered to a [`DataflowGraph`]:
/// tenant nodes feed the alive instances serving their model.
pub struct FleetGraph {
    nodes: Vec<FleetNode>,
    preds: Vec<Vec<usize>>,
    /// Offered rate in milli-req/s at tenant nodes; 0 at instances.
    rate_milli: Vec<u64>,
    /// Alive-survivor count of the node's model at instance nodes (the
    /// consistent-hash split denominator); 0 elsewhere.
    survivors: Vec<u64>,
}

impl FleetGraph {
    /// Lowers `config` with instance `lost` removed (`None` = nominal).
    fn lower(config: &FleetConfig, lost: Option<usize>) -> FleetGraph {
        let tenants = &config.registry.tenants;
        let n_tenants = tenants.len();
        let n_instances = config.instances;
        let alive = |i: usize| lost != Some(i);
        let mut nodes = Vec::with_capacity(n_tenants + n_instances);
        let mut preds = Vec::with_capacity(n_tenants + n_instances);
        let mut rate_milli = Vec::with_capacity(n_tenants + n_instances);
        let mut survivors = Vec::with_capacity(n_tenants + n_instances);
        for (t, b) in tenants.iter().enumerate() {
            nodes.push(FleetNode::Tenant(t));
            preds.push(Vec::new());
            rate_milli.push((b.rate_rps * 1_000.0).round() as u64);
            survivors.push(0);
        }
        for (i, model) in config.assignment.iter().enumerate() {
            nodes.push(FleetNode::Instance(i));
            let feeders = if alive(i) {
                tenants
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| b.model == *model)
                    .map(|(t, _)| t)
                    .collect()
            } else {
                Vec::new()
            };
            preds.push(feeders);
            rate_milli.push(0);
            survivors.push(
                config
                    .assignment
                    .iter()
                    .enumerate()
                    .filter(|(j, m)| alive(*j) && *m == model)
                    .count() as u64,
            );
        }
        FleetGraph {
            nodes,
            preds,
            rate_milli,
            survivors,
        }
    }

    /// The node index of instance `i`.
    fn instance(&self, i: usize) -> usize {
        self.nodes
            .iter()
            .position(|n| *n == FleetNode::Instance(i))
            .expect("instance node exists")
    }
}

impl DataflowGraph for FleetGraph {
    fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
    fn preds(&self, node: usize) -> &[usize] {
        &self.preds[node]
    }
}

/// The load lattice: milli-req/s arriving at a node.
#[derive(Clone, Debug, PartialEq)]
pub struct Load {
    /// Whether any offered stream reaches this node.
    pub reached: bool,
    /// Accumulated offered load, milli-req/s.
    pub rps_milli: u64,
}

impl Lattice for Load {
    fn bottom() -> Self {
        Load {
            reached: false,
            rps_milli: 0,
        }
    }
    fn join_from(&mut self, other: &Self) -> bool {
        let mut changed = false;
        if other.reached && !self.reached {
            self.reached = true;
            changed = true;
        }
        if other.rps_milli > self.rps_milli {
            self.rps_milli = other.rps_milli;
            changed = true;
        }
        changed
    }
}

/// The forward load pass: tenants originate their offered rate; an
/// instance sums each feeding tenant's per-survivor share (ceiling
/// division keeps the bound conservative).
pub struct LoadPass;

impl Pass<FleetGraph> for LoadPass {
    type Value = Load;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn transfer(&self, graph: &FleetGraph, node: usize, deps: &[Load]) -> Load {
        match graph.nodes[node] {
            FleetNode::Tenant(_) => Load {
                reached: true,
                rps_milli: graph.rate_milli[node],
            },
            FleetNode::Instance(_) => {
                let share = graph.survivors[node].max(1);
                let mut out = Load::bottom();
                for d in deps.iter().filter(|d| d.reached) {
                    out.reached = true;
                    out.rps_milli += d.rps_milli.div_ceil(share);
                }
                out
            }
        }
    }
}

/// Lints one fleet config against one parsed cost table. Split out from
/// [`lint_shipped_fleet`] so mutation and golden tests can inject
/// doctored registries, assignments, and envelopes.
pub fn lint_fleet(config: &FleetConfig, table: &ParsedCostTable) -> Diagnostics {
    let mut ds = Diagnostics::new();
    let subject = format!("fleet {}", config.name);
    let registry = &config.registry;

    // --- E114 first: structural soundness gates everything else. ---
    if config.instances == 0 {
        ds.push(Diagnostic::new(
            Code::E114FleetConfigMalformed,
            &subject,
            "fleet declares zero instances: nothing can serve",
        ));
    }
    if config.assignment.len() != config.instances {
        ds.push(
            Diagnostic::new(
                Code::E114FleetConfigMalformed,
                &subject,
                format!(
                    "assignment names {} model(s) for {} instance(s): every instance \
                     needs exactly one served model",
                    config.assignment.len(),
                    config.instances
                ),
            )
            .with_note("assignment_len", config.assignment.len())
            .with_note("instances", config.instances),
        );
    }
    for (i, name) in config.assignment.iter().enumerate() {
        if registry.live(name).is_none() {
            ds.push(
                Diagnostic::new(
                    Code::E114FleetConfigMalformed,
                    &subject,
                    format!(
                        "instance {i} is assigned model {name}, which has no live \
                         published version in the registry"
                    ),
                )
                .with_note("instance", i)
                .with_note("model", name),
            );
        }
    }
    for b in &registry.tenants {
        if !config.assignment.contains(&b.model) {
            ds.push(
                Diagnostic::new(
                    Code::E114FleetConfigMalformed,
                    &subject,
                    format!(
                        "tenant {} is bound to model {}, which no instance serves",
                        b.tenant, b.model
                    ),
                )
                .with_note("tenant", &b.tenant)
                .with_note("model", &b.model),
            );
        }
    }
    if !ds.is_empty() {
        return ds;
    }

    // --- E113 next: a stale registry entry poisons every other verdict
    // (the policy the checks would read is not the one that was
    // published), so provenance short-circuits too. ---
    for h in &registry.models {
        let want = version_fingerprint(&h.name, h.version, &h.policy);
        if h.fingerprint != want {
            ds.push(
                Diagnostic::new(
                    Code::E113FleetStaleFingerprint,
                    &subject,
                    format!(
                        "published {} v{} records fingerprint {} but its name, version, \
                         and ladder hash to {want}: the registry entry is stale or was \
                         edited outside publish",
                        h.name, h.version, h.fingerprint
                    ),
                )
                .with_note("model", &h.name)
                .with_note("version", h.version)
                .with_note("recorded_fingerprint", &h.fingerprint)
                .with_note("computed_fingerprint", want),
            );
        }
    }
    if !ds.is_empty() {
        return ds;
    }

    // --- E110/W110: per-instance aggregate residency. ---
    let capacity = config.hw.weight_buffer_bytes;
    for (i, name) in config.assignment.iter().enumerate() {
        let handle = registry.live(name).expect("E114 checked");
        let per_core = per_core_weight_bytes(&handle.layer_weight_bytes(), config.hw.cores);
        let (worst_core, &worst) = per_core
            .iter()
            .enumerate()
            .max_by_key(|(_, &b)| b)
            .expect("cores > 0");
        if worst > capacity {
            ds.push(
                Diagnostic::new(
                    Code::E110FleetResidencyOverflow,
                    &subject,
                    format!(
                        "instance {i} must pin {name} v{} but core {worst_core}'s share \
                         {worst}B overflows the {capacity}B weight buffer: the fleet \
                         cannot warm up",
                        handle.version
                    ),
                )
                .with_note("instance", i)
                .with_note("model", name)
                .with_note("core", worst_core)
                .with_note("need_bytes", worst)
                .with_note("capacity_bytes", capacity),
            );
        } else if worst > capacity - capacity / HEADROOM_DENOM {
            ds.push(
                Diagnostic::new(
                    Code::W110FleetResidencyHeadroom,
                    &subject,
                    format!(
                        "instance {i}'s live set uses {worst}B of core {worst_core}'s \
                         {capacity}B weight buffer, leaving under 1/{HEADROOM_DENOM} \
                         headroom: the next publish evicts rollback versions immediately",
                    ),
                )
                .with_note("instance", i)
                .with_note("model", name)
                .with_note("core", worst_core)
                .with_note("used_bytes", worst)
                .with_note("capacity_bytes", capacity),
            );
        }
    }

    // --- E111: rebalance feasibility via the fixpoint engine, for the
    // nominal fleet and every single-instance loss. ---
    let scenarios = std::iter::once(None).chain((0..config.instances).map(Some));
    for lost in scenarios {
        let label = match lost {
            None => "nominal".to_string(),
            Some(i) => format!("loss of instance {i}"),
        };
        // A model with bound tenants but no surviving instance is
        // unservable outright.
        for b in &registry.tenants {
            let survivors = config
                .assignment
                .iter()
                .enumerate()
                .filter(|(j, m)| lost != Some(*j) && **m == b.model)
                .count();
            if survivors == 0 {
                ds.push(
                    Diagnostic::new(
                        Code::E111FleetRebalanceInfeasible,
                        &subject,
                        format!(
                            "{label} leaves no instance serving {}: tenant {}'s load \
                             has nowhere to rebalance",
                            b.model, b.tenant
                        ),
                    )
                    .with_note("scenario", &label)
                    .with_note("model", &b.model)
                    .with_note("tenant", &b.tenant),
                );
            }
        }
        let graph = FleetGraph::lower(config, lost);
        let fx = run_to_fixpoint(&graph, &LoadPass);
        for (i, name) in config.assignment.iter().enumerate() {
            if lost == Some(i) {
                continue;
            }
            let load = &fx.values[graph.instance(i)];
            if !load.reached {
                continue; // no tenant feeds this instance
            }
            let policy = &registry.live(name).expect("E114 checked").policy;
            let design_milli = (policy.design_rate_rps * 1_000.0).round() as u64;
            if load.rps_milli > design_milli {
                ds.push(
                    Diagnostic::new(
                        Code::E111FleetRebalanceInfeasible,
                        &subject,
                        format!(
                            "{label}: instance {i} ({name}) absorbs {}.{:03} req/s of \
                             rebalanced tenant load, above the policy's design rate \
                             {} req/s — shedding becomes the steady state",
                            load.rps_milli / 1_000,
                            load.rps_milli % 1_000,
                            policy.design_rate_rps
                        ),
                    )
                    .with_note("scenario", &label)
                    .with_note("instance", i)
                    .with_note("load_milli_rps", load.rps_milli)
                    .with_note("design_milli_rps", design_milli),
                );
            }
        }
    }

    // --- E112: every tenant's SLA must be coverable by some tier. A
    // tier covers the SLA when its admission threshold admits it and its
    // worst-case response time at the tenant's class fits. Table
    // provenance and integrity are schedcheck's to report (E093-E095): a
    // policy the table cannot price is skipped here, not double-reported. ---
    for b in &registry.tenants {
        let policy = &registry.live(&b.model).expect("E114 checked").policy;
        let Some(model) = ServiceModel::resolve(policy, table, &mut Diagnostics::new()) else {
            continue;
        };
        let covered = policy.tiers.iter().enumerate().any(|(t, tier)| {
            tier.min_slack_us <= b.sla_deadline_us && model.wcrt_us(t, b.class) <= b.sla_deadline_us
        });
        if !covered {
            ds.push(
                Diagnostic::new(
                    Code::E112FleetSlaUncovered,
                    &subject,
                    format!(
                        "tenant {}'s {}µs SLA on {} is covered by no tier of the \
                         ladder at the {} class: every admitted request is shed or \
                         served past its deadline",
                        b.tenant,
                        b.sla_deadline_us,
                        b.model,
                        b.class.as_str()
                    ),
                )
                .with_note("tenant", &b.tenant)
                .with_note("model", &b.model)
                .with_note("sla_deadline_us", b.sla_deadline_us)
                .with_note("class", b.class.as_str()),
            );
        }
    }

    // --- W111: quota oversubscription per model. ---
    let mut seen: Vec<&str> = Vec::new();
    for name in &config.assignment {
        if seen.contains(&name.as_str()) {
            continue;
        }
        seen.push(name);
        let quota_sum: usize = registry
            .tenants
            .iter()
            .filter(|b| b.model == *name)
            .map(|b| b.quota)
            .sum();
        let replicas = config.assignment.iter().filter(|m| *m == name).count();
        let queue_sum = replicas
            * registry
                .live(name)
                .expect("E114 checked")
                .policy
                .queue_capacity;
        if quota_sum > queue_sum {
            ds.push(
                Diagnostic::new(
                    Code::W111FleetQuotaOversubscribed,
                    &subject,
                    format!(
                        "tenant quotas against {name} total {quota_sum} outstanding \
                         requests but its instances buffer only {queue_sum}: admission \
                         can overcommit the fleet's queues"
                    ),
                )
                .with_note("model", name)
                .with_note("quota_sum", quota_sum)
                .with_note("queue_sum", queue_sum),
            );
        }
    }

    ds
}

/// Lints the shipped fleet against the committed cost table — the entry
/// point `lint_everything` and `enode-lint` use. The shipped fleet must
/// be clean.
pub fn lint_shipped_fleet() -> Diagnostics {
    let table = match crate::schedcheck::shipped_table() {
        Ok(t) => t,
        Err(ds) => return ds,
    };
    lint_fleet(&FleetConfig::shipped(), &table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use enode_hw::config::LayerDims;
    use enode_serve::registry::Registry;
    use enode_serve::ServeConfig;

    fn table() -> ParsedCostTable {
        crate::schedcheck::shipped_table().expect("committed table parses")
    }

    fn shipped() -> FleetConfig {
        FleetConfig::shipped()
    }

    #[test]
    fn shipped_fleet_is_clean() {
        let ds = lint_shipped_fleet();
        assert!(ds.is_empty(), "shipped fleet must be deployable:\n{ds}");
    }

    #[test]
    fn oversized_live_version_fires_e110() {
        let mut cfg = shipped();
        // Republish the edge model with a profile whose per-core share
        // dwarfs the 2.25MB envelope: 8 convs of 512ch are 8·512·512·9·2
        // ≈ 37.7MB, so each of config_a's 4 cores gets ~9.4MB.
        let reg = Registry::from_snapshot(cfg.registry.clone());
        reg.publish_with_profile(
            "edge_default",
            ServeConfig::edge_default(),
            LayerDims::new(64, 64, 512),
            8,
        );
        cfg.registry = (*reg.snapshot()).clone();
        let ds = lint_fleet(&cfg, &table());
        assert!(ds.has_code(Code::E110FleetResidencyOverflow), "{ds}");
        assert!(!ds.has_code(Code::W110FleetResidencyHeadroom), "{ds}");
    }

    #[test]
    fn thin_residency_headroom_fires_w110() {
        let mut cfg = shipped();
        // The edge live set puts 1152B on a core; an envelope of 1200B
        // fits it but leaves under 1/8 headroom.
        cfg.hw.weight_buffer_bytes = 1_200;
        let ds = lint_fleet(&cfg, &table());
        assert!(ds.has_code(Code::W110FleetResidencyHeadroom), "{ds}");
        assert!(!ds.has_code(Code::E110FleetResidencyOverflow), "{ds}");
    }

    #[test]
    fn single_instance_per_model_fires_e111_on_loss() {
        let mut cfg = shipped();
        cfg.instances = 2;
        cfg.assignment = vec!["edge_default".into(), "streaming_keyword".into()];
        let ds = lint_fleet(&cfg, &table());
        assert!(ds.has_code(Code::E111FleetRebalanceInfeasible), "{ds}");
        // The verdict names the unservable model, not a rate overload.
        assert!(
            ds.items()
                .iter()
                .any(|d| d.message.contains("nowhere to rebalance")),
            "{ds}"
        );
    }

    #[test]
    fn post_loss_overload_fires_e111_with_the_fixpoint_load() {
        let mut cfg = shipped();
        // 150 req/s per edge tenant: fine across two instances (150 each,
        // design 200), infeasible on the single survivor (300).
        for b in &mut cfg.registry.tenants {
            if b.model == "edge_default" {
                b.rate_rps = 150.0;
            }
        }
        let ds = lint_fleet(&cfg, &table());
        assert!(ds.has_code(Code::E111FleetRebalanceInfeasible), "{ds}");
        let overloads: Vec<_> = ds
            .items()
            .iter()
            .filter(|d| d.code == Code::E111FleetRebalanceInfeasible)
            .collect();
        // Only the two loss-of-an-edge-instance scenarios fire.
        assert_eq!(overloads.len(), 2, "{ds}");
        assert!(overloads
            .iter()
            .all(|d| d.message.contains("loss of instance")));
    }

    #[test]
    fn skewed_sla_fires_e112() {
        let mut cfg = shipped();
        // 100µs cannot even absorb the edge policy's 2000µs batch window,
        // let alone a dispatch: no tier can cover it.
        for b in &mut cfg.registry.tenants {
            if b.tenant == "vision_a" {
                b.sla_deadline_us = 100;
            }
        }
        let ds = lint_fleet(&cfg, &table());
        assert!(ds.has_code(Code::E112FleetSlaUncovered), "{ds}");
        let hits: Vec<_> = ds
            .items()
            .iter()
            .filter(|d| d.code == Code::E112FleetSlaUncovered)
            .collect();
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("vision_a"));
    }

    #[test]
    fn e112_covers_exactly_up_to_the_e090_bound() {
        // vision_a is Standard-class on edge_default. Its cheapest tier's
        // worst case — 2 backlog batches × 1397 + 2000 window + the
        // 117µs tier-2 batch — is the SLA floor E112 accepts.
        let edge = ServeConfig::edge_default();
        let bound = ServiceModel::resolve(&edge, &table(), &mut Diagnostics::new())
            .expect("resolves")
            .wcrt_us(2, enode_serve::ToleranceClass::Standard);
        assert_eq!(bound, 4_911);
        for (sla, uncovered) in [(bound, false), (bound - 1, true)] {
            let mut cfg = shipped();
            for b in &mut cfg.registry.tenants {
                if b.tenant == "vision_a" {
                    b.sla_deadline_us = sla;
                }
            }
            let ds = lint_fleet(&cfg, &table());
            assert_eq!(ds.has_code(Code::E112FleetSlaUncovered), uncovered, "{ds}");
        }
    }

    #[test]
    fn tampered_fingerprint_fires_e113_and_short_circuits() {
        let mut cfg = shipped();
        cfg.registry.models[0].fingerprint = "deadbeefdeadbeef".to_string();
        // Also skew an SLA: the stale registry must suppress E112.
        cfg.registry.tenants[0].sla_deadline_us = 100;
        let ds = lint_fleet(&cfg, &table());
        assert!(ds.has_code(Code::E113FleetStaleFingerprint), "{ds}");
        assert!(!ds.has_code(Code::E112FleetSlaUncovered), "{ds}");
    }

    #[test]
    fn malformed_config_fires_e114_and_short_circuits() {
        let mut cfg = shipped();
        cfg.assignment = vec!["edge_default".into(); 4];
        // keyword tenants now have no serving instance; and a tampered
        // fingerprint must stay unreported until the structure is fixed.
        cfg.registry.models[0].fingerprint = "deadbeefdeadbeef".to_string();
        let ds = lint_fleet(&cfg, &table());
        assert!(ds.has_code(Code::E114FleetConfigMalformed), "{ds}");
        assert!(!ds.has_code(Code::E113FleetStaleFingerprint), "{ds}");
        assert_eq!(ds.error_count(), 2, "one per orphaned tenant:\n{ds}");
    }

    #[test]
    fn quota_oversubscription_fires_w111() {
        let mut cfg = shipped();
        for b in &mut cfg.registry.tenants {
            if b.model == "streaming_keyword" {
                b.quota = 32; // 64 total vs 2×8 buffered
            }
        }
        let ds = lint_fleet(&cfg, &table());
        assert!(ds.has_code(Code::W111FleetQuotaOversubscribed), "{ds}");
        assert_eq!(ds.error_count(), 0, "{ds}");
    }

    #[test]
    fn load_pass_converges_to_the_hash_split() {
        let graph = FleetGraph::lower(&shipped(), None);
        let fx = run_to_fixpoint(&graph, &LoadPass);
        // Two edge tenants at 60 req/s over two instances: 60 each.
        let i0 = &fx.values[graph.instance(0)];
        assert!(i0.reached);
        assert_eq!(i0.rps_milli, 60_000);
        // Loss of instance 0 doubles the survivor's share.
        let graph = FleetGraph::lower(&shipped(), Some(0));
        let fx = run_to_fixpoint(&graph, &LoadPass);
        assert_eq!(fx.values[graph.instance(1)].rps_milli, 120_000);
        assert!(!fx.values[graph.instance(0)].reached);
    }
}
