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
//!   every single-instance-loss scenario, each alive instance's load —
//!   the sum of its model's tenants' rates, each split evenly over the
//!   model's surviving instances by the consistent hash — must stay
//!   within its policy's declared `design_rate_rps`.
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

use crate::diag::{Code, Diagnostic, Diagnostics};
use crate::schedcheck::ServiceModel;
use enode_hw::mapping::per_core_weight_bytes;
use enode_hw::table::CostTable;
use enode_serve::fleet::FleetConfig;
use enode_serve::policies::ServeConfig;
use enode_serve::registry::version_fingerprint;

/// A core must keep `1/HEADROOM_DENOM` of its weight buffer free after
/// the live set is pinned, or `W110` fires: a publish with less headroom
/// evicts rollback versions immediately.
pub const HEADROOM_DENOM: u64 = 8;

/// Instances serving `model` that survive the loss of instance `lost`
/// (`None` = nominal): the consistent-hash split's denominator.
fn survivors(config: &FleetConfig, lost: Option<usize>, model: &str) -> usize {
    config
        .assignment
        .iter()
        .enumerate()
        .filter(|(j, m)| lost != Some(*j) && *m == model)
        .count()
}

/// Offered load on alive instance `i` with instance `lost` removed, in
/// milli-req/s: each tenant of `i`'s model splits its rate over the
/// model's survivors (ceiling division keeps the bound conservative).
/// `None` when no tenant is bound to that model.
fn instance_load_milli(config: &FleetConfig, lost: Option<usize>, i: usize) -> Option<u64> {
    let model = &config.assignment[i];
    let survivors = survivors(config, lost, model) as u64;
    let mut load = None;
    for b in config.registry.tenants.iter().filter(|b| b.model == *model) {
        *load.get_or_insert(0) += ((b.rate_rps * 1_000.0).round() as u64).div_ceil(survivors);
    }
    load
}

/// Lints one fleet config against one cost table. Split out from
/// [`lint_shipped_fleet`] so mutation and golden tests can inject
/// doctored registries, assignments, and envelopes.
pub fn lint_fleet(config: &FleetConfig, table: &CostTable) -> Diagnostics {
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

    // --- E111: rebalance feasibility, for the nominal fleet and every
    // single-instance loss. ---
    let scenarios = std::iter::once(None).chain((0..config.instances).map(Some));
    for lost in scenarios {
        let label = match lost {
            None => "nominal".to_string(),
            Some(i) => format!("loss of instance {i}"),
        };
        // A model with bound tenants but no surviving instance is
        // unservable outright.
        for b in &registry.tenants {
            if survivors(config, lost, &b.model) == 0 {
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
        for (i, name) in config.assignment.iter().enumerate() {
            if lost == Some(i) {
                continue;
            }
            let Some(load_milli) = instance_load_milli(config, lost, i) else {
                continue; // no tenant feeds this instance
            };
            let policy = &registry.live(name).expect("E114 checked").policy;
            let design_milli = (policy.design_rate_rps * 1_000.0).round() as u64;
            if load_milli > design_milli {
                ds.push(
                    Diagnostic::new(
                        Code::E111FleetRebalanceInfeasible,
                        &subject,
                        format!(
                            "{label}: instance {i} ({name}) absorbs {}.{:03} req/s of \
                             rebalanced tenant load, above the policy's design rate \
                             {} req/s — shedding becomes the steady state",
                            load_milli / 1_000,
                            load_milli % 1_000,
                            policy.design_rate_rps
                        ),
                    )
                    .with_note("scenario", &label)
                    .with_note("instance", i)
                    .with_note("load_milli_rps", load_milli)
                    .with_note("design_milli_rps", design_milli),
                );
            }
        }
    }

    // --- E112: every tenant's SLA must be coverable by some tier. A
    // tier covers the SLA when its admission threshold admits it and its
    // worst-case response time at the tenant's class fits. Each live
    // policy is priced once. Table provenance and integrity (E093-E095,
    // W092) of a shipped policy are schedcheck's to report; schedcheck
    // lints nothing else, so the resolver's findings on any other live
    // policy are forwarded here. A policy the table cannot price gets no
    // E112 verdict. ---
    let shipped = ServeConfig::shipped();
    let mut priced = Vec::new();
    for (name, _) in &registry.published {
        let policy = &registry.live(name).expect("published").policy;
        let mut found = Diagnostics::new();
        let model = ServiceModel::resolve(policy, table, &mut found);
        if !shipped.contains(policy) {
            ds.extend(found);
        }
        priced.push((name.as_str(), model));
    }
    for b in &registry.tenants {
        let policy = &registry.live(&b.model).expect("E114 checked").policy;
        let Some((_, Some(model))) = priced.iter().find(|(name, _)| *name == b.model) else {
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

    fn table() -> CostTable {
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
    fn post_loss_overload_fires_e111_with_the_rebalanced_load() {
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
    fn instance_load_is_the_hash_split() {
        let cfg = shipped();
        // Two edge tenants at 60 req/s over two instances: 60 each.
        assert_eq!(instance_load_milli(&cfg, None, 0), Some(60_000));
        // Loss of instance 0 doubles the survivor's share.
        assert_eq!(instance_load_milli(&cfg, Some(0), 1), Some(120_000));
        // A split that does not divide rounds up, per tenant.
        let mut odd = shipped();
        odd.registry.tenants[0].rate_rps = 0.001;
        assert_eq!(instance_load_milli(&odd, None, 0), Some(30_001));
        // An instance whose model has no tenant carries no load.
        odd.registry.tenants.retain(|b| b.model != "edge_default");
        assert_eq!(instance_load_milli(&odd, None, 0), None);
    }
}
