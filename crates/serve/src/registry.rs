//! The versioned model registry: which model versions exist, which one
//! is live per model, and which tenant is bound to which model.
//!
//! A [`ModelHandle`] is immutable once published: the model's serving
//! policy, its deployed hardware profile (feature-map dims + conv depth,
//! the inputs to weight-residency accounting) and a content fingerprint
//! over `(name, version, ladder)` using the shared FNV-1a scheme
//! ([`enode_hw::fingerprint`]) — the same hash family `COST_TABLE.json`
//! pins policies with, so the staleness lints (`E093` for tables, `E113`
//! for registry versions) speak one language.
//!
//! The [`Registry`] publishes copy-on-write: readers clone an `Arc` to
//! an immutable [`RegistrySnapshot`] and never block behind a publish;
//! [`Registry::publish`] / [`Registry::rollback`] build a new snapshot
//! under a write lock and swap it in atomically. Version numbers are
//! monotone per model; rollback moves the live pointer back one version
//! without deleting the handle, so a re-publish continues the version
//! sequence instead of reusing numbers.

use crate::hwcost::{fingerprint as ladder_fingerprint, serve_profile};
use crate::policies::ServeConfig;
use crate::request::ToleranceClass;
use enode_hw::config::LayerDims;
use enode_hw::fingerprint::Fnv64;
use enode_hw::table::serving_profile;
use enode_tensor::synctrace;
use std::sync::{Arc, RwLock};

/// Content fingerprint of one published model version: the model name,
/// the version number, and the policy's degradation ladder (via the same
/// ladder hash the cost table records). Envelope fields (deadlines,
/// budgets) are deliberately excluded, exactly as in
/// [`ladder_fingerprint`] — retuning them must not invalidate a version.
pub fn version_fingerprint(name: &str, version: u32, policy: &ServeConfig) -> String {
    let mut h = Fnv64::new();
    h.write(name.as_bytes());
    h.write_u64(version as u64);
    h.write(ladder_fingerprint(policy).as_bytes());
    h.hex()
}

/// One immutable published model version.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelHandle {
    /// Model name (registry key; shipped models reuse their policy name).
    pub name: String,
    /// Monotone version number, starting at 1.
    pub version: u32,
    /// The serving policy this version deploys with.
    pub policy: ServeConfig,
    /// Feature-map dimensions of the integration layer (drives weight
    /// bytes and the simulator profile).
    pub layer: LayerDims,
    /// Convolution layers in the embedded network `f`.
    pub n_conv: usize,
    /// [`version_fingerprint`] at publish time. Lint `E113` recomputes
    /// and compares.
    pub fingerprint: String,
}

impl ModelHandle {
    /// Builds a handle with the profile [`serve_profile`] assigns the
    /// policy (the shipped-model path).
    pub fn new(name: &str, version: u32, policy: ServeConfig) -> Self {
        let (layer, n_conv) = serve_profile(&policy);
        Self::with_profile(name, version, policy, layer, n_conv)
    }

    /// Builds a handle with an explicit hardware profile.
    pub fn with_profile(
        name: &str,
        version: u32,
        policy: ServeConfig,
        layer: LayerDims,
        n_conv: usize,
    ) -> Self {
        let fingerprint = version_fingerprint(name, version, &policy);
        ModelHandle {
            name: name.to_string(),
            version,
            policy,
            layer,
            n_conv,
            fingerprint,
        }
    }

    /// Total weight bytes of the deployed network, fp16, through the same
    /// `HwConfig` arithmetic the Table-I residency lint (`E060`) uses.
    pub fn weight_bytes(&self) -> u64 {
        serving_profile(self.layer, self.n_conv, 4).weight_bytes()
    }

    /// Per-conv-layer weight bytes, in layer order — the unit
    /// [`enode_hw::mapping::per_core_weight_bytes`] round-robins across
    /// cores.
    pub fn layer_weight_bytes(&self) -> Vec<u64> {
        let per_layer = self.weight_bytes() / self.n_conv.max(1) as u64;
        vec![per_layer; self.n_conv]
    }
}

/// One tenant's binding onto a model: the accuracy class it is admitted
/// under, its latency SLA, and its admission quota.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantBinding {
    /// Tenant name (unique).
    pub tenant: String,
    /// The model the tenant's requests resolve to.
    pub model: String,
    /// Tolerance class stamped on every request (maps onto the policy's
    /// degradation ladder exactly like any other request).
    pub class: ToleranceClass,
    /// Relative deadline (µs) stamped on every request — the tenant's
    /// latency SLA. Lint `E112` proves the bound ladder can cover it.
    pub sla_deadline_us: u64,
    /// Maximum in-flight requests the fleet admits for this tenant.
    pub quota: usize,
    /// Design offered load (requests/s) the capacity lints (`E111`,
    /// `W111`) budget the fleet against.
    pub rate_rps: f64,
}

/// An immutable, atomically-published view of the registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Publish epoch: bumps on every publish/rollback/bind.
    pub epoch: u64,
    /// Every version ever published, append-only, in publish order.
    pub models: Vec<ModelHandle>,
    /// `(model name, live version)` — which version serves, per model,
    /// in first-publish order.
    pub published: Vec<(String, u32)>,
    /// Tenant bindings, in bind order.
    pub tenants: Vec<TenantBinding>,
}

impl RegistrySnapshot {
    /// The live handle for `name`, if published.
    pub fn live(&self, name: &str) -> Option<&ModelHandle> {
        let (_, v) = self.published.iter().find(|(n, _)| n == name)?;
        self.handle(name, *v)
    }

    /// The exact `(name, version)` handle, live or not.
    pub fn handle(&self, name: &str, version: u32) -> Option<&ModelHandle> {
        self.models
            .iter()
            .find(|m| m.name == name && m.version == version)
    }

    /// The highest version ever published for `name`.
    pub fn latest_version(&self, name: &str) -> Option<u32> {
        self.models
            .iter()
            .filter(|m| m.name == name)
            .map(|m| m.version)
            .max()
    }

    /// Tenants bound to `model`, in bind order.
    pub fn tenants_of(&self, model: &str) -> Vec<&TenantBinding> {
        self.tenants.iter().filter(|t| t.model == model).collect()
    }
}

/// The copy-on-write registry. All mutation happens under one write
/// lock; readers grab an `Arc` to the current snapshot and work lock-free
/// from then on. The lock is traced as `fleet.registry` under
/// `--features synctrace`.
#[derive(Debug, Default)]
pub struct Registry {
    inner: RwLock<Arc<RegistrySnapshot>>,
}

impl Registry {
    /// An empty registry at epoch 0.
    pub fn new() -> Self {
        Registry::default()
    }

    /// A registry resuming from a snapshot (e.g. a shipped fleet config).
    pub fn from_snapshot(snap: RegistrySnapshot) -> Self {
        Registry {
            inner: RwLock::new(Arc::new(snap)),
        }
    }

    /// The current snapshot (lock held only for the `Arc` clone).
    pub fn snapshot(&self) -> Arc<RegistrySnapshot> {
        let guard = self
            .inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _t = synctrace::lock_acquired("fleet.registry");
        Arc::clone(&guard)
    }

    fn mutate(&self, f: impl FnOnce(&mut RegistrySnapshot)) {
        let mut guard = self
            .inner
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _t = synctrace::lock_acquired("fleet.registry");
        // Copy-on-write: in-flight readers keep their old snapshot.
        let mut next = (**guard).clone();
        next.epoch += 1;
        f(&mut next);
        *guard = Arc::new(next);
    }

    /// Publishes the next version of `name` with the shipped-profile
    /// mapping, returning the new immutable handle.
    pub fn publish(&self, name: &str, policy: ServeConfig) -> ModelHandle {
        let (layer, n_conv) = serve_profile(&policy);
        self.publish_with_profile(name, policy, layer, n_conv)
    }

    /// Publishes the next version of `name` with an explicit profile.
    pub fn publish_with_profile(
        &self,
        name: &str,
        policy: ServeConfig,
        layer: LayerDims,
        n_conv: usize,
    ) -> ModelHandle {
        let mut out = None;
        self.mutate(|snap| {
            let version = snap
                .models
                .iter()
                .filter(|m| m.name == name)
                .map(|m| m.version)
                .max()
                .unwrap_or(0)
                + 1;
            let handle = ModelHandle::with_profile(name, version, policy.clone(), layer, n_conv);
            snap.models.push(handle.clone());
            match snap.published.iter_mut().find(|(n, _)| n == name) {
                Some((_, v)) => *v = version,
                None => snap.published.push((name.to_string(), version)),
            }
            out = Some(handle);
        });
        out.expect("publish always produces a handle")
    }

    /// Moves the live pointer of `name` back one version. Returns the
    /// handle now serving, or `None` if `name` is unknown or already at
    /// its oldest version (the live pointer is untouched then).
    pub fn rollback(&self, name: &str) -> Option<ModelHandle> {
        let mut out = None;
        self.mutate(|snap| {
            let Some((_, live)) = snap.published.iter_mut().find(|(n, _)| n == name) else {
                return;
            };
            let prev = *live - 1;
            if let Some(h) = snap
                .models
                .iter()
                .find(|m| m.name == name && m.version == prev)
            {
                out = Some(h.clone());
                *live = prev;
            }
        });
        out
    }

    /// Binds (or rebinds) a tenant.
    pub fn bind(&self, binding: TenantBinding) {
        self.mutate(
            |snap| match snap.tenants.iter_mut().find(|t| t.tenant == binding.tenant) {
                Some(t) => *t = binding,
                None => snap.tenants.push(binding),
            },
        );
    }

    /// Resolves a tenant to its binding and the live handle of its model.
    pub fn resolve(&self, tenant: &str) -> Option<(TenantBinding, ModelHandle)> {
        let snap = self.snapshot();
        let b = snap.tenants.iter().find(|t| t.tenant == tenant)?.clone();
        let h = snap.live(&b.model)?.clone();
        Some((b, h))
    }
}

/// The shipped registry: both shipped serving policies published at v1,
/// two tenants each. SLAs sit at or above each policy's proven deadline
/// floor (`min_deadline_us`, lint `E090`); quotas and design rates are
/// sized so the shipped four-instance fleet survives any single node loss
/// (lint `E111`).
pub fn shipped_registry() -> Registry {
    let reg = Registry::new();
    let shipped = ServeConfig::shipped();
    let edge = shipped[0].clone();
    let streaming = shipped[1].clone();
    let (edge_name, streaming_name) = (edge.name, streaming.name);
    reg.publish(edge_name, edge);
    reg.publish(streaming_name, streaming);
    let tenant =
        |tenant: &str, model: &str, class, sla_deadline_us, quota, rate_rps| TenantBinding {
            tenant: tenant.to_string(),
            model: model.to_string(),
            class,
            sla_deadline_us,
            quota,
            rate_rps,
        };
    use ToleranceClass::*;
    reg.bind(tenant("vision_a", edge_name, Standard, 50_000, 16, 60.0));
    reg.bind(tenant("vision_b", edge_name, Standard, 60_000, 16, 60.0));
    reg.bind(tenant(
        "keyword_a",
        streaming_name,
        Relaxed,
        12_000,
        8,
        30.0,
    ));
    reg.bind(tenant(
        "keyword_b",
        streaming_name,
        Relaxed,
        20_000,
        8,
        30.0,
    ));
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_is_versioned_and_copy_on_write() {
        let reg = Registry::new();
        let before = reg.snapshot();
        let v1 = reg.publish("m", ServeConfig::edge_default());
        let v2 = reg.publish("m", ServeConfig::edge_default());
        assert_eq!((v1.version, v2.version), (1, 2));
        // The pre-publish snapshot is untouched (copy-on-write).
        assert!(before.models.is_empty() && before.epoch == 0);
        let now = reg.snapshot();
        assert_eq!(now.live("m").unwrap().version, 2);
        assert_eq!(now.models.len(), 2);
        assert_eq!(now.epoch, 2);
    }

    #[test]
    fn rollback_moves_the_live_pointer_and_republish_continues() {
        let reg = Registry::new();
        reg.publish("m", ServeConfig::edge_default());
        reg.publish("m", ServeConfig::edge_default());
        assert_eq!(reg.rollback("m").unwrap().version, 1);
        assert_eq!(reg.snapshot().live("m").unwrap().version, 1);
        // Already at the oldest version: rollback refuses.
        assert!(reg.rollback("m").is_none());
        assert!(reg.rollback("no_such_model").is_none());
        // Republish resumes at 3, never reusing a version number.
        assert_eq!(reg.publish("m", ServeConfig::edge_default()).version, 3);
    }

    #[test]
    fn version_fingerprints_track_name_version_and_ladder() {
        let policy = ServeConfig::edge_default();
        let fp = version_fingerprint("m", 1, &policy);
        assert_eq!(fp.len(), 16);
        assert_ne!(version_fingerprint("m", 2, &policy), fp);
        assert_ne!(version_fingerprint("n", 1, &policy), fp);
        let mut ladder = policy.clone();
        ladder.tiers[0].max_trials += 1;
        assert_ne!(version_fingerprint("m", 1, &ladder), fp);
        // Envelope tuning keeps the fingerprint, exactly like E093's.
        let mut envelope = policy;
        envelope.min_deadline_us /= 2;
        assert_eq!(version_fingerprint("m", 1, &envelope), fp);
    }

    #[test]
    fn shipped_registry_resolves_every_tenant() {
        let reg = shipped_registry();
        let snap = reg.snapshot();
        assert_eq!(snap.published.len(), 2);
        assert_eq!(snap.tenants.len(), 4);
        for t in &snap.tenants {
            let (b, h) = reg.resolve(&t.tenant).expect("tenant resolves");
            assert_eq!(b.model, h.name);
            assert_eq!(h.version, 1);
            assert_eq!(
                h.fingerprint,
                version_fingerprint(&h.name, h.version, &h.policy)
            );
            assert!(b.sla_deadline_us >= h.policy.min_deadline_us);
        }
        assert!(reg.resolve("nobody").is_none());
    }

    #[test]
    fn weight_bytes_follow_the_hw_profile() {
        let h = ModelHandle::new("edge_default", 1, ServeConfig::edge_default());
        // 16x16x8 two-conv head: 2 layers x 8x8 channel pairs x 3x3 x fp16.
        assert_eq!(h.weight_bytes(), 2 * 8 * 8 * 9 * 2);
        assert_eq!(h.layer_weight_bytes(), vec![8 * 8 * 9 * 2; 2]);
    }
}
