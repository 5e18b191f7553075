//! `enode-serve`: a deadline-aware inference serving runtime for Neural
//! ODE models.
//!
//! The eNODE paper's premise is that edge Neural-ODE inference lives or
//! dies on latency and energy; this crate supplies the *serving* layer a
//! deployment needs on top of the solver stack: a bounded ingress queue
//! with explicit admission control, a dynamic batcher that coalesces
//! compatible requests, deadline-based load shedding, and graceful
//! degradation to cheaper solver configurations (coarser tolerance,
//! smaller trial budget, lower-order tableau) when slack runs thin —
//! exactly the accuracy-for-compute knob the adaptive stepsize search
//! exposes.
//!
//! # Module map
//!
//! | Module | Role |
//! |---|---|
//! | [`clock`] | Wall vs virtual (caller-driven) microsecond time |
//! | [`request`] | [`Request`], [`Response`], [`Rejected`], [`Ticket`] |
//! | [`policies`] | [`ServeConfig`]: batching knobs + degradation ladder |
//! | [`server`] | The queue/batcher/worker runtime |
//! | [`metrics`] | Atomic counters + latency/batch histograms |
//! | [`hwcost`] | [`CostModel`] service-time charge + its calibration from simulated cost tables |
//! | [`registry`] | Versioned model registry: publish/rollback + tenant bindings |
//! | [`residency`] | Per-instance weight-SRAM residency accounting |
//! | [`fleet`] | N-instance fleet router (consistent hashing) + the discrete-event serving simulator ([`simulate_traffic`], open or closed loop per tenant) |
//! | [`skeleton`] | Declared sync skeletons (locks/condvars/atomics) for the E10x prover |
//! | [`synctrace`] | Feature-gated runtime sync tracer (parity vs the skeletons) |
//!
//! # Determinism
//!
//! Batched dispatch runs each sample's solve independently (see
//! [`enode_node::eval::forward_model_batched_with`]), so a response's
//! bits depend only on `(input, tolerance class, tier)` — never on batch
//! composition, worker count, or arrival interleaving. Combined with the
//! virtual [`Clock`] (deadline and tier decisions at simulated instants)
//! and the NFE-based [`CostModel`], the one discrete-event loop in
//! [`fleet`] replays the whole serving stack bit-for-bit — a single
//! server runs as a one-instance fleet. The batcher determinism tests,
//! `BENCH_serve.json` and `BENCH_fleet.json` all lean on this.

pub mod clock;
pub mod fleet;
pub mod hwcost;
pub mod metrics;
pub mod policies;
pub mod registry;
pub mod request;
pub mod residency;
pub mod server;
pub mod skeleton;
pub mod synctrace;

pub use clock::Clock;
pub use fleet::{
    simulate_fleet, simulate_traffic, Arrivals, Fleet, FleetConfig, FleetLoad, FleetRunResult,
    Offers, TenantTraffic,
};
pub use hwcost::{fingerprint, shipped_cost_table, table_spec, CostModel};
pub use metrics::{Metrics, MetricsSnapshot};
pub use policies::{ServeConfig, TierSpec};
pub use registry::{shipped_registry, ModelHandle, Registry, RegistrySnapshot, TenantBinding};
pub use request::{Priority, Rejected, Request, Response, ServeResult, Ticket, ToleranceClass};
pub use residency::{ResidencyManager, ResidentModel};
pub use server::{PreparedBatch, Server, SolvedBatch};
