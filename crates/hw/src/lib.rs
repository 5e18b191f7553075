//! Cycle-level model of the eNODE accelerator and its SIMD ASIC baseline
//! (paper §III–§VI, evaluated in §VIII).
//!
//! The paper evaluates a 28 nm RTL prototype; this crate reproduces the
//! *system* as a simulator:
//!
//! * [`config`] — hardware configurations (Table I's Configuration A / B),
//!   workload descriptors, and adapters from algorithm-level traces.
//! * [`pe`] — the unified NN core's PE array (§VI): 64 PEs in modulo
//!   groups, 8-lane adder tree, forward and backward (flipped-kernel)
//!   convolution on the *same* hardware — functionally simulated and
//!   verified against the reference convolution.
//! * [`packet`] — packetized depth-first processing (§V-B): stream-tagged
//!   packets, per-stream state buffers, the later-stream-first priority
//!   selector, and the row-level pipeline model that quantifies packetized
//!   vs blocking execution.
//! * [`dram`] — a "Ramulator-lite" banked DRAM timing/energy model (the
//!   paper uses Ramulator \[17\]).
//! * [`depthfirst`] — buffer sizing and lifetime analysis for depth-first
//!   integration (Fig 14) and depth-first training (Fig 15): on-chip rows
//!   vs full-map baseline, and DRAM spill as a function of buffer capacity.
//! * [`area`] — the 28 nm area model calibrated to Table I.
//! * [`energy`] — MAC/SRAM/DRAM energy model calibrated to Fig 16.
//! * [`perf`] — end-to-end performance/energy simulation of eNODE and the
//!   weight-stationary SIMD baseline on NODE workloads (Figs 16–18).
//! * [`gpu`] — an A100-class GPU cost model for the §VIII-D comparison.
//! * [`fingerprint`] — the shared FNV-1a content hash stamped on every
//!   committed artifact (cost tables, registry model versions) so the
//!   staleness lints (`E093`, `E113`) can prove provenance.
//! * [`json`] — the one JSON reader and string escape every committed
//!   artifact is checked and read back with.

pub mod area;
pub mod config;
pub mod core;
pub mod depthfirst;
pub mod dram;
pub mod energy;
pub mod fingerprint;
pub mod gpu;
pub mod json;
pub mod mapping;
pub mod packet;
pub mod pe;
pub mod perf;
pub mod ring;
pub mod system;
pub mod table;

pub use config::{HwConfig, LayerDims, WorkloadRun};
pub use perf::{simulate_baseline, simulate_enode, SimReport};
