//! Parallel kernel-split lints (`E040`, `W040`–`W042`, `W044`).
//!
//! The static complement of the runtime sanitizer in
//! `enode_tensor::sanitize`. Every parallelized kernel declares its
//! decomposition once, as the [`KernelAccessSummary`] its `*_access`
//! function builds beside the kernel from the kernel's own size helpers.
//! This pass reads the same registry as the affine prover and the cost
//! pass ([`crate::affine::registered_summaries`]) and checks each split
//! against a modeled pool width:
//!
//! * `E040` — every written region must be a whole number of strides per
//!   item, or `parallel_for_disjoint*` rejects it at runtime.
//! * `W040` — a split that degenerates to one chunk on a live pool
//!   despite substantial work (generalizes `W034`, which only sees
//!   batch-1 runs).
//! * `W041` — a per-item partials region (written by the split, folded
//!   serially after the join) that dwarfs the reduced output, which is
//!   one item's stride.
//! * `W042` — per-lane spans below one cache line in every written region
//!   (lanes ping-pong ownership of shared lines).
//! * `W044` — the planner's work-size floor keeps the kernel serial.
//!
//! The grain and floor constants are `enode_tensor::parallel`'s own;
//! [`plan_chunks`] models its chunk planner at a given pool width.
//! Codes `E041`, `E042` and `W043` are retired
//! ([`crate::registry::RETIRED`]).

use crate::diag::{Code, Diagnostic, Diagnostics};
use enode_tensor::access::{AccessKind, KernelAccessSummary, RegionDecl};
use enode_tensor::parallel::{MIN_CHUNK_FLOPS, SERIAL_FLOOR_FLOPS};

/// Cache-line size assumed by the false-sharing lint.
const CACHE_LINE: usize = 64;

/// Mirror of `enode_tensor::parallel::plan_chunks` for a given pool width.
pub fn plan_chunks(pool: usize, items: usize, grain: usize) -> usize {
    pool.min(items / grain.max(1)).max(1)
}

/// Lints one kernel split against a pool of `pool` lanes.
pub fn lint_kernel_split(s: &KernelAccessSummary, pool: usize) -> Diagnostics {
    let mut ds = Diagnostics::new();
    let items = s.items;
    let written: Vec<&RegionDecl> = s
        .regions
        .iter()
        .filter(|r| {
            s.accesses
                .iter()
                .any(|a| a.region == r.name && a.kind == AccessKind::Write)
        })
        .collect();
    // One item's stride of a written region, in bytes.
    let stride_bytes = |r: &RegionDecl| r.elems / items.max(1) * r.elem_bytes;

    for r in &written {
        if items > 0 && !r.elems.is_multiple_of(items) {
            ds.push(
                Diagnostic::new(
                    Code::E040ParStrideIndivisible,
                    s.kernel,
                    format!(
                        "region `{}` (len {}) is not a whole number of strides for {} items",
                        r.name, r.elems, items
                    ),
                )
                .with_note("items", items)
                .with_note("len", r.elems),
            );
        }
        // Written but not live past the kernel: a partials buffer the
        // serial fold reduces to one item's stride.
        if !r.live_output {
            let partial_bytes = r.elems * r.elem_bytes;
            let output_bytes = stride_bytes(r);
            if partial_bytes > 8 * output_bytes.max(1) && partial_bytes > 64 * 1024 {
                ds.push(
                    Diagnostic::new(
                        Code::W041ParPartialBlowup,
                        s.kernel,
                        format!(
                            "{partial_bytes} bytes of per-item partials reduce to \
                             {output_bytes} bytes of output"
                        ),
                    )
                    .with_note("partial_bytes", partial_bytes)
                    .with_note("output_bytes", output_bytes),
                );
            }
        }
    }

    let chunks = plan_chunks(pool, items, s.grain);
    let total_work = items.saturating_mul(s.flops_per_item);
    // A grain of usize::MAX with total work under the serial floor is the
    // split planner deliberately staying serial (grain_for_sized): note it
    // as W044 so the decision is visible, and suppress W040 — the "single
    // chunk despite substantial work" warning would misread a deliberate
    // floor as a planning bug.
    let floor_serial = s.grain == usize::MAX && total_work < SERIAL_FLOOR_FLOPS;
    if pool > 1 && items > 1 && chunks == 1 {
        if floor_serial {
            ds.push(
                Diagnostic::new(
                    Code::W044ParSerialFloorEngaged,
                    s.kernel,
                    format!(
                        "{items} items × ~{} flops is below the {SERIAL_FLOOR_FLOPS}-flop \
                         dispatch floor; the planner runs this kernel serial on the \
                         {pool}-lane pool",
                        s.flops_per_item
                    ),
                )
                .with_note("items", items)
                .with_note("flops_per_item", s.flops_per_item)
                .with_note("pool", pool),
            );
        } else if total_work >= 2 * MIN_CHUNK_FLOPS {
            ds.push(
                Diagnostic::new(
                    Code::W040ParDegenerateSplit,
                    s.kernel,
                    format!(
                        "{items} items at grain {} plan a single chunk on a {pool}-lane pool \
                         despite ~{total_work} flops of work",
                        s.grain
                    ),
                )
                .with_note("items", items)
                .with_note("grain", s.grain)
                .with_note("pool", pool),
            );
        }
    }

    // False sharing: only meaningful when the split actually produces
    // multiple chunks, and only when EVERY written region gives each lane
    // less than a cache line (a kernel whose main output strides are wide
    // is fine even if a small side region, e.g. a bias row, is narrow).
    if chunks > 1 && !written.is_empty() {
        let max_span = written
            .iter()
            .map(|r| stride_bytes(r) * (items / chunks).max(1))
            .max()
            .unwrap_or(0);
        if max_span < CACHE_LINE {
            ds.push(
                Diagnostic::new(
                    Code::W042ParFalseSharing,
                    s.kernel,
                    format!(
                        "widest per-lane span is {max_span} bytes — below one \
                         {CACHE_LINE}-byte cache line in every written region"
                    ),
                )
                .with_note("max_span_bytes", max_span)
                .with_note("chunks", chunks),
            );
        }
    }

    ds
}

/// Lints every registered kernel split. `pool` is the modeled pool width
/// (pass a fixed nominal width — e.g. 4 — for host-independent results).
pub fn lint_registered_splits(pool: usize) -> Diagnostics {
    let mut ds = Diagnostics::new();
    for s in crate::affine::registered_summaries() {
        ds.extend(lint_kernel_split(&s, pool));
    }
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use enode_tensor::access::StridedAccess;

    /// A healthy baseline split the negative tests mutate: a live output
    /// and a partials region, each one contiguous stride per item.
    fn good() -> KernelAccessSummary {
        KernelAccessSummary {
            kernel: "test.kernel",
            items: 8,
            grain: 1,
            flops_per_item: 64 * 1024,
            regions: vec![
                RegionDecl::output("data", 8 * 256),
                RegionDecl::partials("partials", 8 * 256),
            ],
            accesses: vec![
                StridedAccess::contiguous("data", AccessKind::Write, 256),
                StridedAccess::contiguous("partials", AccessKind::Write, 256),
            ],
            scratch: vec![],
        }
    }

    #[test]
    fn healthy_split_is_clean() {
        let ds = lint_kernel_split(&good(), 4);
        assert!(ds.is_empty(), "{}", ds.render());
    }

    #[test]
    fn indivisible_stride_fires_e040() {
        let mut s = good();
        s.regions[0].elems = 8 * 256 + 3;
        let ds = lint_kernel_split(&s, 4);
        assert!(
            ds.has_code(Code::E040ParStrideIndivisible),
            "{}",
            ds.render()
        );
        // A read-only region is not split: its length is unconstrained.
        let mut s = good();
        s.regions.push(RegionDecl::input("x", 8 * 256 + 3));
        s.accesses
            .push(StridedAccess::broadcast_read("x", 8 * 256 + 3));
        let ds = lint_kernel_split(&s, 4);
        assert!(ds.is_empty(), "{}", ds.render());
    }

    #[test]
    fn degenerate_split_fires_w040_only_with_substantial_work() {
        let mut s = good();
        s.grain = usize::MAX; // plans a single chunk whatever the pool
        let ds = lint_kernel_split(&s, 4);
        assert!(ds.has_code(Code::W040ParDegenerateSplit), "{}", ds.render());
        // The same degenerate plan with negligible work stays quiet.
        s.flops_per_item = 16;
        let ds = lint_kernel_split(&s, 4);
        assert!(
            !ds.has_code(Code::W040ParDegenerateSplit),
            "{}",
            ds.render()
        );
        // And a serial pool never warns.
        s.flops_per_item = 64 * 1024;
        let ds = lint_kernel_split(&s, 1);
        assert!(
            !ds.has_code(Code::W040ParDegenerateSplit),
            "{}",
            ds.render()
        );
    }

    #[test]
    fn partial_blowup_fires_w041_only_on_partials() {
        // 32 items × 4 KiB of partials fold to one 4 KiB row: 128 KiB.
        let mut s = good();
        s.items = 32;
        s.regions[1].elems = 32 * 1024;
        s.accesses[1] = StridedAccess::contiguous("partials", AccessKind::Write, 1024);
        s.regions[0].elems = 32 * 256;
        let ds = lint_kernel_split(&s, 4);
        assert!(ds.has_code(Code::W041ParPartialBlowup), "{}", ds.render());
        assert!(
            ds.items()
                .iter()
                .any(|d| d.message
                    == "131072 bytes of per-item partials reduce to 4096 bytes of output"),
            "{}",
            ds.render()
        );
        // The same region as a live output is not reduced: quiet.
        s.regions[1].live_output = true;
        let ds = lint_kernel_split(&s, 4);
        assert!(ds.is_empty(), "{}", ds.render());
    }

    #[test]
    fn narrow_lanes_fire_w042_only_when_every_region_is_narrow() {
        let mut s = good();
        s.regions = vec![RegionDecl::output("data", 8)];
        s.accesses = vec![StridedAccess::contiguous("data", AccessKind::Write, 1)];
        let ds = lint_kernel_split(&s, 4);
        assert!(ds.has_code(Code::W042ParFalseSharing), "{}", ds.render());
        // A second, wide written region absorbs the traffic: quiet.
        s.regions.push(RegionDecl::output("wide", 8 * 256));
        s.accesses
            .push(StridedAccess::contiguous("wide", AccessKind::Write, 256));
        let ds = lint_kernel_split(&s, 4);
        assert!(!ds.has_code(Code::W042ParFalseSharing), "{}", ds.render());
        // A wide region the split only reads does not.
        s.accesses[1].kind = AccessKind::Read;
        let ds = lint_kernel_split(&s, 4);
        assert!(ds.has_code(Code::W042ParFalseSharing), "{}", ds.render());
    }

    #[test]
    fn shipped_registry_is_clean_on_a_nominal_pool() {
        // The expected diagnostics are the W044 serial-floor notes on the
        // two kernels whose registered shapes fall below the dispatch
        // floor (dense.forward, groupnorm.forward) — only when the modeled
        // pool could actually have split them — and, at 8 lanes, W042 on
        // the gemm_bias row split: 9 rows of 15 f32 (60 B) planned one row
        // per lane.
        for pool in [1usize, 2, 4, 8] {
            let ds = lint_registered_splits(pool);
            let got: Vec<(&str, &str)> = ds
                .items()
                .iter()
                .map(|d| (d.code.as_str(), d.subject.as_str()))
                .collect();
            let mut want = Vec::new();
            if pool > 1 {
                want.push(("W044", "dense.forward"));
                want.push(("W044", "groupnorm.forward"));
            }
            if pool == 8 {
                want.push(("W042", "gemm_bias (row split)"));
            }
            assert_eq!(got, want, "pool {pool}:\n{}", ds.render());
        }
    }

    #[test]
    fn floor_engaged_fires_w044_and_suppresses_w040() {
        let mut s = good();
        // 8 items × 8 192 flops = 65 536: enough for W040's substantial-work
        // bar but below the 320 000-flop serial floor.
        s.flops_per_item = 8 * 1024;
        s.grain = usize::MAX;
        let ds = lint_kernel_split(&s, 4);
        assert!(
            ds.has_code(Code::W044ParSerialFloorEngaged),
            "{}",
            ds.render()
        );
        assert!(
            !ds.has_code(Code::W040ParDegenerateSplit),
            "floor-engaged plans must not double-report as W040:\n{}",
            ds.render()
        );
        // Above the floor, the same usize::MAX grain is a genuine
        // degenerate split again.
        s.flops_per_item = 64 * 1024;
        let ds = lint_kernel_split(&s, 4);
        assert!(ds.has_code(Code::W040ParDegenerateSplit), "{}", ds.render());
        assert!(!ds.has_code(Code::W044ParSerialFloorEngaged));
    }

    #[test]
    fn registry_covers_every_parallelized_kernel() {
        // Every `parallel_for_disjoint*` split and coarse fan-out the
        // schedule-permutation audit exercises has exactly one summary in
        // the one registry the E04x, E08x and cost passes read.
        let names: Vec<&str> = crate::affine::registered_summaries()
            .iter()
            .map(|s| s.kernel)
            .collect();
        let want = [
            "conv2d.forward (batch split)",
            "conv2d.fused_forward (batch split)",
            "conv2d.forward (row split)",
            "conv2d.backward_input (batch split)",
            "conv2d.backward_input (channel split)",
            "conv2d.backward_params (batch split)",
            "conv2d.backward_params (row split)",
            "dense.forward",
            "dense.backward_input",
            "dense.backward_params",
            "groupnorm.forward",
            "groupnorm.backward",
            "gemm_bias (row split)",
            "node.forward_model_batched",
            "bench.run_benches",
        ];
        assert_eq!(names, want);
    }
}
