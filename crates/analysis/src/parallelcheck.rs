//! Parallel kernel-split lints (`E040`–`E042`, `W040`–`W043`).
//!
//! The static complement of the runtime sanitizer in
//! `enode_tensor::sanitize`: every parallelized kernel registers a
//! [`KernelSplit`] describing its decomposition — item count, grain,
//! per-item work, the buffers it strides, scratch provisioning, and how
//! cross-item reductions combine — and this pass checks the metadata
//! against the invariants the runtime enforces with asserts and shadow
//! memory:
//!
//! * `E040` — every split buffer must be a whole number of strides per
//!   item, or `parallel_for_disjoint*` rejects it at runtime.
//! * `E041` — the scratch arena must hold at least what the
//!   decomposition writes through it.
//! * `E042` — a cross-item reduction must combine partials in item
//!   order; anything else breaks the bit-identical determinism contract
//!   (DESIGN.md §8) and is exactly the mutation the schedule audit
//!   detects dynamically.
//! * `W040` — a split that degenerates to one chunk on a live pool
//!   despite substantial work (generalizes `W034`, which only sees
//!   batch-1 runs).
//! * `W041` — per-lane partial buffers that dwarf the reduced output.
//! * `W042` — per-lane spans below one cache line in every split buffer
//!   (lanes ping-pong ownership of shared lines).
//! * `W043` — scratch arenas provisioned far beyond the demand.
//!
//! The chunk-count and grain math here deliberately mirrors
//! `enode_tensor::parallel::{plan_chunks, grain_for}` so the lints model
//! what the pool will actually do.

use crate::diag::{Code, Diagnostic, Diagnostics};

/// Cache-line size assumed by the false-sharing lint.
const CACHE_LINE: usize = 64;

/// Mirror of `enode_tensor::parallel::grain_for`'s work floor.
const MIN_CHUNK_FLOPS: usize = 16 * 1024;

/// Mirror of `enode_tensor::parallel::SERIAL_FLOOR_FLOPS`: total work
/// below which `grain_for_sized` forces a serial plan (the split planner's
/// per-dispatch overhead amortization floor). A cross-crate test pins the
/// two constants together.
pub const SERIAL_FLOOR_FLOPS: usize = 32 * 5 * 2_000;

/// Mirror of `enode_tensor::parallel::grain_for`.
pub fn grain_for(flops_per_item: usize) -> usize {
    MIN_CHUNK_FLOPS.div_ceil(flops_per_item.max(1))
}

/// Mirror of `enode_tensor::parallel::grain_for_sized`: the work-size
/// aware grain used by kernels whose total work can fall below the
/// dispatch-amortization floor.
pub fn grain_for_sized(items: usize, flops_per_item: usize) -> usize {
    if items.saturating_mul(flops_per_item) < SERIAL_FLOOR_FLOPS {
        usize::MAX
    } else {
        grain_for(flops_per_item)
    }
}

/// Mirror of `enode_tensor::parallel::plan_chunks` for a given pool width.
pub fn plan_chunks(pool: usize, items: usize, grain: usize) -> usize {
    pool.min(items / grain.max(1)).max(1)
}

/// One output buffer a kernel splits into per-item strides.
#[derive(Clone, Copy, Debug)]
pub struct SplitBuffer {
    /// Buffer name as the kernel's shadow region registers it.
    pub name: &'static str,
    /// Element count.
    pub len: usize,
    /// Bytes per element.
    pub elem_bytes: usize,
}

/// How a kernel combines cross-item partial results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CombineOrder {
    /// Partials are folded in item order — the serial fold, bit-identical
    /// for any schedule.
    SerialItemOrder,
    /// Partials are folded in lane-completion order — schedule-dependent
    /// bits. Never shipped; modeled so the lint has teeth.
    Unordered,
}

/// A cross-item reduction the kernel performs after its parallel region.
#[derive(Clone, Copy, Debug)]
pub struct Reduction {
    /// Fold order of the per-item partials.
    pub order: CombineOrder,
    /// Total bytes of per-item partial buffers.
    pub partial_bytes: usize,
    /// Bytes of the reduced output.
    pub output_bytes: usize,
}

/// Decomposition metadata for one registered parallel kernel.
#[derive(Clone, Debug)]
pub struct KernelSplit {
    /// Kernel label, e.g. `"conv2d.forward (batch split)"`.
    pub kernel: &'static str,
    /// Number of independent items the kernel splits.
    pub items: usize,
    /// Grain passed to the parallel layer (minimum items per chunk).
    pub grain: usize,
    /// Approximate scalar operations per item (drives `W040`'s
    /// substantial-work threshold, mirroring `grain_for`).
    pub flops_per_item: usize,
    /// The buffers the kernel strides across lanes.
    pub buffers: Vec<SplitBuffer>,
    /// Per-checkout scratch-arena f32 counts `(provided, required)`, when
    /// the kernel uses `with_scratch_f32`.
    pub scratch_f32: Option<(usize, usize)>,
    /// The cross-item reduction, when the kernel performs one.
    pub reduction: Option<Reduction>,
}

/// Lints one kernel split against a pool of `pool` lanes.
pub fn lint_kernel_split(split: &KernelSplit, pool: usize) -> Diagnostics {
    let mut ds = Diagnostics::new();
    let items = split.items;

    for b in &split.buffers {
        if items > 0 && !b.len.is_multiple_of(items) {
            ds.push(
                Diagnostic::new(
                    Code::E040ParStrideIndivisible,
                    split.kernel,
                    format!(
                        "buffer `{}` (len {}) is not a whole number of strides for {} items",
                        b.name, b.len, items
                    ),
                )
                .with_note("items", items)
                .with_note("len", b.len),
            );
        }
    }

    if let Some((provided, required)) = split.scratch_f32 {
        if provided < required {
            ds.push(
                Diagnostic::new(
                    Code::E041ParScratchUndersized,
                    split.kernel,
                    format!(
                        "scratch arena holds {provided} f32 but the decomposition \
                         writes {required}"
                    ),
                )
                .with_note("provided_f32", provided)
                .with_note("required_f32", required),
            );
        } else if provided > 4 * required.max(1) && (provided - required) * 4 > 64 * 1024 {
            ds.push(
                Diagnostic::new(
                    Code::W043ParScratchOverprovision,
                    split.kernel,
                    format!(
                        "scratch arena holds {provided} f32 but the decomposition \
                         only writes {required}"
                    ),
                )
                .with_note("provided_f32", provided)
                .with_note("required_f32", required),
            );
        }
    }

    if let Some(r) = &split.reduction {
        if r.order == CombineOrder::Unordered {
            ds.push(Diagnostic::new(
                Code::E042ParUnorderedReduction,
                split.kernel,
                "partials combine in lane-completion order; the determinism \
                 contract requires the serial item-order fold"
                    .to_string(),
            ));
        }
        if r.partial_bytes > 8 * r.output_bytes.max(1) && r.partial_bytes > 64 * 1024 {
            ds.push(
                Diagnostic::new(
                    Code::W041ParPartialBlowup,
                    split.kernel,
                    format!(
                        "{} bytes of per-item partials reduce to {} bytes of output",
                        r.partial_bytes, r.output_bytes
                    ),
                )
                .with_note("partial_bytes", r.partial_bytes)
                .with_note("output_bytes", r.output_bytes),
            );
        }
    }

    let chunks = plan_chunks(pool, items, split.grain);
    let total_work = items.saturating_mul(split.flops_per_item);
    // A grain of usize::MAX with total work under the serial floor is the
    // split planner deliberately staying serial (grain_for_sized): note it
    // as W044 so the decision is visible, and suppress W040 — the "single
    // chunk despite substantial work" warning would misread a deliberate
    // floor as a planning bug.
    let floor_serial = split.grain == usize::MAX && total_work < SERIAL_FLOOR_FLOPS;
    if pool > 1 && items > 1 && chunks == 1 {
        if floor_serial {
            ds.push(
                Diagnostic::new(
                    Code::W044ParSerialFloorEngaged,
                    split.kernel,
                    format!(
                        "{items} items × ~{} flops is below the {SERIAL_FLOOR_FLOPS}-flop \
                         dispatch floor; the planner runs this kernel serial on the \
                         {pool}-lane pool",
                        split.flops_per_item
                    ),
                )
                .with_note("items", items)
                .with_note("flops_per_item", split.flops_per_item)
                .with_note("pool", pool),
            );
        } else if total_work >= 2 * MIN_CHUNK_FLOPS {
            ds.push(
                Diagnostic::new(
                    Code::W040ParDegenerateSplit,
                    split.kernel,
                    format!(
                        "{} items at grain {} plan a single chunk on a {pool}-lane pool \
                         despite ~{} flops of work",
                        items,
                        split.grain,
                        items * split.flops_per_item
                    ),
                )
                .with_note("items", items)
                .with_note("grain", split.grain)
                .with_note("pool", pool),
            );
        }
    }

    // False sharing: only meaningful when the split actually produces
    // multiple chunks, and only when EVERY buffer gives each lane less
    // than a cache line (a kernel whose main output strides are wide is
    // fine even if a small side buffer, e.g. a bias row, is narrow).
    if chunks > 1 && !split.buffers.is_empty() {
        let max_span = split
            .buffers
            .iter()
            .map(|b| (b.len / items.max(1)) * (items / chunks).max(1) * b.elem_bytes)
            .max()
            .unwrap_or(0);
        if max_span < CACHE_LINE {
            ds.push(
                Diagnostic::new(
                    Code::W042ParFalseSharing,
                    split.kernel,
                    format!(
                        "widest per-lane span is {max_span} bytes — below one \
                         {CACHE_LINE}-byte cache line in every split buffer"
                    ),
                )
                .with_note("max_span_bytes", max_span)
                .with_note("chunks", chunks),
            );
        }
    }

    ds
}

/// The shipped kernels' decomposition metadata at representative paper
/// shapes (the `edge image_classifier` conv stage and the dynamic-system
/// dense stages), for a nominal pool.
pub fn registered_splits() -> Vec<KernelSplit> {
    let mut splits = Vec::new();
    // conv2d at the edge image-classifier stage: 4->4 channels, 3x3
    // kernels, 16x16 maps, batch 10.
    let (n, c, m, k, hw) = (10usize, 4usize, 4usize, 3usize, 256usize);
    let ckk = c * k * k;
    // Direct-conv scratch (mirror of `enode_tensor::conv`): one
    // zero-padded input plane [C][H+2][W+2] per lane; the input gradient
    // pads `dy` the same way ([M][H+2][W+2]), and the weight gradient adds
    // `dy` transposed to [H·W][M rounded up to 8]. Its batch split packs
    // two samples per vector at m ≤ 4, so its padded plane holds a pair.
    let xpad = c * (16 + 2) * (16 + 2);
    let dypad = m * (16 + 2) * (16 + 2);
    let dyt = hw * m.next_multiple_of(8);
    let xpad_pair = if m <= 4 { 2 * xpad } else { xpad };
    splits.push(KernelSplit {
        kernel: "conv2d.forward (batch split)",
        items: n,
        grain: 1,
        flops_per_item: m * ckk * hw,
        buffers: vec![SplitBuffer {
            name: "data",
            len: n * m * hw,
            elem_bytes: 4,
        }],
        scratch_f32: Some((xpad, xpad)),
        reduction: None,
    });
    splits.push(KernelSplit {
        kernel: "conv2d.forward (row split)",
        items: m,
        grain: grain_for(ckk * hw),
        flops_per_item: ckk * hw,
        buffers: vec![SplitBuffer {
            name: "data",
            len: m * hw,
            elem_bytes: 4,
        }],
        scratch_f32: Some((xpad, xpad)),
        reduction: None,
    });
    // Fused conv→GroupNorm→activation epilogue at the same conv stage
    // (2 groups over m channels): conv flops plus 5/channel-element of
    // normalization and 1 of activation; the per-lane conv output stays
    // in the arena alongside the padded plane.
    let fused_flops = m * ckk * hw + 5 * m * hw + m * hw;
    splits.push(KernelSplit {
        kernel: "conv2d.fused_forward (batch split)",
        items: n,
        grain: grain_for_sized(n, fused_flops),
        flops_per_item: fused_flops,
        buffers: vec![SplitBuffer {
            name: "data",
            len: n * m * hw,
            elem_bytes: 4,
        }],
        scratch_f32: Some((xpad + m * hw, xpad + m * hw)),
        reduction: None,
    });
    splits.push(KernelSplit {
        kernel: "conv2d.backward_input (batch split)",
        items: n,
        grain: 1,
        flops_per_item: c * k * k * m * hw,
        buffers: vec![SplitBuffer {
            name: "data",
            len: n * c * hw,
            elem_bytes: 4,
        }],
        scratch_f32: Some((dypad, dypad)),
        reduction: None,
    });
    splits.push(KernelSplit {
        kernel: "conv2d.backward_input (channel split)",
        items: c,
        grain: grain_for(m * hw * k * k),
        flops_per_item: m * hw * k * k,
        buffers: vec![SplitBuffer {
            name: "data",
            len: c * hw,
            elem_bytes: 4,
        }],
        scratch_f32: Some((dypad, dypad)),
        reduction: None,
    });
    let psize = m * ckk + m;
    splits.push(KernelSplit {
        kernel: "conv2d.backward_params (batch split)",
        items: n,
        grain: 1,
        flops_per_item: m * ckk * hw,
        buffers: vec![SplitBuffer {
            name: "data",
            len: n * psize,
            elem_bytes: 4,
        }],
        scratch_f32: Some((n * psize + xpad_pair + dyt, n * psize + xpad_pair + dyt)),
        reduction: Some(Reduction {
            order: CombineOrder::SerialItemOrder,
            partial_bytes: n * psize * 4,
            output_bytes: psize * 4,
        }),
    });
    splits.push(KernelSplit {
        kernel: "conv2d.backward_params (row split)",
        items: m,
        grain: grain_for(ckk * hw),
        flops_per_item: ckk * hw,
        buffers: vec![
            SplitBuffer {
                name: "a",
                len: m * ckk,
                elem_bytes: 4,
            },
            SplitBuffer {
                name: "b",
                len: m,
                elem_bytes: 4,
            },
        ],
        scratch_f32: Some((xpad + dyt, xpad + dyt)),
        reduction: None,
    });

    // Dense at the three-body dynamic-system stage: batch 16, 12->32.
    let (dn, dd, dout) = (16usize, 12usize, 32usize);
    splits.push(KernelSplit {
        kernel: "dense.forward",
        items: dn,
        // 16 samples × 384 flops is far below the dispatch floor: the
        // planner stays serial (W044 notes this at the registered shape).
        grain: grain_for_sized(dn, dd * dout),
        flops_per_item: dd * dout,
        buffers: vec![SplitBuffer {
            name: "data",
            len: dn * dout,
            elem_bytes: 4,
        }],
        scratch_f32: Some((
            dout.div_ceil(8) * 8 * dd + dn.div_ceil(4) * 4 * dd,
            dout.div_ceil(8) * 8 * dd + dn.div_ceil(4) * 4 * dd,
        )),
        reduction: None,
    });
    splits.push(KernelSplit {
        kernel: "dense.backward_input",
        items: dn,
        grain: grain_for(dd * dout),
        flops_per_item: dd * dout,
        buffers: vec![SplitBuffer {
            name: "data",
            len: dn * dd,
            elem_bytes: 4,
        }],
        scratch_f32: None,
        reduction: None,
    });
    splits.push(KernelSplit {
        kernel: "dense.backward_params",
        items: dout,
        grain: grain_for(dn * dd),
        flops_per_item: dn * dd,
        buffers: vec![
            SplitBuffer {
                name: "a",
                len: dout * dd,
                elem_bytes: 4,
            },
            SplitBuffer {
                name: "b",
                len: dout,
                elem_bytes: 4,
            },
        ],
        scratch_f32: None,
        reduction: None,
    });

    // GroupNorm at the normed image-classifier stage: 8 channels, 4
    // groups, 16x16 maps, batch 10.
    let (gn_n, gc, gg, ghw) = (10usize, 8usize, 4usize, 256usize);
    splits.push(KernelSplit {
        kernel: "groupnorm.forward",
        items: gn_n,
        // 10 samples × 8 192 flops is below the dispatch floor — this is
        // the kernel that measured 0.61× under threads before the floor.
        grain: grain_for_sized(gn_n, 4 * gc * ghw),
        flops_per_item: 4 * gc * ghw,
        // y plus the two per-(sample, group) f64 moment vectors (x̂ is no
        // longer materialized by the forward pass).
        buffers: vec![
            SplitBuffer {
                name: "a",
                len: gn_n * gc * ghw,
                elem_bytes: 4,
            },
            SplitBuffer {
                name: "b",
                len: gn_n * gg,
                elem_bytes: 8,
            },
            SplitBuffer {
                name: "c",
                len: gn_n * gg,
                elem_bytes: 8,
            },
        ],
        scratch_f32: None,
        reduction: None,
    });
    splits.push(KernelSplit {
        kernel: "groupnorm.backward",
        items: gn_n,
        grain: grain_for(8 * gc * ghw),
        flops_per_item: 8 * gc * ghw,
        buffers: vec![
            SplitBuffer {
                name: "a",
                len: gn_n * gc * ghw,
                elem_bytes: 4,
            },
            SplitBuffer {
                name: "b",
                len: gn_n * 2 * gc,
                elem_bytes: 4,
            },
        ],
        // The partials plus one sample's x̂ ([C, H·W]) per lane.
        scratch_f32: Some((gn_n * 2 * gc + gc * ghw, gn_n * 2 * gc + gc * ghw)),
        reduction: Some(Reduction {
            order: CombineOrder::SerialItemOrder,
            partial_bytes: gn_n * 2 * gc * 4,
            output_bytes: 2 * gc * 4,
        }),
    });

    // Coarse per-item fan-outs: one solve or bench job per item.
    splits.push(KernelSplit {
        kernel: "node.forward_model_batched",
        items: 5,
        grain: 1,
        flops_per_item: 1 << 20,
        buffers: vec![SplitBuffer {
            name: "data",
            len: 5,
            elem_bytes: 64,
        }],
        scratch_f32: None,
        reduction: None,
    });
    splits.push(KernelSplit {
        kernel: "bench.run_benches",
        items: 3,
        grain: 1,
        flops_per_item: 1 << 24,
        buffers: vec![SplitBuffer {
            name: "data",
            len: 3,
            elem_bytes: 512,
        }],
        scratch_f32: None,
        reduction: None,
    });

    splits
}

/// Lints every registered kernel split. `pool` is the modeled pool width
/// (pass a fixed nominal width — e.g. 4 — for host-independent results).
pub fn lint_registered_splits(pool: usize) -> Diagnostics {
    let mut ds = Diagnostics::new();
    for split in registered_splits() {
        ds.extend(lint_kernel_split(&split, pool));
    }
    ds
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A healthy baseline split the negative tests mutate.
    fn good() -> KernelSplit {
        KernelSplit {
            kernel: "test.kernel",
            items: 8,
            grain: 1,
            flops_per_item: 64 * 1024,
            buffers: vec![SplitBuffer {
                name: "data",
                len: 8 * 256,
                elem_bytes: 4,
            }],
            scratch_f32: Some((1024, 1024)),
            reduction: Some(Reduction {
                order: CombineOrder::SerialItemOrder,
                partial_bytes: 8 * 1024,
                output_bytes: 1024,
            }),
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
        s.buffers[0].len = 8 * 256 + 3;
        let ds = lint_kernel_split(&s, 4);
        assert!(
            ds.has_code(Code::E040ParStrideIndivisible),
            "{}",
            ds.render()
        );
    }

    #[test]
    fn undersized_scratch_fires_e041() {
        let mut s = good();
        s.scratch_f32 = Some((512, 1024));
        let ds = lint_kernel_split(&s, 4);
        assert!(
            ds.has_code(Code::E041ParScratchUndersized),
            "{}",
            ds.render()
        );
    }

    #[test]
    fn unordered_reduction_fires_e042() {
        let mut s = good();
        s.reduction = Some(Reduction {
            order: CombineOrder::Unordered,
            partial_bytes: 8 * 1024,
            output_bytes: 1024,
        });
        let ds = lint_kernel_split(&s, 4);
        assert!(
            ds.has_code(Code::E042ParUnorderedReduction),
            "{}",
            ds.render()
        );
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
    fn partial_blowup_fires_w041() {
        let mut s = good();
        s.reduction = Some(Reduction {
            order: CombineOrder::SerialItemOrder,
            partial_bytes: 1024 * 1024,
            output_bytes: 256,
        });
        let ds = lint_kernel_split(&s, 4);
        assert!(ds.has_code(Code::W041ParPartialBlowup), "{}", ds.render());
    }

    #[test]
    fn narrow_lanes_fire_w042_only_when_every_buffer_is_narrow() {
        let mut s = good();
        s.buffers = vec![SplitBuffer {
            name: "data",
            len: 8,
            elem_bytes: 4,
        }];
        let ds = lint_kernel_split(&s, 4);
        assert!(ds.has_code(Code::W042ParFalseSharing), "{}", ds.render());
        // A second, wide buffer absorbs the traffic: quiet.
        s.buffers.push(SplitBuffer {
            name: "wide",
            len: 8 * 256,
            elem_bytes: 4,
        });
        let ds = lint_kernel_split(&s, 4);
        assert!(!ds.has_code(Code::W042ParFalseSharing), "{}", ds.render());
    }

    #[test]
    fn scratch_overprovision_fires_w043() {
        let mut s = good();
        s.scratch_f32 = Some((1024 * 1024, 1024));
        let ds = lint_kernel_split(&s, 4);
        assert!(
            ds.has_code(Code::W043ParScratchOverprovision),
            "{}",
            ds.render()
        );
    }

    #[test]
    fn shipped_registry_is_clean_on_a_nominal_pool() {
        // The only expected diagnostics are W044 serial-floor notes on the
        // two kernels whose registered shapes fall below the dispatch
        // floor (dense.forward, groupnorm.forward) — and only when the
        // modeled pool could actually have split them.
        for pool in [1usize, 2, 4, 8] {
            let ds = lint_registered_splits(pool);
            let unexpected: Vec<_> = ds
                .items()
                .iter()
                .filter(|d| d.code != Code::W044ParSerialFloorEngaged)
                .collect();
            assert!(unexpected.is_empty(), "pool {pool}:\n{}", ds.render());
            let floored: Vec<&str> = ds
                .items()
                .iter()
                .filter(|d| d.code == Code::W044ParSerialFloorEngaged)
                .map(|d| d.subject.as_str())
                .collect();
            if pool == 1 {
                assert!(floored.is_empty(), "serial pool never notes the floor");
            } else {
                assert_eq!(floored, ["dense.forward", "groupnorm.forward"]);
            }
        }
    }

    #[test]
    fn serial_floor_constants_match_tensor_crate() {
        assert_eq!(
            SERIAL_FLOOR_FLOPS,
            enode_tensor::parallel::SERIAL_FLOOR_FLOPS,
            "parallelcheck's floor mirror drifted from the live planner"
        );
        for (items, flops) in [(10usize, 100usize), (16, 384), (10, 8192), (10, 43_008)] {
            assert_eq!(
                grain_for_sized(items, flops),
                enode_tensor::parallel::grain_for_sized(items, flops),
                "grain_for_sized mirror drifted at ({items}, {flops})"
            );
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
        let names: Vec<&str> = registered_splits().iter().map(|s| s.kernel).collect();
        for prefix in [
            "conv2d.forward",
            "conv2d.fused_forward",
            "conv2d.backward_input",
            "conv2d.backward_params",
            "dense.forward",
            "dense.backward_input",
            "dense.backward_params",
            "groupnorm.forward",
            "groupnorm.backward",
            "node.forward_model_batched",
            "bench.run_benches",
        ] {
            assert!(
                names.iter().any(|n| n.starts_with(prefix)),
                "no registered split for {prefix}"
            );
        }
    }
}
