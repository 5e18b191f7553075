//! Kernel-split summaries: the sizes each parallel kernel declares for
//! the split lints (`enode-analysis::parallelcheck`, W040–W042 and W044)
//! and the roofline cost model (`enode-analysis::cost`).
//!
//! Every `parallel_for_disjoint*` call site in this crate has a
//! [`KernelAccessSummary`], built by a `*_access` function beside the
//! kernel from the kernel's own size helpers: the item count, the grain
//! it passes to the pool, the flops per item, and every region the
//! parallel phase touches.
//!
//! A summary proves nothing about lane safety; the parallel layer
//! guarantees it. `parallel_for_disjoint*` hands each lane a `&mut`
//! subslice of whole item strides, cut by the balanced
//! [`crate::parallel::chunk`] decomposition, and panics in every build on
//! a buffer that is not a whole number of strides. So a written region
//! ([`RegionRole::Output`] or [`RegionRole::Partials`]) is one contiguous
//! stride of `elems / items` elements per item. An input is read either
//! one stride per item or whole by every item (resident weights); either
//! way one call streams it once, so the roofline prices every region at
//! its size. Thread-local scratch stays in cache and is not declared.

/// What the split does with a region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegionRole {
    /// Only loaded during the parallel phase.
    Input,
    /// Written one stride per item and live past the kernel.
    Output,
    /// Written one stride per item, then folded serially after the join
    /// into one item's stride of output; not live past the kernel.
    Partials,
}

/// A named buffer the kernel touches during its parallel phase.
#[derive(Clone, Copy, Debug)]
pub struct RegionDecl {
    /// Region name, unique within the summary.
    pub name: &'static str,
    /// Element count.
    pub elems: usize,
    /// Bytes per element.
    pub elem_bytes: usize,
    /// Whether the split reads, writes or folds the region.
    pub role: RegionRole,
}

impl RegionDecl {
    fn f32(name: &'static str, elems: usize, role: RegionRole) -> Self {
        RegionDecl {
            name,
            elems,
            elem_bytes: 4,
            role,
        }
    }

    /// A live output region, one stride per item.
    pub fn output(name: &'static str, elems: usize) -> Self {
        Self::f32(name, elems, RegionRole::Output)
    }

    /// A read-only input region.
    pub fn input(name: &'static str, elems: usize) -> Self {
        Self::f32(name, elems, RegionRole::Input)
    }

    /// A per-call partials buffer: written one stride per item, reduced
    /// serially after the join, not live past the kernel.
    pub fn partials(name: &'static str, elems: usize) -> Self {
        Self::f32(name, elems, RegionRole::Partials)
    }

    /// The same region with `elem_bytes`-byte elements (e.g. 8 for `f64`).
    pub fn with_elem_bytes(self, elem_bytes: usize) -> Self {
        RegionDecl { elem_bytes, ..self }
    }

    /// `true` if the split writes the region (an output or partials).
    pub fn written(&self) -> bool {
        self.role != RegionRole::Input
    }
}

/// The summary of one registered kernel split: the shape of its item
/// decomposition plus every region it touches.
#[derive(Clone, Debug)]
pub struct KernelAccessSummary {
    /// Kernel label, the subject of every diagnostic on this split (e.g.
    /// `"conv2d.forward (batch split)"`).
    pub kernel: &'static str,
    /// Number of independent items the kernel splits.
    pub items: usize,
    /// Grain passed to the parallel layer (minimum items per chunk).
    pub grain: usize,
    /// Approximate scalar operations per item (drives the roofline).
    pub flops_per_item: usize,
    /// Every region the parallel phase touches.
    pub regions: Vec<RegionDecl>,
}

impl KernelAccessSummary {
    /// A coarse one-slot-per-item fan-out (batched solves, bench jobs):
    /// each item writes its own `elem_bytes`-sized result slot.
    pub fn coarse_fanout(
        kernel: &'static str,
        items: usize,
        flops_per_item: usize,
        elem_bytes: usize,
    ) -> Self {
        KernelAccessSummary {
            kernel,
            items,
            grain: 1,
            flops_per_item,
            regions: vec![RegionDecl::output("data", items).with_elem_bytes(elem_bytes)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel;

    #[test]
    fn item_chunk_matches_the_live_parallel_decomposition() {
        // Drive a real disjoint split and record which item range each
        // chunk received; it must be exactly `parallel::chunk`'s answer.
        for &threads in &[1usize, 2, 4, 7] {
            parallel::with_threads(threads, || {
                let items = 11usize;
                let mut buf = vec![0.0f32; items];
                let observed = std::sync::Mutex::new(Vec::new());
                parallel::parallel_for_disjoint(&mut buf, items, 1, |range, _| {
                    observed.lock().unwrap().push((range.start, range.end));
                });
                let mut got = observed.into_inner().unwrap();
                got.sort_unstable();
                let ways = got.len();
                let want: Vec<_> = (0..ways)
                    .map(|l| parallel::chunk(items, ways, l))
                    .map(|r| (r.start, r.end))
                    .collect();
                assert_eq!(got, want, "threads={threads}");
            });
        }
    }

    #[test]
    fn coarse_fanout_is_one_slot_per_item() {
        let s = KernelAccessSummary::coarse_fanout("k", 5, 1 << 20, 64);
        assert_eq!(s.items, 5);
        assert_eq!(s.regions.len(), 1);
        assert_eq!(s.regions[0].elems, 5);
        assert_eq!(s.regions[0].elem_bytes, 64);
        assert!(s.regions[0].written());
    }
}
