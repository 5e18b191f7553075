//! The affine access prover (`E080`–`E082`, `W080`): static disjointness
//! and coverage proofs for every registered parallel kernel split, valid
//! across the *entire* (thread count × grain × lane index) envelope.
//!
//! # Summary language
//!
//! Each kernel registers a [`KernelAccessSummary`] beside its
//! `parallel_for_disjoint*` call site (see [`enode_tensor::access`]):
//! per item `t`, an access `(offset, stride_per_item, elem_stride,
//! count)` touches the strided set
//!
//! ```text
//! S_t = { offset + t·sp + j·es : 0 ≤ j < count }
//! ```
//!
//! # The lane-contiguity lemma
//!
//! The parallel layer assigns every lane a contiguous, balanced item
//! range ([`enode_tensor::parallel::chunk`]) for **every** pool
//! width, grain, and schedule — grain only changes *how many* chunks
//! exist, never their contiguity. Lane sets are therefore unions of
//! per-item sets over disjoint item ranges, so:
//!
//! * lane write-sets are pairwise disjoint for every envelope point
//!   **iff** per-item write sets are pairwise disjoint (`E080`), and
//! * the union of lane writes equals the union of item writes, so
//!   coverage (`E081`/`W080`) is envelope-independent too.
//!
//! This reduction is what makes the prover total: one symbolic check
//! discharges all thread counts and grains at once, where the runtime
//! shadow-memory sanitizer can only validate schedules it executes.
//!
//! # Stride congruence
//!
//! Items `t` and `t+d` of one access collide iff `d·sp = m·es` for some
//! `|m| ≤ count−1`. With `g = gcd(sp, es)`, the smallest positive `d`
//! with `es | d·sp` is `d₀ = es/g`, giving quotient `m₀ = sp/g`; a
//! collision exists iff `d₀ ≤ items−1` and `m₀ ≤ count−1` (broadcast
//! writes `sp = 0` collide whenever `items > 1`). No enumeration over
//! items, lanes, or pools is needed — interval plus congruence algebra
//! only, with a brute-force cross-check in the tests.
//!
//! Coverage uses counting: once writes are proven pairwise disjoint and
//! in-bounds, the union is exactly `[0, elems)` iff the touched-element
//! total equals `elems` (pigeonhole); a shortfall is a gap (`E081`)
//! unless the region declares exactly that much intentional slack
//! (`W080`).
//!
//! # Engine wiring
//!
//! The per-region union footprint is computed as a forward dataflow
//! pass on the fixpoint engine ([`crate::engine`]): the write accesses
//! of a region form a chain graph, the lattice value is the
//! [`Footprint`] accumulated so far, and the region's footprint is the
//! fixpoint value at the chain's last node. The cost pass
//! ([`crate::cost`]) reuses the same footprints for its bytes-moved
//! model.

use crate::diag::{Code, Diagnostic, Diagnostics};
use crate::engine::{DataflowGraph, Lattice, Pass};
use enode_tensor::access::{AccessKind, KernelAccessSummary, ScratchSource, StridedAccess};
use enode_tensor::parallel;

fn gcd(a: usize, b: usize) -> usize {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// The union-of-writes abstract value: element bounds plus the touched
/// count claimed by the accesses folded so far. `covered` is only
/// meaningful once pairwise disjointness is proven (the prover checks
/// that before consuming it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Footprint {
    /// Whether any access has been folded in.
    pub reached: bool,
    /// Smallest touched element index.
    pub min: usize,
    /// One past the largest touched element index.
    pub max_end: usize,
    /// Total elements touched (valid under pairwise disjointness).
    pub covered: usize,
}

impl Lattice for Footprint {
    fn bottom() -> Self {
        Footprint {
            reached: false,
            min: 0,
            max_end: 0,
            covered: 0,
        }
    }

    fn join_from(&mut self, other: &Self) -> bool {
        if !other.reached {
            return false;
        }
        if !self.reached {
            *self = other.clone();
            return true;
        }
        let mut changed = false;
        if other.min < self.min {
            self.min = other.min;
            changed = true;
        }
        if other.max_end > self.max_end {
            self.max_end = other.max_end;
            changed = true;
        }
        if other.covered > self.covered {
            self.covered = other.covered;
            changed = true;
        }
        changed
    }
}

/// Interval and touched-count of one access over all `items`.
fn access_footprint(a: &StridedAccess, items: usize) -> Footprint {
    if items == 0 || a.count == 0 {
        return Footprint::bottom();
    }
    let last = a.offset + (items - 1) * a.stride_per_item + (a.count - 1) * a.elem_stride;
    let covered = if a.stride_per_item == 0 {
        a.count
    } else {
        items * a.count
    };
    Footprint {
        reached: true,
        min: a.offset,
        max_end: last + 1,
        covered,
    }
}

/// A chain graph: node `i`'s single predecessor is `i − 1`. One node
/// per write access of the region whose footprint is being folded.
struct AccessChain {
    preds: Vec<Vec<usize>>,
}

impl AccessChain {
    fn new(n: usize) -> Self {
        AccessChain {
            preds: (0..n)
                .map(|i| if i == 0 { vec![] } else { vec![i - 1] })
                .collect(),
        }
    }
}

impl DataflowGraph for AccessChain {
    fn num_nodes(&self) -> usize {
        self.preds.len()
    }
    fn preds(&self, node: usize) -> &[usize] {
        &self.preds[node]
    }
}

/// Folds each chain node's access into its predecessor's footprint.
struct FootprintPass<'a> {
    writes: Vec<&'a StridedAccess>,
    items: usize,
}

impl Pass<AccessChain> for FootprintPass<'_> {
    type Value = Footprint;

    fn transfer(&self, _g: &AccessChain, node: usize, deps: &[Footprint]) -> Footprint {
        let mut fp = deps.first().cloned().unwrap_or_else(Footprint::bottom);
        let own = access_footprint(self.writes[node], self.items);
        if own.reached {
            if fp.reached {
                fp.min = fp.min.min(own.min);
                fp.max_end = fp.max_end.max(own.max_end);
                fp.covered += own.covered;
            } else {
                fp = own;
            }
        }
        fp
    }
}

/// The union footprint of a region's write accesses, computed on the
/// fixpoint engine (chain of accesses, forward pass).
pub fn union_write_footprint(s: &KernelAccessSummary, region: &str) -> Footprint {
    let writes: Vec<&StridedAccess> = s
        .accesses
        .iter()
        .filter(|a| a.region == region && a.kind == AccessKind::Write)
        .collect();
    if writes.is_empty() {
        return Footprint::bottom();
    }
    let chain = AccessChain::new(writes.len());
    let pass = FootprintPass {
        items: s.items,
        writes,
    };
    let fix = crate::engine::run_to_fixpoint(&chain, &pass);
    fix.values.last().cloned().unwrap_or_else(Footprint::bottom)
}

/// Why two items of one access collide, if they do.
fn self_collision(a: &StridedAccess, items: usize) -> Option<(usize, usize)> {
    if items <= 1 || a.count == 0 {
        return None;
    }
    if a.stride_per_item == 0 {
        // Every item touches the same set.
        return Some((1, a.offset));
    }
    let g = gcd(a.stride_per_item, a.elem_stride.max(1));
    let d0 = a.elem_stride.max(1) / g;
    let m0 = a.stride_per_item / g;
    if d0 < items && m0 < a.count {
        // Item 0's element j = m0 equals item d0's element 0.
        let elem = a.offset + m0 * a.elem_stride;
        return Some((d0, elem));
    }
    None
}

/// `true` if every item's set stays inside its own `[t·sp, (t+1)·sp)`
/// stride — the sufficient condition for read/write lane-locality.
fn item_local(a: &StridedAccess, sp: usize) -> bool {
    a.elem_stride == 1 && a.stride_per_item == sp && a.count != 0 && a.offset + a.count <= sp
}

/// Proves the three obligations for one summary. Diagnostics carry the
/// kernel label as their subject and the region as a note.
pub fn lint_summary(s: &KernelAccessSummary) -> Diagnostics {
    let mut ds = Diagnostics::new();

    // Accesses must name declared regions (everything downstream keys
    // off the region's element count).
    for a in &s.accesses {
        if s.region(a.region).is_none() {
            ds.push(
                Diagnostic::new(
                    Code::E081AffineCoverage,
                    s.kernel,
                    format!(
                        "access references undeclared region `{}`; the summary \
                         declares no element count to prove coverage against",
                        a.region
                    ),
                )
                .with_note("region", a.region),
            );
        }
    }

    for r in &s.regions {
        let writes: Vec<&StridedAccess> = s
            .accesses
            .iter()
            .filter(|a| a.region == r.name && a.kind == AccessKind::Write)
            .collect();
        let reads: Vec<&StridedAccess> = s
            .accesses
            .iter()
            .filter(|a| a.region == r.name && a.kind == AccessKind::Read)
            .collect();

        if writes.is_empty() {
            if r.live_output {
                ds.push(
                    Diagnostic::new(
                        Code::E081AffineCoverage,
                        s.kernel,
                        format!(
                            "live output `{}` has no write access: lane writes \
                             cover 0 of {} elements",
                            r.name, r.elems
                        ),
                    )
                    .with_note("region", r.name),
                );
            }
            continue;
        }

        // E080 (a): per-access item disjointness by stride congruence.
        let mut disjoint = true;
        for a in &writes {
            if let Some((d, elem)) = self_collision(a, s.items) {
                disjoint = false;
                ds.push(
                    Diagnostic::new(
                        Code::E080AffineLaneOverlap,
                        s.kernel,
                        format!(
                            "lane write-sets on `{}` overlap: items t and t+{d} both \
                             touch element {elem} (offset {}, {} elems/item at elem \
                             stride {}, item stride {})",
                            r.name, a.offset, a.count, a.elem_stride, a.stride_per_item
                        ),
                    )
                    .with_note("region", r.name),
                );
            }
        }

        // E080 (b): distinct write accesses must have disjoint footprints.
        for (i, a) in writes.iter().enumerate() {
            for b in writes.iter().skip(i + 1) {
                let fa = access_footprint(a, s.items);
                let fb = access_footprint(b, s.items);
                if fa.reached && fb.reached && fa.min < fb.max_end && fb.min < fa.max_end {
                    disjoint = false;
                    ds.push(
                        Diagnostic::new(
                            Code::E080AffineLaneOverlap,
                            s.kernel,
                            format!(
                                "two write accesses on `{}` have overlapping footprints \
                                 [{}, {}) and [{}, {})",
                                r.name, fa.min, fa.max_end, fb.min, fb.max_end
                            ),
                        )
                        .with_note("region", r.name),
                    );
                }
            }
        }

        // E080 (c): reads of a written region must be lane-local, or two
        // lanes race (one reading what another writes).
        for w in &writes {
            for rd in &reads {
                let sp = w.stride_per_item;
                if !(item_local(w, sp) && item_local(rd, sp)) {
                    ds.push(
                        Diagnostic::new(
                            Code::E080AffineLaneOverlap,
                            s.kernel,
                            format!(
                                "cross-lane read/write race on `{}`: the per-item read \
                                 set cannot be proven local to the writing item's \
                                 stride of {sp}",
                                r.name
                            ),
                        )
                        .with_note("region", r.name),
                    );
                }
            }
        }

        // E081 / W080: coverage, by counting (sound once disjoint).
        let fp = union_write_footprint(s, r.name);
        if fp.reached {
            if fp.max_end > r.elems {
                ds.push(
                    Diagnostic::new(
                        Code::E081AffineCoverage,
                        s.kernel,
                        format!(
                            "lane writes on `{}` spill past the region: union ends at \
                             element {} but the region holds {}",
                            r.name, fp.max_end, r.elems
                        ),
                    )
                    .with_note("region", r.name),
                );
            } else if disjoint {
                let covered = fp.covered.min(r.elems);
                let gap = r.elems - covered;
                if gap == 0 {
                    // Exact cover by pigeonhole: disjoint + in-bounds +
                    // count == elems.
                } else if gap == r.slack_elems && r.slack_elems > 0 {
                    ds.push(
                        Diagnostic::new(
                            Code::W080AffineCoverageSlack,
                            s.kernel,
                            format!(
                                "lane writes on `{}` cover {covered} of {} elements; \
                                 the gap of {gap} matches the declared intentional slack",
                                r.name, r.elems
                            ),
                        )
                        .with_note("region", r.name),
                    );
                } else {
                    ds.push(
                        Diagnostic::new(
                            Code::E081AffineCoverage,
                            s.kernel,
                            format!(
                                "lane writes on `{}` cover {covered} of {} elements \
                                 ({gap} uncovered, declared slack {})",
                                r.name, r.elems, r.slack_elems
                            ),
                        )
                        .with_note("region", r.name),
                    );
                }
            }
        }
    }

    // E082: scratch arenas must never alias live outputs. Thread-local
    // arenas are disjoint by construction; carved scratch is checked
    // against the carved region's write footprint.
    for sc in &s.scratch {
        if let ScratchSource::SubsliceOf {
            region,
            offset_elems,
        } = sc.source
        {
            let Some(r) = s.region(region) else {
                ds.push(
                    Diagnostic::new(
                        Code::E082AffineScratchAlias,
                        s.kernel,
                        format!(
                            "scratch `{}` is carved from undeclared region `{region}`; \
                             aliasing with live outputs cannot be ruled out",
                            sc.name
                        ),
                    )
                    .with_note("scratch", sc.name),
                );
                continue;
            };
            let lo = offset_elems;
            let hi = offset_elems + sc.elems;
            let fp = union_write_footprint(s, region);
            let writes_hit = fp.reached && lo < fp.max_end && fp.min < hi;
            if (r.live_output && writes_hit) || (r.live_output && !fp.reached && lo < r.elems) {
                ds.push(
                    Diagnostic::new(
                        Code::E082AffineScratchAlias,
                        s.kernel,
                        format!(
                            "scratch `{}` is carved from live output `{region}` at \
                             elements [{lo}, {hi}) and aliases lane writes",
                            sc.name
                        ),
                    )
                    .with_note("scratch", sc.name),
                );
            } else if writes_hit {
                // Not a live output, but carving scratch out of a region
                // the split writes still self-corrupts the kernel.
                ds.push(
                    Diagnostic::new(
                        Code::E082AffineScratchAlias,
                        s.kernel,
                        format!(
                            "scratch `{}` is carved from `{region}` at elements \
                             [{lo}, {hi}), inside the split's own write footprint \
                             [{}, {})",
                            sc.name, fp.min, fp.max_end
                        ),
                    )
                    .with_note("scratch", sc.name),
                );
            }
        }
    }

    ds
}

/// Every parallelized kernel's access summary at representative paper
/// shapes (the `edge image_classifier` conv stage, the dynamic-system
/// dense stages, the normed classifier's GroupNorm) — the one
/// kernel-split registry the E04x lints ([`crate::parallelcheck`]), this
/// prover and the cost pass read.
pub fn registered_summaries() -> Vec<KernelAccessSummary> {
    use enode_tensor::{conv, dense, matmul, norm};
    // conv2d at the edge image-classifier stage: 4->4 channels, 3x3
    // kernels, 16x16 maps, batch 10.
    let (n, c, m, k) = (10usize, 4usize, 4usize, 3usize);
    let (ch, cw) = (16usize, 16usize);
    // Dense at the three-body dynamic-system stage: batch 16, 12->32.
    let (dn, dd, dout) = (16usize, 12usize, 32usize);
    // GroupNorm at the normed image-classifier stage: 8 ch, 4 groups.
    let (gn_n, gc, gg, ghw) = (10usize, 8usize, 4usize, 256usize);
    // gemm_bias row split at the schedule-audit shape.
    let (gm_rows, gm_q, gm_p) = (9usize, 6usize, 15usize);
    vec![
        conv::forward_batch_access(n, c, m, k, ch, cw),
        conv::fused_forward_access(n, c, m, k, ch, cw),
        conv::forward_rows_access(c, m, k, ch, cw),
        conv::backward_input_batch_access(n, c, m, k, ch, cw),
        conv::backward_input_channels_access(c, m, k, ch, cw),
        conv::backward_params_batch_access(n, c, m, k, ch, cw),
        conv::backward_params_rows_access(c, m, k, ch, cw),
        dense::forward_access(dn, dd, dout),
        dense::backward_input_access(dn, dd, dout),
        dense::backward_params_access(dn, dd, dout),
        norm::forward_access(gn_n, gc, gg, ghw),
        norm::backward_access(gn_n, gc, gg, ghw),
        matmul::row_split_access(gm_rows, gm_q, gm_p),
        enode_node::eval::batched_access(5),
        KernelAccessSummary::coarse_fanout("bench.run_benches", 3, 1 << 24, 512),
    ]
}

/// Proves all three obligations for every registered summary.
pub fn lint_registered_summaries() -> Diagnostics {
    let mut ds = Diagnostics::new();
    for s in registered_summaries() {
        ds.extend(lint_summary(&s));
    }
    ds
}

/// What a concrete envelope point actually does to one region —
/// materialized per-element, mirroring the runtime decomposition. The
/// prover never runs this; the tests use it to cross-check the symbolic
/// verdicts against ground truth.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BruteForceOutcome {
    /// Some element written twice (by any two items).
    pub overlap: bool,
    /// Some write landed at or past the region's element count.
    pub spill: bool,
    /// In-bounds elements left unwritten.
    pub uncovered: usize,
}

/// Materializes every lane's write set for `(pool, grain)` and checks
/// it element-by-element, exactly as the runtime shadow-memory
/// sanitizer would observe it.
pub fn brute_force_region(
    s: &KernelAccessSummary,
    region: &str,
    pool: usize,
    grain: usize,
) -> BruteForceOutcome {
    let r = s.region(region).expect("undeclared region");
    let ways = parallel::plan_chunks(pool, s.items, grain);
    let mut written = vec![0u32; r.elems];
    let mut out = BruteForceOutcome::default();
    for lane in 0..ways {
        let items = parallel::chunk(s.items, ways, lane);
        for a in s
            .accesses
            .iter()
            .filter(|a| a.region == region && a.kind == AccessKind::Write)
        {
            for t in items.clone() {
                for j in 0..a.count {
                    let e = a.offset + t * a.stride_per_item + j * a.elem_stride;
                    if e >= r.elems {
                        out.spill = true;
                    } else {
                        written[e] += 1;
                        if written[e] > 1 {
                            out.overlap = true;
                        }
                    }
                }
            }
        }
    }
    out.uncovered = written.iter().filter(|&&w| w == 0).count();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use enode_tensor::access::{RegionDecl, ScratchDecl};

    /// A healthy contiguous batch split the negative tests mutate.
    fn good() -> KernelAccessSummary {
        KernelAccessSummary {
            kernel: "test.kernel",
            items: 8,
            grain: 1,
            flops_per_item: 64 * 1024,
            regions: vec![RegionDecl::output("data", 8 * 256)],
            accesses: vec![StridedAccess::contiguous("data", AccessKind::Write, 256)],
            scratch: vec![ScratchDecl::arena("cols", 1024)],
        }
    }

    #[test]
    fn registered_summaries_prove_clean() {
        let ds = lint_registered_summaries();
        assert!(
            ds.is_empty(),
            "registered kernel summaries must prove clean:\n{}",
            ds.render()
        );
    }

    #[test]
    fn prover_matches_brute_force_across_the_envelope() {
        // The symbolic verdict must agree with element-level ground
        // truth at every envelope point: pool widths including the
        // audit's prime 7, the declared grain, maximal splitting, and
        // the serial grain.
        let mut cases: Vec<KernelAccessSummary> = registered_summaries();
        // Plus mutated summaries exercising each failure mode.
        let mut overlap = good();
        overlap.accesses[0].count = 257; // off-by-one stride
        cases.push(overlap);
        let mut gap = good();
        gap.accesses[0].count = 255; // coverage gap
        cases.push(gap);
        let mut interleaved = good();
        interleaved.accesses[0] = StridedAccess {
            region: "data",
            kind: AccessKind::Write,
            offset: 0,
            stride_per_item: 1,
            elem_stride: 8,
            count: 256,
        }; // column-interleaved but still a partition
        cases.push(interleaved);

        for s in &cases {
            let ds = lint_summary(s);
            for r in &s.regions {
                let has_writes = s
                    .accesses
                    .iter()
                    .any(|a| a.region == r.name && a.kind == AccessKind::Write);
                if !has_writes {
                    continue;
                }
                for &pool in &[1usize, 2, 4, 7, 8] {
                    for &grain in &[s.grain, 1, usize::MAX] {
                        let bf = brute_force_region(s, r.name, pool, grain);
                        let flagged_overlap = ds.items().iter().any(|d| {
                            d.code == Code::E080AffineLaneOverlap
                                && d.message.contains(&format!("`{}`", r.name))
                        });
                        let flagged_cover = ds.items().iter().any(|d| {
                            (d.code == Code::E081AffineCoverage
                                || d.code == Code::W080AffineCoverageSlack)
                                && d.message.contains(&format!("`{}`", r.name))
                        });
                        // Soundness: every concrete defect is flagged.
                        if bf.overlap {
                            assert!(
                                flagged_overlap,
                                "{}/{}: missed overlap at pool={pool} grain={grain}",
                                s.kernel, r.name
                            );
                        }
                        if bf.spill || bf.uncovered > 0 {
                            assert!(
                                flagged_cover || flagged_overlap,
                                "{}/{}: missed coverage defect at pool={pool} grain={grain}",
                                s.kernel,
                                r.name
                            );
                        }
                        // Precision: a clean region is never flagged.
                        if !bf.overlap && !bf.spill && bf.uncovered == 0 {
                            assert!(
                                !flagged_overlap
                                    || ds.items().iter().any(|d| {
                                        d.code == Code::E080AffineLaneOverlap
                                            && d.message.contains("race")
                                    }),
                                "{}/{}: false overlap at pool={pool} grain={grain}:\n{}",
                                s.kernel,
                                r.name,
                                ds.render()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn interleaved_partition_is_proven_disjoint_by_congruence() {
        // items=8, sp=1, es=8, count=256 over 2048 elements: item t owns
        // column t of a 256x8 matrix. d0 = es/gcd = 8 > items-1 = 7, so
        // congruence proves disjointness; counting proves exact cover.
        let mut s = good();
        s.regions[0].elems = 8 * 256;
        s.accesses[0] = StridedAccess {
            region: "data",
            kind: AccessKind::Write,
            offset: 0,
            stride_per_item: 1,
            elem_stride: 8,
            count: 256,
        };
        let ds = lint_summary(&s);
        assert!(ds.is_empty(), "{}", ds.render());
    }

    #[test]
    fn footprint_runs_on_the_fixpoint_engine() {
        // Two write accesses fold across the chain graph into one union
        // footprint (the engine wiring, not hand-rolled iteration).
        let mut s = good();
        s.regions[0].elems = 8 * 256 + 8;
        s.accesses.push(StridedAccess {
            region: "data",
            kind: AccessKind::Write,
            offset: 8 * 256,
            stride_per_item: 1,
            elem_stride: 1,
            count: 1,
        });
        let fp = union_write_footprint(&s, "data");
        assert!(fp.reached);
        assert_eq!(fp.min, 0);
        assert_eq!(fp.max_end, 8 * 256 + 8);
        assert_eq!(fp.covered, 8 * 256 + 8);
        let ds = lint_summary(&s);
        assert!(ds.is_empty(), "{}", ds.render());
    }

    #[test]
    fn broadcast_write_is_e080() {
        let mut s = good();
        s.accesses[0].stride_per_item = 0;
        let ds = lint_summary(&s);
        assert!(ds.has_code(Code::E080AffineLaneOverlap), "{}", ds.render());
    }

    #[test]
    fn read_of_written_region_must_be_lane_local() {
        let mut s = good();
        s.accesses
            .push(StridedAccess::broadcast_read("data", 8 * 256));
        let ds = lint_summary(&s);
        assert!(ds.has_code(Code::E080AffineLaneOverlap), "{}", ds.render());
        assert!(
            ds.items().iter().any(|d| d.message.contains("race")),
            "{}",
            ds.render()
        );

        // A lane-local read of the same region is fine (RMW kernels).
        let mut s = good();
        s.accesses
            .push(StridedAccess::contiguous("data", AccessKind::Read, 256));
        let ds = lint_summary(&s);
        assert!(ds.is_empty(), "{}", ds.render());
    }

    #[test]
    fn declared_slack_downgrades_gap_to_w080() {
        let mut s = good();
        s.regions[0].elems = 8 * 256 + 32;
        s.regions[0].slack_elems = 32;
        let ds = lint_summary(&s);
        assert!(
            ds.has_code(Code::W080AffineCoverageSlack),
            "{}",
            ds.render()
        );
        assert_eq!(ds.error_count(), 0, "{}", ds.render());

        // A mismatched declaration stays an error.
        let mut s = good();
        s.regions[0].elems = 8 * 256 + 32;
        s.regions[0].slack_elems = 16;
        let ds = lint_summary(&s);
        assert!(ds.has_code(Code::E081AffineCoverage), "{}", ds.render());
    }

    #[test]
    fn carved_scratch_aliasing_is_e082() {
        let mut s = good();
        s.scratch.push(ScratchDecl {
            name: "tile",
            elems: 64,
            source: ScratchSource::SubsliceOf {
                region: "data",
                offset_elems: 128,
            },
        });
        let ds = lint_summary(&s);
        assert!(ds.has_code(Code::E082AffineScratchAlias), "{}", ds.render());
    }

    #[test]
    fn undeclared_access_region_is_e081() {
        let mut s = good();
        s.accesses
            .push(StridedAccess::contiguous("ghost", AccessKind::Write, 4));
        let ds = lint_summary(&s);
        assert!(ds.has_code(Code::E081AffineCoverage), "{}", ds.render());
    }
}
