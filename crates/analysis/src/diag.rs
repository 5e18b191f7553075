//! The diagnostics engine: stable lint codes, severities, span-like
//! context, and a rendered text report.
//!
//! Every pass in this crate produces [`Diagnostic`]s tagged with a stable
//! [`Code`] (an `E0xx` error or `W0xx` warning — the number never changes
//! meaning once shipped), the subject it fired on (e.g. a tableau or
//! config name), and an optional list of `key: value` context notes that
//! play the role of source spans for these non-textual artifacts.
//!
//! # Code space
//!
//! | Range | Pass family |
//! |---|---|
//! | `E001–E009` / `W001–W009` | Butcher tableau lints ([`crate::tableau`]) |
//! | `E010–E019` / `W010–W019` | DDG schedule lints ([`crate::ddg`]) |
//! | `E020–E029` / `W020–W029` | Network shape & FP16 range lints ([`crate::shape`]) |
//! | `E030–E039` / `W030–W039` | Hardware feasibility lints ([`crate::hwcheck`]) |
//! | `E040–E049` / `W040–W049` | Parallel kernel-split lints ([`crate::parallelcheck`]) |
//! | `E050–E059` / `W050–W059` | FP16 precision lints ([`crate::precision`]) |
//! | `E060–E069` / `W060–W069` | Cross-artifact consistency lints ([`crate::consistency`]) |
//! | `E070–E079` / `W070–W079` | Serving-policy ladder & load lints (emitted by [`crate::schedcheck`]) |
//! | `E080–E089` / `W080–W089` | Affine access & roofline cost lints ([`crate::affine`], [`crate::cost`]) |
//! | `E090–E099` / `W090–W099` | Schedulability & energy-budget lints ([`crate::schedcheck`]) |
//! | `E100–E109` / `W100–W109` | Concurrency skeleton lints ([`crate::synccheck`]) |
//! | `E110–E119` / `W110–W119` | Fleet registry & residency lints ([`crate::fleetcheck`]) |
//!
//! Adding a pass: pick the next free code in the family's range, add a
//! [`Code`] variant with its `summary()` text and `as_str()` mapping,
//! append it to [`Code::ALL`], give it an explanation in
//! [`crate::registry`], emit it from the pass, and add a negative test
//! that triggers it on a deliberately broken input.

use enode_hw::json::escape;
use std::fmt;

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but possibly intended; never fails a lint run.
    Warning,
    /// A definite inconsistency; `enode-lint` exits nonzero.
    Error,
}

/// Stable lint codes. The numeric part is permanent: codes are never
/// renumbered, only retired ([`crate::registry::RETIRED`] keeps the
/// retired numbers reserved).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Code {
    // --- tableau lints (E001-E009 / W001-W009) ---
    /// Row-sum consistency `Σ_j a_ij = c_i` violated.
    E001TableauRowSum,
    /// The `a` matrix is not strictly lower triangular (method not explicit).
    E002TableauNotExplicit,
    /// An order condition through order 4 fails for the claimed order.
    E003TableauOrderCondition,
    /// The embedded-pair weights do not satisfy their claimed order.
    E004TableauEmbeddedOrder,
    /// Error weights of an adaptive pair do not sum to ~0.
    E005TableauErrorWeights,
    /// Structural defect: stage-count mismatch between `c`, `a`, and `b`.
    E006TableauShape,
    /// FSAL flag inconsistent with the coefficients (last a-row vs `b`).
    W001TableauFsalFlag,
    /// Embedded order gap is not 1 (unusual for production pairs).
    W002TableauOrderGap,

    // --- DDG schedule lints (E010-E019 / W010-W019) ---
    /// The DDG has a dependency cycle.
    E010DdgCycle,
    /// An edge does not go strictly deeper (schedule illegal).
    E011DdgIllegalEdge,
    /// Peak liveness exceeds the state-buffer rows the hardware assumes.
    E012DdgLivenessExceedsBuffer,
    /// A partial state lives longer than the one-row-lag retirement bound.
    W010DdgPartialLifetime,

    // --- network shape & FP16 range lints (E020-E029 / W020-W029) ---
    /// Shape inference failed: an op rejects its input shape.
    E020ShapeMismatch,
    /// The ODE function f does not preserve the state shape.
    E021ShapeNotPreserved,
    /// Worst-case magnitude exceeds `f16::MAX` (FP16 overflow).
    E022Fp16Overflow,
    /// Worst-case magnitude within 8x of `f16::MAX` (near overflow).
    W020Fp16NearOverflow,

    // --- hardware feasibility lints (E030-E039 / W030-W039) ---
    /// A structural `HwConfig` field is zero/invalid.
    E030HwConfigInvalid,
    /// Training buffer smaller than peak depth-first live bytes.
    E031HwTrainingBufferTooSmall,
    /// Weight buffer cannot hold the resident weights.
    E032HwWeightsNotResident,
    /// DRAM bandwidth below the streaming demand of the workload.
    E033HwDramBandwidth,
    /// Ring link bandwidth below the inter-core streaming demand.
    W030HwLinkBandwidth,
    /// The layer mapping leaves cores idle in the last round.
    W031HwIdleCores,
    /// The layer mapping needs multiple rounds (weights swapped per step).
    W032HwMultiRound,
    /// Integral-state buffer demand close to the training buffer size.
    W033HwBufferHeadroom,
    /// A parallel pool is live but the work split is degenerate (e.g.
    /// batch 1 with per-batch-only splitting), so the run is silently
    /// serial.
    W034HwDegenerateParallelSplit,

    // --- parallel kernel-split lints (E040-E049 / W040-W049) ---
    /// A written region's length is not a whole number of strides per
    /// item, so the disjoint decomposition would be rejected at runtime.
    E040ParStrideIndivisible,
    /// The split degenerates to a single chunk on a live pool despite
    /// substantial work (generalizes W034 beyond batch-1 runs).
    W040ParDegenerateSplit,
    /// A per-item partials region dwarfs the reduced output (memory that
    /// grows with the item count).
    W041ParPartialBlowup,
    /// Every written region gives each lane less than one cache line, so
    /// lanes ping-pong ownership of shared lines.
    W042ParFalseSharing,
    /// The split planner's work-size floor (`grain_for_sized`) kept a
    /// kernel serial on a live pool because its total work cannot amortize
    /// one dispatch — deliberate, but recorded so small-shape serial runs
    /// are visible rather than silent.
    W044ParSerialFloorEngaged,

    // --- FP16 precision lints (E050-E059 / W050-W059) ---
    /// A network op's worst-case output magnitude exceeds `f16::MAX`
    /// somewhere in the unrolled solver schedule.
    E050PrecOpOverflow,
    /// An RK combine (stage input, solution, or error estimate) can
    /// exceed `f16::MAX`.
    E051PrecCombineOverflow,
    /// A trainable parameter tensor contains NaN or infinity.
    E052PrecNonFiniteParam,
    /// A GroupNorm group has ≤ 1 element, so its variance is identically
    /// zero and normalization is degenerate.
    E053PrecDegenerateGroupNorm,
    /// An FP16 ACA checkpoint stores a state whose worst-case magnitude
    /// exceeds `f16::MAX`.
    E054PrecCheckpointOverflow,
    /// The solver tolerance is below the FP16 subnormal threshold, so the
    /// error estimate flushes to zero before the controller sees it.
    E055PrecToleranceSubnormal,
    /// Adjoint recomputation from a checkpoint amplifies the replayed
    /// state past `f16::MAX`.
    E056PrecAdjointReplayOverflow,
    /// The solver tolerance is within 16x of the FP16 subnormal
    /// threshold.
    W050PrecToleranceNearSubnormal,
    /// FP16 rounding noise in the embedded error estimate is a
    /// significant fraction of the tolerance (catastrophic cancellation).
    W051PrecCancellation,
    /// Accumulated per-step FP16 rounding error exceeds the solver's
    /// error budget.
    W052PrecErrorBudget,
    /// FP16 checkpoint quantization error, amplified over the recompute
    /// interval, is a significant fraction of the tolerance.
    W053PrecAdjointQuantization,

    // --- cross-artifact consistency lints (E060-E069 / W060-W069) ---
    /// The layer-to-core mapping assumes resident weights but the actual
    /// layer footprints exceed the weight buffer (total or per core).
    E060XArtMapResidency,
    /// The ACA checkpoint plan's working set exceeds the on-chip training
    /// buffer.
    E061XArtAcaBuffer,
    /// The stepsize-controller bounds are inconsistent with the solver
    /// schedule or the tableau's embedded order.
    E062XArtControllerBounds,

    // --- serving-policy ladder & load lints (E070-E079 / W070-W079) ---
    /// The degradation ladder is not ordered cheapest-last: a later tier
    /// is not strictly coarser / no more expensive than its predecessor,
    /// or tier 0 is not full quality.
    E072ServeTierOrdering,
    /// The declared design load exceeds the policy's service capacity
    /// (`max_batch` per Strict tier-0 batch of the cost table), so
    /// shedding is the steady state, not an overload response.
    W070ServeDesignOverload,
    /// A degradation tier is unreachable (its slack threshold is not
    /// strictly below its predecessor's) or the ladder leaves a slack
    /// band uncovered (last tier's threshold is nonzero).
    W071ServeUnreachableTier,

    // --- affine access & roofline cost lints (E080-E089 / W080-W089) ---
    /// The affine prover cannot show two lanes' write sets disjoint:
    /// per-item writes collide across items, two write accesses to the
    /// same region have overlapping footprints, or a read of a written
    /// region cannot be proven lane-local (a cross-lane race).
    E080AffineLaneOverlap,
    /// The union of lane write sets does not cover the output region
    /// exactly: a gap with no declared slack, a write spilling past the
    /// region end, or an access naming an undeclared region.
    E081AffineCoverage,
    /// A scratch arena is carved out of a live output region and its
    /// range intersects lane writes (scratch must never alias outputs).
    E082AffineScratchAlias,
    /// Lane writes undercover the region by exactly the declared
    /// intentional slack — legal, but worth a visible record.
    W080AffineCoverageSlack,
    /// A measured kernel speedup in `BENCH_kernels.json` deviates from
    /// the static roofline prediction beyond the model tolerance.
    W084CostModelDeviation,
    /// The roofline model predicts no parallel benefit for a split on
    /// the bench host (lanes exceed host cpus or the kernel is
    /// memory-bound), and the tracked bench already measures < 1x.
    W085CostFutileSplit,

    // --- schedulability & energy-budget lints (E090-E099 / W090-W099) ---
    /// Worst-case response time exceeds the tightest admitted deadline
    /// at *every* tier of the degradation ladder: the deadline is
    /// infeasible even at the cheapest configuration.
    E090SchedDeadlineInfeasible,
    /// A tier admits requests it cannot finish: the simulated worst-case
    /// service time at that tier exceeds the tier's own `min_slack_us`
    /// admission threshold, so degradation cannot recover the slack it
    /// was routed on.
    E091SchedLadderNoRecovery,
    /// The simulated per-request energy at full quality exceeds the
    /// policy's declared per-request energy budget.
    E092SchedEnergyBudget,
    /// The cost table's version or the policy's ladder fingerprint does
    /// not match what this analysis expects: the table was generated by
    /// a different generator or from a different ladder.
    E093SchedTableVersion,
    /// The cost table has no rows for a shipped policy/tier, so no
    /// schedulability verdict can be derived for it.
    E094SchedTableMissing,
    /// A tier's table rows are not monotone in batch size (latency or
    /// energy decreases as the batch grows) — a corrupted or hand-edited
    /// table.
    E095SchedTableNonMonotone,
    /// Sustained power (`design_rate_rps × energy/request`) exceeds the
    /// policy's declared device power budget.
    E096SchedPowerBudget,
    /// The deadline is missed at tier 0 and met only at a degraded tier:
    /// feasible, but every worst-case request is served degraded.
    W090SchedDegradedOnly,
    /// Per-request energy does not decrease monotonically down the
    /// degradation ladder: a cheaper tier burns more energy per request
    /// than its predecessor.
    W091SchedLadderEnergyNonMonotone,
    /// A design point the analysis needs (the policy's `max_batch`) has
    /// no simulated row and was linearly extrapolated from the largest
    /// simulated batch.
    W092SchedTableExtrapolated,
    /// The worst-case response time at tier 0 leaves less than 10% of
    /// the tightest deadline as slack — feasible, but with thin margin.
    W093SchedThinMargin,

    // --- concurrency skeleton lints (E100-E109 / W100-W109) ---
    /// The union of declared acquisition orders admits a cycle: two paths
    /// can acquire the same locks in opposite nesting orders (or a path
    /// re-acquires a lock it already holds), so a deadlock interleaving
    /// exists.
    E100SyncLockOrderCycle,
    /// A condvar wait can miss its wakeup: a wait site lacks a predicate
    /// re-check loop, a predicate-falsifying write has no notify of that
    /// condvar reachable after it, or the condvar is waited but no path
    /// ever notifies it — and no timeout bounds the sleep.
    E101SyncLostWakeup,
    /// A shutdown path leaves the runtime non-quiescent: a declared
    /// worker thread is never joined, a declared queue is never swept,
    /// or a thread is joined while holding a lock the joined thread's
    /// own paths need (a self-deadlocking join).
    E102SyncShutdownLeak,
    /// An atomic declared as a published value (read concurrently while
    /// written) writes with an ordering below `Release`, so readers can
    /// observe the protocol out of order.
    E103SyncAtomicOrdering,
    /// The runtime trace drifted from the declared skeleton: an observed
    /// lock, condvar, or acquisition-order edge is not admitted by any
    /// declaration — the model no longer describes the code.
    E104SyncTraceDrift,
    /// A skeleton is malformed: a path references an undeclared
    /// lock/condvar/thread/queue, releases a lock it does not hold,
    /// waits without holding the condvar's guard, or ends a path with
    /// locks still held.
    E105SyncSkeletonMalformed,
    /// A wait holds a foreign lock that *every* reachable notifier of
    /// that condvar must acquire: the waiters starve their own wakers.
    E106SyncWaitHoldsNotifierLock,
    /// Relaxed-ordering counters whose exact values are only read at
    /// quiescence — sound, recorded as a deliberate decision.
    W100SyncRelaxedCounter,
    /// A condvar is declared but no path ever waits on it.
    W101SyncDeadCondvar,
    /// A wait's liveness is bounded by a timeout rather than a notifier:
    /// a missed notify costs latency (one timeout period), not progress.
    W102SyncTimeoutWakeup,
    /// A lock is declared but no path ever acquires it.
    W103SyncDeadLock,

    // --- fleet registry & residency lints (E110-E119 / W110-W119) ---
    /// The aggregate resident set an instance must hold (every pinned
    /// live version assigned to it) overflows some core's weight buffer:
    /// the fleet cannot even warm up.
    E110FleetResidencyOverflow,
    /// Losing a single instance leaves some tenant's offered load
    /// unservable: no surviving instance holds the model, or the
    /// rebalanced per-survivor load exceeds a policy's design rate.
    E111FleetRebalanceInfeasible,
    /// A tenant's SLA deadline is covered by no tier of its policy's
    /// degradation ladder: every admitted request is guaranteed to be
    /// shed or to miss its deadline.
    E112FleetSlaUncovered,
    /// A published version's recorded fingerprint does not match the
    /// FNV-1a digest recomputed from its name, version, and ladder — the
    /// registry entry is stale or was tampered with.
    E113FleetStaleFingerprint,
    /// The fleet config is structurally malformed: zero instances, an
    /// assignment that does not name a model per instance, an assigned
    /// model with no live published version, or a tenant bound to a
    /// model no instance serves.
    E114FleetConfigMalformed,
    /// An instance's resident set fits, but leaves less than 1/8 of some
    /// core's weight buffer free: the next publish will evict rollback
    /// versions immediately.
    W110FleetResidencyHeadroom,
    /// The tenant quotas admitted against a model exceed the aggregate
    /// queue capacity of the instances serving it: admission control can
    /// overcommit the fleet's buffering.
    W111FleetQuotaOversubscribed,
}

impl Code {
    /// The stable textual form, e.g. `"E001"`.
    pub fn as_str(&self) -> &'static str {
        match self {
            Code::E001TableauRowSum => "E001",
            Code::E002TableauNotExplicit => "E002",
            Code::E003TableauOrderCondition => "E003",
            Code::E004TableauEmbeddedOrder => "E004",
            Code::E005TableauErrorWeights => "E005",
            Code::E006TableauShape => "E006",
            Code::W001TableauFsalFlag => "W001",
            Code::W002TableauOrderGap => "W002",
            Code::E010DdgCycle => "E010",
            Code::E011DdgIllegalEdge => "E011",
            Code::E012DdgLivenessExceedsBuffer => "E012",
            Code::W010DdgPartialLifetime => "W010",
            Code::E020ShapeMismatch => "E020",
            Code::E021ShapeNotPreserved => "E021",
            Code::E022Fp16Overflow => "E022",
            Code::W020Fp16NearOverflow => "W020",
            Code::E030HwConfigInvalid => "E030",
            Code::E031HwTrainingBufferTooSmall => "E031",
            Code::E032HwWeightsNotResident => "E032",
            Code::E033HwDramBandwidth => "E033",
            Code::W030HwLinkBandwidth => "W030",
            Code::W031HwIdleCores => "W031",
            Code::W032HwMultiRound => "W032",
            Code::W033HwBufferHeadroom => "W033",
            Code::W034HwDegenerateParallelSplit => "W034",
            Code::E040ParStrideIndivisible => "E040",
            Code::W040ParDegenerateSplit => "W040",
            Code::W041ParPartialBlowup => "W041",
            Code::W042ParFalseSharing => "W042",
            Code::W044ParSerialFloorEngaged => "W044",
            Code::E050PrecOpOverflow => "E050",
            Code::E051PrecCombineOverflow => "E051",
            Code::E052PrecNonFiniteParam => "E052",
            Code::E053PrecDegenerateGroupNorm => "E053",
            Code::E054PrecCheckpointOverflow => "E054",
            Code::E055PrecToleranceSubnormal => "E055",
            Code::E056PrecAdjointReplayOverflow => "E056",
            Code::W050PrecToleranceNearSubnormal => "W050",
            Code::W051PrecCancellation => "W051",
            Code::W052PrecErrorBudget => "W052",
            Code::W053PrecAdjointQuantization => "W053",
            Code::E060XArtMapResidency => "E060",
            Code::E061XArtAcaBuffer => "E061",
            Code::E062XArtControllerBounds => "E062",
            Code::E072ServeTierOrdering => "E072",
            Code::W070ServeDesignOverload => "W070",
            Code::W071ServeUnreachableTier => "W071",
            Code::E080AffineLaneOverlap => "E080",
            Code::E081AffineCoverage => "E081",
            Code::E082AffineScratchAlias => "E082",
            Code::W080AffineCoverageSlack => "W080",
            Code::W084CostModelDeviation => "W084",
            Code::W085CostFutileSplit => "W085",
            Code::E090SchedDeadlineInfeasible => "E090",
            Code::E091SchedLadderNoRecovery => "E091",
            Code::E092SchedEnergyBudget => "E092",
            Code::E093SchedTableVersion => "E093",
            Code::E094SchedTableMissing => "E094",
            Code::E095SchedTableNonMonotone => "E095",
            Code::E096SchedPowerBudget => "E096",
            Code::W090SchedDegradedOnly => "W090",
            Code::W091SchedLadderEnergyNonMonotone => "W091",
            Code::W092SchedTableExtrapolated => "W092",
            Code::W093SchedThinMargin => "W093",
            Code::E100SyncLockOrderCycle => "E100",
            Code::E101SyncLostWakeup => "E101",
            Code::E102SyncShutdownLeak => "E102",
            Code::E103SyncAtomicOrdering => "E103",
            Code::E104SyncTraceDrift => "E104",
            Code::E105SyncSkeletonMalformed => "E105",
            Code::E106SyncWaitHoldsNotifierLock => "E106",
            Code::W100SyncRelaxedCounter => "W100",
            Code::W101SyncDeadCondvar => "W101",
            Code::W102SyncTimeoutWakeup => "W102",
            Code::W103SyncDeadLock => "W103",
            Code::E110FleetResidencyOverflow => "E110",
            Code::E111FleetRebalanceInfeasible => "E111",
            Code::E112FleetSlaUncovered => "E112",
            Code::E113FleetStaleFingerprint => "E113",
            Code::E114FleetConfigMalformed => "E114",
            Code::W110FleetResidencyHeadroom => "W110",
            Code::W111FleetQuotaOversubscribed => "W111",
        }
    }

    /// Every code the crate can emit, in code order. New codes must be
    /// appended here (a registry test enforces it).
    pub const ALL: [Code; 82] = [
        Code::E001TableauRowSum,
        Code::E002TableauNotExplicit,
        Code::E003TableauOrderCondition,
        Code::E004TableauEmbeddedOrder,
        Code::E005TableauErrorWeights,
        Code::E006TableauShape,
        Code::W001TableauFsalFlag,
        Code::W002TableauOrderGap,
        Code::E010DdgCycle,
        Code::E011DdgIllegalEdge,
        Code::E012DdgLivenessExceedsBuffer,
        Code::W010DdgPartialLifetime,
        Code::E020ShapeMismatch,
        Code::E021ShapeNotPreserved,
        Code::E022Fp16Overflow,
        Code::W020Fp16NearOverflow,
        Code::E030HwConfigInvalid,
        Code::E031HwTrainingBufferTooSmall,
        Code::E032HwWeightsNotResident,
        Code::E033HwDramBandwidth,
        Code::W030HwLinkBandwidth,
        Code::W031HwIdleCores,
        Code::W032HwMultiRound,
        Code::W033HwBufferHeadroom,
        Code::W034HwDegenerateParallelSplit,
        Code::E040ParStrideIndivisible,
        Code::W040ParDegenerateSplit,
        Code::W041ParPartialBlowup,
        Code::W042ParFalseSharing,
        Code::W044ParSerialFloorEngaged,
        Code::E050PrecOpOverflow,
        Code::E051PrecCombineOverflow,
        Code::E052PrecNonFiniteParam,
        Code::E053PrecDegenerateGroupNorm,
        Code::E054PrecCheckpointOverflow,
        Code::E055PrecToleranceSubnormal,
        Code::E056PrecAdjointReplayOverflow,
        Code::W050PrecToleranceNearSubnormal,
        Code::W051PrecCancellation,
        Code::W052PrecErrorBudget,
        Code::W053PrecAdjointQuantization,
        Code::E060XArtMapResidency,
        Code::E061XArtAcaBuffer,
        Code::E062XArtControllerBounds,
        Code::E072ServeTierOrdering,
        Code::W070ServeDesignOverload,
        Code::W071ServeUnreachableTier,
        Code::E080AffineLaneOverlap,
        Code::E081AffineCoverage,
        Code::E082AffineScratchAlias,
        Code::W080AffineCoverageSlack,
        Code::W084CostModelDeviation,
        Code::W085CostFutileSplit,
        Code::E090SchedDeadlineInfeasible,
        Code::E091SchedLadderNoRecovery,
        Code::E092SchedEnergyBudget,
        Code::E093SchedTableVersion,
        Code::E094SchedTableMissing,
        Code::E095SchedTableNonMonotone,
        Code::E096SchedPowerBudget,
        Code::W090SchedDegradedOnly,
        Code::W091SchedLadderEnergyNonMonotone,
        Code::W092SchedTableExtrapolated,
        Code::W093SchedThinMargin,
        Code::E100SyncLockOrderCycle,
        Code::E101SyncLostWakeup,
        Code::E102SyncShutdownLeak,
        Code::E103SyncAtomicOrdering,
        Code::E104SyncTraceDrift,
        Code::E105SyncSkeletonMalformed,
        Code::E106SyncWaitHoldsNotifierLock,
        Code::W100SyncRelaxedCounter,
        Code::W101SyncDeadCondvar,
        Code::W102SyncTimeoutWakeup,
        Code::W103SyncDeadLock,
        Code::E110FleetResidencyOverflow,
        Code::E111FleetRebalanceInfeasible,
        Code::E112FleetSlaUncovered,
        Code::E113FleetStaleFingerprint,
        Code::E114FleetConfigMalformed,
        Code::W110FleetResidencyHeadroom,
        Code::W111FleetQuotaOversubscribed,
    ];

    /// The severity implied by the code's letter.
    pub fn severity(&self) -> Severity {
        if self.as_str().starts_with('E') {
            Severity::Error
        } else {
            Severity::Warning
        }
    }

    /// One-line description of what the lint checks.
    pub fn summary(&self) -> &'static str {
        match self {
            Code::E001TableauRowSum => "tableau row sum Σa_ij must equal c_i",
            Code::E002TableauNotExplicit => "tableau must be strictly lower triangular",
            Code::E003TableauOrderCondition => "order condition fails for claimed order",
            Code::E004TableauEmbeddedOrder => "embedded pair fails its claimed order",
            Code::E005TableauErrorWeights => "error weights must sum to zero",
            Code::E006TableauShape => "tableau stage counts inconsistent",
            Code::W001TableauFsalFlag => "FSAL flag inconsistent with coefficients",
            Code::W002TableauOrderGap => "embedded order gap is not 1",
            Code::E010DdgCycle => "DDG contains a dependency cycle",
            Code::E011DdgIllegalEdge => "DDG edge does not go strictly deeper",
            Code::E012DdgLivenessExceedsBuffer => "peak liveness exceeds buffer rows",
            Code::W010DdgPartialLifetime => "partial state outlives one-row-lag bound",
            Code::E020ShapeMismatch => "op rejects its input shape",
            Code::E021ShapeNotPreserved => "ODE function must preserve state shape",
            Code::E022Fp16Overflow => "worst-case magnitude exceeds f16::MAX",
            Code::W020Fp16NearOverflow => "worst-case magnitude near f16::MAX",
            Code::E030HwConfigInvalid => "hardware config field invalid",
            Code::E031HwTrainingBufferTooSmall => "training buffer below peak live bytes",
            Code::E032HwWeightsNotResident => "weights exceed the weight buffer",
            Code::E033HwDramBandwidth => "DRAM bandwidth below streaming demand",
            Code::W030HwLinkBandwidth => "ring link bandwidth below streaming demand",
            Code::W031HwIdleCores => "layer mapping idles cores in last round",
            Code::W032HwMultiRound => "layer mapping needs multiple rounds",
            Code::W033HwBufferHeadroom => "buffer headroom below 10%",
            Code::W034HwDegenerateParallelSplit => {
                "parallel pool live but work split is degenerate"
            }
            Code::E040ParStrideIndivisible => "written region not a whole number of strides",
            Code::W040ParDegenerateSplit => "kernel split degenerates to one chunk",
            Code::W041ParPartialBlowup => "per-item partials dwarf the reduced output",
            Code::W042ParFalseSharing => "per-lane span below one cache line",
            Code::W044ParSerialFloorEngaged => "work-size floor keeps the kernel serial",
            Code::E050PrecOpOverflow => "op output can overflow f16 in the solver schedule",
            Code::E051PrecCombineOverflow => "RK combine can overflow f16",
            Code::E052PrecNonFiniteParam => "parameter tensor contains NaN or infinity",
            Code::E053PrecDegenerateGroupNorm => "GroupNorm group has no variance to normalize",
            Code::E054PrecCheckpointOverflow => "fp16 checkpoint stores an overflowing state",
            Code::E055PrecToleranceSubnormal => "tolerance below the fp16 subnormal threshold",
            Code::E056PrecAdjointReplayOverflow => "adjoint replay amplifies state past f16::MAX",
            Code::W050PrecToleranceNearSubnormal => "tolerance within 16x of fp16 subnormals",
            Code::W051PrecCancellation => "fp16 rounding noise rivals the error estimate",
            Code::W052PrecErrorBudget => "fp16 rounding exceeds the solver error budget",
            Code::W053PrecAdjointQuantization => "checkpoint quantization rivals the tolerance",
            Code::E060XArtMapResidency => "mapping assumes residency the weights exceed",
            Code::E061XArtAcaBuffer => "ACA working set exceeds the training buffer",
            Code::E062XArtControllerBounds => "controller bounds inconsistent with schedule",
            Code::E072ServeTierOrdering => "degradation tiers are not ordered cheapest-last",
            Code::W070ServeDesignOverload => "design load exceeds the service capacity",
            Code::W071ServeUnreachableTier => "tier unreachable or slack band uncovered",
            Code::E080AffineLaneOverlap => "lane write-sets cannot be proven disjoint",
            Code::E081AffineCoverage => "lane writes do not cover the region exactly",
            Code::E082AffineScratchAlias => "scratch arena aliases a live output",
            Code::W080AffineCoverageSlack => "coverage gap matches the declared slack",
            Code::W084CostModelDeviation => "measured speedup deviates from the roofline",
            Code::W085CostFutileSplit => "roofline predicts no parallel benefit on this host",
            Code::E090SchedDeadlineInfeasible => "deadline infeasible even at the cheapest tier",
            Code::E091SchedLadderNoRecovery => "tier admits slack it cannot serve within",
            Code::E092SchedEnergyBudget => "per-request energy exceeds the declared budget",
            Code::E093SchedTableVersion => "cost table version/fingerprint mismatch",
            Code::E094SchedTableMissing => "cost table lacks rows for a shipped policy",
            Code::E095SchedTableNonMonotone => "cost table rows not monotone in batch",
            Code::E096SchedPowerBudget => "sustained power exceeds the declared budget",
            Code::W090SchedDegradedOnly => "deadline missed at tier 0, met only degraded",
            Code::W091SchedLadderEnergyNonMonotone => "energy does not fall down the ladder",
            Code::W092SchedTableExtrapolated => "design point extrapolated, not simulated",
            Code::W093SchedThinMargin => "tier-0 deadline margin below 10%",
            Code::E100SyncLockOrderCycle => "lock acquisition order admits a cycle",
            Code::E101SyncLostWakeup => "a condvar wait can miss its wakeup",
            Code::E102SyncShutdownLeak => "shutdown leaves a worker or queue behind",
            Code::E103SyncAtomicOrdering => "published atomic writes below Release",
            Code::E104SyncTraceDrift => "runtime trace drifted from the declared skeleton",
            Code::E105SyncSkeletonMalformed => "sync skeleton is structurally malformed",
            Code::E106SyncWaitHoldsNotifierLock => "wait holds a lock its notifiers need",
            Code::W100SyncRelaxedCounter => "relaxed counters exact only at quiescence",
            Code::W101SyncDeadCondvar => "condvar declared but never waited on",
            Code::W102SyncTimeoutWakeup => "wakeup bounded by a timeout, not a notifier",
            Code::W103SyncDeadLock => "lock declared but never acquired",
            Code::E110FleetResidencyOverflow => "resident set overflows a core's weight buffer",
            Code::E111FleetRebalanceInfeasible => "a node loss leaves load unservable",
            Code::E112FleetSlaUncovered => "tenant SLA covered by no ladder tier",
            Code::E113FleetStaleFingerprint => "published fingerprint does not match the ladder",
            Code::E114FleetConfigMalformed => "fleet config structurally malformed",
            Code::W110FleetResidencyHeadroom => "resident set leaves under 1/8 buffer headroom",
            Code::W111FleetQuotaOversubscribed => "quotas exceed the aggregate queue capacity",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A single finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// The stable lint code.
    pub code: Code,
    /// What the pass examined, e.g. `"tableau rk23(bogacki-shampine)"`.
    pub subject: String,
    /// Human-readable explanation with the measured values.
    pub message: String,
    /// Span-like `key: value` context notes (stage index, layer index,
    /// byte counts, ...).
    pub notes: Vec<(String, String)>,
}

impl Diagnostic {
    /// A diagnostic with no context notes.
    pub fn new(code: Code, subject: impl Into<String>, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            subject: subject.into(),
            message: message.into(),
            notes: Vec::new(),
        }
    }

    /// Attaches a `key: value` context note.
    pub fn with_note(mut self, key: impl Into<String>, value: impl fmt::Display) -> Self {
        self.notes.push((key.into(), value.to_string()));
        self
    }

    /// The severity implied by the code.
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// The finding as one JSON object (no trailing newline): stable keys
    /// `code`, `severity`, `artifact`, `message`, `notes`, so CI can diff
    /// lint results line-by-line across PRs.
    pub fn to_json_line(&self) -> String {
        let severity = match self.severity() {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        let mut out = format!(
            "{{\"code\":\"{}\",\"severity\":\"{severity}\",\"artifact\":\"{}\",\"message\":\"{}\"",
            self.code,
            escape(&self.subject),
            escape(&self.message)
        );
        if !self.notes.is_empty() {
            out.push_str(",\"notes\":{");
            for (i, (k, v)) in self.notes.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":\"{}\"", escape(k), escape(v)));
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.severity() {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(
            f,
            "{kind}[{}]: {} — {}",
            self.code, self.subject, self.message
        )?;
        for (k, v) in &self.notes {
            write!(f, "\n    = {k}: {v}")?;
        }
        Ok(())
    }
}

/// An accumulating collection of findings from one or more passes.
#[derive(Clone, Debug, Default)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// An empty collection.
    pub fn new() -> Self {
        Diagnostics::default()
    }

    /// Records a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.items.push(d);
    }

    /// Merges another collection into this one.
    pub fn extend(&mut self, other: Diagnostics) {
        self.items.extend(other.items);
    }

    /// All findings, in emission order.
    pub fn items(&self) -> &[Diagnostic] {
        &self.items
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when no findings were recorded.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.items
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.items.len() - self.error_count()
    }

    /// `true` when at least one error-severity finding exists.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// `true` when a finding with this code exists.
    pub fn has_code(&self, code: Code) -> bool {
        self.items.iter().any(|d| d.code == code)
    }

    /// Sorts findings by `(code, artifact, message)` and drops exact
    /// duplicates of that triple, so a full lint run is byte-identical
    /// regardless of pass registration order and passes that observe the
    /// same defect at the same location report it once.
    pub fn sort_and_dedup(&mut self) {
        self.items.sort_by(|a, b| {
            (a.code.as_str(), &a.subject, &a.message).cmp(&(
                b.code.as_str(),
                &b.subject,
                &b.message,
            ))
        });
        self.items
            .dedup_by(|a, b| a.code == b.code && a.subject == b.subject && a.message == b.message);
    }

    /// The rendered multi-line text report (one block per finding plus a
    /// summary line). Empty collections render as a single OK line.
    pub fn render(&self) -> String {
        if self.items.is_empty() {
            return "ok: no diagnostics\n".to_string();
        }
        let mut out = String::new();
        for d in &self.items {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s)\n",
            self.error_count(),
            self.warning_count()
        ));
        out
    }

    /// The machine-readable report: one JSON object per finding, one per
    /// line, in emission order. Empty collections render as an empty
    /// string (no lines to diff).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        for d in &self.items {
            out.push_str(&d.to_json_line());
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_follows_code_letter() {
        assert_eq!(Code::E001TableauRowSum.severity(), Severity::Error);
        assert_eq!(Code::W001TableauFsalFlag.severity(), Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn counting_and_has_code() {
        let mut ds = Diagnostics::new();
        assert!(ds.is_empty() && !ds.has_errors());
        ds.push(Diagnostic::new(Code::E001TableauRowSum, "t", "bad row"));
        ds.push(Diagnostic::new(Code::W002TableauOrderGap, "t", "gap 2"));
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.error_count(), 1);
        assert_eq!(ds.warning_count(), 1);
        assert!(ds.has_errors());
        assert!(ds.has_code(Code::E001TableauRowSum));
        assert!(!ds.has_code(Code::E010DdgCycle));
    }

    #[test]
    fn render_includes_code_subject_and_notes() {
        let mut ds = Diagnostics::new();
        ds.push(
            Diagnostic::new(Code::E012DdgLivenessExceedsBuffer, "rk23 ddg", "15 > 13")
                .with_note("peak_rows", 15)
                .with_note("buffer_rows", 13),
        );
        let r = ds.render();
        assert!(r.contains("error[E012]"));
        assert!(r.contains("rk23 ddg"));
        assert!(r.contains("peak_rows: 15"));
        assert!(r.contains("1 error(s), 0 warning(s)"));
    }

    #[test]
    fn empty_render_is_ok_line() {
        assert_eq!(Diagnostics::new().render(), "ok: no diagnostics\n");
    }

    #[test]
    fn json_lines_have_stable_keys_and_escaping() {
        let mut ds = Diagnostics::new();
        ds.push(
            Diagnostic::new(
                Code::E040ParStrideIndivisible,
                "conv2d \"fwd\"",
                "len 7\nitems 2",
            )
            .with_note("items", 2),
        );
        ds.push(Diagnostic::new(
            Code::W040ParDegenerateSplit,
            "dense",
            "one chunk",
        ));
        let json = ds.render_json();
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"code\":\"E040\",\"severity\":\"error\",\
             \"artifact\":\"conv2d \\\"fwd\\\"\",\
             \"message\":\"len 7\\nitems 2\",\"notes\":{\"items\":\"2\"}}"
        );
        assert_eq!(
            lines[1],
            "{\"code\":\"W040\",\"severity\":\"warning\",\
             \"artifact\":\"dense\",\"message\":\"one chunk\"}"
        );
        assert!(Diagnostics::new().render_json().is_empty());
    }

    #[test]
    fn all_codes_have_distinct_strings() {
        let mut strs: Vec<_> = Code::ALL.iter().map(|c| c.as_str()).collect();
        strs.sort_unstable();
        strs.dedup();
        assert_eq!(strs.len(), Code::ALL.len());
        for c in Code::ALL {
            assert!(!c.summary().is_empty());
            assert!(matches!(c.as_str().as_bytes()[0], b'E' | b'W'));
        }
    }

    #[test]
    fn all_is_grouped_by_family() {
        // Within each family prefix (E0x / W0x of the same decade) the
        // numeric part must be increasing, so codes stay discoverable.
        let mut last: std::collections::HashMap<(u8, char), u32> = std::collections::HashMap::new();
        for c in Code::ALL {
            let s = c.as_str();
            let decade = s.as_bytes()[2] - b'0';
            let letter = s.chars().next().unwrap();
            let num: u32 = s[1..].parse().unwrap();
            if let Some(prev) = last.insert((decade, letter), num) {
                assert!(prev < num, "{s} out of order within its family");
            }
        }
    }

    #[test]
    fn sort_and_dedup_orders_and_collapses() {
        let mut ds = Diagnostics::new();
        ds.push(Diagnostic::new(Code::E022Fp16Overflow, "b", "m2"));
        ds.push(Diagnostic::new(Code::E020ShapeMismatch, "b", "m1"));
        ds.push(Diagnostic::new(Code::E020ShapeMismatch, "a", "m1"));
        // Exact duplicate (same code, subject, message) -> collapsed.
        ds.push(Diagnostic::new(Code::E020ShapeMismatch, "a", "m1").with_note("k", 1));
        // Same code+subject, different message -> kept.
        ds.push(Diagnostic::new(Code::E020ShapeMismatch, "a", "m0"));
        ds.sort_and_dedup();
        let got: Vec<(&str, &str, &str)> = ds
            .items()
            .iter()
            .map(|d| (d.code.as_str(), d.subject.as_str(), d.message.as_str()))
            .collect();
        assert_eq!(
            got,
            vec![
                ("E020", "a", "m0"),
                ("E020", "a", "m1"),
                ("E020", "b", "m1"),
                ("E022", "b", "m2"),
            ]
        );
    }
}
