//! The lint-code registry: one rustc-style long explanation per stable
//! [`Code`], feeding both `enode-lint --explain <CODE>` and the generated
//! `docs/LINTS.md` table.
//!
//! A test enforces that every code in [`Code::ALL`] has a non-empty
//! explanation, so a new lint cannot ship undocumented.

use crate::diag::{Code, Severity};

/// Parses the textual form of a code (e.g. `"E050"`, case-insensitive)
/// back to the [`Code`] variant, or `None` for unknown codes.
pub fn parse_code(s: &str) -> Option<Code> {
    let want = s.to_ascii_uppercase();
    Code::ALL.into_iter().find(|c| c.as_str() == want)
}

/// The long, rustc-style explanation of what the lint checks, why it
/// matters for the eNODE co-design, and what typically fixes it.
pub fn explanation(code: Code) -> &'static str {
    match code {
        Code::E001TableauRowSum => {
            "Each Butcher-tableau row must satisfy the node condition Σ_j a_ij = c_i: stage i \
             evaluates f at time t + c_i·h, and the stage input is built from the a-row. A \
             mismatch means the stage samples f at a time inconsistent with its input, silently \
             destroying the method's order. Fix the offending a-row or c entry."
        }
        Code::E002TableauNotExplicit => {
            "The a matrix must be strictly lower triangular for an explicit Runge–Kutta method: \
             stage i may only consume stages 0..i. A nonzero entry on or above the diagonal \
             makes the stage system implicit, which the eNODE integrator (and hardware schedule) \
             cannot execute."
        }
        Code::E003TableauOrderCondition => {
            "A polynomial order condition (checked through order 4) fails for the tableau's \
             claimed order. The method will converge at a lower rate than advertised, and the \
             stepsize controller — which scales steps assuming the claimed order — will pick \
             wrong steps. Correct the coefficients or lower the claimed order."
        }
        Code::E004TableauEmbeddedOrder => {
            "The embedded (error-estimating) weights b̂ fail their claimed order conditions. The \
             error estimate e = h·Σ(b_i − b̂_i)k_i then misjudges the local error and adaptive \
             stepping accepts steps it should reject (or vice versa)."
        }
        Code::E005TableauErrorWeights => {
            "The error weights d = b − b̂ of an adaptive pair must sum to ~0 (both weight rows \
             sum to 1). A nonzero sum means d contains a zeroth-order term: the error estimate \
             no longer vanishes for constant solutions."
        }
        Code::E006TableauShape => {
            "The tableau's stage counts disagree: c, the a-rows, and b must all describe the \
             same number of stages, with a-row i holding exactly i coefficients. A structural \
             mismatch cannot be scheduled at all."
        }
        Code::W001TableauFsalFlag => {
            "The FSAL (first-same-as-last) flag disagrees with the coefficients: FSAL requires \
             the last a-row to equal b, so the last stage of one step can be reused as the \
             first stage of the next. A wrong flag costs one f evaluation per step (or reuses a \
             stale stage)."
        }
        Code::W002TableauOrderGap => {
            "The gap between the advancing order and the embedded order is not 1. Production \
             pairs use a gap of exactly 1; larger gaps make the error estimate much cruder than \
             the solution, and a gap of 0 gives no estimate headroom at all."
        }
        Code::E010DdgCycle => {
            "The data-dependence graph of the solver schedule contains a cycle, so no execution \
             order exists. This indicates a malformed stage dependency (e.g. a stage consuming \
             its own output)."
        }
        Code::E011DdgIllegalEdge => {
            "A DDG edge does not go strictly deeper in the wave-pipeline order. The depth-first \
             schedule the hardware executes requires producers to finish strictly before \
             consumers in pipeline depth; an illegal edge breaks the wavefront invariant."
        }
        Code::E012DdgLivenessExceedsBuffer => {
            "Peak simultaneous liveness in the depth-first schedule exceeds the state-buffer \
             rows the hardware provisions. The schedule would overflow on-chip memory at \
             runtime; either deepen the buffer or re-stage the schedule."
        }
        Code::W010DdgPartialLifetime => {
            "A partial state outlives the one-row-lag retirement bound the depth-first analysis \
             assumes. The schedule still fits, but the liveness model under which the buffers \
             were sized no longer matches the schedule's actual behavior."
        }
        Code::E020ShapeMismatch => {
            "Symbolic NCHW shape inference failed: an op in the embedded network rejects the \
             shape its predecessor produces (wrong rank, channel count, feature count, or a \
             kernel larger than its input). The network cannot execute on any input of the \
             declared state shape."
        }
        Code::E021ShapeNotPreserved => {
            "The embedded network f maps the state shape to a different shape. dh/dt = f(t, h) \
             requires f to be an endomap of the state space — the integrator adds h·f(h) to h, \
             which is undefined across shapes. Adjust the final layer to restore the input \
             shape."
        }
        Code::E022Fp16Overflow => {
            "Interval propagation proves some intermediate value of the network can exceed \
             f16::MAX (65504) for inputs within the declared magnitude bound. On the FP16 \
             datapath this saturates to infinity. Rescale weights, add a saturating activation, \
             or normalize earlier."
        }
        Code::W020Fp16NearOverflow => {
            "The worst-case intermediate magnitude is within 2x of f16::MAX. No overflow is \
             proven, but the bound is worst-case over the declared input magnitude only — \
             training drift or a larger input range could push it over."
        }
        Code::E030HwConfigInvalid => {
            "A structural field of the hardware configuration is zero or inconsistent (layer \
             dims, core count, clock, buffer sizes). The analytical model cannot evaluate such \
             a configuration."
        }
        Code::E031HwTrainingBufferTooSmall => {
            "The on-chip training-state buffer is smaller than the peak live bytes of the \
             depth-first training schedule, so intermediate states would spill to DRAM — \
             exactly the traffic the eNODE buffer exists to eliminate."
        }
        Code::E032HwWeightsNotResident => {
            "The embedded network's weights exceed the weight buffer, so each ring loop \
             re-fetches the overflow from DRAM. Function reuse across stages and steps — the \
             core of eNODE's energy story — assumes resident weights."
        }
        Code::E033HwDramBandwidth => {
            "The configuration's DRAM bandwidth is below the streaming demand of the workload \
             (input/output activations at the target rate). The accelerator would stall on \
             memory regardless of compute throughput."
        }
        Code::W030HwLinkBandwidth => {
            "The ring link bandwidth is below the inter-core activation traffic of the layer \
             mapping. Cores will stall on the ring; the paper provisions 1 GB/s per link for \
             full 4-core utilization."
        }
        Code::W031HwIdleCores => {
            "The layer-to-core mapping leaves cores idle in the last time-multiplexing round \
             (layers % cores != 0). Utilization drops proportionally; consider splitting wide \
             layers across the idle cores."
        }
        Code::W032HwMultiRound => {
            "The mapping needs multiple time-multiplexing rounds per ring loop (more layers \
             than cores), so per-round weight swaps occur on every integrator step. Latency \
             and energy scale with the round count."
        }
        Code::W033HwBufferHeadroom => {
            "The integral-state buffer demand is within 10% of the training buffer capacity. \
             The configuration works for the nominal workload but has no headroom for deeper \
             integration or larger states."
        }
        Code::W044ParSerialFloorEngaged => {
            "The split planner's work-size floor decided the whole kernel invocation is too \
             small to amortize chunk dispatch, so it runs serially on one lane even though a \
             worker pool is live. This is the deliberate fix for kernels (GroupNorm at bench \
             shapes, small dense layers) that were measurably *slower* parallel than serial: \
             below SERIAL_FLOOR_FLOPS of total work, coordination overhead exceeds the compute \
             being distributed. The lint records the decision so a shape change that crosses \
             the floor is visible, rather than a silent slow path. No action is needed unless \
             the shape has grown — then re-check the floor constant against a fresh bench."
        }
        Code::W034HwDegenerateParallelSplit => {
            "A parallel worker pool is live but the work decomposition is degenerate (e.g. \
             batch size 1 with per-batch splitting), so execution is silently serial while \
             paying the pool's coordination overhead."
        }
        Code::W040ParDegenerateSplit => {
            "The kernel split degenerates to a single chunk on a live pool despite substantial \
             work, so the kernel runs serially while the pool idles. Usually the split axis is \
             too coarse for the problem shape."
        }
        Code::W041ParPartialBlowup => {
            "A partials region — written by the split, not live past the kernel, folded \
             serially after the join — is more than 8x the reduced output (one item's \
             stride) and over 64 KiB. The buffer grows with the item count; consider \
             accumulating per lane or shrinking the per-item partials."
        }
        Code::W042ParFalseSharing => {
            "Every region the split writes gives each lane less than one 64-byte cache line \
             at the modeled pool width, so lanes ping-pong ownership of shared lines and the \
             parallel run can be slower than serial. Coarsen the split."
        }
        Code::E050PrecOpOverflow => {
            "Range propagation through the unrolled solver schedule proves a network op's \
             output can exceed f16::MAX. Unlike E022 (one network in isolation), this bound \
             accounts for state growth across RK stages and accepted steps: a network that is \
             safe on the raw input can still overflow after the solution combine feeds it \
             back. Rescale weights or shorten the integration span."
        }
        Code::E051PrecCombineOverflow => {
            "An RK combine — a stage input y + hΣa_ij·k_j, the solution y + hΣb_i·k_i, or the \
             embedded error estimate — can exceed f16::MAX even though each operand fits. \
             Large stepsizes multiply stage magnitudes before the sum; shrink default_dt or \
             the stage magnitudes."
        }
        Code::E052PrecNonFiniteParam => {
            "A trainable parameter tensor contains NaN or infinity, usually the residue of a \
             diverged training run. Every range and error bound downstream of the op is \
             meaningless, and inference will produce non-finite outputs. Reinitialize or \
             reload the parameters."
        }
        Code::E053PrecDegenerateGroupNorm => {
            "A GroupNorm group contains ≤ 1 element for the declared state shape, so its \
             variance is identically zero: normalization divides by the epsilon floor and the \
             op degenerates to a constant gain with an undefined gradient direction. Reduce \
             the group count or enlarge the spatial extent."
        }
        Code::E054PrecCheckpointOverflow => {
            "An FP16 ACA checkpoint stores a state whose worst-case magnitude exceeds \
             f16::MAX. The forward pass may survive (wide accumulators), but the checkpoint \
             write saturates to infinity and the adjoint replay restarts from garbage."
        }
        Code::E055PrecToleranceSubnormal => {
            "The solver tolerance is below the FP16 subnormal threshold (2⁻¹⁴ ≈ 6.1e-5). With \
             binary16 state the embedded error estimate flushes to zero before the controller \
             compares it against the tolerance, so step acceptance becomes vacuous: every step \
             is accepted regardless of error. Loosen the tolerance or keep FP32 state."
        }
        Code::E056PrecAdjointReplayOverflow => {
            "Replaying a checkpoint interval amplifies the stored state's worst-case magnitude \
             past f16::MAX — the interval's growth factor (1 + h·Σ|b_i|)^steps applied to the \
             checkpoint pushes it over. Shorten the checkpoint stride."
        }
        Code::W050PrecToleranceNearSubnormal => {
            "The solver tolerance is within 16x of the FP16 subnormal threshold. Error \
             estimates near the tolerance lose most of their significand to gradual underflow, \
             making accept/reject decisions noisy."
        }
        Code::W051PrecCancellation => {
            "The embedded error estimate is a difference of nearly equal sums, so its operands' \
             FP16 rounding noise (half-ulp of the stage magnitudes) is a significant fraction \
             (> 10%) of the tolerance. The controller is then steering on rounding noise as \
             much as on truncation error."
        }
        Code::W052PrecErrorBudget => {
            "FP16 rounding injected across a single accepted step (one rounding per stored \
             value, amplified by each op's gain) exceeds 10x the solver tolerance. The \
             controller budgets ~tolerance of truncation error per step; rounding of this \
             size dominates the budget and the reported accuracy is fictitious."
        }
        Code::W053PrecAdjointQuantization => {
            "The FP16 quantization error of an ACA checkpoint, amplified over its multi-step \
             recompute interval, is a significant fraction (> 10%) of the tolerance. Replayed \
             states then differ measurably from the forward pass, biasing the adjoint \
             gradients. Shorten the stride or store checkpoints in FP32."
        }
        Code::E060XArtMapResidency => {
            "The layer-to-core mapping assumes weights stay resident, but the model's actual \
             per-layer footprints exceed the weight buffer — in total, or on one core under \
             the round-robin placement. E032 checks the HwConfig's nominal dims; this check \
             uses the real model, so the two artifacts can disagree only here."
        }
        Code::E061XArtAcaBuffer => {
            "The ACA checkpoint plan's working set — live checkpoints plus the per-interval \
             replay caches the backward pass demands — exceeds the on-chip training buffer. \
             The checkpoint stride in the solver options and the buffer in the HwConfig were \
             chosen independently; this lint is where they must agree. Increase the stride \
             (fewer checkpoints, more recompute) or provision a larger buffer."
        }
        Code::E062XArtControllerBounds => {
            "The stepsize-controller bounds are unsatisfiable against the solver schedule: \
             dt_min is not below the nominal stepsize, the shrink factor is outside (0, 1), \
             or the rejection-trial budget cannot walk the stepsize from default_dt down to \
             dt_min. The search would either never terminate or give up before reaching its \
             own lower bound."
        }
        Code::E072ServeTierOrdering => {
            "The degradation ladder is not ordered cheapest-last. Tier 0 must serve at the \
             request's own tolerance (scale 1.0), and every later tier must be strictly coarser \
             (larger tolerance scale) with a trial budget no larger than its predecessor's. A \
             mis-ordered ladder inverts the policy's promise: thin-slack requests get *more* \
             expensive solves exactly when there is no time for them. The rule is one \
             predicate, ServeConfig::check_ladder_order, which the runtime constructor also \
             asserts in every build; the lint reports the first defect before the cost table \
             is read (a reordered ladder also no longer matches the table's fingerprint, so \
             E093 fires beside it)."
        }
        Code::W070ServeDesignOverload => {
            "The policy's declared design load exceeds its peak service rate: max_batch \
             requests per worst-case batch, where the batch costs the cost table's tier-0 \
             latency at max_batch rescaled to the Strict class (the same service time the \
             E090 response-time bound charges). Under sustained load at the declared rate the \
             queue fills and stays full, so shedding and QueueFull rejections become the \
             steady state rather than an overload response. Either the design rate is \
             aspirational (lower it) or the deployment needs more capacity (bigger batches, \
             cheaper tiers, more workers)."
        }
        Code::W071ServeUnreachableTier => {
            "Tier selection walks the ladder and picks the first tier whose slack threshold \
             fits, so a tier whose min_slack is not strictly below its predecessor's can never \
             be chosen — it is dead configuration. Separately, a last tier with a nonzero \
             threshold leaves the thinnest-slack requests to the fall-through default (cheapest \
             tier) rather than a deliberately designed one. Make thresholds strictly decreasing \
             and end the ladder at zero slack."
        }
        Code::W084CostModelDeviation => {
            "The static roofline model (peak flops per lane, memory bandwidth, dispatch \
             overhead, bytes from the declared region sizes) predicts a parallel speedup \
             that disagrees with the committed BENCH_kernels.json measurement by more than the \
             tolerance ratio. Either the measurement is stale (re-run the bench and commit), \
             the summary's flops or region sizes are wrong, or the kernel hits an effect the \
             roofline cannot see (cache thrash, false sharing) worth investigating."
        }
        Code::W085CostFutileSplit => {
            "Arithmetic intensity says this split cannot pay for its dispatch overhead on the \
             measurement host: the committed baseline was captured with fewer physical cores \
             than the bench's high thread count, and the measured parallel speedup is below \
             1×. This machine-checks the host_cpus caveat in BENCH_kernels.json — the slowdown \
             is a property of the 1-core container, not a kernel defect. Re-measure on a \
             multi-core host before drawing scheduling conclusions."
        }
        Code::E090SchedDeadlineInfeasible => {
            "The worst-case response time of a request admitted into the last slot of a full \
             queue — ceil(queue_capacity / max_batch) tier-0 batches of backlog, plus the full \
             batch window, plus its own batch at tier t, every batch priced by the \
             simulator-calibrated COST_TABLE.json at the request's tolerance class — exceeds \
             the tightest admitted deadline at *every* tier of the degradation ladder, for \
             some class. No runtime policy can save such a deployment: even a request served \
             maximally degraded misses by construction. A clean Strict verdict also proves \
             that the window plus one full-quality batch fits the deadline and that a full \
             queue drains before it. Raise the deadline floor, shrink the queue/window, or \
             make the cheapest tier cheaper."
        }
        Code::E091SchedLadderNoRecovery => {
            "Tier selection routes a request to tier t when its remaining slack is at least \
             the tier's min_slack_us — the tier's contract is that min_slack_us of headroom \
             suffices to finish there. This lint checks the contract against the simulated \
             table: the worst-case (Strict-class, full-batch) service time at the tier \
             exceeds its own admission threshold, so a request routed at the threshold is \
             guaranteed to miss even though degradation 'worked'. Raise the threshold or \
             cheapen the tier."
        }
        Code::E092SchedEnergyBudget => {
            "The policy declares a per-request energy budget (µJ at full quality), and the \
             cycle-level simulator says the tier-0 dispatch at max_batch costs more than that \
             per request (batch energy / batch size, DRAM stalls included). The deployment \
             would drain its battery envelope on every full-quality request — the exact \
             failure eNODE's energy story exists to prevent. Cheapen tier 0 (fewer trials, \
             lower-order tableau), batch wider, or raise the declared budget."
        }
        Code::E093SchedTableVersion => {
            "COST_TABLE.json carries the generator's schema version and, per policy, an \
             FNV-1a fingerprint of the ladder fields the sweep depends on (tolerance scales, \
             trial budgets, tableau stages, slack thresholds). This lint fires when either \
             disagrees with the analysis's own constants: the committed table was generated \
             by a different generator, or the ladder changed after the sweep. Every verdict \
             derived from a stale table is unsound, so the analysis stops at this error. \
             Regenerate with `cargo run --release -p enode-bench --bin cost_table_json`."
        }
        Code::E094SchedTableMissing => {
            "A shipped policy (or one of its ladder tiers) has no rows in the committed cost \
             table, so the schedulability and energy analysis has nothing to reason from — \
             which usually means a policy was added or a ladder deepened without re-running \
             the sweep. The deployment is not proven infeasible; it is unproven, which the \
             repo treats the same way. Regenerate COST_TABLE.json."
        }
        Code::E095SchedTableNonMonotone => {
            "Within one (policy, tier), the simulated batch rows must be monotone: a larger \
             batch does strictly more work, so its per-dispatch latency and energy cannot \
             decrease. A violation cannot come out of the simulator sweep (it is a pure \
             function of batch size) — the committed table is corrupted or hand-edited, and \
             every interpolation or worst-case bound drawn from it would be wrong. \
             Regenerate the table; never edit it by hand."
        }
        Code::E096SchedPowerBudget => {
            "Sustained device power is offered load times energy per request: \
             design_rate_rps × the simulated tier-0 per-request energy. This lint fires when \
             that product exceeds the policy's declared power budget (mW) — the deployment \
             cannot hold its design throughput at full quality within its thermal/battery \
             envelope, and the runtime would be forced into permanent degradation instead of \
             using the ladder for transients. Lower the design rate, cheapen tier 0, or \
             provision more power."
        }
        Code::W090SchedDegradedOnly => {
            "For some tolerance class, the worst-case response time misses the tightest \
             deadline at tier 0 but fits it at a degraded tier; the diagnostic names the \
             first tier that fits. The policy is feasible, but without quality headroom: any \
             worst-case request admitted at the deadline floor is served degraded (at the \
             named tier or a cheaper one), and full quality is reserved for requests with \
             slack to spare. Usually a sign the window or queue is oversized for the \
             deadline."
        }
        Code::W091SchedLadderEnergyNonMonotone => {
            "Degrading is supposed to buy latency *and* energy, yet the simulated per-request \
             energy at some tier is not lower than its predecessor's: the ladder trades \
             accuracy away without getting the energy back. This happens when a tier lowers \
             the tableau order (fewer f-evals per trial) but its tolerance/trial settings \
             make the controller spend more accepted points. The battery-ladder story (paper \
             Figs 14–17) depends on monotone energy; re-tune the offending tier."
        }
        Code::W092SchedTableExtrapolated => {
            "The analysis needs the policy's max_batch design point, but the committed table \
             has no simulated row at that batch (the sweep grid stops earlier), so the \
             verdict was derived from a linear extrapolation of the largest simulated batch. \
             Linear-in-batch is exactly what the simulator shows on this compute-bound \
             profile, but an extrapolated bound is a model, not a measurement — widen \
             BATCH_GRID or shrink max_batch to make the verdict simulator-backed."
        }
        Code::W093SchedThinMargin => {
            "The policy is feasible at full quality, but barely: the tier-0 worst-case \
             response time leaves less than 10% of the tightest admitted deadline as slack \
             for some tolerance class. Any drift the static model does not see — clock \
             scaling, DRAM contention beyond the simulator's stall model, a deeper queue — \
             eats straight into deadline misses. Treat it as a capacity-planning alarm, not \
             an error."
        }
        Code::E110FleetResidencyOverflow => {
            "An instance of the fleet must pin its assigned model's live version into the \
             per-core weight SRAM, but some core's round-robin share of the version's weight \
             bytes alone exceeds the configured weight-buffer capacity. The residency manager \
             would reject the warm-up outright (nothing can be evicted to make a single \
             too-large version fit), so the fleet cannot even start: every request for that \
             model would be refused NotResident. Shrink the deployed profile (channels or \
             conv depth), deepen the per-core buffer, or assign the model to a configuration \
             with more cores so the round-robin shares fall under the envelope."
        }
        Code::E111FleetRebalanceInfeasible => {
            "Some single-instance loss (or the nominal deployment itself) leaves tenant load \
             unservable: either no surviving instance serves a model that still has bound \
             tenants, or the consistent-hash rebalance concentrates more offered req/s onto \
             a survivor than its policy's declared design_rate_rps. Per scenario, each \
             surviving instance's load is the sum over its model's tenants of each bound \
             rate divided (rounding up) by the model's surviving instance count. \
             A fleet that only works while all instances are up has no failure story — add \
             a replica of the starved model or lower the tenant rates until one loss is \
             absorbable."
        }
        Code::E112FleetSlaUncovered => {
            "A tenant's SLA deadline is covered by no tier of its model's degradation \
             ladder: at every tier, either the tier's min_slack_us admission threshold \
             exceeds the SLA (the router can never route to it) or the tier's worst-case \
             response time at the tenant's tolerance class — the same full-queue backlog \
             plus batch window plus own batch that E090 bounds, priced by the \
             simulator-calibrated cost table — overruns the SLA. Every request the tenant \
             submits is then shed or completed late by construction. Relax the SLA, bind \
             the tenant to a cheaper tolerance class, or extend the ladder with a tier \
             cheap enough to fit."
        }
        Code::E113FleetStaleFingerprint => {
            "A published model version's recorded fingerprint does not match the FNV-1a \
             digest recomputed from its name, version number, and degradation ladder. \
             Publish computes and stores this digest atomically, so a mismatch means the \
             registry entry was edited outside the publish path, survived a ladder change \
             it should not have, or was corrupted in transit — and every other fleet \
             verdict would be reasoning about a policy that is not the one actually \
             deployed. The check short-circuits the rest of the fleet analysis. Republish \
             the model through the registry instead of patching its snapshot."
        }
        Code::E114FleetConfigMalformed => {
            "The fleet config fails structural invariants that every other fleet check \
             assumes: it declares zero instances, its assignment does not name exactly one \
             model per instance, an assigned model has no live published version in the \
             registry, or a tenant is bound to a model no instance serves. The runtime \
             constructor panics on the same conditions; this lint reports them statically \
             and short-circuits the rest of the family, since residency, rebalance, and \
             SLA verdicts are meaningless over a fleet that cannot be built."
        }
        Code::W110FleetResidencyHeadroom => {
            "An instance's pinned live set fits its weight SRAM, but leaves less than 1/8 \
             of some core's buffer free. The publish protocol keeps the predecessor \
             version warm (unpinned) for instant rollback; with this little headroom the \
             next publish must evict it immediately, so rollback degrades from an SRAM \
             pointer-flip to a full re-warm from DRAM. Deploy a smaller profile or a \
             larger weight buffer if warm rollback matters for the model."
        }
        Code::W111FleetQuotaOversubscribed => {
            "The per-tenant admission quotas bound against one model sum to more \
             outstanding requests than the ingress queues of the instances serving that \
             model can buffer. Quotas are the fleet's door-level backpressure; when they \
             overcommit the queues, tenants within quota can still be refused QueueFull by \
             the instance, making admission behavior depend on arrival interleaving \
             rather than on the declared contract. Lower the quotas or add replicas until \
             the aggregate queue capacity covers them."
        }
    }
}

/// Codes no pass emits any more, with the reason each was retired. The
/// numbers stay reserved — a retired code is never reused for another
/// check (a test keeps them out of [`Code::ALL`]) — and `docs/LINTS.md`
/// lists them.
pub const RETIRED: [(&str, &str); 21] = [
    (
        "E040",
        "checked that each written region a summary declared was a whole number of item \
         strides; parallel_for_disjoint* asserts that of the real buffer in every build, \
         and a kernel that allocates its output one element short panics there while \
         E040 stays silent (DESIGN.md §12 ledger, row 3)",
    ),
    (
        "E041",
        "compared a hand-declared kernel scratch size with a second hand-declared copy \
         of itself; the kernels' access summaries declare each scratch size once, and the \
         shadow-memory sanitizer tracks every scratch checkout at runtime",
    ),
    (
        "E042",
        "read a combine-order flag that no kernel declared unordered; the \
         schedule-permutation audit catches an unordered fold by its output bits",
    ),
    (
        "W043",
        "compared the same hand-declared scratch pair as E041, warning on \
         over-provisioning instead",
    ),
    (
        "E070",
        "checked batch window plus a hand-typed service estimate against the deadline \
         floor; a clean Strict-class E090 proves window plus the simulated tier-0 batch \
         fits, because its response-time bound holds that batch at least once",
    ),
    (
        "E071",
        "checked a full queue's drain at a hand-typed service estimate against the \
         deadline floor; E090's response-time bound charges the same drain, priced by \
         COST_TABLE.json, so a clean Strict-class E090 proves it",
    ),
    (
        "E080",
        "proved lane write sets disjoint over hand-typed strided accesses; every split \
         writes through parallel_for_disjoint*, whose &mut subslices of whole item \
         strides are disjoint by construction, and a kernel writing past its lane or a \
         chunk law that overlaps lanes left it silent (DESIGN.md §12 ledger, rows 1 and 2)",
    ),
    (
        "E081",
        "proved that declared lane writes cover their region exactly; the same subslices \
         cover the buffer, and the one defect it caught, a region declaration dropped \
         from a summary, changed no kernel (DESIGN.md §12 ledger, row 5)",
    ),
    (
        "E082",
        "checked scratch carved from a declared region against that region's writes; \
         every kernel takes its scratch from the thread-local arena, whose checkouts the \
         shadow tracker watches at runtime, so only a hand-typed declaration could fire it",
    ),
    (
        "W080",
        "recorded a coverage gap that matched a region's declared slack; no summary \
         declared slack",
    ),
    (
        "E100",
        "proved lock-order acyclicity over hand-typed sync skeletons, not the code; the \
         traced lock-order test fails on any cycle in the order the running code takes \
         (DESIGN.md §15 ledger, row 4)",
    ),
    (
        "E101",
        "proved wakeups over hand-typed skeleton paths that nothing compared with the \
         code: deleting submit's notify left it silent, while \
         a_parked_worker_wakes_on_submit fails (DESIGN.md §15 ledger, row 1)",
    ),
    (
        "E102",
        "proved joins and queue sweeps over hand-typed shutdown paths; a skipped join \
         or a dropped sweep planted in the code left it silent (DESIGN.md §15 ledger, \
         rows 3 and 6)",
    ),
    (
        "E103",
        "checked the atomic orderings a skeleton declared, not the ones the code uses; \
         a Release counter weakened to Relaxed in the code left it silent (DESIGN.md \
         §15 ledger, row 5)",
    ),
    (
        "E104",
        "compared traced lock edges with the hand-typed skeletons; the traced test \
         compares them with the expected nestings directly, so every edge E104 did not \
         admit still fails it (DESIGN.md §15 ledger, row 4)",
    ),
    (
        "E105",
        "checked that the hand-typed skeletons were well formed; they are deleted",
    ),
    (
        "E106",
        "proved that no waiter held a lock its notifiers need, over hand-typed paths \
         only; no defect planted in code reaches the declarations it read",
    ),
    (
        "W100",
        "recorded the metrics' relaxed admission counters as a skeleton declared them; \
         the ordering audit stays in serve::metrics beside the counters",
    ),
    (
        "W101",
        "flagged a skeleton condvar no declared path waited on; it read only the \
         declarations",
    ),
    (
        "W102",
        "recorded the batch window's timeout-bounded wait as a skeleton declared it; \
         wall_clock_window_expires_with_no_notifier runs that wait",
    ),
    (
        "W103",
        "flagged a skeleton lock no declared path acquired; the traced test checks the \
         six lock ids the code hooks",
    ),
];

/// The full `--explain` text for one code: header line, summary, and the
/// long explanation.
pub fn explain(code: Code) -> String {
    let kind = match code.severity() {
        Severity::Error => "error",
        Severity::Warning => "warning",
    };
    format!(
        "{} ({kind}): {}\n\n{}\n",
        code.as_str(),
        code.summary(),
        explanation(code)
    )
}

/// Renders the generated `docs/LINTS.md`: one table row per code plus the
/// long explanations, in code order. `enode-lint --emit-lints-md` prints
/// this; a golden test keeps the checked-in file in sync.
pub fn render_lints_md() -> String {
    let mut out = String::new();
    out.push_str(
        "# Lint codes\n\n\
         <!-- Generated by `enode-lint --emit-lints-md`. Do not edit by hand. -->\n\n\
         Every diagnostic the `enode-analysis` crate emits carries one of the stable\n\
         codes below. `E` codes are errors (`enode-lint` exits nonzero), `W` codes are\n\
         warnings. Run `enode-lint --explain <CODE>` for the same text offline.\n\n\
         | Code | Severity | Summary |\n|---|---|---|\n",
    );
    for code in Code::ALL {
        let kind = match code.severity() {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        out.push_str(&format!(
            "| [{0}](#{1}) | {kind} | {2} |\n",
            code.as_str(),
            code.as_str().to_ascii_lowercase(),
            code.summary()
        ));
    }
    out.push('\n');
    for code in Code::ALL {
        out.push_str(&format!(
            "## {}\n\n*{}*\n\n{}\n\n",
            code.as_str(),
            code.summary(),
            explanation(code)
        ));
    }
    out.push_str(
        "## Retired codes\n\n\
         No pass emits these any more; their numbers stay reserved.\n\n\
         | Code | Retired because it |\n|---|---|\n",
    );
    for (code, why) in RETIRED {
        out.push_str(&format!("| {code} | {why} |\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_code_has_an_explanation() {
        for code in Code::ALL {
            assert!(
                explanation(code).len() > 80,
                "{} needs a real explanation",
                code.as_str()
            );
            let text = explain(code);
            assert!(text.starts_with(code.as_str()), "{text}");
            assert!(text.contains(code.summary()));
        }
    }

    #[test]
    fn parse_code_roundtrips_and_rejects_unknown() {
        for code in Code::ALL {
            assert_eq!(parse_code(code.as_str()), Some(code));
            assert_eq!(parse_code(&code.as_str().to_ascii_lowercase()), Some(code));
        }
        assert_eq!(parse_code("E999"), None);
        assert_eq!(parse_code(""), None);
        assert_eq!(parse_code("bogus"), None);
    }

    #[test]
    fn retired_codes_stay_reserved() {
        for (code, _) in RETIRED {
            assert_eq!(parse_code(code), None, "{code} is retired");
        }
    }

    #[test]
    fn lints_md_lists_every_code() {
        let md = render_lints_md();
        for code in Code::ALL {
            assert!(md.contains(&format!("## {}", code.as_str())));
        }
    }

    #[test]
    fn checked_in_lints_md_is_current() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/LINTS.md");
        let on_disk = std::fs::read_to_string(path)
            .expect("docs/LINTS.md missing; run `enode-lint --emit-lints-md > docs/LINTS.md`");
        assert_eq!(
            on_disk,
            render_lints_md(),
            "docs/LINTS.md is stale; regenerate with `enode-lint --emit-lints-md > docs/LINTS.md`"
        );
    }
}
