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
//! | `W040–W049` | Parallel kernel-split lints ([`crate::parallelcheck`]) |
//! | `E050–E059` / `W050–W059` | FP16 precision lints ([`crate::precision`]) |
//! | `E060–E069` / `W060–W069` | Cross-artifact consistency lints ([`crate::consistency`]) |
//! | `E070–E079` / `W070–W079` | Serving-policy ladder & load lints (emitted by [`crate::schedcheck`]) |
//! | `W080–W089` | Roofline cost lints ([`crate::cost`]) |
//! | `E090–E099` / `W090–W099` | Schedulability & energy-budget lints ([`crate::schedcheck`]) |
//! | `E110–E119` / `W110–W119` | Fleet registry & residency lints ([`crate::fleetcheck`]) |
//!
//! Adding a pass: pick the next free code in the family's range, add one
//! entry (doc comment, variant, code string, summary) to the
//! `lint_codes!` table below, give it an explanation in
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

/// Declares every lint code once: its doc comment, its variant, its stable
/// code string and its one-line summary. Expands to [`Code`] with
/// `as_str`, `ALL` and `summary`.
macro_rules! lint_codes {
    ($($(#[$doc:meta])* $variant:ident = $code:literal, $summary:literal;)*) => {
        /// Stable lint codes. The numeric part is permanent: codes are never
        /// renumbered, only retired ([`crate::registry::RETIRED`] keeps the
        /// retired numbers reserved).
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum Code {
            $($(#[$doc])* $variant,)*
        }

        impl Code {
            /// The stable textual form, e.g. `"E001"`.
            pub fn as_str(&self) -> &'static str {
                match self {
                    $(Code::$variant => $code,)*
                }
            }

            /// Every code the crate can emit, in code order.
            pub const ALL: [Code; [$(Code::$variant),*].len()] = [$(Code::$variant),*];

            /// One-line description of what the lint checks.
            pub fn summary(&self) -> &'static str {
                match self {
                    $(Code::$variant => $summary,)*
                }
            }
        }
    };
}

lint_codes! {
    // --- tableau lints (E001-E009 / W001-W009) ---
    /// Row-sum consistency `Σ_j a_ij = c_i` violated.
    E001TableauRowSum = "E001", "tableau row sum Σa_ij must equal c_i";
    /// The `a` matrix is not strictly lower triangular (method not explicit).
    E002TableauNotExplicit = "E002", "tableau must be strictly lower triangular";
    /// An order condition through order 4 fails for the claimed order.
    E003TableauOrderCondition = "E003", "order condition fails for claimed order";
    /// The embedded-pair weights do not satisfy their claimed order.
    E004TableauEmbeddedOrder = "E004", "embedded pair fails its claimed order";
    /// Error weights of an adaptive pair do not sum to ~0.
    E005TableauErrorWeights = "E005", "error weights must sum to zero";
    /// Structural defect: stage-count mismatch between `c`, `a`, and `b`.
    E006TableauShape = "E006", "tableau stage counts inconsistent";
    /// FSAL flag inconsistent with the coefficients (last a-row vs `b`).
    W001TableauFsalFlag = "W001", "FSAL flag inconsistent with coefficients";
    /// Embedded order gap is not 1 (unusual for production pairs).
    W002TableauOrderGap = "W002", "embedded order gap is not 1";

    // --- DDG schedule lints (E010-E019 / W010-W019) ---
    /// The DDG has a dependency cycle.
    E010DdgCycle = "E010", "DDG contains a dependency cycle";
    /// An edge does not go strictly deeper (schedule illegal).
    E011DdgIllegalEdge = "E011", "DDG edge does not go strictly deeper";
    /// Peak liveness exceeds the state-buffer rows the hardware assumes.
    E012DdgLivenessExceedsBuffer = "E012", "peak liveness exceeds buffer rows";
    /// A partial state lives longer than the one-row-lag retirement bound.
    W010DdgPartialLifetime = "W010", "partial state outlives one-row-lag bound";

    // --- network shape & FP16 range lints (E020-E029 / W020-W029) ---
    /// Shape inference failed: an op rejects its input shape.
    E020ShapeMismatch = "E020", "op rejects its input shape";
    /// The ODE function f does not preserve the state shape.
    E021ShapeNotPreserved = "E021", "ODE function must preserve state shape";
    /// Worst-case magnitude exceeds `f16::MAX` (FP16 overflow).
    E022Fp16Overflow = "E022", "worst-case magnitude exceeds f16::MAX";
    /// Worst-case magnitude within 8x of `f16::MAX` (near overflow).
    W020Fp16NearOverflow = "W020", "worst-case magnitude near f16::MAX";

    // --- hardware feasibility lints (E030-E039 / W030-W039) ---
    /// A structural `HwConfig` field is zero/invalid.
    E030HwConfigInvalid = "E030", "hardware config field invalid";
    /// Training buffer smaller than peak depth-first live bytes.
    E031HwTrainingBufferTooSmall = "E031", "training buffer below peak live bytes";
    /// Weight buffer cannot hold the resident weights.
    E032HwWeightsNotResident = "E032", "weights exceed the weight buffer";
    /// DRAM bandwidth below the streaming demand of the workload.
    E033HwDramBandwidth = "E033", "DRAM bandwidth below streaming demand";
    /// Ring link bandwidth below the inter-core streaming demand.
    W030HwLinkBandwidth = "W030", "ring link bandwidth below streaming demand";
    /// The layer mapping leaves cores idle in the last round.
    W031HwIdleCores = "W031", "layer mapping idles cores in last round";
    /// The layer mapping needs multiple rounds (weights swapped per step).
    W032HwMultiRound = "W032", "layer mapping needs multiple rounds";
    /// Integral-state buffer demand close to the training buffer size.
    W033HwBufferHeadroom = "W033", "buffer headroom below 10%";
    /// A parallel pool is live but the work split is degenerate (e.g.
    /// batch 1 with per-batch-only splitting), so the run is silently
    /// serial.
    W034HwDegenerateParallelSplit = "W034", "parallel pool live but work split is degenerate";

    // --- parallel kernel-split lints (W040-W049) ---
    /// The split degenerates to a single chunk on a live pool despite
    /// substantial work (generalizes W034 beyond batch-1 runs).
    W040ParDegenerateSplit = "W040", "kernel split degenerates to one chunk";
    /// A per-item partials region dwarfs the reduced output (memory that
    /// grows with the item count).
    W041ParPartialBlowup = "W041", "per-item partials dwarf the reduced output";
    /// Every written region gives each lane less than one cache line, so
    /// lanes ping-pong ownership of shared lines.
    W042ParFalseSharing = "W042", "per-lane span below one cache line";
    /// The split planner's work-size floor (`grain_for_sized`) kept a
    /// kernel serial on a live pool because its total work cannot amortize
    /// one dispatch — deliberate, but recorded so small-shape serial runs
    /// are visible rather than silent.
    W044ParSerialFloorEngaged = "W044", "work-size floor keeps the kernel serial";

    // --- FP16 precision lints (E050-E059 / W050-W059) ---
    /// A network op's worst-case output magnitude exceeds `f16::MAX`
    /// somewhere in the unrolled solver schedule.
    E050PrecOpOverflow = "E050", "op output can overflow f16 in the solver schedule";
    /// An RK combine (stage input, solution, or error estimate) can
    /// exceed `f16::MAX`.
    E051PrecCombineOverflow = "E051", "RK combine can overflow f16";
    /// A trainable parameter tensor contains NaN or infinity.
    E052PrecNonFiniteParam = "E052", "parameter tensor contains NaN or infinity";
    /// A GroupNorm group has ≤ 1 element, so its variance is identically
    /// zero and normalization is degenerate.
    E053PrecDegenerateGroupNorm = "E053", "GroupNorm group has no variance to normalize";
    /// An FP16 ACA checkpoint stores a state whose worst-case magnitude
    /// exceeds `f16::MAX`.
    E054PrecCheckpointOverflow = "E054", "fp16 checkpoint stores an overflowing state";
    /// The solver tolerance is below the FP16 subnormal threshold, so the
    /// error estimate flushes to zero before the controller sees it.
    E055PrecToleranceSubnormal = "E055", "tolerance below the fp16 subnormal threshold";
    /// Adjoint recomputation from a checkpoint amplifies the replayed
    /// state past `f16::MAX`.
    E056PrecAdjointReplayOverflow = "E056", "adjoint replay amplifies state past f16::MAX";
    /// The solver tolerance is within 16x of the FP16 subnormal
    /// threshold.
    W050PrecToleranceNearSubnormal = "W050", "tolerance within 16x of fp16 subnormals";
    /// FP16 rounding noise in the embedded error estimate is a
    /// significant fraction of the tolerance (catastrophic cancellation).
    W051PrecCancellation = "W051", "fp16 rounding noise rivals the error estimate";
    /// Accumulated per-step FP16 rounding error exceeds the solver's
    /// error budget.
    W052PrecErrorBudget = "W052", "fp16 rounding exceeds the solver error budget";
    /// FP16 checkpoint quantization error, amplified over the recompute
    /// interval, is a significant fraction of the tolerance.
    W053PrecAdjointQuantization = "W053", "checkpoint quantization rivals the tolerance";

    // --- cross-artifact consistency lints (E060-E069 / W060-W069) ---
    /// The layer-to-core mapping assumes resident weights but the actual
    /// layer footprints exceed the weight buffer (total or per core).
    E060XArtMapResidency = "E060", "mapping assumes residency the weights exceed";
    /// The ACA checkpoint plan's working set exceeds the on-chip training
    /// buffer.
    E061XArtAcaBuffer = "E061", "ACA working set exceeds the training buffer";
    /// The stepsize-controller bounds are inconsistent with the solver
    /// schedule or the tableau's embedded order.
    E062XArtControllerBounds = "E062", "controller bounds inconsistent with schedule";

    // --- serving-policy ladder & load lints (E070-E079 / W070-W079) ---
    /// The degradation ladder is not ordered cheapest-last: a later tier
    /// is not strictly coarser / no more expensive than its predecessor,
    /// or tier 0 is not full quality.
    E072ServeTierOrdering = "E072", "degradation tiers are not ordered cheapest-last";
    /// The declared design load exceeds the policy's service capacity
    /// (`max_batch` per Strict tier-0 batch of the cost table), so
    /// shedding is the steady state, not an overload response.
    W070ServeDesignOverload = "W070", "design load exceeds the service capacity";
    /// A degradation tier is unreachable (its slack threshold is not
    /// strictly below its predecessor's) or the ladder leaves a slack
    /// band uncovered (last tier's threshold is nonzero).
    W071ServeUnreachableTier = "W071", "tier unreachable or slack band uncovered";

    // --- roofline cost lints (W080-W089) ---
    /// A measured kernel speedup in `BENCH_kernels.json` deviates from
    /// the static roofline prediction beyond the model tolerance.
    W084CostModelDeviation = "W084", "measured speedup deviates from the roofline";
    /// The roofline model predicts no parallel benefit for a split on
    /// the bench host (lanes exceed host cpus or the kernel is
    /// memory-bound), and the tracked bench already measures < 1x.
    W085CostFutileSplit = "W085", "roofline predicts no parallel benefit on this host";

    // --- schedulability & energy-budget lints (E090-E099 / W090-W099) ---
    /// Worst-case response time exceeds the tightest admitted deadline
    /// at *every* tier of the degradation ladder: the deadline is
    /// infeasible even at the cheapest configuration.
    E090SchedDeadlineInfeasible = "E090", "deadline infeasible even at the cheapest tier";
    /// A tier admits requests it cannot finish: the simulated worst-case
    /// service time at that tier exceeds the tier's own `min_slack_us`
    /// admission threshold, so degradation cannot recover the slack it
    /// was routed on.
    E091SchedLadderNoRecovery = "E091", "tier admits slack it cannot serve within";
    /// The simulated per-request energy at full quality exceeds the
    /// policy's declared per-request energy budget.
    E092SchedEnergyBudget = "E092", "per-request energy exceeds the declared budget";
    /// The cost table's version or the policy's ladder fingerprint does
    /// not match what this analysis expects: the table was generated by
    /// a different generator or from a different ladder.
    E093SchedTableVersion = "E093", "cost table version/fingerprint mismatch";
    /// The cost table has no rows for a shipped policy/tier, so no
    /// schedulability verdict can be derived for it.
    E094SchedTableMissing = "E094", "cost table lacks rows for a shipped policy";
    /// A tier's table rows are not monotone in batch size (latency or
    /// energy decreases as the batch grows) — a corrupted or hand-edited
    /// table.
    E095SchedTableNonMonotone = "E095", "cost table rows not monotone in batch";
    /// Sustained power (`design_rate_rps × energy/request`) exceeds the
    /// policy's declared device power budget.
    E096SchedPowerBudget = "E096", "sustained power exceeds the declared budget";
    /// The deadline is missed at tier 0 and met only at a degraded tier:
    /// feasible, but every worst-case request is served degraded.
    W090SchedDegradedOnly = "W090", "deadline missed at tier 0, met only degraded";
    /// Per-request energy does not decrease monotonically down the
    /// degradation ladder: a cheaper tier burns more energy per request
    /// than its predecessor.
    W091SchedLadderEnergyNonMonotone = "W091", "energy does not fall down the ladder";
    /// A design point the analysis needs (the policy's `max_batch`) has
    /// no simulated row and was linearly extrapolated from the largest
    /// simulated batch.
    W092SchedTableExtrapolated = "W092", "design point extrapolated, not simulated";
    /// The worst-case response time at tier 0 leaves less than 10% of
    /// the tightest deadline as slack — feasible, but with thin margin.
    W093SchedThinMargin = "W093", "tier-0 deadline margin below 10%";

    // --- fleet registry & residency lints (E110-E119 / W110-W119) ---
    /// The aggregate resident set an instance must hold (every pinned
    /// live version assigned to it) overflows some core's weight buffer:
    /// the fleet cannot even warm up.
    E110FleetResidencyOverflow = "E110", "resident set overflows a core's weight buffer";
    /// Losing a single instance leaves some tenant's offered load
    /// unservable: no surviving instance holds the model, or the
    /// rebalanced per-survivor load exceeds a policy's design rate.
    E111FleetRebalanceInfeasible = "E111", "a node loss leaves load unservable";
    /// A tenant's SLA deadline is covered by no tier of its policy's
    /// degradation ladder: every admitted request is guaranteed to be
    /// shed or to miss its deadline.
    E112FleetSlaUncovered = "E112", "tenant SLA covered by no ladder tier";
    /// A published version's recorded fingerprint does not match the
    /// FNV-1a digest recomputed from its name, version, and ladder — the
    /// registry entry is stale or was tampered with.
    E113FleetStaleFingerprint = "E113", "published fingerprint does not match the ladder";
    /// The fleet config is structurally malformed: zero instances, an
    /// assignment that does not name a model per instance, an assigned
    /// model with no live published version, or a tenant bound to a
    /// model no instance serves.
    E114FleetConfigMalformed = "E114", "fleet config structurally malformed";
    /// An instance's resident set fits, but leaves less than 1/8 of some
    /// core's weight buffer free: the next publish will evict rollback
    /// versions immediately.
    W110FleetResidencyHeadroom = "W110", "resident set leaves under 1/8 buffer headroom";
    /// The tenant quotas admitted against a model exceed the aggregate
    /// queue capacity of the instances serving it: admission control can
    /// overcommit the fleet's buffering.
    W111FleetQuotaOversubscribed = "W111", "quotas exceed the aggregate queue capacity";
}

impl Code {
    /// The severity implied by the code's letter.
    pub fn severity(&self) -> Severity {
        if self.as_str().starts_with('E') {
            Severity::Error
        } else {
            Severity::Warning
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
            Diagnostic::new(Code::E020ShapeMismatch, "conv2d \"fwd\"", "len 7\nitems 2")
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
            "{\"code\":\"E020\",\"severity\":\"error\",\
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
