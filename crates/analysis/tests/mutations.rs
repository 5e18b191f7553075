//! Mutation seeds: each test takes a shipped-style artifact, injects one
//! specific defect, and asserts the *exact* lint code fires — and that
//! unrelated codes stay silent. Together with
//! `lint_everything`'s clean-run test this pins the discrimination of the
//! `E05x`/`E06x` families: the lints catch the planted defect without
//! drowning it in collateral noise.

use enode_analysis::consistency::lint_consistency;
use enode_analysis::diag::{Code, Severity};
use enode_analysis::precision::lint_precision;
use enode_analysis::{affine, cost, lint_everything, schedcheck, PipelineArtifact};
use enode_hw::config::HwConfig;
use enode_node::inference::NodeSolveOptions;
use enode_node::model::NodeModel;
use enode_serve::ServeConfig;
use enode_tensor::access::{
    AccessKind, KernelAccessSummary, RegionDecl, ScratchDecl, ScratchSource, StridedAccess,
};
use enode_tensor::conv::Conv2d;
use enode_tensor::dense::Dense;
use enode_tensor::network::{Network, Op};
use enode_tensor::norm::GroupNorm;
use enode_tensor::Tensor;

/// The shipped edge-inference pipeline with a (possibly mutated) Table I
/// hardware configuration.
fn image_artifact(cfg: HwConfig) -> PipelineArtifact {
    PipelineArtifact::new(
        "edge image_classifier(4 ch, 2 conv)",
        NodeModel::image_classifier(4, 2, 2, 10, 9),
        vec![1, 4, 16, 16],
        1.0,
        NodeSolveOptions::new(1e-6),
        Some(cfg),
    )
}

#[test]
fn baseline_shipped_artifacts_are_error_clean() {
    // The mutation tests below only mean something if the unmutated
    // pipelines pass: every code asserted here must be absent from the
    // full shipped-artifact run.
    let ds = lint_everything();
    assert!(
        !ds.items().iter().any(|d| d.severity() == Severity::Error),
        "shipped artifacts must lint error-clean:\n{}",
        ds.render()
    );
}

#[test]
fn oversized_groupnorm_gain_overflows_fp16_e050() {
    // Mutation: inflate a GroupNorm gain to 1e4. The normalized value is
    // bounded by sqrt(N-1) ~ 22.6 for the 512-element groups here, so the
    // op's worst-case output is ~2.3e5 — past F16::MAX.
    let mut gn = GroupNorm::new(4, 2);
    for g in gn.gamma_mut().data_mut() {
        *g = 1.0e4;
    }
    let net = Network::new(vec![
        Op::conv2d(Conv2d::new_seeded(4, 4, 3, 9)),
        Op::group_norm(gn),
    ]);
    let artifact = PipelineArtifact::new(
        "mutated groupnorm gain",
        NodeModel::new(vec![net], (0.0, 1.0)),
        vec![1, 4, 16, 16],
        1.0,
        NodeSolveOptions::new(1e-6).with_fp16_storage(),
        None,
    );
    let ds = lint_precision(&artifact);
    assert!(ds.has_code(Code::E050PrecOpOverflow), "{}", ds.render());
    // The defect is in the op, not the parameters or the group geometry.
    assert!(!ds.has_code(Code::E052PrecNonFiniteParam));
    assert!(!ds.has_code(Code::E053PrecDegenerateGroupNorm));
}

#[test]
fn stage_combine_overflow_fires_e051_without_e050() {
    // Every op output stays inside f16 range (tanh caps at 1, the dense
    // row sum is 6e4 < 65504), but the RK combine p1 = y + h*a10*k0 with
    // h = 20 crosses F16::MAX. Only the combine code may fire.
    let dense = Dense::from_parts(Tensor::from_vec(vec![6.0e4], &[1, 1]), Tensor::zeros(&[1]));
    let net = Network::new(vec![Op::tanh(), Op::dense(dense)]);
    let artifact = PipelineArtifact::new(
        "mutated combine overflow",
        NodeModel::new(vec![net], (0.0, 20.0)),
        vec![1, 1],
        4.0,
        NodeSolveOptions::new(1e-2).with_default_dt(20.0),
        None,
    );
    let ds = lint_precision(&artifact);
    assert!(
        ds.has_code(Code::E051PrecCombineOverflow),
        "{}",
        ds.render()
    );
    assert!(!ds.has_code(Code::E050PrecOpOverflow), "{}", ds.render());
}

#[test]
fn nan_parameter_fires_e052_and_suppresses_range_pass() {
    let dense = Dense::from_parts(
        Tensor::from_vec(vec![f32::NAN], &[1, 1]),
        Tensor::zeros(&[1]),
    );
    let net = Network::new(vec![Op::dense(dense)]);
    let artifact = PipelineArtifact::new(
        "mutated nan weight",
        NodeModel::new(vec![net], (0.0, 1.0)),
        vec![1, 1],
        1.0,
        NodeSolveOptions::new(1e-2).with_fp16_storage(),
        None,
    );
    let ds = lint_precision(&artifact);
    assert!(ds.has_code(Code::E052PrecNonFiniteParam), "{}", ds.render());
    // A NaN bound would poison every downstream magnitude; the range pass
    // must bail rather than emit nonsense overflow reports.
    assert!(!ds.has_code(Code::E050PrecOpOverflow));
    assert!(!ds.has_code(Code::E051PrecCombineOverflow));
}

#[test]
fn single_element_groups_fire_e053() {
    // GroupNorm(2, 2) over a [1, 2, 1, 1] state: one element per group,
    // zero variance to normalize by.
    let net = Network::new(vec![Op::group_norm(GroupNorm::new(2, 2))]);
    let artifact = PipelineArtifact::new(
        "mutated degenerate groups",
        NodeModel::new(vec![net], (0.0, 1.0)),
        vec![1, 2, 1, 1],
        1.0,
        NodeSolveOptions::new(1e-2),
        None,
    );
    let ds = lint_precision(&artifact);
    assert!(
        ds.has_code(Code::E053PrecDegenerateGroupNorm),
        "{}",
        ds.render()
    );
}

#[test]
fn overflowing_state_fires_checkpoint_and_replay_codes() {
    // An input bound already past F16::MAX: the fp16 ACA checkpoint that
    // stores it (E054) and the replay that re-expands it (E056) both
    // fail, independently of the (also overflowing) op outputs.
    let net = Network::new(vec![Op::relu()]);
    let artifact = PipelineArtifact::new(
        "mutated checkpoint overflow",
        NodeModel::new(vec![net], (0.0, 1.0)),
        vec![1, 2],
        7.0e4,
        NodeSolveOptions::new(1e-2).with_fp16_storage(),
        None,
    );
    let ds = lint_precision(&artifact);
    assert!(
        ds.has_code(Code::E054PrecCheckpointOverflow),
        "{}",
        ds.render()
    );
    assert!(
        ds.has_code(Code::E056PrecAdjointReplayOverflow),
        "{}",
        ds.render()
    );
}

#[test]
fn mapping_exceeding_sram_residency_fires_e060() {
    // Mutation: shrink the per-core weight SRAM to 512 bytes; the conv
    // stacks mapped onto each core can no longer stay resident.
    let mut cfg = HwConfig::config_a();
    cfg.weight_buffer_bytes = 512;
    let ds = lint_consistency(&image_artifact(cfg));
    assert!(ds.has_code(Code::E060XArtMapResidency), "{}", ds.render());
    assert!(!ds.has_code(Code::E061XArtAcaBuffer), "{}", ds.render());
}

#[test]
fn undersized_aca_checkpoint_buffer_fires_e061() {
    // Mutation: shrink the training buffer to 1 KiB; the checkpoint set
    // plus one recompute interval's activation cache cannot fit.
    let mut cfg = HwConfig::config_a();
    cfg.training_buffer_bytes = 1024;
    let ds = lint_consistency(&image_artifact(cfg));
    assert!(ds.has_code(Code::E061XArtAcaBuffer), "{}", ds.render());
    assert!(!ds.has_code(Code::E060XArtMapResidency), "{}", ds.render());
}

#[test]
fn controller_bound_mutations_fire_e062() {
    // dt_min raised past the nominal stepsize: the controller can never
    // shrink below its own starting point.
    let mut inverted = image_artifact(HwConfig::config_a());
    inverted.solver.dt_min = 0.5;
    let ds = lint_consistency(&inverted);
    assert!(
        ds.has_code(Code::E062XArtControllerBounds),
        "{}",
        ds.render()
    );

    // Trial budget too small to ever walk from default_dt down to dt_min.
    let mut starved = image_artifact(HwConfig::config_a());
    starved.solver.max_trials_per_point = 4;
    let ds = lint_consistency(&starved);
    assert!(
        ds.has_code(Code::E062XArtControllerBounds),
        "{}",
        ds.render()
    );
}

/// A healthy 8-item tile split (64 elements per tile) for the affine
/// mutation seeds below: each mutation breaks exactly one obligation.
fn tile_split() -> KernelAccessSummary {
    KernelAccessSummary {
        kernel: "mutated.tile_split",
        items: 8,
        grain: 1,
        flops_per_item: 32 * 1024,
        regions: vec![RegionDecl::output("y", 8 * 64)],
        accesses: vec![StridedAccess::contiguous("y", AccessKind::Write, 64)],
        scratch: vec![],
    }
}

#[test]
fn affine_baseline_tile_split_proves_clean() {
    let ds = affine::lint_summary(&tile_split());
    assert!(ds.is_empty(), "{}", ds.render());
}

#[test]
fn off_by_one_stride_fires_e080_statically() {
    // Mutation: each tile writes one element too many, reaching into the
    // next item's tile. The congruence check (d0 = 1, m0 = 64 <= count-1)
    // catches the collision without running any schedule.
    let mut s = tile_split();
    s.accesses[0].count = 65;
    let ds = affine::lint_summary(&s);
    assert!(ds.has_code(Code::E080AffineLaneOverlap), "{}", ds.render());
    assert!(
        !ds.has_code(Code::E082AffineScratchAlias),
        "{}",
        ds.render()
    );
    // The brute-force oracle agrees the defect is real at some envelope
    // point (two lanes, one item each per chunk).
    let bf = affine::brute_force_region(&s, "y", 2, 1);
    assert!(bf.overlap);
}

#[test]
fn overlapping_tiles_fire_e080_statically() {
    // Mutation: a second write access shifted half a tile — classic
    // overlapping-tile decomposition bug.
    let mut s = tile_split();
    s.accesses.push(StridedAccess {
        region: "y",
        kind: AccessKind::Write,
        offset: 32,
        stride_per_item: 64,
        elem_stride: 1,
        count: 32,
    });
    let ds = affine::lint_summary(&s);
    assert!(ds.has_code(Code::E080AffineLaneOverlap), "{}", ds.render());
    assert!(!ds.has_code(Code::E081AffineCoverage), "{}", ds.render());
}

#[test]
fn coverage_gap_fires_e081_not_e080() {
    // Mutation: each tile writes one element too few. The writes stay
    // disjoint — only the counting obligation fails.
    let mut s = tile_split();
    s.accesses[0].count = 63;
    let ds = affine::lint_summary(&s);
    assert!(ds.has_code(Code::E081AffineCoverage), "{}", ds.render());
    assert!(!ds.has_code(Code::E080AffineLaneOverlap), "{}", ds.render());
    let bf = affine::brute_force_region(&s, "y", 4, 1);
    assert_eq!(bf.uncovered, 8);
}

#[test]
fn declared_slack_downgrades_gap_to_w080() {
    // Same under-fill, but the region declares the 8-element tail as
    // intentional slack: advisory only, no error.
    let mut s = tile_split();
    s.accesses[0].count = 63;
    s.regions[0].elems = 8 * 63 + 8;
    s.regions[0].slack_elems = 8;
    let ds = affine::lint_summary(&s);
    assert!(
        ds.has_code(Code::W080AffineCoverageSlack),
        "{}",
        ds.render()
    );
    assert_eq!(ds.error_count(), 0, "{}", ds.render());
}

#[test]
fn scratch_carved_from_output_fires_e082() {
    // Mutation: the scratch tile is carved out of the live output instead
    // of a thread-local arena.
    let mut s = tile_split();
    s.scratch.push(ScratchDecl {
        name: "tile",
        elems: 16,
        source: ScratchSource::SubsliceOf {
            region: "y",
            offset_elems: 0,
        },
    });
    let ds = affine::lint_summary(&s);
    assert!(ds.has_code(Code::E082AffineScratchAlias), "{}", ds.render());
    assert!(!ds.has_code(Code::E080AffineLaneOverlap), "{}", ds.render());
}

#[test]
fn fabricated_bench_speedup_fires_w084() {
    // Mutation: a 40x speedup claim on a 4-core host. The roofline tops
    // out near linear, so the deviation gate must trip — through the real
    // parser, not a hand-built struct.
    let json = r#"{
  "schema": "enode-bench-kernels/v1",
  "threads_high": 4,
  "host_cpus": 4,
  "kernels": [
    { "name": "conv2d_forward_b8", "secs_low": 1.0e-3, "secs_high": 2.5e-5, "speedup": 40.0 }
  ]
}"#;
    let b = cost::parse_baseline(json).expect("crafted baseline must parse");
    let ds = cost::cross_check(&cost::RooflineModel::EDGE, &b);
    assert!(ds.has_code(Code::W084CostModelDeviation), "{}", ds.render());
    assert!(!ds.has_code(Code::W085CostFutileSplit), "{}", ds.render());
}

/// Lints a mutated policy through the one serving-policy pass against
/// the committed cost table.
fn lint_policy(p: &ServeConfig) -> enode_analysis::Diagnostics {
    let table = schedcheck::shipped_table().expect("committed table parses");
    schedcheck::lint_config(p, &table)
}

/// Every diagnostic of a run as `code` or `code(class)`, in order.
fn verdicts(ds: &enode_analysis::Diagnostics) -> Vec<String> {
    ds.items()
        .iter()
        .map(|d| match d.notes.iter().find(|(k, _)| k == "class") {
            Some((_, class)) => format!("{}({class})", d.code.as_str()),
            None => d.code.as_str().to_string(),
        })
        .collect()
}

#[test]
fn grown_ingress_queue_fires_e090_at_strict() {
    // Mutation: grow the ingress queue 4x. A Strict request admitted at
    // the deep end waits 8 tier-0 batches (8 × 6481µs) before the window
    // and its own batch, past the 50ms floor at every tier; the cheaper
    // classes still fit.
    let mut p = ServeConfig::edge_default();
    p.queue_capacity = 64;
    let ds = lint_policy(&p);
    assert_eq!(verdicts(&ds), ["E090(strict)"], "{}", ds.render());
}

#[test]
fn held_batch_window_fires_e090_at_strict() {
    // Mutation: hold an underfull batch for 40ms. Behind 2 Strict
    // tier-0 batches of backlog even the cheapest tier's batch ends
    // past the 50ms floor; nothing else may fire.
    let mut p = ServeConfig::edge_default();
    p.batch_window_us = 40_000;
    let ds = lint_policy(&p);
    assert_eq!(verdicts(&ds), ["E090(strict)"], "{}", ds.render());
}

#[test]
fn mid_sized_queue_fires_w090_naming_the_first_fitting_tier() {
    // Mutation: a queue of 56. Strict worst cases are 53848 / 49932 /
    // 47816µs against the 50ms floor: tier 0 misses, tiers 1 and 2 fit.
    // Not an error — but every deadline-floor Strict request is served
    // degraded, and W090 says so, naming tier 1.
    let mut p = ServeConfig::edge_default();
    p.queue_capacity = 56;
    let ds = lint_policy(&p);
    assert_eq!(verdicts(&ds), ["W090(strict)"], "{}", ds.render());
    assert!(
        ds.items()[0].notes.contains(&("tier".into(), "1".into())),
        "{}",
        ds.render()
    );
}

#[test]
fn inverted_degradation_ladder_fires_e072() {
    // Mutation: the second tier loosens less than the first, the last
    // one buys more trials — degrading costs more — or tier 0 itself is
    // degraded. The ladder edit
    // also breaks the table's fingerprint, so E093 rides along and stops
    // every table-priced verdict.
    let mut tighter = ServeConfig::edge_default();
    tighter.tiers[1].tolerance_scale = 0.5;
    let mut dearer = ServeConfig::edge_default();
    dearer.tiers[2].max_trials = 128;
    let mut degraded_top = ServeConfig::edge_default();
    degraded_top.tiers[0].tolerance_scale = 4.0;
    for p in [tighter, dearer, degraded_top] {
        let ds = lint_policy(&p);
        assert_eq!(verdicts(&ds), ["E072", "E093"], "{}", ds.render());
    }
}

#[test]
fn unreachable_or_uncovered_tier_fires_w071() {
    // Mutation: tier 2's slack threshold equal to tier 1's (selection
    // never reaches it, and the last tier now demands slack too), or a
    // last tier demanding 500µs of slack (the thinnest-slack band falls
    // through to no designed tier).
    let mut unreachable = ServeConfig::edge_default();
    unreachable.tiers[2].min_slack_us = unreachable.tiers[1].min_slack_us;
    let ds = lint_policy(&unreachable);
    assert_eq!(verdicts(&ds), ["W071", "W071", "E093"], "{}", ds.render());
    let mut uncovered = ServeConfig::edge_default();
    uncovered.tiers[2].min_slack_us = 500;
    let ds = lint_policy(&uncovered);
    assert_eq!(verdicts(&ds), ["W071", "E093"], "{}", ds.render());
}

#[test]
fn shrunken_deadline_fires_e090_per_class() {
    // Mutation: tighten the admitted deadline floor to 1ms. Even the
    // cheapest tier's backward-demand worst case (backlog + window +
    // service) exceeds it for every tolerance class, so the WCRT pass
    // must prove infeasibility three times — and nothing else: the
    // deadline is envelope metadata, so the ladder fingerprint still
    // matches and no table-provenance code may fire.
    let table = schedcheck::shipped_table().expect("committed table parses");
    let mut p = ServeConfig::edge_default();
    p.min_deadline_us = 1_000;
    let ds = schedcheck::lint_config(&p, &table);
    assert!(
        ds.has_code(Code::E090SchedDeadlineInfeasible),
        "{}",
        ds.render()
    );
    assert_eq!(
        ds.items()
            .iter()
            .filter(|d| d.code == Code::E090SchedDeadlineInfeasible)
            .count(),
        3,
        "one infeasibility proof per tolerance class:\n{}",
        ds.render()
    );
    assert!(!ds.has_code(Code::E093SchedTableVersion), "{}", ds.render());
    assert!(
        !ds.has_code(Code::E091SchedLadderNoRecovery),
        "{}",
        ds.render()
    );
    assert!(!ds.has_code(Code::E092SchedEnergyBudget), "{}", ds.render());
}

#[test]
fn inverted_ladder_energy_fires_w091() {
    // Mutation: inflate every tier-1 sweep row's energy tenfold in the
    // *parsed table* (not the policy — a ladder edit would change the
    // fingerprint and short-circuit into E093). Degrading to tier 1 now
    // costs more energy than serving at full quality: the per-request
    // monotonicity check must flag it as a warning, while the within-tier
    // batch monotonicity (E095) is preserved by the uniform scaling.
    let mut table = schedcheck::shipped_table().expect("committed table parses");
    for row in &mut table.rows {
        if row.policy == "edge_default" && row.tier == 1 {
            row.energy_uj *= 10;
        }
    }
    let ds = schedcheck::lint_config(&ServeConfig::edge_default(), &table);
    assert!(
        ds.has_code(Code::W091SchedLadderEnergyNonMonotone),
        "{}",
        ds.render()
    );
    assert!(
        !ds.has_code(Code::E095SchedTableNonMonotone),
        "{}",
        ds.render()
    );
    assert_eq!(
        ds.error_count(),
        0,
        "W091 must not fail the run:\n{}",
        ds.render()
    );
}

#[test]
fn stale_table_version_fires_e093_and_short_circuits() {
    // Mutation: a table generated by a different table-format generation.
    // Every schedulability verdict derived from it would be unsound, so
    // E093 must fire alone — no WCRT, energy or monotonicity code may
    // piggyback on stale data.
    let mut table = schedcheck::shipped_table().expect("committed table parses");
    table.version = "enode-cost-table/v2".to_string();
    let ds = schedcheck::lint_config(&ServeConfig::edge_default(), &table);
    assert!(ds.has_code(Code::E093SchedTableVersion), "{}", ds.render());
    assert_eq!(
        ds.len(),
        1,
        "a stale table must short-circuit all downstream verdicts:\n{}",
        ds.render()
    );
}

#[test]
fn infeasible_design_load_fires_w070() {
    // Mutation: a design rate no single worker can sustain — the peak is
    // 8 requests per 6481µs Strict tier-0 batch, 1234.4 req/s. At that
    // rate full-quality power also blows the 1200mW budget, so E096
    // rides along.
    let mut p = ServeConfig::edge_default();
    p.design_rate_rps = 10_000.0;
    let ds = lint_policy(&p);
    assert_eq!(verdicts(&ds), ["E096", "W070"], "{}", ds.render());
}

// ---- E10x concurrency-skeleton mutation seeds -------------------------
//
// Each seed doctors the *declared* skeleton of the shipped worker pool or
// serving runtime — the code itself is untouched and stays correct; the
// declaration is mutated into the bug the prover must catch — and asserts
// exactly the pinned code fires with no collateral E10x noise.

use enode_analysis::synccheck;
use enode_serve::skeleton::registered_skeletons;
use enode_tensor::syncmodel::{pool_skeleton, PathDecl, PathRole, Step};

/// Error-severity E10x codes present in a run, as stable strings.
fn e10x_errors(ds: &enode_analysis::Diagnostics) -> Vec<&'static str> {
    let mut codes: Vec<&'static str> = ds
        .items()
        .iter()
        .filter(|d| d.severity() == Severity::Error && d.code.as_str().starts_with("E10"))
        .map(|d| d.code.as_str())
        .collect();
    codes.dedup();
    codes
}

#[test]
fn flipped_lock_order_fires_exactly_e100() {
    // Mutation: a path that nests pool.submit *inside* pool.slot, the
    // reverse of broadcast's declared submit-then-slot order. Two threads
    // running the two paths deadlock; the ancestors fixpoint must find
    // the cycle, and nothing else may fire.
    let mut sk = pool_skeleton();
    sk.paths.push(PathDecl {
        id: "pool.mutated_inverted",
        role: PathRole::Normal,
        runs_on: None,
        steps: vec![
            Step::Acquire("pool.slot"),
            Step::Acquire("pool.submit"),
            Step::Release("pool.submit"),
            Step::Release("pool.slot"),
        ],
    });
    let ds = synccheck::lint_skeletons(std::slice::from_ref(&sk));
    assert_eq!(e10x_errors(&ds), ["E100"], "{}", ds.render());
}

#[test]
fn dropped_notify_fires_exactly_e101() {
    // Mutation: the worker loop no longer notifies pool.done after
    // finishing its slice. broadcast's wait on `pending == 0` would park
    // forever (the wait has no timeout fallback).
    let mut sk = pool_skeleton();
    let worker = sk
        .paths
        .iter_mut()
        .find(|p| p.id == "pool.worker_loop")
        .expect("shipped path");
    worker.steps.retain(|s| *s != Step::Notify("pool.done"));
    let ds = synccheck::lint_skeletons(std::slice::from_ref(&sk));
    assert_eq!(e10x_errors(&ds), ["E101"], "{}", ds.render());
}

#[test]
fn skipped_join_fires_exactly_e102() {
    // Mutation: pool shutdown wakes the workers but never joins them —
    // detached threads outlive the pool and race its teardown.
    let mut sk = pool_skeleton();
    let drop_path = sk
        .paths
        .iter_mut()
        .find(|p| p.id == "pool.drop")
        .expect("shipped path");
    drop_path.steps.retain(|s| *s != Step::Join("pool.worker"));
    let ds = synccheck::lint_skeletons(std::slice::from_ref(&sk));
    assert_eq!(e10x_errors(&ds), ["E102"], "{}", ds.render());
}

#[test]
fn fabricated_trace_edge_fires_e104() {
    // Mutation on the *observation* side: a synthetic trace claims the
    // runtime acquired server.state while holding ticket.slot — an edge
    // outside the declared order's transitive closure.
    let regs = registered_skeletons();
    let mut report = enode_serve::synctrace::TraceReport::default();
    report.locks.insert("ticket.slot".into());
    report.locks.insert("server.state".into());
    report
        .edges
        .insert(("ticket.slot".into(), "server.state".into()));
    let ds = synccheck::lint_trace(&regs, &report);
    assert_eq!(e10x_errors(&ds), ["E104"], "{}", ds.render());
}

#[test]
fn wait_starving_all_notifiers_fires_exactly_e106() {
    // Mutation: the worker loop (sole notifier of pool.done) now also
    // acquires pool.submit — which broadcast holds across its wait on
    // pool.done. The waiter starves its only waker.
    let mut sk = pool_skeleton();
    let worker = sk
        .paths
        .iter_mut()
        .find(|p| p.id == "pool.worker_loop")
        .expect("shipped path");
    worker.steps = vec![
        Step::Acquire("pool.submit"),
        Step::Acquire("pool.slot"),
        Step::Wait("pool.work"),
        Step::Write("pool.done"),
        Step::Notify("pool.done"),
        Step::Release("pool.slot"),
        Step::Release("pool.submit"),
    ];
    let ds = synccheck::lint_skeletons(std::slice::from_ref(&sk));
    assert!(
        ds.has_code(Code::E106SyncWaitHoldsNotifierLock),
        "{}",
        ds.render()
    );
    // The added submit-inside-slot-free nesting keeps one global order,
    // so the lock-order proof itself must stay clean.
    assert!(
        !ds.has_code(Code::E100SyncLockOrderCycle),
        "{}",
        ds.render()
    );
}

// ---- E11x fleet registry & residency mutation seeds -------------------
//
// Each seed doctors the shipped fleet config or registry snapshot — a
// deployment someone *could* write — and asserts exactly the pinned
// fleet code fires through the public `lint_fleet` entry point.

use enode_analysis::fleetcheck;
use enode_hw::config::LayerDims;
use enode_serve::registry::Registry;
use enode_serve::FleetConfig;

/// Error-severity E11x codes present in a run, as stable strings.
fn e11x_errors(ds: &enode_analysis::Diagnostics) -> Vec<&'static str> {
    let mut codes: Vec<&'static str> = ds
        .items()
        .iter()
        .filter(|d| d.severity() == Severity::Error && d.code.as_str().starts_with("E11"))
        .map(|d| d.code.as_str())
        .collect();
    codes.dedup();
    codes
}

#[test]
fn oversized_published_model_fires_exactly_e110() {
    // Mutation: republish the edge model with 8 convs of 512 channels —
    // ~9.4MB per core against the 2.25MB weight-SRAM envelope. Both edge
    // instances fail to warm; nothing else may fire.
    let mut cfg = FleetConfig::shipped();
    let reg = Registry::from_snapshot(cfg.registry.clone());
    reg.publish_with_profile(
        "edge_default",
        ServeConfig::edge_default(),
        LayerDims::new(64, 64, 512),
        8,
    );
    cfg.registry = (*reg.snapshot()).clone();
    let table = schedcheck::shipped_table().expect("committed table parses");
    let ds = fleetcheck::lint_fleet(&cfg, &table);
    assert_eq!(e11x_errors(&ds), ["E110"], "{}", ds.render());
    assert_eq!(
        ds.items()
            .iter()
            .filter(|d| d.code == Code::E110FleetResidencyOverflow)
            .count(),
        2,
        "one overflow proof per edge instance:\n{}",
        ds.render()
    );
}

#[test]
fn single_replica_fleet_fires_exactly_e111_on_loss() {
    // Mutation: shrink the fleet to one instance per model. Losing
    // either leaves its tenants' load with nowhere to rebalance.
    let mut cfg = FleetConfig::shipped();
    cfg.instances = 2;
    cfg.assignment = vec!["edge_default".into(), "streaming_keyword".into()];
    let table = schedcheck::shipped_table().expect("committed table parses");
    let ds = fleetcheck::lint_fleet(&cfg, &table);
    assert_eq!(e11x_errors(&ds), ["E111"], "{}", ds.render());
    // Every loss verdict names the unservable model; the halved fleet
    // also (correctly) oversubscribes the shipped quotas, so W111 rides
    // along as a warning but no other *error* may.
    assert!(
        ds.items()
            .iter()
            .filter(|d| d.code == Code::E111FleetRebalanceInfeasible)
            .all(|d| d.message.contains("nowhere to rebalance")),
        "{}",
        ds.render()
    );
}

#[test]
fn sub_window_sla_fires_exactly_e112() {
    // Mutation: a 100µs SLA on the edge model, whose batch window alone
    // is 2000µs — no degradation tier can cover it.
    let mut cfg = FleetConfig::shipped();
    for b in &mut cfg.registry.tenants {
        if b.tenant == "vision_a" {
            b.sla_deadline_us = 100;
        }
    }
    let table = schedcheck::shipped_table().expect("committed table parses");
    let ds = fleetcheck::lint_fleet(&cfg, &table);
    assert_eq!(e11x_errors(&ds), ["E112"], "{}", ds.render());
}

#[test]
fn unpriced_republished_policy_fires_e093_instead_of_skipping_e112() {
    // Mutation: republish the edge model with tier-2 `max_trials` 8 (a
    // ladder the committed table was not swept for) and give vision_a a
    // 100µs SLA. schedcheck lints only the shipped policies, so the table
    // mismatch must surface here as E093 rather than let E112 skip the
    // tenant in silence.
    let mut cfg = FleetConfig::shipped();
    let reg = Registry::from_snapshot(cfg.registry.clone());
    let mut policy = ServeConfig::edge_default();
    policy.tiers[2].max_trials = 8;
    reg.publish("edge_default", policy);
    cfg.registry = (*reg.snapshot()).clone();
    for b in &mut cfg.registry.tenants {
        if b.tenant == "vision_a" {
            b.sla_deadline_us = 100;
        }
    }
    let table = schedcheck::shipped_table().expect("committed table parses");
    let ds = fleetcheck::lint_fleet(&cfg, &table);
    let e093: Vec<_> = ds
        .items()
        .iter()
        .filter(|d| d.code == Code::E093SchedTableVersion)
        .collect();
    assert_eq!(e093.len(), 1, "once per live model:\n{}", ds.render());
    assert!(e093[0].subject.contains("edge_default"), "{}", ds.render());
}

#[test]
fn tampered_registry_fingerprint_fires_exactly_e113() {
    // Mutation: hand-edit a published fingerprint. Every downstream
    // verdict would read a policy that is not the one published, so
    // provenance must fire alone and short-circuit — the also-planted
    // SLA skew stays unreported until the registry is trustworthy.
    let mut cfg = FleetConfig::shipped();
    cfg.registry.models[0].fingerprint = "deadbeefdeadbeef".to_string();
    cfg.registry.tenants[0].sla_deadline_us = 100;
    let table = schedcheck::shipped_table().expect("committed table parses");
    let ds = fleetcheck::lint_fleet(&cfg, &table);
    assert_eq!(e11x_errors(&ds), ["E113"], "{}", ds.render());
}
