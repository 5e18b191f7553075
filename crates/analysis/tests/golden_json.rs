//! Golden-file test: pins the `enode-lint --json` line format (code,
//! severity, artifact, message, notes) byte-for-byte against a checked-in
//! corpus, so the JSON output is a stable machine interface and a change
//! to any family's wording shows up as a diff here.
//!
//! To regenerate after an *intentional* format change:
//!
//! ```text
//! BLESS_GOLDEN=1 cargo test -p enode-analysis --test golden_json
//! ```

use enode_analysis::consistency::lint_consistency;
use enode_analysis::precision::lint_precision;
use enode_analysis::shape::lint_network;
use enode_analysis::{cost, fleetcheck, lint_everything, schedcheck, PipelineArtifact};
use enode_hw::config::HwConfig;
use enode_hw::config::LayerDims;
use enode_node::inference::NodeSolveOptions;
use enode_node::model::NodeModel;
use enode_serve::registry::Registry;
use enode_serve::FleetConfig;
use enode_serve::ServeConfig;
use enode_tensor::conv::Conv2d;
use enode_tensor::dense::Dense;
use enode_tensor::network::{Network, Op};
use enode_tensor::norm::GroupNorm;
use enode_tensor::Tensor;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/lint_json.golden");

fn scalar_dense(w: f32) -> Network {
    Network::new(vec![Op::dense(Dense::from_parts(
        Tensor::from_vec(vec![w], &[1, 1]),
        Tensor::zeros(&[1]),
    ))])
}

/// Every fixture is deterministic (seeded weights or explicit parts), so
/// the rendered corpus is reproducible down to the formatted floats.
fn corpus() -> String {
    let mut out = String::new();
    let mut section = |name: &str, json: String| {
        out.push_str("## ");
        out.push_str(name);
        out.push('\n');
        out.push_str(&json);
        out.push('\n');
    };

    // The shipped artifacts are the empty baseline: no JSON lines at all.
    section("shipped artifacts", lint_everything().render_json());

    // E020: channel mismatch, caught by the op that rejects its input.
    section(
        "E020 channel mismatch",
        lint_network(
            "golden/bad_channels",
            &Network::new(vec![Op::conv2d(Conv2d::new_seeded(3, 8, 3, 1))]),
            &[1, 4, 8, 8],
            1.0,
        )
        .render_json(),
    );

    // E020: rank mismatch (dense op on an NCHW state).
    section(
        "E020 rank mismatch",
        lint_network(
            "golden/bad_rank",
            &Network::new(vec![Op::dense(Dense::new_seeded(4, 4, 2))]),
            &[1, 4, 8, 8],
            1.0,
        )
        .render_json(),
    );

    // E021: f is not an endomap of the state space.
    section(
        "E021 shape not preserved",
        lint_network(
            "golden/grows_state",
            &Network::new(vec![Op::dense(Dense::new_seeded(2, 5, 3))]),
            &[1, 2],
            1.0,
        )
        .render_json(),
    );

    // E022 / W020: FP16 range, with hand-checkable worst cases
    // (|w|*bound = 4e4*2 = 80000 > 65504; 3.3e4*1 is within 2x).
    section(
        "E022 fp16 overflow",
        lint_network("golden/overflows", &scalar_dense(4.0e4), &[1, 1], 2.0).render_json(),
    );
    section(
        "W020 fp16 near overflow",
        lint_network("golden/near_limit", &scalar_dense(3.3e4), &[1, 1], 1.0).render_json(),
    );

    // E050 + E053: precision family over a lowered pipeline.
    let mut gn = GroupNorm::new(4, 2);
    for g in gn.gamma_mut().data_mut() {
        *g = 1.0e4;
    }
    section(
        "E050 groupnorm gain overflow",
        lint_precision(&PipelineArtifact::new(
            "golden/hot_groupnorm",
            NodeModel::new(
                vec![Network::new(vec![
                    Op::conv2d(Conv2d::new_seeded(4, 4, 3, 9)),
                    Op::group_norm(gn),
                ])],
                (0.0, 1.0),
            ),
            vec![1, 4, 16, 16],
            1.0,
            NodeSolveOptions::new(1e-2).with_fp16_storage(),
            None,
        ))
        .render_json(),
    );

    // E055 + W051 + W052: fp16 state at an unreachable tolerance.
    section(
        "E055 subnormal tolerance",
        lint_precision(&PipelineArtifact::new(
            "golden/tight_tolerance",
            NodeModel::dynamic_system(2, 16, 2, 42),
            vec![1, 2],
            4.0,
            NodeSolveOptions::new(1e-6).with_fp16_storage(),
            None,
        ))
        .render_json(),
    );

    // W053 (with W050/W051/W052): fp16 checkpoints every 8 steps at a
    // loose tolerance; the replayed quantization outgrows 0.1x tolerance.
    section(
        "W053 replayed checkpoint quantization",
        lint_precision(&PipelineArtifact::new(
            "golden/long_recompute",
            NodeModel::dynamic_system(2, 16, 2, 42),
            vec![1, 2],
            4.0,
            NodeSolveOptions::new(2e-4)
                .with_fp16_storage()
                .with_checkpoint_stride(8),
            None,
        ))
        .render_json(),
    );

    // E060 + E061 + E062: one starved hardware config trips all three
    // cross-artifact checks at once.
    let mut cfg = HwConfig::config_a();
    cfg.weight_buffer_bytes = 512;
    cfg.training_buffer_bytes = 1024;
    let mut starved = PipelineArtifact::new(
        "golden/starved_hw",
        NodeModel::image_classifier(4, 2, 2, 10, 9),
        vec![1, 4, 16, 16],
        1.0,
        NodeSolveOptions::new(1e-6),
        Some(cfg),
    );
    starved.solver.dt_min = 0.5;
    section(
        "E060-E062 starved hardware",
        lint_consistency(&starved).render_json(),
    );

    // W084: a fabricated 40x measurement against the roofline; W085: the
    // committed baseline's machine-checked 1-core caveat.
    let fabricated = cost::parse_baseline(
        "{\n\"schema\": \"enode-bench-kernels/v1\",\n\"threads_high\": 4,\n\
         \"host_cpus\": 4,\n\"kernels\": [ { \"name\": \"conv2d_forward_b8\", \"speedup\": 40.0 } ]\n}",
    )
    .expect("fabricated baseline parses");
    section(
        "W084 fabricated speedup",
        cost::cross_check(&cost::RooflineModel::EDGE, &fabricated).render_json(),
    );
    section(
        "W085 host caveat",
        cost::lint_shipped_baseline().render_json(),
    );

    // E090: a 1ms deadline floor no tier of the committed cost table can
    // meet — one infeasibility proof per tolerance class. E092: a 100µJ
    // per-request budget the full-quality tier-0 dispatch (1187.5µJ)
    // blows through, while sustained power stays inside its own budget.
    let table = schedcheck::shipped_table().expect("committed table parses");
    let mut tight = ServeConfig::edge_default();
    tight.min_deadline_us = 1_000;
    section(
        "E090 infeasible deadline floor",
        schedcheck::lint_config(&tight, &table).render_json(),
    );
    let mut hot = ServeConfig::edge_default();
    hot.energy_budget_uj = 100;
    section(
        "E092 energy budget exceeded",
        schedcheck::lint_config(&hot, &table).render_json(),
    );

    // E110 / E111 / E113: the fleet prover over the shipped registry with
    // one publish, the edge tenants' rates or one fingerprint doctored
    // (E110 and E113 share their seeds with tests/mutations.rs).
    let table = schedcheck::shipped_table().expect("committed table parses");
    section(
        "E110 oversized publish",
        fleetcheck::lint_fleet(&oversized_fleet(), &table).render_json(),
    );
    section(
        "E111 post-loss overload",
        fleetcheck::lint_fleet(&overloaded_fleet(), &table).render_json(),
    );
    section(
        "E113 tampered fingerprint",
        fleetcheck::lint_fleet(&tampered_fleet(), &table).render_json(),
    );

    out
}

/// The shipped fleet with the edge model republished at 8 convs of 512
/// channels — ~9.4MB/core against the 2.25MB envelope; the E110 seed.
fn oversized_fleet() -> FleetConfig {
    let mut cfg = FleetConfig::shipped();
    let reg = Registry::from_snapshot(cfg.registry.clone());
    reg.publish_with_profile(
        "edge_default",
        ServeConfig::edge_default(),
        LayerDims::new(64, 64, 512),
        8,
    );
    cfg.registry = (*reg.snapshot()).clone();
    cfg
}

/// The shipped fleet with each edge tenant offering 150 req/s: 150 per
/// instance nominally (design 200), 300 on the survivor of either edge
/// instance's loss; the E111 overload seed.
fn overloaded_fleet() -> FleetConfig {
    let mut cfg = FleetConfig::shipped();
    for b in &mut cfg.registry.tenants {
        if b.model == "edge_default" {
            b.rate_rps = 150.0;
        }
    }
    cfg
}

/// The shipped fleet with one published fingerprint hand-edited — the
/// E113 provenance seed.
fn tampered_fleet() -> FleetConfig {
    let mut cfg = FleetConfig::shipped();
    cfg.registry.models[0].fingerprint = "deadbeefdeadbeef".to_string();
    cfg
}

#[test]
fn json_output_matches_golden_corpus() {
    let rendered = corpus();
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("tests/golden/lint_json.golden missing; run with BLESS_GOLDEN=1 to create");
    assert_eq!(
        rendered, golden,
        "lint --json output drifted from the golden corpus; if the change \
         is intentional, re-bless with BLESS_GOLDEN=1"
    );
}

/// The E02x wording shipped with the first lint release; these exact
/// strings are its compatibility contract (golden drift in *other*
/// families is re-blessable, these messages are not).
#[test]
fn e02x_messages_are_byte_stable() {
    let ds = lint_network(
        "golden/bad_channels",
        &Network::new(vec![Op::conv2d(Conv2d::new_seeded(3, 8, 3, 1))]),
        &[1, 4, 8, 8],
        1.0,
    );
    assert!(
        ds.render_json().contains(
            "\"code\":\"E020\",\"severity\":\"error\",\"artifact\":\"golden/bad_channels\",\
         \"message\":\"op 0 rejects its input: Conv2d expects 3 input channels, got 4\""
        ),
        "{}",
        ds.render_json()
    );

    let ds = lint_network(
        "golden/grows_state",
        &Network::new(vec![Op::dense(Dense::new_seeded(2, 5, 3))]),
        &[1, 2],
        1.0,
    );
    assert!(
        ds.render_json().contains(
            "\"code\":\"E021\",\"severity\":\"error\",\"artifact\":\"golden/grows_state\",\
         \"message\":\"f maps [1, 2] to [1, 5]; dh/dt needs matching shapes\""
        ),
        "{}",
        ds.render_json()
    );

    let ds = lint_network("golden/overflows", &scalar_dense(4.0e4), &[1, 1], 2.0);
    assert!(
        ds.render_json().contains(
            "\"code\":\"E022\",\"severity\":\"error\",\"artifact\":\"golden/overflows\",\
         \"message\":\"worst-case magnitude 80000.0 exceeds F16::MAX = 65504\""
        ),
        "{}",
        ds.render_json()
    );

    let ds = lint_network("golden/near_limit", &scalar_dense(3.3e4), &[1, 1], 1.0);
    assert!(
        ds.render_json().contains(
            "\"code\":\"W020\",\"severity\":\"warning\",\"artifact\":\"golden/near_limit\",\
         \"message\":\"worst-case magnitude 33000.0 is within 2x of F16::MAX\""
        ),
        "{}",
        ds.render_json()
    );
}

/// Same contract for the cost family: the W084 deviation wording (with
/// the model's predicted speedup) is pinned byte-for-byte.
#[test]
fn cost_messages_are_byte_stable() {
    let fabricated = cost::BenchBaseline {
        host_cpus: 4,
        threads_high: 4,
        kernels: vec![cost::MeasuredKernel {
            name: "conv2d_forward_b8".to_string(),
            speedup: 40.0,
            speedup_vs_referent: None,
        }],
    };
    let ds = cost::cross_check(&cost::RooflineModel::EDGE, &fabricated);
    assert!(
        ds.render_json().contains(
            "\"code\":\"W084\",\"severity\":\"warning\",\"artifact\":\"conv2d_forward_b8\",\
         \"message\":\"measured parallel speedup 40.000x deviates from the roofline \
         prediction 3.638x by 11.0x (tolerance 4.0x)\""
        ),
        "{}",
        ds.render_json()
    );
}

/// Same contract for the schedulability family: the E090 infeasibility
/// wording (with the response-time bound's worst-case microseconds) and
/// the E092 energy wording (with the fixed-point half-µJ) are pinned
/// byte-for-byte against the committed `COST_TABLE.json`.
#[test]
fn e09x_messages_are_byte_stable() {
    let table = schedcheck::shipped_table().expect("committed table parses");

    let mut tight = ServeConfig::edge_default();
    tight.min_deadline_us = 1_000;
    let ds = schedcheck::lint_config(&tight, &table);
    assert!(
        ds.render_json().contains(
            "\"code\":\"E090\",\"severity\":\"error\",\"artifact\":\"serve policy edge_default\",\
         \"message\":\"worst-case response 15411\u{b5}s at the cheapest viable tier (2) \
         exceeds the tightest admitted deadline 1000\u{b5}s for strict-class requests: \
         infeasible at every tier\""
        ),
        "{}",
        ds.render_json()
    );

    let mut hot = ServeConfig::edge_default();
    hot.energy_budget_uj = 100;
    let ds = schedcheck::lint_config(&hot, &table);
    assert!(
        ds.render_json().contains(
            "\"code\":\"E092\",\"severity\":\"error\",\"artifact\":\"serve policy edge_default\",\
         \"message\":\"simulated full-quality energy 1187.5\u{b5}J/request (tier 0, batch 8) \
         exceeds the declared per-request budget 100\u{b5}J\""
        ),
        "{}",
        ds.render_json()
    );
    assert!(
        !ds.render_json().contains("\"code\":\"E096\""),
        "sustained power (237.5mW) stays inside the 1200mW budget:\n{}",
        ds.render_json()
    );
}

/// Same contract for the fleet family: the E110 overflow wording (with
/// the exact per-core byte arithmetic) and the E112 coverage wording
/// (with the tenant, SLA and tolerance class) are pinned byte-for-byte
/// against the shipped registry and `COST_TABLE.json`.
#[test]
fn e11x_messages_are_byte_stable() {
    let table = schedcheck::shipped_table().expect("committed table parses");

    let ds = fleetcheck::lint_fleet(&oversized_fleet(), &table);
    assert!(
        ds.render_json().contains(
            "\"code\":\"E110\",\"severity\":\"error\",\"artifact\":\"fleet edge_fleet\",\
         \"message\":\"instance 0 must pin edge_default v2 but core 3's share \
         9437184B overflows the 2359296B weight buffer: the fleet cannot warm up\""
        ),
        "{}",
        ds.render_json()
    );

    let mut skewed = FleetConfig::shipped();
    for b in &mut skewed.registry.tenants {
        if b.tenant == "vision_a" {
            b.sla_deadline_us = 100;
        }
    }
    let ds = fleetcheck::lint_fleet(&skewed, &table);
    assert!(
        ds.render_json().contains(
            "\"code\":\"E112\",\"severity\":\"error\",\"artifact\":\"fleet edge_fleet\",\
         \"message\":\"tenant vision_a's 100\u{b5}s SLA on edge_default is covered by \
         no tier of the ladder at the standard class: every admitted request is shed \
         or served past its deadline\""
        ),
        "{}",
        ds.render_json()
    );
}
