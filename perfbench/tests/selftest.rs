//! Self-tests of the benchmark's own machinery: seeded streams,
//! normalization and percentile arithmetic, the correctness gate, and the
//! traced spans.

use enode_perfbench::gate::{same_bits, Gate};
use enode_perfbench::referent::{Normalizer, SliceStat};
use enode_perfbench::serve::{self, Prepared, ServeSpec};
use enode_perfbench::spans::{Recorder, Span};
use enode_perfbench::stats::OpSamples;
use enode_perfbench::{stats, streams, train};
use enode_serve::Response;
use enode_tensor::Tensor;

/// The dynamic-system workload with a small input pool, so preparing it
/// (one solo solve per pool input) stays quick in debug builds.
fn small_dynsys() -> ServeSpec {
    ServeSpec {
        pool: 4,
        slice_ms: 20,
        ..serve::DYNSYS
    }
}

#[test]
fn a_seed_yields_identical_request_and_training_streams() {
    let dyn_a = streams::digest(&streams::dynsys_inputs(42, 0, 64));
    let dyn_b = streams::digest(&streams::dynsys_inputs(42, 0, 64));
    assert_eq!(dyn_a, dyn_b);
    assert_ne!(dyn_a, streams::digest(&streams::dynsys_inputs(43, 0, 64)));
    assert_ne!(dyn_a, streams::digest(&streams::dynsys_inputs(42, 1, 64)));

    let (img_a, labels_a) = streams::images(42, 0, 16, 16);
    let (img_b, labels_b) = streams::images(42, 0, 16, 16);
    assert_eq!(streams::digest([&img_a]), streams::digest([&img_b]));
    assert_eq!(labels_a, labels_b);
    assert_ne!(
        streams::digest([&img_a]),
        streams::digest([&streams::images(43, 0, 16, 16).0])
    );

    let train_digest = |seed| streams::digest(train::stream(seed).iter().map(|b| &b.x));
    assert_eq!(train_digest(7), train_digest(7));
    assert_ne!(train_digest(7), train_digest(8));

    // Each caller's request sequence depends only on the caller and its
    // request count, never on completion order.
    let spec = serve::DYNSYS;
    let seq = |caller| {
        (0..6)
            .map(|j| spec.request_of(caller, j))
            .collect::<Vec<_>>()
    };
    assert_eq!(seq(3), seq(3));
    assert!(seq(3).iter().all(|&(t, _)| t == 0));
    assert!(seq(12).iter().all(|&(t, _)| t == 1));
    assert_eq!(spec.request_of(12, 0), (1, 4));
    assert_eq!(spec.request_of(12, 1), (1, 12));
}

#[test]
fn normalization_arithmetic_on_hand_made_samples() {
    // Nominal 100 µs. The factor of a slice is nominal over the mean of
    // the observations centred on it (window 5, clipped at the ends).
    let norm = Normalizer::from_parts(100.0, vec![200.0, 100.0, 300.0, 150.0, 50.0, 100.0]);
    assert_eq!(norm.factor(0), 100.0 / 200.0); // mean of 200, 100, 300
    assert_eq!(norm.factor(2), 100.0 / 160.0); // mean of 200, 100, 300, 150, 50
    assert_eq!(norm.factor(5), 100.0 / 100.0); // mean of 150, 50, 100
    assert_eq!(norm.norm(0, 8.0), 4.0);

    // Two slices of 10 ops: 1 s raw at factor 0.5, 2 s raw at factor 1.
    let norm = Normalizer::from_parts(100.0, vec![200.0, 200.0, 200.0, 100.0, 100.0, 100.0]);
    let slices = [
        SliceStat {
            slice: 0,
            ops: 10,
            wall_ns: 1e9,
            cpu_ns: 2e9,
        },
        SliceStat {
            slice: 5,
            ops: 10,
            wall_ns: 2e9,
            cpu_ns: 1e9,
        },
    ];
    assert_eq!(norm.throughput(&slices), 20.0 / 2.5);
    assert_eq!(norm.cpu_ms_per_op(&slices), (1e3 + 1e3) / 20.0);
    assert_eq!(norm.norm_sorted(&[(5, 3.0), (0, 8.0)]), vec![3, 4]);

    // Per-operation samples, grouped by slice, scaled by each slice's
    // factor, rounded to whole ns and sorted.
    let mut ops = OpSamples::new(16);
    ops.begin_slice(0);
    ops.push(8);
    ops.push(30);
    ops.begin_slice(5);
    ops.push(3);
    assert_eq!(
        ops.iter().collect::<Vec<_>>(),
        vec![(0, 8), (0, 30), (5, 3)]
    );
    assert_eq!(ops.sorted(|_| 1.0), &[3, 8, 30]);
    assert_eq!(ops.sorted(|s| norm.factor(s)), &[3, 4, 15]);
}

#[test]
fn a_full_sample_buffer_keeps_a_uniform_subset_with_its_slices() {
    // Every operation's time is its own index, so the kept values name
    // the kept operations.
    let cap = 1000;
    let mut ops = OpSamples::new(cap);
    for slice in 0..10 {
        ops.begin_slice(slice);
        for k in 0..1000 {
            ops.push(slice as u64 * 1000 + k);
        }
    }
    assert_eq!(ops.seen(), 10_000);
    let stride = ops.stride();
    assert!(
        stride >= 8,
        "10000 operations into 1000 slots: stride {stride}"
    );
    let expected = 10_000.0 / stride as f64;
    assert!(ops.len() <= cap && (ops.len() as f64 - expected).abs() < 0.2 * expected);
    let kept: Vec<(usize, u64)> = ops.iter().collect();
    // Every kept sample still sits in the slice it was measured in, in
    // completion order.
    assert!(kept.iter().all(|&(slice, v)| v / 1000 == slice as u64));
    assert!(kept.windows(2).all(|w| w[0].1 < w[1].1));
    // About one in `stride` of each slice's operations is kept, not a
    // fixed position of every batch: each residue modulo 8 appears.
    for slice in 0..10 {
        let n = kept.iter().filter(|&&(s, _)| s == slice).count() as f64;
        let expected = 1000.0 / stride as f64;
        assert!(
            (n - expected).abs() < 0.5 * expected,
            "slice {slice}: {n} kept"
        );
    }
    for residue in 0..8 {
        assert!(kept.iter().any(|&(_, v)| v % 8 == residue));
    }
    // The buffers were sized up front and never grew.
    let bytes = ops.bytes();
    for k in 0..100_000 {
        ops.push(k);
    }
    assert_eq!(ops.bytes(), bytes);
}

#[test]
fn percentile_arithmetic_on_hand_made_samples() {
    // Nearest rank, as `fleet::percentile_us`: ceil(n * p / 100), at
    // least 1.
    let v: Vec<u64> = (1..=100).collect();
    assert_eq!(stats::percentile(&v, 50), Ok(50));
    assert_eq!(stats::percentile(&v, 90), Ok(90));
    // p95 of 100 samples has 5 beyond it: refused.
    assert_eq!(stats::beyond(&v, 95), 5);
    assert!(stats::percentile(&v, 95).is_err());
    // p99 needs at least 1000 samples.
    let big: Vec<u64> = (1..=1000).collect();
    assert_eq!(stats::percentile(&big, 99), Ok(990));
    assert!(stats::percentile(&big[..999], 99).is_err());
    // Ties at the percentile do not count as beyond it.
    let tied = [1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2];
    assert_eq!(stats::beyond(&tied, 2), 0);
    assert!(stats::percentile(&tied, 50).is_err());
    assert_eq!(stats::median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    assert_eq!(stats::mean(&[1.0, 2.0, 6.0]), 3.0);
}

/// `t` with one bit of one element flipped.
fn flip_one_bit(t: &Tensor, element: usize, bit: u32) -> Tensor {
    let mut data = t.data().to_vec();
    data[element] = f32::from_bits(data[element].to_bits() ^ (1 << bit));
    Tensor::from_vec(data, t.shape())
}

#[test]
fn the_correctness_gate_fires_on_a_single_flipped_output_bit() {
    let prep = Prepared::new(small_dynsys(), 3);
    let expected = prep.expected(0, 1).clone();
    let response = |output: Tensor| Response {
        output,
        tier: 0,
        batch_size: 8,
        submitted_us: 0,
        completed_us: 1,
    };
    assert!(prep.verify(0, 1, &response(expected.clone())));
    for bit in [0, 22, 31] {
        let flipped = flip_one_bit(&expected, 1, bit);
        assert!(!same_bits(&flipped, &expected));
        assert!(!prep.verify(0, 1, &response(flipped.clone())));
        let mut gate = Gate::default();
        assert!(gate.check_output("probe", &expected, &expected));
        assert!(!gate.check_output("probe", &flipped, &expected));
        assert!(!gate.correct());
        assert_eq!((gate.attempted, gate.failed), (2, 1));
        assert_eq!(gate.ok_share(), 0.5);
    }
}

#[test]
fn traced_spans_nest_inside_their_parents_and_carry_their_request_id() {
    let prep = Prepared::new(small_dynsys(), 5);
    let mut norm = Normalizer::new(&prep_referent());
    let mut gate = Gate::default();
    let traced = serve::run_traced(&prep, &mut norm, 0.05, &mut gate);
    assert!(
        !gate.failures.iter().any(|f| f.contains("differs")),
        "{:?}",
        gate.failures
    );
    let rec = &traced.rec;
    assert!(!rec.spans.is_empty());
    assert_eq!(rec.check_nesting(), Ok(()));
    for s in &rec.spans {
        match s.parent {
            None => assert_eq!(s.name, "request"),
            Some(p) => {
                let parent = &rec.spans[p];
                assert_eq!(parent.name, "request");
                assert_eq!(s.id, parent.id);
                assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
            }
        }
    }
    // Five stage spans under every request.
    let roots = rec.spans.iter().filter(|s| s.parent.is_none()).count();
    assert_eq!(rec.spans.len(), roots * 6);

    // And the check itself rejects a child outside its parent or with a
    // foreign id.
    let mut bad = Recorder::default();
    let span = |id, parent, start_ns, end_ns| Span {
        id,
        name: "x",
        parent,
        start_ns,
        end_ns,
        wait: false,
        slice: 0,
    };
    let root = bad.push(span(1, None, 10, 20));
    bad.push(span(1, Some(root), 12, 18));
    assert_eq!(bad.check_nesting(), Ok(()));
    bad.push(span(1, Some(root), 15, 25));
    assert!(bad.check_nesting().is_err());
    let mut foreign = Recorder::default();
    let root = foreign.push(span(1, None, 10, 20));
    foreign.push(span(2, Some(root), 12, 18));
    assert!(foreign.check_nesting().is_err());
}

fn prep_referent() -> enode_perfbench::referent::Referent {
    serve::DYNSYS.referent
}
