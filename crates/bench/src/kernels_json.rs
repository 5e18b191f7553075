//! The machine-readable kernel benchmark baseline (`BENCH_kernels.json`).
//!
//! Measures wall-time for the workspace's hot kernels — conv2d
//! forward/input-grad/weight-grad (the weight gradient also at four
//! channels), a dense layer, GroupNorm forward and backward, the tanh
//! backward, one fixed-step RKF45 solve, batched NODE inference, and one
//! `run_bench` inference — at 1 thread and at [`THREADS_HIGH`] threads,
//! plus the pre-PR serial conv forward as a regression referent. The
//! emitted JSON tracks the workspace's perf trajectory: future PRs re-run
//! the emitter and compare.
//!
//! # JSON format (`schema: "enode-bench-kernels/v2"`)
//!
//! ```json
//! {
//!   "schema": "enode-bench-kernels/v2",
//!   "threads_low": 1,              // lane count of the serial runs
//!   "threads_high": 4,             // lane count of the parallel runs
//!   "host_cpus": 1,                // available_parallelism() on the host
//!   "enode_threads_default": 1,    // pool width this host would default to
//!   "quick": false,                // true when run with reduced samples (CI smoke)
//!   "kernels": [
//!     {
//!       "name": "conv2d_forward_b8",
//!       "secs_low": 1.2e-4,        // median secs/iter at threads_low
//!       "secs_high": 6.1e-5,       // median secs/iter at threads_high
//!       "speedup": 1.97,           // secs_low / secs_high
//!       "secs_referent": 3.1e-4,   // pinned pre-microkernel serial kernel, 1 thread
//!       "speedup_vs_referent": 2.58 // secs_referent / secs_low (old vs new, same host)
//!     }
//!   ]
//! }
//! ```
//!
//! The two referent fields appear only on rows with a frozen pre-rewrite
//! implementation in [`crate::referent`]; `speedup_vs_referent` is the
//! single-thread old-over-new ratio the microkernel acceptance tracks
//! (≥ 2× on the target kernels), measured in the same process as the live
//! timings so host noise cancels.
//!
//! Parallel speedups are honest measurements on the emitting host: on a
//! single-CPU host the high-thread runs cannot beat the serial runs no
//! matter how the work is split, which is why `host_cpus` is part of the
//! record — consumers must read speedups relative to it.

use crate::driver::{expedited_opts, run_inference_only, Bench};
use crate::micro::Micro;
use crate::referent;
use crate::report::host_cpus;
use enode_analysis::benchjson::json_escape;
use enode_node::eval::forward_model_batched;
use enode_node::inference::NodeSolveOptions;
use enode_node::model::NodeModel;
use enode_ode::solver::solve_fixed;
use enode_ode::tableau::ButcherTableau;
use enode_tensor::activation::Activation;
use enode_tensor::conv::Conv2d;
use enode_tensor::dense::Dense;
use enode_tensor::norm::GroupNorm;
use enode_tensor::{init, parallel, Tensor};

/// Lane count of the parallel measurement (the `ENODE_THREADS=4` point
/// the acceptance tracking compares against serial).
pub const THREADS_HIGH: usize = 4;

/// One measured kernel.
#[derive(Clone, Debug)]
pub struct KernelTiming {
    /// Kernel identifier (stable across PRs).
    pub name: &'static str,
    /// Median seconds/iteration with a 1-lane pool.
    pub secs_low: f64,
    /// Median seconds/iteration with a [`THREADS_HIGH`]-lane pool.
    pub secs_high: f64,
    /// Median seconds/iteration of the frozen pre-microkernel serial
    /// implementation ([`crate::referent`]) with a 1-lane pool, for rows
    /// that have one.
    pub secs_referent: Option<f64>,
}

impl KernelTiming {
    /// Serial-over-parallel wall-time ratio.
    pub fn speedup(&self) -> f64 {
        self.secs_low / self.secs_high
    }

    /// Old-over-new single-thread ratio against the pinned serial
    /// referent (> 1 means the rewrite is faster).
    pub fn speedup_vs_referent(&self) -> Option<f64> {
        self.secs_referent.map(|r| r / self.secs_low)
    }
}

/// Measures every tracked kernel at 1 and [`THREADS_HIGH`] threads.
/// `quick` trades precision for runtime (the CI smoke configuration).
pub fn measure(quick: bool) -> Vec<KernelTiming> {
    let m = if quick {
        Micro {
            samples: 3,
            min_sample_secs: 0.004,
        }
    } else {
        Micro {
            samples: 7,
            min_sample_secs: 0.04,
        }
    };
    let time_pair = |f: &mut dyn FnMut()| -> (f64, f64) {
        let lo = parallel::with_threads(1, || m.time(&mut *f));
        let hi = parallel::with_threads(THREADS_HIGH, || m.time(&mut *f));
        (lo, hi)
    };
    let mut out = Vec::new();
    let mut push_vs =
        |name: &'static str, f: &mut dyn FnMut(), referent: Option<&mut dyn FnMut()>| {
            let (secs_low, secs_high) = time_pair(f);
            let secs_referent = referent.map(|rf| parallel::with_threads(1, || m.time(rf)));
            out.push(KernelTiming {
                name,
                secs_low,
                secs_high,
                secs_referent,
            });
        };

    // Conv kernels on a batch of 8 (the acceptance-tracked shape).
    let conv = Conv2d::new_seeded(8, 8, 3, 1);
    let x = init::uniform(&[8, 8, 16, 16], -1.0, 1.0, 2);
    let dy = init::uniform(&[8, 8, 16, 16], -1.0, 1.0, 3);
    let mut ref_cols = Vec::new();
    push_vs(
        "conv2d_forward_b8",
        &mut || {
            std::hint::black_box(conv.forward(&x));
        },
        Some(&mut || {
            std::hint::black_box(referent::conv2d_forward_ref(&conv, &x, &mut ref_cols));
        }),
    );
    push_vs(
        "conv2d_forward_b8_prepr_serial",
        &mut || {
            let mut cols = Vec::new();
            std::hint::black_box(referent::conv2d_forward_ref(&conv, &x, &mut cols));
        },
        None,
    );
    push_vs(
        "conv2d_backward_input_b8",
        &mut || {
            std::hint::black_box(conv.backward_input(&dy));
        },
        Some(&mut || {
            std::hint::black_box(referent::conv2d_backward_input_ref(&conv, &dy));
        }),
    );
    push_vs(
        "conv2d_backward_params_b8",
        &mut || {
            std::hint::black_box(conv.backward_params(&x, &dy));
        },
        Some(&mut || {
            std::hint::black_box(referent::conv2d_backward_params_ref(
                &conv,
                &x,
                &dy,
                &mut ref_cols,
            ));
        }),
    );

    // The weight gradient at the training model's four channels, where
    // the batch split packs two samples per vector (the m = 8 row above
    // never does).
    let conv4 = Conv2d::new_seeded(4, 4, 3, 9);
    let x4 = init::uniform(&[8, 4, 8, 8], -1.0, 1.0, 10);
    let dy4 = init::uniform(&[8, 4, 8, 8], -1.0, 1.0, 11);
    push_vs(
        "conv2d_backward_params_c4_b8",
        &mut || {
            std::hint::black_box(conv4.backward_params(&x4, &dy4));
        },
        Some(&mut || {
            std::hint::black_box(referent::conv2d_backward_params_ref(
                &conv4,
                &x4,
                &dy4,
                &mut ref_cols,
            ));
        }),
    );

    // Dense and GroupNorm.
    let dense = Dense::new_seeded(64, 64, 4);
    let xd = init::uniform(&[64, 64], -1.0, 1.0, 5);
    push_vs(
        "dense_forward_b64",
        &mut || {
            std::hint::black_box(dense.forward(&xd));
        },
        Some(&mut || {
            std::hint::black_box(referent::dense_forward_ref(&dense, &xd));
        }),
    );
    let gn = GroupNorm::new(8, 4);
    push_vs(
        "groupnorm_forward_b8",
        &mut || {
            std::hint::black_box(gn.forward(&x));
        },
        Some(&mut || {
            std::hint::black_box(referent::groupnorm_forward_ref(&gn, &x));
        }),
    );

    let (_, gn_cache) = gn.forward(&x);
    push_vs(
        "groupnorm_backward_b8",
        &mut || {
            std::hint::black_box(gn.backward(&x, &gn_cache, &dy));
        },
        Some(&mut || {
            std::hint::black_box(referent::groupnorm_backward_ref(&gn, &x, &gn_cache, &dy));
        }),
    );
    push_vs(
        "tanh_backward_b8",
        &mut || {
            std::hint::black_box(Activation::Tanh.backward(&x, &dy));
        },
        Some(&mut || {
            std::hint::black_box(referent::activation_backward_ref(Activation::Tanh, &x, &dy));
        }),
    );

    // One fixed-step RKF45 solve of dy/dt = -y on a batched tensor state.
    let y0 = init::uniform(&[8, 64], -1.0, 1.0, 6);
    let tab = ButcherTableau::rkf45();
    push_vs(
        "rkf45_fixed_solve_50steps",
        &mut || {
            let sol = solve_fixed(
                |_t, y: &Tensor| {
                    let mut dy = y.clone();
                    dy.scale_mut(-1.0);
                    dy
                },
                0.0,
                1.0,
                y0.clone(),
                &tab,
                50,
            );
            std::hint::black_box(sol);
        },
        None,
    );

    // Batched NODE inference: per-sample solves across the pool.
    let model = NodeModel::image_classifier(4, 2, 2, 10, 7);
    let xi = init::uniform(&[8, 4, 8, 8], -1.0, 1.0, 8);
    let opts = NodeSolveOptions::new(1e-3);
    push_vs(
        "node_batched_inference_b8",
        &mut || {
            std::hint::black_box(
                forward_model_batched(&model, &xi, &opts).expect("inference failed"),
            );
        },
        Some(&mut || {
            std::hint::black_box(referent::node_inference_ref(&model, &xi, 1e-3));
        }),
    );

    // One driver-level inference run (the paper's Lotka-Volterra bench).
    push_vs(
        "run_bench_lv_inference",
        &mut || {
            std::hint::black_box(run_inference_only(
                Bench::LotkaVolterra,
                &expedited_opts(Bench::LotkaVolterra, 3, 3, Some(10)),
                51,
            ));
        },
        None,
    );
    out
}

/// Renders the timings as the committed `BENCH_kernels.json` document.
pub fn render_json(timings: &[KernelTiming], quick: bool) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"schema\": \"enode-bench-kernels/v2\",\n");
    s.push_str("  \"threads_low\": 1,\n");
    s.push_str(&format!("  \"threads_high\": {THREADS_HIGH},\n"));
    s.push_str(&format!("  \"host_cpus\": {},\n", host_cpus()));
    s.push_str(&format!(
        "  \"enode_threads_default\": {},\n",
        parallel::default_threads()
    ));
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str("  \"kernels\": [\n");
    for (i, t) in timings.iter().enumerate() {
        let referent = match (t.secs_referent, t.speedup_vs_referent()) {
            (Some(r), Some(v)) => {
                format!(", \"secs_referent\": {r:.6e}, \"speedup_vs_referent\": {v:.3}")
            }
            _ => String::new(),
        };
        s.push_str(&format!(
            "    {{ \"name\": \"{}\", \"secs_low\": {:.6e}, \"secs_high\": {:.6e}, \"speedup\": {:.3}{referent} }}{}\n",
            json_escape(t.name),
            t.secs_low,
            t.secs_high,
            t.speedup(),
            if i + 1 < timings.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_wellformed() {
        let timings = vec![
            KernelTiming {
                name: "a",
                secs_low: 2.0e-3,
                secs_high: 1.0e-3,
                secs_referent: Some(4.0e-3),
            },
            KernelTiming {
                name: "b",
                secs_low: 1.0e-3,
                secs_high: 1.0e-3,
                secs_referent: None,
            },
        ];
        let json = render_json(&timings, true);
        assert!(json.contains("\"schema\": \"enode-bench-kernels/v2\""));
        assert!(json.contains("\"speedup\": 2.000"));
        assert!(json.contains("\"secs_referent\": 4.000000e-3"));
        assert!(json.contains("\"speedup_vs_referent\": 2.000"));
        assert!(json.contains("\"quick\": true"));
        // The referent fields appear only on the row that has one.
        assert_eq!(json.matches("speedup_vs_referent").count(), 1);
        // Exactly one trailing comma between the two kernel entries.
        assert_eq!(json.matches("} }").count(), 0);
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn referent_speedup_is_old_over_new() {
        let t = KernelTiming {
            name: "x",
            secs_low: 1.0e-3,
            secs_high: 5.0e-4,
            secs_referent: Some(3.0e-3),
        };
        assert!((t.speedup_vs_referent().unwrap() - 3.0).abs() < 1e-12);
        let t = KernelTiming {
            secs_referent: None,
            ..t
        };
        assert_eq!(t.speedup_vs_referent(), None);
    }
}
