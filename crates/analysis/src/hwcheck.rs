//! Hardware-configuration feasibility lints.
//!
//! Codes: `E030`–`E033`, `W030`–`W033`.
//!
//! Checks a [`HwConfig`] against the paper's provisioning rules: the
//! training-state buffer must hold the depth-first peak liveness (Table I /
//! Fig 15b), the weight buffer must keep `f`'s weights resident for
//! function reuse (§V-A), DRAM must sustain the steady-state checkpoint
//! stream, and the ring link should keep the NN cores fed (§V-B).

use crate::diag::{Code, Diagnostic, Diagnostics};
use enode_hw::config::HwConfig;
use enode_hw::depthfirst::{training_spill_bytes_per_interval, training_state_live_bytes_enode};
use enode_hw::mapping::{map_layers, weight_reload_bytes_per_step, weights_resident};
use enode_hw::packet::{link_limited_utilization, required_link_bandwidth};

/// Steady-state DRAM streaming demand in bytes/second: checkpoint traffic
/// (write per accepted point, plus read-back when training), training-state
/// spill, and weight reloads, over the compute-bound step time — the same
/// accounting `simulate_enode` amortizes over a whole run.
pub fn dram_streaming_demand(cfg: &HwConfig, training: bool) -> f64 {
    let util = link_limited_utilization(cfg) * 0.95;
    let macs_per_step = cfg.stages as f64 * cfg.macs_per_f_eval() as f64;
    let step_seconds = macs_per_step / (cfg.macs_per_cycle() as f64 * cfg.clock_hz * util);
    let map = cfg.layer.map_bytes() as f64;
    let mut bytes_per_step = map + weight_reload_bytes_per_step(cfg) as f64;
    if training {
        bytes_per_step += map; // checkpoint read-back
        let live = training_state_live_bytes_enode(cfg);
        bytes_per_step += training_spill_bytes_per_interval(live, cfg.training_buffer_bytes) as f64;
    }
    bytes_per_step / step_seconds
}

/// Runs every hardware lint on one configuration.
pub fn lint_hw_config(subject: &str, cfg: &HwConfig) -> Diagnostics {
    let mut ds = Diagnostics::new();
    // E030: structural sanity of the raw fields (`HwConfig::validate`'s
    // list). The quantitative lints below would divide by a broken field.
    let problems = cfg.field_problems();
    if !problems.is_empty() {
        for p in problems {
            ds.push(Diagnostic::new(Code::E030HwConfigInvalid, subject, p));
        }
        return ds;
    }

    // E031: the training buffer must hold the depth-first peak liveness,
    // otherwise every backward interval spills to DRAM (Fig 15b).
    let live = training_state_live_bytes_enode(cfg);
    if cfg.training_buffer_bytes < live {
        ds.push(
            Diagnostic::new(
                Code::E031HwTrainingBufferTooSmall,
                subject,
                format!(
                    "training buffer {} B cannot hold {} B of live training state",
                    cfg.training_buffer_bytes, live
                ),
            )
            .with_note("buffer_bytes", cfg.training_buffer_bytes)
            .with_note("live_bytes", live)
            .with_note(
                "spill_per_interval",
                training_spill_bytes_per_interval(live, cfg.training_buffer_bytes),
            ),
        );
    } else {
        // W033: over twice the requirement is wasted SRAM area — Table I
        // provisions within a few percent of the peak liveness.
        let excess = cfg.training_buffer_bytes - live;
        if cfg.training_buffer_bytes > 2 * live && excess > 64 * 1024 {
            ds.push(
                Diagnostic::new(
                    Code::W033HwBufferHeadroom,
                    subject,
                    format!(
                        "training buffer {} B is more than twice the {} B peak liveness",
                        cfg.training_buffer_bytes, live
                    ),
                )
                .with_note("buffer_bytes", cfg.training_buffer_bytes)
                .with_note("live_bytes", live),
            );
        }
    }

    // E032: function reuse (§V-A) requires resident weights; a non-resident
    // network reloads the overflow from DRAM every ring loop.
    if !weights_resident(cfg) {
        ds.push(
            Diagnostic::new(
                Code::E032HwWeightsNotResident,
                subject,
                format!(
                    "weights {} B exceed the {} B weight buffer",
                    cfg.weight_bytes(),
                    cfg.weight_buffer_bytes
                ),
            )
            .with_note("weight_bytes", cfg.weight_bytes())
            .with_note("weight_buffer_bytes", cfg.weight_buffer_bytes)
            .with_note("reload_per_step", weight_reload_bytes_per_step(cfg)),
        );
    }

    // E033: DRAM must sustain the steady-state checkpoint stream (training
    // is the worse case: checkpoint writes + reads + any spill).
    let demand = dram_streaming_demand(cfg, true);
    if demand > cfg.dram_bandwidth {
        ds.push(
            Diagnostic::new(
                Code::E033HwDramBandwidth,
                subject,
                format!(
                    "streaming demand {:.2e} B/s exceeds DRAM bandwidth {:.2e} B/s",
                    demand, cfg.dram_bandwidth
                ),
            )
            .with_note("demand_bytes_per_s", format!("{demand:.3e}"))
            .with_note("dram_bandwidth", format!("{:.3e}", cfg.dram_bandwidth)),
        );
    }

    // W030: an under-provisioned ring link starves the NN cores (§V-B).
    let required = required_link_bandwidth(cfg);
    if cfg.link_bandwidth < required {
        ds.push(
            Diagnostic::new(
                Code::W030HwLinkBandwidth,
                subject,
                format!(
                    "link {:.2e} B/s below the {:.2e} B/s needed for full core utilization",
                    cfg.link_bandwidth, required
                ),
            )
            .with_note(
                "utilization",
                format!("{:.3}", link_limited_utilization(cfg)),
            ),
        );
    }

    // W031/W032: layer-to-core mapping efficiency (Fig 7e).
    let mapping = map_layers(cfg.n_conv, cfg.cores);
    if mapping.rounds > 1 {
        ds.push(
            Diagnostic::new(
                Code::W032HwMultiRound,
                subject,
                format!(
                    "{} conv layers on {} cores need {} time-multiplexing rounds",
                    cfg.n_conv, cfg.cores, mapping.rounds
                ),
            )
            .with_note("rounds", mapping.rounds)
            .with_note(
                "utilization",
                format!("{:.3}", mapping.utilization(cfg.cores)),
            ),
        );
    }
    if mapping.idle_cores_last_round > 0 {
        ds.push(
            Diagnostic::new(
                Code::W031HwIdleCores,
                subject,
                format!(
                    "{} of {} cores idle in the last mapping round",
                    mapping.idle_cores_last_round, cfg.cores
                ),
            )
            .with_note("idle_cores", mapping.idle_cores_last_round)
            .with_note(
                "utilization",
                format!("{:.3}", mapping.utilization(cfg.cores)),
            ),
        );
    }

    ds
}

/// W034: preflight for a pool-parallel simulation or bench run whose work
/// split is per-batch only. With a multi-lane pool but a degenerate batch
/// (one sample), the run executes silently serial — the caller should
/// either widen the batch or split along another axis.
///
/// `batch` is the number of per-batch work items the run will split;
/// `pool_threads` is the live pool width (pass
/// `enode_tensor::parallel::current_threads()`).
pub fn lint_parallel_split(subject: &str, batch: usize, pool_threads: usize) -> Diagnostics {
    let mut ds = Diagnostics::new();
    if pool_threads > 1 && batch <= 1 {
        ds.push(Diagnostic::new(
            Code::W034HwDegenerateParallelSplit,
            subject,
            format!(
                "pool has {pool_threads} lanes but the batch dimension is {batch}; \
                 per-batch splitting degenerates to a serial run"
            ),
        ));
    }
    ds
}

/// Lints both Table I design points.
pub fn lint_paper_configs() -> Diagnostics {
    let mut ds = Diagnostics::new();
    ds.extend(lint_hw_config("config_a", &HwConfig::config_a()));
    ds.extend(lint_hw_config("config_b", &HwConfig::config_b()));
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use enode_hw::config::LayerDims;

    #[test]
    fn paper_configs_are_clean() {
        let ds = lint_paper_configs();
        assert!(ds.is_empty(), "unexpected diagnostics:\n{}", ds.render());
    }

    #[test]
    fn degenerate_parallel_split_fires_w034() {
        let ds = lint_parallel_split("bench batch", 1, 4);
        assert!(
            ds.has_code(Code::W034HwDegenerateParallelSplit),
            "{}",
            ds.render()
        );
        assert_eq!(ds.error_count(), 0, "W034 is a warning, not an error");
    }

    #[test]
    fn healthy_or_serial_split_is_clean() {
        // Wide batch: nothing to warn about.
        assert!(lint_parallel_split("bench batch", 8, 4).is_empty());
        // Serial pool: a batch of 1 is expected, not a missed split.
        assert!(lint_parallel_split("bench batch", 1, 1).is_empty());
    }

    #[test]
    fn zero_cores_fires_e030_and_stops() {
        let mut cfg = HwConfig::config_a();
        cfg.cores = 0;
        let ds = lint_hw_config("no_cores", &cfg);
        assert!(ds.has_code(Code::E030HwConfigInvalid), "{}", ds.render());
        // Quantitative lints are skipped (they would divide by zero).
        assert_eq!(ds.len(), ds.error_count());
    }

    #[test]
    fn even_kernel_fires_e030() {
        let mut cfg = HwConfig::config_a();
        cfg.kernel = 4;
        assert!(lint_hw_config("even_kernel", &cfg).has_code(Code::E030HwConfigInvalid));
    }

    #[test]
    fn nan_clock_or_bandwidth_fires_e030_and_stops() {
        // A NaN passes every `<= 0.0` test; E030 must refuse it, as
        // `HwConfig::validate` does, before a quantitative lint reads it.
        let mut nan_clock = HwConfig::config_a();
        nan_clock.clock_hz = f64::NAN;
        let mut nan_dram = HwConfig::config_a();
        nan_dram.dram_bandwidth = f64::NAN;
        let mut nan_link = HwConfig::config_a();
        nan_link.link_bandwidth = f64::NAN;
        for (subject, cfg, message) in [
            ("nan_clock", nan_clock, "non-positive clock NaN"),
            ("nan_dram", nan_dram, "non-positive link or DRAM bandwidth"),
            ("nan_link", nan_link, "non-positive link or DRAM bandwidth"),
        ] {
            let ds = lint_hw_config(subject, &cfg);
            assert_eq!(ds.len(), 1, "{}", ds.render());
            assert_eq!(ds.items()[0].code, Code::E030HwConfigInvalid);
            assert_eq!(ds.items()[0].message, message);
        }
    }

    #[test]
    fn tiny_training_buffer_fires_e031() {
        let mut cfg = HwConfig::config_a();
        cfg.training_buffer_bytes = 100;
        let ds = lint_hw_config("tiny_buffer", &cfg);
        assert!(
            ds.has_code(Code::E031HwTrainingBufferTooSmall),
            "{}",
            ds.render()
        );
    }

    #[test]
    fn oversized_network_fires_e032() {
        // 8 convs at 256 channels: 9.4 MB of weights vs a 2.25 MB buffer.
        let mut cfg = HwConfig::for_layer(LayerDims::new(64, 64, 256));
        cfg.n_conv = 8;
        let ds = lint_hw_config("fat_network", &cfg);
        assert!(
            ds.has_code(Code::E032HwWeightsNotResident),
            "{}",
            ds.render()
        );
    }

    #[test]
    fn starved_dram_fires_e033() {
        let mut cfg = HwConfig::config_a();
        cfg.dram_bandwidth = 1.0e6; // 1 MB/s cannot stream 512 KB checkpoints
        let ds = lint_hw_config("slow_dram", &cfg);
        assert!(ds.has_code(Code::E033HwDramBandwidth), "{}", ds.render());
    }

    #[test]
    fn slow_link_fires_w030() {
        let mut cfg = HwConfig::config_a();
        cfg.link_bandwidth = 1.0e8; // below the ~222 MB/s requirement
        let ds = lint_hw_config("slow_link", &cfg);
        assert!(ds.has_code(Code::W030HwLinkBandwidth), "{}", ds.render());
    }

    #[test]
    fn idle_core_fires_w031() {
        let mut cfg = HwConfig::config_a();
        cfg.n_conv = 3;
        let ds = lint_hw_config("three_convs", &cfg);
        assert!(ds.has_code(Code::W031HwIdleCores), "{}", ds.render());
        assert!(!ds.has_code(Code::W032HwMultiRound));
    }

    #[test]
    fn deep_network_fires_w032() {
        let mut cfg = HwConfig::config_a();
        cfg.n_conv = 6;
        // Deeper f also grows the live training state past config A's
        // buffer; provision it so only the mapping lints fire.
        cfg.training_buffer_bytes = training_state_live_bytes_enode(&cfg);
        let ds = lint_hw_config("six_convs", &cfg);
        assert!(ds.has_code(Code::W032HwMultiRound), "{}", ds.render());
        assert!(ds.has_code(Code::W031HwIdleCores));
        assert!(!ds.has_errors(), "{}", ds.render());
    }

    #[test]
    fn lavish_buffer_fires_w033() {
        let mut cfg = HwConfig::config_a();
        cfg.training_buffer_bytes = 100 * 1024 * 1024;
        let ds = lint_hw_config("lavish", &cfg);
        assert!(ds.has_code(Code::W033HwBufferHeadroom), "{}", ds.render());
    }

    #[test]
    fn demand_scales_with_training() {
        let cfg = HwConfig::config_a();
        assert!(dram_streaming_demand(&cfg, true) > dram_streaming_demand(&cfg, false));
        // Config A's streaming demand sits far below its 8 GB/s DRAM.
        assert!(dram_streaming_demand(&cfg, true) < cfg.dram_bandwidth / 4.0);
    }
}
