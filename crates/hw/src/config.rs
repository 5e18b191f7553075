//! Hardware configurations and workload descriptors.

use enode_node::inference::ForwardTrace;
use enode_node::profile::IterationProfile;

/// Feature-map dimensions `H × W × C` of one NODE integration layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LayerDims {
    /// Height (rows — the streaming dimension).
    pub h: usize,
    /// Width.
    pub w: usize,
    /// Channels.
    pub c: usize,
}

impl LayerDims {
    /// Creates layer dimensions.
    pub fn new(h: usize, w: usize, c: usize) -> Self {
        LayerDims { h, w, c }
    }

    /// Bytes of one full feature map at FP16.
    pub fn map_bytes(&self) -> u64 {
        (self.h * self.w * self.c * 2) as u64
    }

    /// Bytes of one feature-map row (`W × C` FP16 elements).
    pub fn row_bytes(&self) -> u64 {
        (self.w * self.c * 2) as u64
    }

    /// Bytes of one *buffered* row in the depth-first pipeline: the paper's
    /// `O((W + 1) × C)` accounting (§VIII-A) — one extra column of staging
    /// per row.
    pub fn buffered_row_bytes(&self) -> u64 {
        ((self.w + 1) * self.c * 2) as u64
    }
}

/// A hardware configuration: the eNODE prototype's structural parameters.
///
/// [`HwConfig::config_a`] and [`HwConfig::config_b`] are the two Table I
/// design points.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HwConfig {
    /// Target layer dimensions.
    pub layer: LayerDims,
    /// NN cores in the ring (the prototype has 4).
    pub cores: usize,
    /// PEs per core (8 × 8 = 64 in the prototype).
    pub pes_per_core: usize,
    /// Input/output channels processed in parallel per core (8).
    pub parallel_channels: usize,
    /// Clock frequency in Hz.
    pub clock_hz: f64,
    /// Ring link bandwidth in bytes/second (§V-B: 1 GB/s for full
    /// utilization of the 4-core prototype).
    pub link_bandwidth: f64,
    /// DRAM bandwidth in bytes/second.
    pub dram_bandwidth: f64,
    /// Convolution layers in the embedded network `f`.
    pub n_conv: usize,
    /// Convolution kernel size.
    pub kernel: usize,
    /// Integrator stages (RK23 = 4).
    pub stages: usize,
    /// Stages recomputed in a backward local forward step (RK23 = 3:
    /// k1..k3; k4/FSAL is not needed, §IV-B).
    pub stages_backward: usize,
    /// On-chip training-state buffer capacity in bytes (Table I: 1.25 MB
    /// for Configuration A).
    pub training_buffer_bytes: u64,
    /// On-chip weight buffer capacity in bytes (Table I: 2.25 MB).
    pub weight_buffer_bytes: u64,
}

const MB: u64 = 1024 * 1024;

impl HwConfig {
    /// Table I **Configuration A**: layer size 64×64×64, 4-conv `f`, RK23.
    pub fn config_a() -> Self {
        HwConfig {
            layer: LayerDims::new(64, 64, 64),
            cores: 4,
            pes_per_core: 64,
            parallel_channels: 8,
            clock_hz: 1.0e9,
            link_bandwidth: 1.0e9,
            dram_bandwidth: 8.0e9,
            n_conv: 4,
            kernel: 3,
            stages: 4,
            stages_backward: 3,
            training_buffer_bytes: 5 * MB / 4, // 1.25 MB
            weight_buffer_bytes: 9 * MB / 4,   // 2.25 MB
        }
    }

    /// Table I **Configuration B**: layer size 256×256×64.
    pub fn config_b() -> Self {
        let mut cfg = Self::config_a();
        cfg.layer = LayerDims::new(256, 256, 64);
        // Table I provisions 4.9 MB of training-state buffer for B.
        cfg.training_buffer_bytes = (4.9 * MB as f64) as u64;
        cfg
    }

    /// A configuration for an arbitrary layer size (Fig 14/15 sweeps),
    /// with the training buffer provisioned to the depth-first requirement.
    pub fn for_layer(layer: LayerDims) -> Self {
        let mut cfg = Self::config_a();
        cfg.layer = layer;
        cfg.training_buffer_bytes = crate::depthfirst::training_state_live_bytes_enode(&cfg);
        cfg
    }

    /// Every structural problem with the raw fields, in field order: a
    /// zero dimension or count, a clock or bandwidth that is not positive
    /// (NaN included), an even kernel, more backward than forward stages.
    /// [`HwConfig::validate`] reports the first; the `enode-analysis`
    /// crate reports each as an `E030` diagnostic.
    pub fn field_problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.layer.h == 0 || self.layer.w == 0 || self.layer.c == 0 {
            problems.push(format!(
                "layer dims {}x{}x{} contain a zero",
                self.layer.h, self.layer.w, self.layer.c
            ));
        }
        if self.cores == 0 {
            problems.push("zero NN cores".into());
        }
        if self.pes_per_core == 0 {
            problems.push("zero PEs per core".into());
        }
        if self.parallel_channels == 0 {
            problems.push("zero parallel channels".into());
        }
        if self.clock_hz <= 0.0 || self.clock_hz.is_nan() {
            problems.push(format!("non-positive clock {}", self.clock_hz));
        }
        if self.link_bandwidth <= 0.0
            || self.dram_bandwidth <= 0.0
            || self.link_bandwidth.is_nan()
            || self.dram_bandwidth.is_nan()
        {
            problems.push("non-positive link or DRAM bandwidth".into());
        }
        if self.n_conv == 0 {
            problems.push("embedded network has zero conv layers".into());
        }
        if self.kernel == 0 || self.kernel.is_multiple_of(2) {
            problems.push(format!(
                "kernel {} is not odd (\"same\" padding needs odd kernels)",
                self.kernel
            ));
        }
        if self.stages == 0 {
            problems.push("zero integrator stages".into());
        }
        if self.stages_backward > self.stages {
            problems.push(format!(
                "stages_backward {} exceeds stages {}",
                self.stages_backward, self.stages
            ));
        }
        problems
    }

    /// Checks the structural sanity of the configuration, returning the
    /// first of [`HwConfig::field_problems`]. The simulators call this
    /// behind `debug_assert!` as a cheap preflight.
    pub fn validate(&self) -> Result<(), String> {
        match self.field_problems().into_iter().next() {
            Some(problem) => Err(problem),
            None => Ok(()),
        }
    }

    /// Total MAC throughput in MACs per cycle (all cores).
    pub fn macs_per_cycle(&self) -> u64 {
        (self.cores * self.pes_per_core) as u64
    }

    /// MACs of one embedded-network evaluation on the configured layer.
    pub fn macs_per_f_eval(&self) -> u64 {
        (self.n_conv
            * self.layer.h
            * self.layer.w
            * self.layer.c
            * self.layer.c
            * self.kernel
            * self.kernel) as u64
    }

    /// Bytes of the embedded network's weights at FP16 (all conv layers).
    pub fn weight_bytes(&self) -> u64 {
        (self.n_conv * self.layer.c * self.layer.c * self.kernel * self.kernel * 2) as u64
    }
}

/// The workload counts one simulated run consumes: measured from an actual
/// algorithm execution (via [`WorkloadRun::from_profile`]) or constructed
/// analytically.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadRun {
    /// Integration layers `N`.
    pub n_layers: usize,
    /// Total accepted evaluation points across all layers.
    pub points: usize,
    /// Total trials (accepted + rejected) across all layers.
    pub trials: usize,
    /// Fraction of feature-map rows actually processed (priority
    /// processing early stop; 1.0 without it).
    pub rows_fraction: f64,
    /// Whether this run includes the training backward pass.
    pub training: bool,
}

impl WorkloadRun {
    /// An inference run from a measured forward trace.
    pub fn from_trace(trace: &ForwardTrace) -> Self {
        let s = trace.total_stats();
        WorkloadRun {
            n_layers: trace.layers.len(),
            points: s.points,
            trials: s.trials,
            rows_fraction: if s.rows_total > 0 {
                s.rows_processed as f64 / s.rows_total as f64
            } else {
                1.0
            },
            training: false,
        }
    }

    /// A training run from a measured iteration profile.
    pub fn from_profile(profile: &IterationProfile) -> Self {
        WorkloadRun {
            n_layers: profile.layers,
            points: profile.forward.points,
            trials: profile.forward.trials,
            rows_fraction: if profile.forward.rows_total > 0 {
                profile.forward.rows_processed as f64 / profile.forward.rows_total as f64
            } else {
                1.0
            },
            training: true,
        }
    }

    /// An analytic run: `points` evaluation points with a mean trial count.
    pub fn analytic(n_layers: usize, points: usize, trials_per_point: f64, training: bool) -> Self {
        WorkloadRun {
            n_layers,
            points,
            trials: (points as f64 * trials_per_point).round() as usize,
            rows_fraction: 1.0,
            training,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_a_matches_table1() {
        let a = HwConfig::config_a();
        assert_eq!(a.layer, LayerDims::new(64, 64, 64));
        assert_eq!(a.layer.map_bytes(), 512 * 1024);
        assert_eq!(a.training_buffer_bytes, 1280 * 1024); // 1.25 MB
        assert_eq!(a.weight_buffer_bytes, 2304 * 1024); // 2.25 MB
        assert_eq!(a.macs_per_cycle(), 256);
    }

    #[test]
    fn config_b_layer_scales() {
        let b = HwConfig::config_b();
        assert_eq!(b.layer.map_bytes(), 8 * 1024 * 1024);
        assert_eq!(b.layer.row_bytes(), 256 * 64 * 2);
    }

    #[test]
    fn macs_per_f_eval() {
        let a = HwConfig::config_a();
        // 4 convs × 64×64 pixels × 64×64 channels × 9.
        assert_eq!(a.macs_per_f_eval(), 4 * 64 * 64 * 64 * 64 * 9);
    }

    #[test]
    fn buffered_row_uses_w_plus_1() {
        let d = LayerDims::new(64, 64, 64);
        assert_eq!(d.buffered_row_bytes(), 65 * 64 * 2);
    }

    #[test]
    fn analytic_run() {
        let w = WorkloadRun::analytic(4, 100, 2.5, false);
        assert_eq!(w.trials, 250);
        assert!(!w.training);
    }
}
