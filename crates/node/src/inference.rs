//! The NODE forward pass: integration layers solved by iterative stepsize
//! search (paper §II-A/B, Fig 3 "forward pass").

use crate::model::{HeadCache, NodeModel};
use crate::priority::{num_rows, PriorityNorm, PriorityOptions};
use enode_ode::controller::{
    ClassicController, ConventionalSearchController, SlopeAdaptiveController, StepController,
};
use enode_ode::solver::{AdaptiveOptions, SolveError};
use enode_ode::stepper::{Accepted, DecisionNorm, FullNorm, Recorder, Stepper};
use enode_ode::tableau::ButcherTableau;
use enode_tensor::network::Network;
use enode_tensor::Tensor;
use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

/// Which stepsize-search policy drives the forward pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ControllerKind {
    /// The conventional search of §II-B: fixed shrink factor, no growth;
    /// each evaluation point starts from the previous accepted `Δt`.
    Conventional {
        /// Rejection shrink factor (0, 1).
        shrink: f64,
    },
    /// The conventional search restarted from the constant `C` at every
    /// evaluation point — the high-trial-count regime of Fig 4a.
    ConventionalConstantInit {
        /// Rejection shrink factor (0, 1).
        shrink: f64,
    },
    /// A literature-standard error-proportional controller.
    Classic,
    /// eNODE's slope-adaptive search (§VII-A).
    SlopeAdaptive {
        /// Consecutive-accept threshold `s_acc`.
        s_acc: u32,
        /// Consecutive-reject threshold `s_rej`.
        s_rej: u32,
    },
}

impl ControllerKind {
    fn build(&self, tableau: &ButcherTableau, default_dt: f64) -> Box<dyn StepController> {
        match *self {
            ControllerKind::Conventional { shrink } => {
                Box::new(ConventionalSearchController::new(default_dt, shrink))
            }
            ControllerKind::ConventionalConstantInit { shrink } => {
                Box::new(ConventionalSearchController::new(default_dt, shrink).with_constant_init())
            }
            ControllerKind::Classic => {
                Box::new(ClassicController::new(tableau.error_order()).with_default_dt(default_dt))
            }
            ControllerKind::SlopeAdaptive { s_acc, s_rej } => {
                Box::new(SlopeAdaptiveController::new(s_acc, s_rej).with_default_dt(default_dt))
            }
        }
    }
}

/// Failure modes of the NODE forward pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeError {
    /// The stepsize search at some layer could not meet the tolerance.
    StepsizeUnderflow {
        /// Which integration layer failed.
        layer: usize,
    },
    /// A state became non-finite.
    NonFiniteState {
        /// Which integration layer failed.
        layer: usize,
    },
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::StepsizeUnderflow { layer } => {
                write!(
                    f,
                    "stepsize search underflowed in integration layer {layer}"
                )
            }
            NodeError::NonFiniteState { layer } => {
                write!(f, "state became non-finite in integration layer {layer}")
            }
        }
    }
}

impl Error for NodeError {}

/// Options for the NODE forward pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeSolveOptions {
    /// Error tolerance ε (paper experiments use 1e-6).
    pub tolerance: f64,
    /// The pre-defined initial stepsize `C`.
    pub default_dt: f64,
    /// Stepsize-search policy.
    pub controller: ControllerKind,
    /// Priority processing + early stop, when enabled.
    pub priority: Option<PriorityOptions>,
    /// Integrator (RK23 in all paper experiments).
    pub tableau_kind: TableauKind,
    /// Trial budget per evaluation point.
    pub max_trials_per_point: usize,
    /// Evaluation-point budget per layer.
    pub max_points: usize,
    /// Smallest permissible stepsize.
    pub dt_min: f64,
    /// When true, accepted states are quantized through IEEE binary16
    /// after every step — modeling the prototype's FP16 storage datapath
    /// (paper §VIII: "All designs use FP16 precision").
    pub fp16_storage: bool,
    /// Store every `k`-th accepted state as an ACA checkpoint (1 = every
    /// evaluation point, the paper's setting). Larger strides trade
    /// checkpoint memory for recomputation in the backward pass, which
    /// replays each inter-checkpoint segment with one extra local forward.
    pub checkpoint_stride: usize,
}

/// Which integrator to use (a small enum so options stay `Copy`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TableauKind {
    /// Heun 2(1).
    HeunEuler,
    /// Bogacki–Shampine 3(2) — the paper's RK23.
    Rk23,
    /// Fehlberg 5(4).
    Rkf45,
    /// Dormand–Prince 5(4).
    Dopri5,
}

impl TableauKind {
    /// The Butcher tableau, built once per process.
    pub fn tableau(self) -> &'static ButcherTableau {
        static TABLEAUX: [OnceLock<ButcherTableau>; 4] = [const { OnceLock::new() }; 4];
        let (slot, build): (usize, fn() -> ButcherTableau) = match self {
            TableauKind::HeunEuler => (0, ButcherTableau::heun_euler),
            TableauKind::Rk23 => (1, ButcherTableau::rk23_bogacki_shampine),
            TableauKind::Rkf45 => (2, ButcherTableau::rkf45),
            TableauKind::Dopri5 => (3, ButcherTableau::dopri5),
        };
        TABLEAUX[slot].get_or_init(build)
    }
}

/// A per-call override of the solver knobs a serving runtime trades
/// against deadline headroom: tolerance, trial budget, and integrator.
///
/// `None` fields keep the base [`NodeSolveOptions`] value, so the same
/// model (and the same options it was tuned with) can be re-dispatched at
/// a cheaper solver configuration — a degradation tier — without being
/// rebuilt. [`apply`](SolveOverride::apply) materializes the effective
/// options.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SolveOverride {
    /// Replacement error tolerance ε.
    pub tolerance: Option<f64>,
    /// Replacement trial budget per evaluation point.
    pub max_trials: Option<usize>,
    /// Replacement integrator.
    pub tableau: Option<TableauKind>,
}

impl SolveOverride {
    /// The identity override: every field keeps the base value.
    pub const NONE: SolveOverride = SolveOverride {
        tolerance: None,
        max_trials: None,
        tableau: None,
    };

    /// `true` when no field overrides anything.
    pub fn is_none(&self) -> bool {
        *self == SolveOverride::NONE
    }

    /// The effective options: `base` with every `Some` field replaced.
    ///
    /// # Panics
    ///
    /// Panics if an overriding tolerance is not positive or an overriding
    /// trial budget is zero.
    pub fn apply(&self, base: &NodeSolveOptions) -> NodeSolveOptions {
        let mut opts = *base;
        if let Some(tol) = self.tolerance {
            assert!(tol > 0.0, "override tolerance must be positive");
            opts.tolerance = tol;
        }
        if let Some(trials) = self.max_trials {
            assert!(trials > 0, "override trial budget must be positive");
            opts.max_trials_per_point = trials;
        }
        if let Some(tableau) = self.tableau {
            opts.tableau_kind = tableau;
        }
        opts
    }
}

impl NodeSolveOptions {
    /// Defaults matching the paper's experimental setup: RK23, conventional
    /// search with shrink 0.5, initial stepsize 0.1, no priority.
    pub fn new(tolerance: f64) -> Self {
        assert!(tolerance > 0.0, "tolerance must be positive");
        NodeSolveOptions {
            tolerance,
            default_dt: 0.1,
            controller: ControllerKind::Conventional { shrink: 0.5 },
            priority: None,
            tableau_kind: TableauKind::Rk23,
            max_trials_per_point: 64,
            max_points: 100_000,
            dt_min: 1e-10,
            fp16_storage: false,
            checkpoint_stride: 1,
        }
    }

    /// Sets the checkpoint stride (bounded-memory ACA).
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn with_checkpoint_stride(mut self, stride: usize) -> Self {
        assert!(stride > 0, "checkpoint stride must be positive");
        self.checkpoint_stride = stride;
        self
    }

    /// Enables FP16 quantization of stored states (checkpoints and the
    /// running state) — the prototype's storage precision.
    pub fn with_fp16_storage(mut self) -> Self {
        self.fp16_storage = true;
        self
    }

    /// Switches the stepsize-search policy.
    pub fn with_controller(mut self, kind: ControllerKind) -> Self {
        self.controller = kind;
        self
    }

    /// Enables priority processing + early stop with window `Ĥ`.
    pub fn with_priority(mut self, window_rows: usize) -> Self {
        self.priority = Some(PriorityOptions::new(window_rows));
        self
    }

    /// Sets the initial stepsize constant `C`.
    pub fn with_default_dt(mut self, dt: f64) -> Self {
        assert!(dt > 0.0 && dt.is_finite());
        self.default_dt = dt;
        self
    }

    /// Switches the integrator.
    pub fn with_tableau(mut self, kind: TableauKind) -> Self {
        self.tableau_kind = kind;
        self
    }
}

/// Record of one accepted integration step (one checkpoint interval).
#[derive(Clone, Debug)]
pub struct StepRecord {
    /// Start time of the step.
    pub t0: f64,
    /// Accepted stepsize.
    pub dt: f64,
    /// Trials the search used (1 = accepted immediately).
    pub trials: usize,
}

/// Per-layer statistics of the forward pass — the quantities Figs 11/13
/// plot.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerStats {
    /// Evaluation points (accepted steps), `n_eval`.
    pub points: usize,
    /// Total trials (accepted + rejected).
    pub trials: usize,
    /// Rejected trials.
    pub rejected: usize,
    /// Function evaluations.
    pub nfe: usize,
    /// Rows of the feature map processed across all trials.
    pub rows_processed: u64,
    /// Rows a non-prioritized implementation would have processed.
    pub rows_total: u64,
    /// Trials that stopped early in the priority window.
    pub early_stops: usize,
}

impl LayerStats {
    /// Adds `other`'s counts to these.
    fn absorb(&mut self, other: &LayerStats) {
        self.points += other.points;
        self.trials += other.trials;
        self.rejected += other.rejected;
        self.nfe += other.nfe;
        self.rows_processed += other.rows_processed;
        self.rows_total += other.rows_total;
        self.early_stops += other.early_stops;
    }
}

/// One stored ACA checkpoint: the state at the *left edge* of step
/// `step` (so `step == 0` is the layer input).
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Index of the step this state precedes.
    pub step: usize,
    /// Time of the checkpoint.
    pub t: f64,
    /// The stored state.
    pub state: Tensor,
}

/// Trace of one integration layer's forward pass. Checkpoints are exactly
/// the states the ACA method stores for the backward pass (§II-C) —
/// every accepted evaluation point at stride 1, sparser otherwise.
#[derive(Clone, Debug)]
pub struct LayerTrace {
    /// Stored checkpoints in increasing step order (always starts at the
    /// layer input, step 0).
    pub checkpoints: Vec<Checkpoint>,
    /// One record per accepted step (`checkpoints.len() - 1` records).
    pub steps: Vec<StepRecord>,
    /// Layer statistics.
    pub stats: LayerStats,
    /// The integrator used (the backward pass replays it).
    pub tableau: TableauKind,
}

impl LayerTrace {
    /// Bytes of checkpoint storage at the given element width — the DRAM
    /// traffic the forward pass generates for the backward pass.
    pub fn checkpoint_bytes(&self, bytes_per_element: usize) -> u64 {
        self.checkpoints
            .iter()
            .map(|c| c.state.storage_bytes(bytes_per_element) as u64)
            .sum()
    }
}

/// Trace of a full forward pass.
#[derive(Clone, Debug)]
pub struct ForwardTrace {
    /// One trace per integration layer.
    pub layers: Vec<LayerTrace>,
    /// Head cache when the model has a classifier head.
    pub head_cache: Option<HeadCache>,
}

impl ForwardTrace {
    /// Sum of layer statistics.
    pub fn total_stats(&self) -> LayerStats {
        let mut acc = LayerStats::default();
        for l in &self.layers {
            acc.absorb(&l.stats);
        }
        acc
    }

    /// Mean trials per integration layer (the y-axis of Figs 11 and 13).
    pub fn trials_per_layer(&self) -> f64 {
        self.total_stats().trials as f64 / self.layers.len() as f64
    }
}

/// The ACA recorder: a [`StepRecord`] per accepted step and every
/// `stride`-th state as a [`Checkpoint`], starting from the layer input.
struct AcaRecorder {
    stride: usize,
    checkpoints: Vec<Checkpoint>,
    steps: Vec<StepRecord>,
}

impl AcaRecorder {
    fn new(y0: &Tensor, t0: f64, stride: usize) -> Self {
        AcaRecorder {
            stride,
            checkpoints: vec![Checkpoint {
                step: 0,
                t: t0,
                state: y0.clone(),
            }],
            steps: Vec::new(),
        }
    }

    fn into_trace(self, stats: LayerStats, tableau: TableauKind) -> LayerTrace {
        LayerTrace {
            checkpoints: self.checkpoints,
            steps: self.steps,
            stats,
            tableau,
        }
    }
}

impl Recorder<Tensor> for AcaRecorder {
    fn record(&mut self, p: Accepted<'_, Tensor>) {
        self.steps.push(StepRecord {
            t0: p.t - p.dt,
            dt: p.dt,
            trials: p.trials,
        });
        if self.steps.len().is_multiple_of(self.stride) {
            self.checkpoints.push(Checkpoint {
                step: self.steps.len(),
                t: p.t,
                state: p.y.clone(),
            });
        }
    }
}

/// Rounds every element through IEEE binary16 (the FP16 storage
/// datapath).
fn quantize_f16(y: &mut Tensor) {
    for v in y.data_mut() {
        *v = enode_tensor::F16::from_f32(*v).to_f32();
    }
}

/// A stepper for `opts`' integrator and storage precision over states
/// shaped like `like`.
fn stepper_for(opts: &NodeSolveOptions, like: &Tensor) -> Stepper<'static, Tensor> {
    let stepper = Stepper::new(opts.tableau_kind.tableau(), like);
    if opts.fp16_storage {
        stepper.with_rounding(quantize_f16)
    } else {
        stepper
    }
}

/// Solves one integration layer on `stepper`, advancing `y` in place:
/// the search of [`Stepper::search`] with `f` evaluated into the
/// stepper's buffers, the decision norm `opts.priority` asks for, and
/// `rec` recording the accepted points.
fn solve_layer<R: Recorder<Tensor>>(
    stepper: &mut Stepper<'static, Tensor>,
    f: &Network,
    y: &mut Tensor,
    t_span: (f64, f64),
    opts: &NodeSolveOptions,
    rec: &mut R,
) -> Result<LayerStats, SolveError> {
    // Preflights mirroring the static lints (E062, E055): a violated
    // bound here means the artifact was never run through `enode-lint`.
    // Enforced in every build: a few comparisons per layer.
    assert!(
        opts.dt_min < opts.default_dt,
        "dt_min {} must be below default_dt {} (lint E062)",
        opts.dt_min,
        opts.default_dt
    );
    // Runtime floor: the smallest positive f16 subnormal (2^-24). The
    // static E055 lint is stricter (it flags the degraded-precision
    // subnormal range too); below 2^-24 the comparison is simply void.
    assert!(
        !opts.fp16_storage || opts.tolerance >= (-24.0f64).exp2(),
        "tolerance {} is unrepresentable in f16 state (lint E055)",
        opts.tolerance
    );
    let (t0, t1) = t_span;
    assert!(
        t0.is_finite() && t1.is_finite() && t1 > t0,
        "integration span must be finite and increasing, got ({t0}, {t1})"
    );
    let mut controller = opts
        .controller
        .build(opts.tableau_kind.tableau(), opts.default_dt);
    let limits = AdaptiveOptions {
        tolerance: opts.tolerance,
        dt_min: opts.dt_min,
        dt_max: f64::INFINITY,
        max_trials_per_point: opts.max_trials_per_point,
        max_points: opts.max_points,
    };
    let mut eval = |t: f64, p: &Tensor, out: &mut Tensor| f.eval_into(t as f32, p, out);
    let rows_per_map = num_rows(y) as u64;
    let mut priority = opts
        .priority
        .map(|p| PriorityNorm::new(p.window_rows, rows_per_map));
    let norm: &mut dyn DecisionNorm<Tensor> = match &mut priority {
        Some(p) => p,
        None => &mut FullNorm,
    };
    let solved = stepper.search(
        &mut eval,
        t_span,
        y,
        controller.as_mut(),
        &limits,
        norm,
        rec,
    )?;
    let rows_total = solved.total_trials() as u64 * rows_per_map;
    let (rows_processed, early_stops) = match priority {
        Some(p) => (p.rows_processed, p.early_stops),
        None => (rows_total, 0),
    };
    Ok(LayerStats {
        points: solved.accepted,
        trials: solved.total_trials(),
        rejected: solved.rejected,
        nfe: solved.nfe,
        rows_processed,
        rows_total,
        early_stops,
    })
}

/// The [`NodeError`] of a failed layer solve.
fn layer_error(e: SolveError, layer: usize) -> NodeError {
    match e {
        SolveError::NonFiniteState => NodeError::NonFiniteState { layer },
        SolveError::StepsizeUnderflow | SolveError::MaxStepsExceeded => {
            NodeError::StepsizeUnderflow { layer }
        }
    }
}

/// Solves one integration layer `[t0, t1]` with iterative stepsize search.
///
/// # Errors
///
/// Returns [`NodeError`] on stepsize underflow, an exhausted point
/// budget, or a non-finite state — including a non-finite `y0`, which is
/// refused before any evaluation (`layer` is reported as 0;
/// [`forward_model`] rewrites it).
///
/// # Panics
///
/// Panics if `opts.dt_min` is not below `opts.default_dt` (lint `E062`),
/// an FP16-stored solve's tolerance is below 2⁻²⁴ (lint `E055`), or the
/// span is not finite and increasing.
pub fn forward_layer(
    f: &Network,
    y0: &Tensor,
    t_span: (f64, f64),
    opts: &NodeSolveOptions,
) -> Result<(Tensor, LayerTrace), NodeError> {
    let mut y = y0.clone();
    let mut rec = AcaRecorder::new(y0, t_span.0, opts.checkpoint_stride);
    let stats = solve_layer(
        &mut stepper_for(opts, &y),
        f,
        &mut y,
        t_span,
        opts,
        &mut rec,
    )
    .map_err(|e| layer_error(e, 0))?;
    Ok((y, rec.into_trace(stats, opts.tableau_kind)))
}

/// Integrates every layer of `model` from `x` on one stepper, recording
/// each with the recorder `recorder` builds from the layer input. Returns
/// the final state projected to the model's original width, and each
/// layer's recorder and stats.
#[allow(clippy::type_complexity)]
fn integrate<R: Recorder<Tensor>>(
    model: &NodeModel,
    x: &Tensor,
    opts: &NodeSolveOptions,
    mut recorder: impl FnMut(&Tensor) -> R,
) -> Result<(Tensor, Vec<(R, LayerStats)>), NodeError> {
    let orig_width = x.shape()[1];
    let mut y = crate::augment::augment(x, model.augment_dims());
    let mut stepper = stepper_for(opts, &y);
    let mut layers = Vec::with_capacity(model.num_layers());
    for (li, f) in model.layers().iter().enumerate() {
        let mut rec = recorder(&y);
        let stats = solve_layer(&mut stepper, f, &mut y, model.t_span(), opts, &mut rec)
            .map_err(|e| layer_error(e, li))?;
        layers.push((rec, stats));
    }
    // ANODE: predictions live in the original dimensions.
    Ok((crate::augment::project(&y, orig_width), layers))
}

/// Runs the full NODE forward pass: every integration layer in sequence,
/// then the classifier head if present. Returns the model output (logits
/// when a head exists, else the final state) and the full trace: every
/// layer's step records and its ACA checkpoints.
///
/// # Errors
///
/// Returns [`NodeError`] identifying the failing layer; a non-finite
/// input fails layer 0 with [`NodeError::NonFiniteState`].
///
/// # Panics
///
/// Panics as [`forward_layer`] does on options or a span it refuses.
pub fn forward_model(
    model: &NodeModel,
    x: &Tensor,
    opts: &NodeSolveOptions,
) -> Result<(Tensor, ForwardTrace), NodeError> {
    let t0 = model.t_span().0;
    let (state, solved) = integrate(model, x, opts, |y0| {
        AcaRecorder::new(y0, t0, opts.checkpoint_stride)
    })?;
    let layers = solved
        .into_iter()
        .map(|(rec, stats)| rec.into_trace(stats, opts.tableau_kind))
        .collect();
    let (output, head_cache) = match model.head() {
        Some(head) => {
            let (logits, cache) = head.forward(&state);
            (logits, Some(cache))
        }
        None => (state, None),
    };
    Ok((output, ForwardTrace { layers, head_cache }))
}

/// [`forward_model`] without the trace: the same output bits and the
/// same summed [`LayerStats`] as `forward_model(..).1.total_stats()`,
/// with no step records or checkpoints kept — the serving path.
///
/// # Errors
///
/// As [`forward_model`].
pub fn forward_model_stats(
    model: &NodeModel,
    x: &Tensor,
    opts: &NodeSolveOptions,
) -> Result<(Tensor, LayerStats), NodeError> {
    let (state, solved) = integrate(model, x, opts, |_| ())?;
    let mut total = LayerStats::default();
    for (_, stats) in &solved {
        total.absorb(stats);
    }
    let output = match model.head() {
        Some(head) => head.forward(&state).0,
        None => state,
    };
    Ok((output, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use enode_tensor::dense::Dense;
    use enode_tensor::network::Op;

    /// A NODE whose embedded network computes exactly f(t, h) = -h,
    /// so the layer computes h(1) = h(0)·e^{-1}.
    fn decay_network() -> Network {
        let w = Tensor::from_vec(vec![-1.0], &[1, 1]);
        let b = Tensor::zeros(&[1]);
        Network::new(vec![Op::dense(Dense::from_parts(w, b))])
    }

    #[test]
    #[should_panic(expected = "lint E062")]
    fn dt_min_at_or_above_default_dt_is_refused() {
        let mut opts = NodeSolveOptions::new(1e-4);
        opts.dt_min = opts.default_dt;
        let y0 = Tensor::from_vec(vec![1.0], &[1, 1]);
        let _ = forward_layer(&decay_network(), &y0, (0.0, 1.0), &opts);
    }

    #[test]
    #[should_panic(expected = "lint E055")]
    fn fp16_tolerance_below_the_smallest_subnormal_is_refused() {
        let opts = NodeSolveOptions::new(1e-9).with_fp16_storage();
        let y0 = Tensor::from_vec(vec![1.0], &[1, 1]);
        let _ = forward_layer(&decay_network(), &y0, (0.0, 1.0), &opts);
    }

    #[test]
    #[should_panic(expected = "finite and increasing")]
    fn non_finite_span_is_refused() {
        // Unchecked, a NaN end skips the search loop and returns the
        // input unchanged with zero evaluations.
        let y0 = Tensor::from_vec(vec![1.0], &[1, 1]);
        let _ = forward_layer(
            &decay_network(),
            &y0,
            (0.0, f64::NAN),
            &NodeSolveOptions::new(1e-4),
        );
    }

    #[test]
    fn layer_solves_known_ode() {
        let f = decay_network();
        let y0 = Tensor::from_vec(vec![1.0], &[1, 1]);
        let opts = NodeSolveOptions::new(1e-7).with_default_dt(0.05);
        let (y, trace) = forward_layer(&f, &y0, (0.0, 1.0), &opts).unwrap();
        assert!(
            (y.data()[0] - (-1.0f32).exp()).abs() < 1e-4,
            "got {}",
            y.data()[0]
        );
        assert_eq!(trace.checkpoints.len(), trace.steps.len() + 1);
        assert!(trace.stats.points >= 5);
    }

    #[test]
    fn trace_times_are_monotone_and_cover_span() {
        let f = decay_network();
        let y0 = Tensor::from_vec(vec![2.0], &[1, 1]);
        let opts = NodeSolveOptions::new(1e-6);
        let (_, trace) = forward_layer(&f, &y0, (0.0, 1.0), &opts).unwrap();
        let mut prev = -1.0;
        for c in &trace.checkpoints {
            assert!(c.t > prev);
            prev = c.t;
        }
        assert_eq!(trace.checkpoints[0].t, 0.0);
        assert!((prev - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tighter_tolerance_more_points() {
        let f = decay_network();
        let y0 = Tensor::from_vec(vec![1.0], &[1, 1]);
        let loose = forward_layer(&f, &y0, (0.0, 1.0), &NodeSolveOptions::new(1e-3))
            .unwrap()
            .1;
        let tight = forward_layer(&f, &y0, (0.0, 1.0), &NodeSolveOptions::new(1e-8))
            .unwrap()
            .1;
        assert!(tight.stats.points > loose.stats.points);
    }

    #[test]
    fn multi_layer_model_composes() {
        // Two decay layers: h -> h e^{-1} -> h e^{-2}.
        let model = NodeModel::new(vec![decay_network(), decay_network()], (0.0, 1.0));
        let x = Tensor::from_vec(vec![1.0], &[1, 1]);
        let opts = NodeSolveOptions::new(1e-7).with_default_dt(0.05);
        let (y, trace) = forward_model(&model, &x, &opts).unwrap();
        assert!((y.data()[0] - (-2.0f32).exp()).abs() < 1e-3);
        assert_eq!(trace.layers.len(), 2);
    }

    #[test]
    fn slope_adaptive_beats_conventional_on_decay() {
        let f = decay_network();
        let y0 = Tensor::from_vec(vec![1.0], &[1, 1]);
        let conv = NodeSolveOptions::new(1e-6)
            .with_default_dt(0.02)
            .with_controller(ControllerKind::Conventional { shrink: 0.5 });
        let slope = NodeSolveOptions::new(1e-6)
            .with_default_dt(0.02)
            .with_controller(ControllerKind::SlopeAdaptive { s_acc: 3, s_rej: 3 });
        let t_conv = forward_layer(&f, &y0, (0.0, 2.0), &conv).unwrap().1;
        let t_slope = forward_layer(&f, &y0, (0.0, 2.0), &slope).unwrap().1;
        assert!(
            t_slope.stats.trials < t_conv.stats.trials,
            "slope {} vs conventional {}",
            t_slope.stats.trials,
            t_conv.stats.trials
        );
    }

    #[test]
    fn priority_reduces_rows_when_rejections_happen() {
        // Batch of 16 samples; start with a too-large dt to force rejects.
        let f = Network::new(vec![Op::dense(Dense::from_parts(
            Tensor::from_vec(vec![-3.0], &[1, 1]),
            Tensor::zeros(&[1]),
        ))]);
        let mut y0 = Tensor::zeros(&[16, 1]);
        for i in 0..16 {
            y0.data_mut()[i] = 1.0 + i as f32;
        }
        let base = NodeSolveOptions::new(1e-6).with_default_dt(0.5);
        let prio = base.with_priority(4);
        let tb = forward_layer(&f, &y0, (0.0, 1.0), &base).unwrap().1;
        let tp = forward_layer(&f, &y0, (0.0, 1.0), &prio).unwrap().1;
        assert!(
            tb.stats.rejected > 0,
            "test needs rejections to be meaningful"
        );
        assert!(
            tp.stats.early_stops > 0,
            "priority should early-stop rejects"
        );
        assert!(
            tp.stats.rows_processed < tp.stats.rows_total,
            "early stops must save rows"
        );
    }

    #[test]
    fn non_finite_dynamics_reported_with_layer() {
        // Failure injection: a network whose weights explode produces NaN/
        // inf states; the solver must fail cleanly, naming the layer.
        let w = Tensor::from_vec(vec![1e30], &[1, 1]);
        let bad = Network::new(vec![Op::dense(Dense::from_parts(w, Tensor::zeros(&[1])))]);
        let model = NodeModel::new(vec![decay_network(), bad], (0.0, 1.0));
        let x = Tensor::from_vec(vec![1.0], &[1, 1]);
        let err = forward_model(&model, &x, &NodeSolveOptions::new(1e-5)).unwrap_err();
        match err {
            NodeError::NonFiniteState { layer } => assert_eq!(layer, 1),
            NodeError::StepsizeUnderflow { layer } => assert_eq!(layer, 1),
        }
    }

    #[test]
    fn stats_only_forward_matches_the_traced_one() {
        for model in [
            NodeModel::dynamic_system(2, 8, 2, 3),
            NodeModel::image_classifier_normed(4, 2, 2, 10, 2, 7),
        ] {
            let dims: &[usize] = if model.head().is_some() {
                &[1, 4, 6, 6]
            } else {
                &[1, 2]
            };
            let x = enode_tensor::init::uniform(dims, -1.0, 1.0, 5);
            let opts = NodeSolveOptions::new(1e-4).with_checkpoint_stride(2);
            let (y, trace) = forward_model(&model, &x, &opts).unwrap();
            let (y_stats, stats) = forward_model_stats(&model, &x, &opts).unwrap();
            assert_eq!(y.data(), y_stats.data());
            assert_eq!(stats, trace.total_stats());
        }
    }

    #[test]
    fn non_finite_input_is_refused_in_every_build() {
        let model = NodeModel::new(vec![decay_network(), decay_network()], (0.0, 1.0));
        let x = Tensor::from_vec(vec![f32::INFINITY], &[1, 1]);
        let opts = NodeSolveOptions::new(1e-5);
        let err = NodeError::NonFiniteState { layer: 0 };
        assert_eq!(forward_model(&model, &x, &opts).unwrap_err(), err);
        assert_eq!(forward_model_stats(&model, &x, &opts).unwrap_err(), err);
        assert_eq!(
            forward_layer(&decay_network(), &x, (0.0, 1.0), &opts).unwrap_err(),
            err
        );
    }

    #[test]
    fn impossible_tolerance_underflows_cleanly() {
        // A tolerance below the f32 noise floor exhausts the trial budget
        // instead of looping forever.
        let f = decay_network();
        let y0 = Tensor::from_vec(vec![1.0], &[1, 1]);
        let mut opts = NodeSolveOptions::new(1e-30);
        opts.max_trials_per_point = 8;
        opts.dt_min = 1e-6;
        let err = forward_layer(&f, &y0, (0.0, 1.0), &opts).unwrap_err();
        assert!(matches!(err, NodeError::StepsizeUnderflow { .. }));
    }

    #[test]
    fn point_budget_counts_steps_at_every_checkpoint_stride() {
        // A dynamic-system layer that needs more than 10 points at ε = 1e-6.
        let model = NodeModel::dynamic_system(2, 16, 1, 7);
        let f = &model.layers()[0];
        let y0 = Tensor::from_vec(vec![0.8, -0.6], &[1, 2]);
        let base = NodeSolveOptions::new(1e-6);
        let points = forward_layer(f, &y0, model.t_span(), &base)
            .unwrap()
            .1
            .stats
            .points;
        assert!(points > 10, "the layer must outrun the budget ({points})");
        for stride in [1usize, 4] {
            let mut opts = base.with_checkpoint_stride(stride);
            opts.max_points = 10;
            let err = forward_layer(f, &y0, model.t_span(), &opts).unwrap_err();
            assert_eq!(
                err,
                NodeError::StepsizeUnderflow { layer: 0 },
                "stride {stride}"
            );
            // The budget is exact: `points` steps fit, one fewer does not.
            opts.max_points = points;
            assert!(forward_layer(f, &y0, model.t_span(), &opts).is_ok());
            opts.max_points = points - 1;
            assert!(forward_layer(f, &y0, model.t_span(), &opts).is_err());
        }
    }

    #[test]
    fn fp16_storage_quantizes_but_stays_accurate() {
        let f = decay_network();
        let y0 = Tensor::from_vec(vec![1.0], &[1, 1]);
        let opts32 = NodeSolveOptions::new(1e-5).with_default_dt(0.05);
        let opts16 = opts32.with_fp16_storage();
        let (y32, _) = forward_layer(&f, &y0, (0.0, 1.0), &opts32).unwrap();
        let (y16, trace) = forward_layer(&f, &y0, (0.0, 1.0), &opts16).unwrap();
        // Different bits (quantization happened) ...
        assert_ne!(y32.data(), y16.data());
        // ... but within FP16 accumulation error of the exact solution.
        let exact = (-1.0f32).exp();
        assert!(
            (y16.data()[0] - exact).abs() < 1e-2,
            "fp16 path drifted: {} vs {exact}",
            y16.data()[0]
        );
        // Every checkpoint is exactly representable in binary16.
        for ck in &trace.checkpoints {
            for &v in ck.state.data() {
                assert_eq!(enode_tensor::F16::from_f32(v).to_f32(), v);
            }
        }
    }

    #[test]
    fn head_output_shape() {
        let model = NodeModel::image_classifier(4, 2, 1, 10, 0);
        let x = Tensor::ones(&[2, 4, 6, 6]);
        let opts = NodeSolveOptions::new(1e-3);
        let (logits, trace) = forward_model(&model, &x, &opts).unwrap();
        assert_eq!(logits.shape(), &[2, 10]);
        assert!(trace.head_cache.is_some());
    }
}
