//! The analysis IR: one typed dataflow program graph per pipeline
//! artifact.
//!
//! [`lower_pipeline`] expands a whole pipeline — the embedded network of
//! every integration layer, the RK stage schedule of the chosen Butcher
//! tableau unrolled over the nominal accepted steps, the ACA checkpoint
//! plan, and (when a hardware configuration is attached) the layer-to-core
//! mapping — into a single [`ProgramGraph`]. Node ids are topological
//! (every predecessor has a smaller id), so a forward pass is one loop
//! over the nodes in id order. The per-op helpers below back both this
//! lowering and the `E02x` shape/range lints (`infer_shapes` is the one
//! shape fold), so every pass family shares one model of what each op
//! does to shapes, magnitudes, and errors.
//!
//! # Predecessor conventions
//!
//! A node's `preds` are in this order:
//!
//! * [`NodeKind::StateInput`] — `[]` for layer 0 (boundary), otherwise
//!   `[final state of the previous layer]`.
//! * [`NodeKind::StageInput`] for stage `i` — `[y, k_0, …, k_{i-1}]`,
//!   combined with the tableau row `a[i]` (stage 0 passes `y` through).
//! * [`NodeKind::NetOp`] — `[input]` (the stage input or the previous op).
//! * [`NodeKind::Solution`] — `[y, k_0, …, k_{s-1}]`, weights `b`.
//! * [`NodeKind::ErrorEstimate`] — `[k_0, …, k_{s-1}]`, error weights `d`.
//! * [`NodeKind::Checkpoint`] — `[state at the interval start]`.
//! * [`NodeKind::AdjointReplay`] — `[checkpoint, state at interval end]`.
//! * [`NodeKind::MapLayer`] — `[step-0 stage-0 op output]` (structural:
//!   ties the mapping to the computation it hosts; has no users).

use enode_hw::config::HwConfig;
use enode_hw::mapping::map_layers;
use enode_node::inference::NodeSolveOptions;
use enode_node::model::NodeModel;
use enode_ode::tableau::ButcherTableau;
use enode_tensor::activation::Activation;
use enode_tensor::network::Op;

/// Magnitude bound assumed for the ODE time `t` appended by `ConcatTime`
/// (the paper integrates over `t ∈ [0, 1]`).
pub(crate) const TIME_BOUND: f64 = 1.0;

/// Cap on the unrolled accepted-step count: the schedule is expanded at
/// the controller's nominal stepsize (`span / default_dt` steps); deeper
/// unrolls add no new range behaviour for saturating fields but would
/// bloat the graph.
const MAX_UNROLLED_STEPS: usize = 32;

/// Everything the analysis knows about one runnable pipeline: the model,
/// the state it integrates, the solver plan, and (optionally) the
/// hardware configuration it is mapped onto.
#[derive(Clone, Debug)]
pub struct PipelineArtifact {
    /// Display name used as the diagnostic subject.
    pub name: String,
    /// The NODE model (embedded networks + head).
    pub model: NodeModel,
    /// NCHW (or NC) state shape fed to the first integration layer.
    pub state_shape: Vec<usize>,
    /// Largest absolute state magnitude expected at the model input.
    pub input_bound: f64,
    /// The solver plan: tableau, controller, tolerance, checkpoint stride.
    pub solver: NodeSolveOptions,
    /// Hardware configuration the pipeline is mapped onto, if any.
    pub hw: Option<HwConfig>,
}

impl PipelineArtifact {
    /// Bundles a pipeline artifact for analysis.
    pub fn new(
        name: impl Into<String>,
        model: NodeModel,
        state_shape: Vec<usize>,
        input_bound: f64,
        solver: NodeSolveOptions,
        hw: Option<HwConfig>,
    ) -> Self {
        PipelineArtifact {
            name: name.into(),
            model,
            state_shape,
            input_bound,
            solver,
            hw,
        }
    }
}

/// What a program-graph node computes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// The state entering integration layer `layer`.
    StateInput {
        /// Integration-layer index.
        layer: usize,
    },
    /// One embedded-network op inside an RK stage evaluation.
    NetOp {
        /// Integration-layer index.
        layer: usize,
        /// Unrolled accepted-step index.
        step: usize,
        /// RK stage index.
        stage: usize,
        /// Op index within the layer's network.
        op_index: usize,
    },
    /// The RK stage input `p_i = y + h Σ_j a_ij k_j`.
    StageInput {
        /// Integration-layer index.
        layer: usize,
        /// Unrolled accepted-step index.
        step: usize,
        /// RK stage index.
        stage: usize,
    },
    /// The accepted-step combine `y⁺ = y + h Σ_i b_i k_i`.
    Solution {
        /// Integration-layer index.
        layer: usize,
        /// Unrolled accepted-step index.
        step: usize,
    },
    /// The embedded error estimate `e = h Σ_i d_i k_i`.
    ErrorEstimate {
        /// Integration-layer index.
        layer: usize,
        /// Unrolled accepted-step index.
        step: usize,
    },
    /// An ACA checkpoint store of the state entering step `step`.
    Checkpoint {
        /// Integration-layer index.
        layer: usize,
        /// Step whose input state is stored.
        step: usize,
        /// Whether the store quantizes through IEEE binary16.
        fp16: bool,
    },
    /// The backward pass's local forward replay of one checkpoint
    /// interval (ACA recomputation).
    AdjointReplay {
        /// Integration-layer index.
        layer: usize,
        /// First step of the interval.
        start_step: usize,
        /// Steps replayed from the checkpoint.
        steps: usize,
        /// Whether the checkpoint was stored in binary16.
        fp16: bool,
    },
    /// Placement of one compute op (conv/dense) on an NN core.
    MapLayer {
        /// Integration-layer index.
        layer: usize,
        /// Op index within the layer's network.
        op_index: usize,
        /// Core the op is mapped to.
        core: usize,
        /// Time-multiplexing round the op runs in.
        round: usize,
    },
}

/// One node: its kind plus dataflow predecessors.
#[derive(Clone, Debug)]
pub struct Node {
    /// What the node computes.
    pub kind: NodeKind,
    /// Dataflow inputs, in the order documented on [`NodeKind`].
    pub preds: Vec<usize>,
}

/// A typed dataflow program graph: a DAG whose nodes are created in
/// topological order, so every predecessor id is below its node's id.
#[derive(Clone, Debug, Default)]
pub struct ProgramGraph {
    nodes: Vec<Node>,
}

impl ProgramGraph {
    /// Appends a node. Panics on a predecessor that does not precede it:
    /// every pass is one sweep in id order and reads its preds' values.
    fn push(&mut self, kind: NodeKind, preds: Vec<usize>) -> usize {
        assert!(
            preds.iter().all(|&p| p < self.nodes.len()),
            "program graph node {} reads a later node: {preds:?}",
            self.nodes.len()
        );
        self.nodes.push(Node { kind, preds });
        self.nodes.len() - 1
    }

    /// All nodes, indexed by id.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The node with this id.
    pub fn node(&self, id: usize) -> &Node {
        &self.nodes[id]
    }

    /// A short location string for diagnostics, e.g. `L0.t3.k1.op2`
    /// (layer 0, step 3, stage 1, op 2).
    pub fn location(&self, id: usize) -> String {
        match &self.nodes[id].kind {
            NodeKind::StateInput { layer } => format!("L{layer}.in"),
            NodeKind::NetOp {
                layer,
                step,
                stage,
                op_index,
            } => format!("L{layer}.t{step}.k{stage}.op{op_index}"),
            NodeKind::StageInput { layer, step, stage } => format!("L{layer}.t{step}.p{stage}"),
            NodeKind::Solution { layer, step } => format!("L{layer}.t{step}.y"),
            NodeKind::ErrorEstimate { layer, step } => format!("L{layer}.t{step}.e"),
            NodeKind::Checkpoint { layer, step, .. } => format!("L{layer}.t{step}.ck"),
            NodeKind::AdjointReplay {
                layer,
                start_step,
                steps,
                ..
            } => format!("L{layer}.t{start_step}+{steps}.adj"),
            NodeKind::MapLayer {
                layer,
                op_index,
                core,
                ..
            } => format!("L{layer}.op{op_index}@core{core}"),
        }
    }
}

/// A lowered pipeline: the graph plus the schedule facts passes need.
#[derive(Clone, Debug)]
pub struct LoweredPipeline {
    /// The program graph.
    pub graph: ProgramGraph,
    /// The materialized Butcher tableau.
    pub tableau: ButcherTableau,
    /// Nominal accepted stepsize the schedule was unrolled at.
    pub h: f64,
    /// Number of unrolled accepted steps per integration layer.
    pub n_steps: usize,
    /// Per integration layer: the input shape of each op (`None` when
    /// shape inference fails — the `E02x` lints report that separately).
    pub op_shapes: Vec<Option<Vec<Vec<usize>>>>,
    /// Node id of each integration layer's final accepted state.
    pub layer_outputs: Vec<usize>,
}

/// Lowers a whole pipeline artifact into one program graph.
///
/// The solver schedule is unrolled for `ceil(span / default_dt)` accepted
/// steps (capped at an internal bound) at the uniform nominal stepsize —
/// the best static estimate of the adaptive trajectory. FSAL stage reuse
/// is deliberately ignored: re-evaluating the shared stage is
/// value-identical, and keeping every stage explicit keeps per-stage
/// facts addressable.
pub fn lower_pipeline(artifact: &PipelineArtifact) -> LoweredPipeline {
    let tableau = artifact.solver.tableau_kind.tableau().clone();
    let (t0, t1) = artifact.model.t_span();
    let span = (t1 - t0).max(f64::MIN_POSITIVE);
    let n_steps =
        ((span / artifact.solver.default_dt).ceil() as usize).clamp(1, MAX_UNROLLED_STEPS);
    let h = span / n_steps as f64;
    let stride = artifact.solver.checkpoint_stride.max(1);
    let fp16 = artifact.solver.fp16_storage;
    let stages = tableau.stages();

    let mut graph = ProgramGraph::default();
    let mut op_shapes = Vec::new();
    let mut layer_outputs = Vec::new();
    let mut prev_out: Option<usize> = None;

    for (layer, net) in artifact.model.layers().iter().enumerate() {
        // Static per-op input shapes (identical at every stage and step).
        op_shapes.push(
            infer_shapes(net.ops(), &artifact.state_shape)
                .ok()
                .map(|s| s.inputs),
        );

        let entry = graph.push(
            NodeKind::StateInput { layer },
            prev_out.into_iter().collect(),
        );
        let mut y = entry;
        let mut first_stage0_op: Option<usize> = None;
        let mut interval_ck: Option<(usize, usize)> = None; // (ck node, start step)

        for step in 0..n_steps {
            if step % stride == 0 {
                // Close the previous checkpoint interval with its replay.
                if let Some((ck, start)) = interval_ck.take() {
                    graph.push(
                        NodeKind::AdjointReplay {
                            layer,
                            start_step: start,
                            steps: step - start,
                            fp16,
                        },
                        vec![ck, y],
                    );
                }
                let ck = graph.push(NodeKind::Checkpoint { layer, step, fp16 }, vec![y]);
                interval_ck = Some((ck, step));
            }
            let mut ks = Vec::with_capacity(stages);
            for stage in 0..stages {
                let mut preds = vec![y];
                preds.extend_from_slice(&ks[..stage.min(ks.len())]);
                let p = graph.push(NodeKind::StageInput { layer, step, stage }, preds);
                let mut cur = p;
                for op_index in 0..net.ops().len() {
                    cur = graph.push(
                        NodeKind::NetOp {
                            layer,
                            step,
                            stage,
                            op_index,
                        },
                        vec![cur],
                    );
                    if step == 0 && stage == 0 && first_stage0_op.is_none() {
                        first_stage0_op = Some(cur);
                    }
                }
                ks.push(cur);
            }
            let mut sol_preds = vec![y];
            sol_preds.extend_from_slice(&ks);
            let sol = graph.push(NodeKind::Solution { layer, step }, sol_preds);
            if tableau.is_adaptive() {
                graph.push(NodeKind::ErrorEstimate { layer, step }, ks.clone());
            }
            y = sol;
        }
        if let Some((ck, start)) = interval_ck.take() {
            graph.push(
                NodeKind::AdjointReplay {
                    layer,
                    start_step: start,
                    steps: n_steps - start,
                    fp16,
                },
                vec![ck, y],
            );
        }

        // Hardware mapping: place each compute op on its NN core.
        if let Some(cfg) = &artifact.hw {
            let compute: Vec<usize> = net
                .ops()
                .iter()
                .enumerate()
                .filter(|(_, op)| matches!(op, Op::Conv2d(_) | Op::Dense(_)))
                .map(|(i, _)| i)
                .collect();
            if !compute.is_empty() && cfg.cores > 0 {
                let mapping = map_layers(compute.len(), cfg.cores);
                for (slot, &op_index) in compute.iter().enumerate() {
                    graph.push(
                        NodeKind::MapLayer {
                            layer,
                            op_index,
                            core: mapping.core_of_layer[slot],
                            round: slot / cfg.cores,
                        },
                        first_stage0_op.into_iter().collect(),
                    );
                }
            }
        }

        layer_outputs.push(y);
        prev_out = Some(y);
    }

    LoweredPipeline {
        graph,
        tableau,
        h,
        n_steps,
        op_shapes,
        layer_outputs,
    }
}

/// The shapes an embedded network threads through its op chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ChainShapes {
    /// Each op's input shape, in op order.
    pub inputs: Vec<Vec<usize>>,
    /// The network's output shape.
    pub output: Vec<usize>,
}

/// Folds `input_shape` through `ops`, or returns the index and reason of
/// the first op that rejects its input.
pub(crate) fn infer_shapes(
    ops: &[Op],
    input_shape: &[usize],
) -> Result<ChainShapes, (usize, String)> {
    let mut inputs = Vec::with_capacity(ops.len());
    let mut shape = input_shape.to_vec();
    for (op_index, op) in ops.iter().enumerate() {
        let out = op_output_shape(op, &shape).map_err(|reason| (op_index, reason))?;
        inputs.push(std::mem::replace(&mut shape, out));
    }
    Ok(ChainShapes {
        inputs,
        output: shape,
    })
}

// ---------------------------------------------------------------------------
// Op-level transfer helpers shared by the shape, range, and precision
// passes. The shape/bound rules and their error strings are the E02x
// lints' published wording; they must stay byte-stable.
// ---------------------------------------------------------------------------

/// Shape inference for one op. `Ok(out_shape)` or `Err(reason)`.
pub(crate) fn op_output_shape(op: &Op, shape: &[usize]) -> Result<Vec<usize>, String> {
    match op {
        Op::Conv2d(c) => {
            if shape.len() != 4 {
                return Err(format!(
                    "Conv2d needs rank-4 NCHW input, got rank {}",
                    shape.len()
                ));
            }
            if shape[1] != c.in_channels() {
                return Err(format!(
                    "Conv2d expects {} input channels, got {}",
                    c.in_channels(),
                    shape[1]
                ));
            }
            if shape[2] < c.kernel() || shape[3] < c.kernel() {
                return Err(format!(
                    "Conv2d kernel {} does not fit {}x{} input",
                    c.kernel(),
                    shape[2],
                    shape[3]
                ));
            }
            Ok(vec![shape[0], c.out_channels(), shape[2], shape[3]])
        }
        Op::Dense(d) => {
            if shape.len() != 2 {
                return Err(format!(
                    "Dense needs rank-2 input, got rank {}",
                    shape.len()
                ));
            }
            if shape[1] != d.in_features() {
                return Err(format!(
                    "Dense expects {} input features, got {}",
                    d.in_features(),
                    shape[1]
                ));
            }
            Ok(vec![shape[0], d.out_features()])
        }
        Op::Activation(_) => Ok(shape.to_vec()),
        Op::GroupNorm(g) => {
            if shape.len() != 4 {
                return Err(format!(
                    "GroupNorm needs rank-4 NCHW input, got rank {}",
                    shape.len()
                ));
            }
            if shape[1] != g.channels() {
                return Err(format!(
                    "GroupNorm expects {} channels, got {}",
                    g.channels(),
                    shape[1]
                ));
            }
            Ok(shape.to_vec())
        }
        Op::ConcatTime => match shape.len() {
            4 => Ok(vec![shape[0], shape[1] + 1, shape[2], shape[3]]),
            2 => Ok(vec![shape[0], shape[1] + 1]),
            r => Err(format!(
                "ConcatTime supports rank 2 or 4 inputs, got rank {r}"
            )),
        },
    }
}

/// Worst-case output magnitude of one op given an input magnitude bound.
pub(crate) fn op_output_bound(op: &Op, shape: &[usize], bound: f64) -> f64 {
    match op {
        Op::Conv2d(c) => {
            // |y_o| ≤ Σ_{c,k,k} |w[o,·]|·bound + |b[o]|, worst output channel.
            let w = c.weight();
            let per_out = w.len() / c.out_channels();
            (0..c.out_channels())
                .map(|o| {
                    let wsum: f64 = w.data()[o * per_out..(o + 1) * per_out]
                        .iter()
                        .map(|x| x.abs() as f64)
                        .sum();
                    wsum * bound + c.bias().data()[o].abs() as f64
                })
                .fold(0.0, f64::max)
        }
        Op::Dense(d) => {
            let w = d.weight();
            let per_out = d.in_features();
            (0..d.out_features())
                .map(|o| {
                    let wsum: f64 = w.data()[o * per_out..(o + 1) * per_out]
                        .iter()
                        .map(|x| x.abs() as f64)
                        .sum();
                    wsum * bound + d.bias().data()[o].abs() as f64
                })
                .fold(0.0, f64::max)
        }
        Op::Activation(a) => match a {
            Activation::Relu => bound,
            Activation::Tanh | Activation::Sigmoid => 1.0,
            // softplus(x) ≤ max(x, 0) + ln 2.
            Activation::Softplus => bound + std::f64::consts::LN_2,
        },
        Op::GroupNorm(g) => {
            // |x̂| ≤ √(N−1) for a group of N elements (extreme: one element
            // carries all the variance), so |y| ≤ max|γ|·√(N−1) + max|β|.
            let group_elems = group_elems(g, shape);
            let xhat_bound = ((group_elems.saturating_sub(1)) as f64).sqrt();
            let gmax = abs_max(g.gamma().data());
            let bmax = abs_max(g.beta().data());
            gmax * xhat_bound + bmax
        }
        Op::ConcatTime => bound.max(TIME_BOUND),
    }
}

/// Elements per GroupNorm group for an NCHW input shape.
pub(crate) fn group_elems(g: &enode_tensor::norm::GroupNorm, shape: &[usize]) -> usize {
    (g.channels() / g.groups().max(1)) * shape[2] * shape[3]
}

/// Perturbation gain of one op: a bound on how much an input error grows
/// through it (the ∞-norm operator bound for linear ops, the worst
/// derivative for activations, and a `max|γ|·√N` proxy for GroupNorm —
/// the normalization's Jacobian scales with `γ/σ` and σ is not statically
/// bounded below, so the pass uses the group size as the nominal scale).
pub(crate) fn op_error_gain(op: &Op, shape: &[usize]) -> f64 {
    match op {
        Op::Conv2d(c) => {
            let w = c.weight();
            let per_out = w.len() / c.out_channels();
            (0..c.out_channels())
                .map(|o| {
                    w.data()[o * per_out..(o + 1) * per_out]
                        .iter()
                        .map(|x| x.abs() as f64)
                        .sum()
                })
                .fold(0.0, f64::max)
        }
        Op::Dense(d) => {
            let w = d.weight();
            let per_out = d.in_features();
            (0..d.out_features())
                .map(|o| {
                    w.data()[o * per_out..(o + 1) * per_out]
                        .iter()
                        .map(|x| x.abs() as f64)
                        .sum()
                })
                .fold(0.0, f64::max)
        }
        Op::Activation(a) => match a {
            Activation::Relu | Activation::Tanh | Activation::Softplus => 1.0,
            Activation::Sigmoid => 0.25,
        },
        Op::GroupNorm(g) => abs_max(g.gamma().data()) * (group_elems(g, shape) as f64).sqrt(),
        Op::ConcatTime => 1.0,
    }
}

/// FP16 bytes of one op's trainable parameters (zero for activations).
pub(crate) fn op_weight_bytes_fp16(op: &Op) -> u64 {
    let scalars = match op {
        Op::Conv2d(c) => c.weight().len() + c.bias().len(),
        Op::Dense(d) => d.weight().len() + d.bias().len(),
        Op::GroupNorm(g) => g.gamma().len() + g.beta().len(),
        Op::Activation(_) | Op::ConcatTime => 0,
    };
    2 * scalars as u64
}

/// FP16 bytes of the cache one op's backward pass needs, given the op's
/// input shape (mirrors `aca_backward_layer`'s `cache_bytes`).
pub(crate) fn op_cache_bytes_fp16(op: &Op, in_shape: &[usize]) -> u64 {
    let elems: usize = in_shape.iter().product();
    match op {
        Op::ConcatTime => 0,
        // GroupNorm caches x̂ (input-sized) plus tiny per-group stats.
        _ => 2 * elems as u64,
    }
}

fn abs_max(data: &[f32]) -> f64 {
    data.iter().map(|x| x.abs() as f64).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use enode_hw::config::HwConfig;

    fn artifact(stride: usize, fp16: bool, hw: Option<HwConfig>) -> PipelineArtifact {
        let mut solver =
            enode_node::inference::NodeSolveOptions::new(1e-6).with_checkpoint_stride(stride);
        if fp16 {
            solver = solver.with_fp16_storage();
        }
        PipelineArtifact::new(
            "test",
            NodeModel::dynamic_system(2, 8, 2, 3),
            vec![1, 2],
            4.0,
            solver,
            hw,
        )
    }

    #[test]
    fn lowering_is_topological_and_complete() {
        let lp = lower_pipeline(&artifact(1, false, None));
        let g = &lp.graph;
        for (i, n) in g.nodes().iter().enumerate() {
            for &p in &n.preds {
                assert!(p < i, "node {i} has forward pred {p}");
            }
        }
        // 2 layers × (1 input + 10 steps × (4 stages × (1 + 4 ops) + y⁺ + e)
        //             + 10 checkpoints + 10 replays).
        assert_eq!(lp.n_steps, 10);
        let stages = lp.tableau.stages();
        let per_layer = 1 + lp.n_steps * (stages * 5 + 2) + 10 + 10;
        assert_eq!(g.nodes().len(), 2 * per_layer);
        assert_eq!(lp.layer_outputs.len(), 2);
        // Layers chain: layer 1's input depends on layer 0's output.
        let l1_in = g
            .nodes()
            .iter()
            .position(|n| n.kind == NodeKind::StateInput { layer: 1 })
            .unwrap();
        assert_eq!(g.node(l1_in).preds, [lp.layer_outputs[0]]);
    }

    #[test]
    fn checkpoint_stride_groups_steps_into_intervals() {
        let lp = lower_pipeline(&artifact(4, true, None));
        let replays: Vec<(usize, usize, bool)> = lp
            .graph
            .nodes()
            .iter()
            .filter_map(|n| match n.kind {
                NodeKind::AdjointReplay {
                    start_step,
                    steps,
                    fp16,
                    ..
                } => Some((start_step, steps, fp16)),
                _ => None,
            })
            .collect();
        // 10 steps at stride 4 → intervals of 4, 4, 2 per layer.
        assert_eq!(replays.len(), 6);
        assert_eq!(&replays[..3], &[(0, 4, true), (4, 4, true), (8, 2, true)]);
    }

    #[test]
    fn hw_mapping_lowers_to_map_nodes() {
        let lp = lower_pipeline(&artifact(1, false, Some(HwConfig::config_a())));
        let maps: Vec<&NodeKind> = lp
            .graph
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::MapLayer { .. }))
            .map(|n| &n.kind)
            .collect();
        // dynamic_system layers have 2 dense ops each; 2 layers → 4 placements.
        assert_eq!(maps.len(), 4);
    }

    #[test]
    fn every_op_feeds_its_layers_last_replay() {
        // Each op's stage output reaches the layer's final state through
        // the solution combines, and the last replay reads that state:
        // E061 charges every op's backward cache on this fact.
        for stride in [1, 3, 4, 10] {
            let lp = lower_pipeline(&artifact(stride, false, Some(HwConfig::config_a())));
            for (layer, &out) in lp.layer_outputs.iter().enumerate() {
                let last_replay = lp
                    .graph
                    .nodes()
                    .iter()
                    .rev()
                    .find(|n| {
                        matches!(n.kind, NodeKind::AdjointReplay { layer: l, .. } if l == layer)
                    })
                    .expect("every layer closes with a replay");
                assert_eq!(last_replay.preds[1], out, "stride {stride} layer {layer}");
            }
        }
        let g = lower_pipeline(&artifact(1, false, None)).graph;
        assert_eq!(g.location(0), "L0.in");
        assert_eq!(g.location(3), "L0.t0.k0.op0");
    }

    #[test]
    fn shape_fold_reports_the_first_rejecting_op() {
        let model = NodeModel::dynamic_system(2, 8, 2, 3);
        let ops = model.layers()[0].ops();
        let s = infer_shapes(ops, &[1, 2]).expect("dynamic system infers");
        assert_eq!(s.inputs.len(), ops.len());
        assert_eq!(s.inputs[0], [1, 2]);
        assert_eq!(s.output, [1, 2]);
        let (op_index, reason) = infer_shapes(ops, &[1, 5]).unwrap_err();
        assert_eq!(op_index, 1);
        assert_eq!(reason, "Dense expects 3 input features, got 6");
    }
}
