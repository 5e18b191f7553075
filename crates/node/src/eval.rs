//! Model evaluation utilities: confusion matrices and the
//! accuracy-versus-compute trade-off curve (the axis along which every
//! eNODE algorithm knob — ε, s_acc/s_rej, Ĥ — moves a deployment).

use crate::inference::{
    forward_model, forward_model_stats, ForwardTrace, LayerStats, NodeError, NodeSolveOptions,
    SolveOverride,
};
use crate::loss::cross_entropy_logits;
use crate::model::NodeModel;
use enode_tensor::{parallel, Tensor};

/// A confusion matrix for a `k`-class classifier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfusionMatrix {
    k: usize,
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// An empty `k × k` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "need at least one class");
        ConfusionMatrix {
            k,
            counts: vec![0; k * k],
        }
    }

    /// Builds the matrix from logits `[N, K]` and true labels.
    ///
    /// # Panics
    ///
    /// Panics if shapes/labels are inconsistent.
    pub fn from_logits(logits: &Tensor, labels: &[usize]) -> Self {
        let (n, k) = (logits.shape()[0], logits.shape()[1]);
        assert_eq!(labels.len(), n, "one label per sample");
        let mut m = ConfusionMatrix::new(k);
        for (ni, &label) in labels.iter().enumerate() {
            let row = &logits.data()[ni * k..(ni + 1) * k];
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            m.record(label, pred);
        }
        m
    }

    /// Records one `(true, predicted)` observation.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn record(&mut self, truth: usize, predicted: usize) {
        assert!(truth < self.k && predicted < self.k, "class out of range");
        self.counts[truth * self.k + predicted] += 1;
    }

    /// Count of samples with true class `t` predicted as `p`.
    pub fn count(&self, truth: usize, predicted: usize) -> u64 {
        self.counts[truth * self.k + predicted]
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        let correct: u64 = (0..self.k).map(|i| self.count(i, i)).sum();
        if self.total() == 0 {
            0.0
        } else {
            correct as f64 / self.total() as f64
        }
    }

    /// Recall of one class (diagonal / row sum), `None` when unseen.
    pub fn recall(&self, class: usize) -> Option<f64> {
        let row: u64 = (0..self.k).map(|p| self.count(class, p)).sum();
        if row == 0 {
            None
        } else {
            Some(self.count(class, class) as f64 / row as f64)
        }
    }
}

/// Runs the NODE forward pass sample-by-sample, in parallel across the
/// workspace pool ([`enode_tensor::parallel`]).
///
/// Each sample gets an independent solve — its own stepsize-search
/// schedule, like the per-input inference an edge deployment performs —
/// so this is *not* numerically interchangeable with calling
/// [`forward_model`] on the whole batch, where the stepsize controller
/// sees the batch-wide error norm. What is guaranteed: the per-sample
/// decomposition is fixed regardless of the pool width, so the result is
/// bit-identical for any `ENODE_THREADS`.
///
/// Returns the stacked outputs `[N, ...]` and one [`ForwardTrace`] per
/// sample. On failure, reports the error of the lowest-indexed failing
/// sample.
///
/// # Errors
///
/// Returns [`NodeError`] if any sample's forward pass fails.
///
/// # Panics
///
/// Panics if `inputs` has no samples.
pub fn forward_model_batched(
    model: &NodeModel,
    inputs: &Tensor,
    opts: &NodeSolveOptions,
) -> Result<(Tensor, Vec<ForwardTrace>), NodeError> {
    let _kernel = enode_tensor::sanitize::kernel_scope("node.forward_model_batched");
    let results = per_sample(inputs, |sample| forward_model(model, sample, opts));
    let n = results.len();
    let mut outputs: Vec<Tensor> = Vec::with_capacity(n);
    let mut traces: Vec<ForwardTrace> = Vec::with_capacity(n);
    for res in results {
        let (y, trace) = res?;
        outputs.push(y);
        traces.push(trace);
    }
    let mut out_shape = outputs[0].shape().to_vec();
    out_shape[0] = n;
    let mut data = Vec::with_capacity(n * outputs[0].len());
    for y in &outputs {
        data.extend_from_slice(y.data());
    }
    Ok((Tensor::from_vec(data, &out_shape), traces))
}

/// The serving runtime's batched solve: every sample of `inputs` solved
/// independently (as in [`forward_model_batched`]) under `opts` with the
/// per-call [`SolveOverride`] applied, through [`forward_model_stats`] —
/// no step records or checkpoints are kept.
///
/// The degradation tiers re-dispatch the *same* model at a coarser
/// tolerance, smaller trial budget, or cheaper integrator without
/// rebuilding it; `SolveOverride::NONE` solves under `opts` as given.
///
/// Returns one result per sample, in batch order: its `[1, ...]` output
/// and summed [`LayerStats`], or its own [`NodeError`]. A failing sample
/// never changes another sample's result, and every successful output is
/// bit-identical to that sample's solo [`forward_model`].
///
/// # Panics
///
/// Panics if `inputs` has no samples or the override carries an invalid
/// tolerance or trial budget.
pub fn forward_model_batched_with(
    model: &NodeModel,
    inputs: &Tensor,
    opts: &NodeSolveOptions,
    ovr: SolveOverride,
) -> Vec<Result<(Tensor, LayerStats), NodeError>> {
    let _kernel = enode_tensor::sanitize::kernel_scope("node.forward_model_batched");
    let opts = &ovr.apply(opts);
    per_sample(inputs, |sample| forward_model_stats(model, sample, opts))
}

/// Runs `solve` on every `[1, ...]` sample of `inputs` across the pool,
/// returning the results in sample order.
fn per_sample<R: Send>(inputs: &Tensor, solve: impl Fn(&Tensor) -> R + Sync) -> Vec<R> {
    let n = inputs.shape()[0];
    assert!(n > 0, "batched inference needs at least one sample");
    let sample_len = inputs.len() / n;
    let mut sample_shape = inputs.shape().to_vec();
    sample_shape[0] = 1;
    let indices: Vec<usize> = (0..n).collect();
    parallel::parallel_map(&indices, |&ni| {
        let sample = Tensor::from_vec(
            inputs.data()[ni * sample_len..(ni + 1) * sample_len].to_vec(),
            &sample_shape,
        );
        solve(&sample)
    })
}

/// Affine access summary of the per-sample fan-out in
/// [`forward_model_batched`]: one solve per item via `parallel_map`,
/// each writing its own result slot (the coarse one-slot-per-item
/// shape; the per-solve tensor arithmetic is internal to the item).
pub fn batched_access(n: usize) -> enode_tensor::access::KernelAccessSummary {
    enode_tensor::access::KernelAccessSummary::coarse_fanout(
        "node.forward_model_batched",
        n,
        1 << 20,
        64,
    )
}

/// One point of an accuracy-vs-compute sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TradeoffPoint {
    /// Error tolerance ε used.
    pub tolerance: f64,
    /// Classification accuracy.
    pub accuracy: f64,
    /// Function evaluations per sample.
    pub nfe_per_sample: f64,
    /// Trials per integration layer.
    pub trials_per_layer: f64,
}

/// Sweeps the tolerance and measures accuracy vs compute for a classifier
/// model on a labeled batch.
///
/// # Errors
///
/// Returns [`NodeError`] if any forward pass fails.
pub fn tolerance_tradeoff(
    model: &NodeModel,
    inputs: &Tensor,
    labels: &[usize],
    base_opts: &NodeSolveOptions,
    tolerances: &[f64],
) -> Result<Vec<TradeoffPoint>, NodeError> {
    let n = inputs.shape()[0] as f64;
    let mut out = Vec::with_capacity(tolerances.len());
    for &tol in tolerances {
        let mut opts = *base_opts;
        opts.tolerance = tol;
        let (logits, trace) = forward_model(model, inputs, &opts)?;
        let (_, _, acc) = cross_entropy_logits(&logits, labels);
        out.push(TradeoffPoint {
            tolerance: tol,
            accuracy: acc as f64,
            nfe_per_sample: trace.total_stats().nfe as f64 / n,
            trials_per_layer: trace.trials_per_layer(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::NodeSolveOptions;

    #[test]
    fn confusion_counts_and_accuracy() {
        let mut m = ConfusionMatrix::new(3);
        m.record(0, 0);
        m.record(0, 1);
        m.record(1, 1);
        m.record(2, 2);
        assert_eq!(m.total(), 4);
        assert_eq!(m.count(0, 1), 1);
        assert!((m.accuracy() - 0.75).abs() < 1e-12);
        assert_eq!(m.recall(0), Some(0.5));
        assert_eq!(m.recall(1), Some(1.0));
    }

    #[test]
    fn from_logits_uses_argmax() {
        let logits = Tensor::from_vec(vec![2.0, 0.0, 0.0, 3.0], &[2, 2]);
        let m = ConfusionMatrix::from_logits(&logits, &[0, 0]);
        assert_eq!(m.count(0, 0), 1);
        assert_eq!(m.count(0, 1), 1);
    }

    #[test]
    fn unseen_class_recall_is_none() {
        let m = ConfusionMatrix::new(2);
        assert_eq!(m.recall(1), None);
    }

    #[test]
    fn batched_inference_matches_per_sample_loop() {
        let model = NodeModel::image_classifier(3, 1, 1, 4, 1);
        let inputs = enode_tensor::init::uniform(&[3, 3, 6, 6], -1.0, 1.0, 9);
        let opts = NodeSolveOptions::new(1e-3);
        let (batched, traces) = forward_model_batched(&model, &inputs, &opts).unwrap();
        assert_eq!(traces.len(), 3);
        let sample_len = inputs.len() / 3;
        for ni in 0..3 {
            let sample = Tensor::from_vec(
                inputs.data()[ni * sample_len..(ni + 1) * sample_len].to_vec(),
                &[1, 3, 6, 6],
            );
            let (y, _) = crate::inference::forward_model(&model, &sample, &opts).unwrap();
            assert_eq!(
                &batched.data()[ni * y.len()..(ni + 1) * y.len()],
                y.data(),
                "sample {ni} differs from its standalone solve"
            );
        }
    }

    #[test]
    fn override_none_is_identity_and_fields_apply() {
        let model = NodeModel::dynamic_system(2, 8, 1, 3);
        let inputs = enode_tensor::init::uniform(&[2, 2], -1.0, 1.0, 4);
        let opts = NodeSolveOptions::new(1e-5);
        let (y_plain, t_plain) = forward_model_batched(&model, &inputs, &opts).unwrap();
        let served = forward_model_batched_with(&model, &inputs, &opts, SolveOverride::NONE);
        assert_eq!(served.len(), t_plain.len());
        for (i, (res, trace)) in served.iter().zip(&t_plain).enumerate() {
            let (y, stats) = res.as_ref().unwrap();
            assert_eq!(y.data(), &y_plain.data()[i * 2..(i + 1) * 2]);
            assert_eq!(*stats, trace.total_stats());
        }

        // A coarser tolerance override must match re-building the options.
        let ovr = SolveOverride {
            tolerance: Some(1e-2),
            max_trials: Some(16),
            tableau: Some(crate::inference::TableauKind::HeunEuler),
        };
        let coarse = forward_model_batched_with(&model, &inputs, &opts, ovr);
        let mut rebuilt =
            NodeSolveOptions::new(1e-2).with_tableau(crate::inference::TableauKind::HeunEuler);
        rebuilt.max_trials_per_point = 16;
        let (y_reb, t_reb) = forward_model_batched(&model, &inputs, &rebuilt).unwrap();
        assert_eq!(coarse.len(), 2);
        for (i, res) in coarse.iter().enumerate() {
            let (y_ovr, s_ovr) = res.as_ref().unwrap();
            assert_eq!(y_ovr.data(), &y_reb.data()[i * 2..(i + 1) * 2]);
            assert_eq!(
                s_ovr.nfe,
                t_reb[i].total_stats().nfe,
                "override must be equivalent to rebuilt options"
            );
            // The coarse tier is actually cheaper than the strict solve.
            assert!(s_ovr.nfe < t_plain[i].total_stats().nfe);
        }
    }

    #[test]
    #[should_panic(expected = "override tolerance must be positive")]
    fn override_rejects_nonpositive_tolerance() {
        let ovr = SolveOverride {
            tolerance: Some(0.0),
            ..SolveOverride::NONE
        };
        ovr.apply(&NodeSolveOptions::new(1e-3));
    }

    #[test]
    fn tradeoff_nfe_decreases_with_looser_tolerance() {
        let model = NodeModel::image_classifier(3, 1, 1, 4, 1);
        let inputs = enode_tensor::init::uniform(&[4, 3, 6, 6], -1.0, 1.0, 2);
        let labels = [0usize, 1, 2, 3];
        let pts = tolerance_tradeoff(
            &model,
            &inputs,
            &labels,
            &NodeSolveOptions::new(1e-3),
            &[1e-2, 1e-4],
        )
        .unwrap();
        assert_eq!(pts.len(), 2);
        assert!(
            pts[1].nfe_per_sample > pts[0].nfe_per_sample,
            "tighter tolerance must cost more nfe"
        );
    }
}
