//! Priority processing and early stop (paper §VII-B).
//!
//! At each evaluation point the first search trial computes the full error
//! map and identifies the **high-error region**: the `Ĥ` consecutive rows
//! with the largest `‖e‖₂`. Subsequent trials process that priority window
//! first; if the window's partial `‖e‖₂` already exceeds the tolerance,
//! the trial is rejected and stops early — only `Ĥ` of `H` rows were
//! processed. If the window passes, the remaining rows are processed to
//! produce the integral states and the trial is accepted.
//!
//! Because acceptance is judged on the window (which dominated the error at
//! the first trial but may not contain all of it later), small windows can
//! admit slightly-too-large steps — the accuracy/latency trade-off of
//! Fig 13.

use enode_ode::state::StateOps;
use enode_ode::stepper::DecisionNorm;
use enode_tensor::Tensor;

/// Configuration of priority processing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PriorityOptions {
    /// Height `Ĥ` of the priority window in rows.
    pub window_rows: usize,
}

impl PriorityOptions {
    /// Creates options with the given window height `Ĥ`.
    ///
    /// # Panics
    ///
    /// Panics if `window_rows` is zero.
    pub fn new(window_rows: usize) -> Self {
        assert!(window_rows > 0, "priority window must be at least one row");
        PriorityOptions { window_rows }
    }
}

/// A priority window: a contiguous row range `[start, start + len)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PriorityWindow {
    /// First row of the window.
    pub start: usize,
    /// Window height (≤ the requested `Ĥ` when the map is short).
    pub len: usize,
}

/// Per-row squared-L2 of an error state.
///
/// Rows are spatial rows (`H`) for rank-4 feature maps and batch samples
/// (`N`) for rank-2 states — both are the streaming dimension of the
/// depth-first pipeline.
///
/// # Panics
///
/// Panics for ranks other than 2 or 4.
pub fn row_sq_norms(error: &Tensor) -> Vec<f64> {
    match error.shape().len() {
        4 => {
            let (n, c, h, w) = error.shape_obj().nchw();
            let mut rows = vec![0.0f64; h];
            for ni in 0..n {
                for ci in 0..c {
                    for (hi, row) in rows.iter_mut().enumerate() {
                        for wi in 0..w {
                            let v = error.at4(ni, ci, hi, wi) as f64;
                            *row += v * v;
                        }
                    }
                }
            }
            rows
        }
        2 => {
            let (n, d) = (error.shape()[0], error.shape()[1]);
            let mut rows = vec![0.0f64; n];
            for (ni, row) in rows.iter_mut().enumerate() {
                for di in 0..d {
                    let v = error.data()[ni * d + di] as f64;
                    *row += v * v;
                }
            }
            rows
        }
        r => panic!("priority processing supports rank 2 or 4 states, got rank {r}"),
    }
}

/// Number of rows in the streaming dimension of a state.
pub fn num_rows(state: &Tensor) -> usize {
    match state.shape().len() {
        4 => state.shape()[2],
        2 => state.shape()[0],
        r => panic!("priority processing supports rank 2 or 4 states, got rank {r}"),
    }
}

/// Finds the `window_rows`-row window with the largest cumulative squared
/// error (the "high error region" of Fig 12b).
pub fn find_window(error: &Tensor, window_rows: usize) -> PriorityWindow {
    let rows = row_sq_norms(error);
    let len = window_rows.min(rows.len());
    let mut best_start = 0usize;
    let mut cur: f64 = rows[..len].iter().sum();
    let mut best = cur;
    for start in 1..=(rows.len() - len) {
        cur += rows[start + len - 1] - rows[start - 1];
        if cur > best {
            best = cur;
            best_start = start;
        }
    }
    PriorityWindow {
        start: best_start,
        len,
    }
}

/// L2 norm of the error restricted to a window.
pub fn window_norm(error: &Tensor, window: PriorityWindow) -> f64 {
    let rows = row_sq_norms(error);
    rows[window.start..window.start + window.len]
        .iter()
        .sum::<f64>()
        .sqrt()
}

/// The judgement of one prioritized trial.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PriorityJudgement {
    /// The norm used for the accept/reject decision.
    pub decision_norm: f64,
    /// Rows of the map actually processed (window only on early stop).
    pub rows_processed: usize,
    /// True when the trial stopped after the window.
    pub early_stopped: bool,
}

/// Judges a trial's error map against ε with priority processing: the
/// window is checked first; if it already exceeds ε the trial stops early.
pub fn judge_with_priority(
    error: &Tensor,
    window: PriorityWindow,
    tolerance: f64,
) -> PriorityJudgement {
    let total_rows = num_rows(error);
    let wnorm = window_norm(error, window);
    if wnorm > tolerance {
        PriorityJudgement {
            decision_norm: wnorm,
            rows_processed: window.len,
            early_stopped: true,
        }
    } else {
        PriorityJudgement {
            decision_norm: wnorm,
            rows_processed: total_rows,
            early_stopped: false,
        }
    }
}

/// The §VII-B decision norm for the stepping core: a point's first
/// trial is judged on the full map and picks the window; later trials are
/// judged on the window and may stop early. Counts the rows processed and
/// the early stops.
#[derive(Clone, Debug)]
pub(crate) struct PriorityNorm {
    window_rows: usize,
    rows_per_map: u64,
    window: PriorityWindow,
    /// Rows processed across all trials.
    pub(crate) rows_processed: u64,
    /// Trials that stopped after the window.
    pub(crate) early_stops: usize,
}

impl PriorityNorm {
    /// A window of `window_rows` rows over maps of `rows_per_map` rows.
    pub(crate) fn new(window_rows: usize, rows_per_map: u64) -> Self {
        PriorityNorm {
            window_rows,
            rows_per_map,
            window: PriorityWindow { start: 0, len: 0 },
            rows_processed: 0,
            early_stops: 0,
        }
    }
}

impl DecisionNorm<Tensor> for PriorityNorm {
    fn decide(&mut self, error: &Tensor, trial: usize, tolerance: f64) -> f64 {
        if trial == 1 {
            self.window = find_window(error, self.window_rows);
            self.rows_processed += self.rows_per_map;
            StateOps::norm_l2(error)
        } else {
            let j = judge_with_priority(error, self.window, tolerance);
            self.rows_processed += j.rows_processed as u64;
            self.early_stops += usize::from(j.early_stopped);
            j.decision_norm
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn error_map_with_hot_rows(h: usize, hot: std::ops::Range<usize>, amp: f32) -> Tensor {
        let mut e = Tensor::full(&[1, 2, h, 4], 0.01);
        for hi in hot {
            for ci in 0..2 {
                for wi in 0..4 {
                    *e.at4_mut(0, ci, hi, wi) = amp;
                }
            }
        }
        e
    }

    #[test]
    fn row_norms_identify_hot_rows() {
        let e = error_map_with_hot_rows(8, 3..5, 1.0);
        let rows = row_sq_norms(&e);
        assert!(rows[3] > rows[0] * 100.0);
        assert!(rows[4] > rows[7] * 100.0);
    }

    #[test]
    fn window_finds_hot_region() {
        let e = error_map_with_hot_rows(16, 6..9, 2.0);
        let w = find_window(&e, 4);
        // The 4-row window must cover the 3 hot rows 6..9.
        assert!(w.start <= 6 && w.start + w.len >= 9, "window {w:?}");
    }

    #[test]
    fn window_clamped_to_map() {
        let e = error_map_with_hot_rows(4, 0..1, 1.0);
        let w = find_window(&e, 100);
        assert_eq!(w.start, 0);
        assert_eq!(w.len, 4);
    }

    #[test]
    fn early_stop_on_hot_window() {
        let e = error_map_with_hot_rows(16, 6..9, 2.0);
        let w = find_window(&e, 4);
        let j = judge_with_priority(&e, w, 1.0);
        assert!(j.early_stopped);
        assert_eq!(j.rows_processed, 4);
        assert!(j.decision_norm > 1.0);
    }

    #[test]
    fn pass_through_when_window_is_quiet() {
        let e = error_map_with_hot_rows(16, 6..9, 0.02);
        let w = find_window(&e, 4);
        let j = judge_with_priority(&e, w, 1.0);
        assert!(!j.early_stopped);
        assert_eq!(j.rows_processed, 16);
    }

    #[test]
    fn window_norm_never_exceeds_full_norm() {
        let e = error_map_with_hot_rows(12, 2..5, 0.7);
        let w = find_window(&e, 3);
        let full = {
            let rows = row_sq_norms(&e);
            rows.iter().sum::<f64>().sqrt()
        };
        assert!(window_norm(&e, w) <= full + 1e-12);
    }

    #[test]
    fn rank2_rows_are_batch_samples() {
        let mut e = Tensor::zeros(&[5, 3]);
        e.data_mut()[3 * 3] = 10.0; // sample 3 is hot
        let rows = row_sq_norms(&e);
        assert_eq!(rows[3], 100.0);
        let w = find_window(&e, 1);
        assert_eq!(w.start, 3);
    }
}
