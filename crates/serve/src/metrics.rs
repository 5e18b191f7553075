//! Serving observability: lock-free counters and fixed-bucket histograms
//! with percentile estimation and a JSON snapshot.
//!
//! Nothing here allocates on the hot path: every counter is an
//! `AtomicU64` and both histograms have a fixed bucket layout, so workers
//! record outcomes with a handful of relaxed atomic increments. A
//! [`Metrics::snapshot`] is a plain-data copy taken at any time; its
//! [`MetricsSnapshot::to_json`] is the machine-readable form the bench
//! harness embeds in `BENCH_serve.json`.
//!
//! # Accounting identity
//!
//! Every submitted request resolves to exactly one of `completed`,
//! `shed`, `failed`, or `cancelled`, and `rejected_full` counts requests
//! that were *never* admitted (not part of `submitted`):
//!
//! ```text
//! submitted == completed + shed + failed + cancelled
//! degraded  <= completed          (tier > 0 responses)
//! ```
//!
//! The deadline-semantics test asserts this identity exactly.
//!
//! # Memory-ordering audit
//!
//! Every `Ordering::` in this module (and the counter increments in
//! `server.rs`) is chosen against that identity:
//!
//! * **Resolution counters** (`completed`, `degraded`, `shed`, `failed`,
//!   `cancelled`) are incremented with `Release` and loaded by
//!   [`Metrics::snapshot`] with `Acquire`, in a fixed order (`degraded`
//!   before `completed` before the rest before `submitted`). A request's
//!   `submitted` increment happens-before its resolution increment (the
//!   state mutex orders admission before dispatch), so any resolution a
//!   snapshot observes implies its admission is also observed: every
//!   snapshot — even under load — satisfies
//!   `submitted >= completed + shed + failed + cancelled` and
//!   `degraded <= completed` ([`MetricsSnapshot::consistent`]). Exact
//!   equality ([`MetricsSnapshot::reconciles`]) additionally needs
//!   quiescence (post-`drain`/`shutdown`), because admitted requests may
//!   legitimately still be in flight.
//! * **Admission-side counters** (`submitted`, `rejected_full`,
//!   `batches`) are incremented with `Relaxed`: each is written under the
//!   state mutex (which already orders it against dispatch) and no
//!   invariant relates them to a *later* load on another thread, so a
//!   stronger ordering would buy nothing.
//! * **Histogram buckets and sums** are `Relaxed` monotone accumulators:
//!   percentile estimates are already bucket-quantized, and the
//!   count/sum pair is only read for exact means at quiescence.

use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bounds (µs) of the latency histogram buckets: powers of two from
/// 1 µs to ~67 s, plus an unbounded overflow bucket.
pub const LATENCY_BOUNDS_US: [u64; 27] = {
    let mut bounds = [0u64; 27];
    let mut i = 0;
    while i < 27 {
        bounds[i] = 1u64 << i;
        i += 1;
    }
    bounds
};

/// A fixed-bucket histogram over `u64` observations.
///
/// Buckets are `(prev_bound, bound]` plus one overflow bucket past the
/// last bound. Percentiles are resolved to the *upper bound* of the
/// bucket containing the rank — a deterministic, conservative estimate.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    counts: Vec<AtomicU64>,
    /// Sum of raw observations (for exact means).
    sum: AtomicU64,
}

impl Histogram {
    /// A histogram with the given ascending bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn new(bounds: &'static [u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must be strictly ascending"
        );
        Histogram {
            bounds,
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        // Relaxed: monotone accumulators with no cross-counter invariant;
        // a concurrent reader may see the bucket count without the sum
        // (or vice versa), which only perturbs an in-flight mean — exact
        // means are read at quiescence.
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Exact mean of the raw observations (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// The `q`-quantile (`0 < q <= 1`) as the upper bound of the bucket
    /// holding that rank; observations past the last bound report
    /// `u64::MAX`. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = (q * total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return self.bounds.get(i).copied().unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }

    /// Plain-data copy of the bucket counts (index `bounds.len()` is the
    /// overflow bucket).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

/// Atomic outcome counters (see the module-level accounting identity).
#[derive(Debug, Default)]
pub struct Counters {
    /// Requests admitted into the queue.
    pub submitted: AtomicU64,
    /// Requests answered with a [`crate::Response`] (any tier).
    pub completed: AtomicU64,
    /// Completed requests served at tier > 0.
    pub degraded: AtomicU64,
    /// Requests shed because their deadline expired before dispatch.
    pub shed: AtomicU64,
    /// Requests refused at the door (queue full) — never admitted.
    pub rejected_full: AtomicU64,
    /// Requests failed by a worker panic or solver error.
    pub failed: AtomicU64,
    /// Admitted requests swept at shutdown before being served.
    pub cancelled: AtomicU64,
    /// Batches dispatched.
    pub batches: AtomicU64,
}

/// The metrics layer one [`crate::Server`] owns.
#[derive(Debug)]
pub struct Metrics {
    /// Outcome counters.
    pub counters: Counters,
    /// End-to-end latency (submit → deliver) of completed requests, µs.
    pub latency_us: Histogram,
    /// Size of each dispatched batch.
    pub batch_size: Histogram,
}

/// Upper bounds for the batch-size histogram: exact buckets 1..=16, then
/// 24/32/48/64, then overflow.
pub const BATCH_BOUNDS: [u64; 20] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 24, 32, 48, 64,
];

impl Metrics {
    /// Fresh metrics (all zeros).
    pub fn new() -> Self {
        Metrics {
            counters: Counters::default(),
            latency_us: Histogram::new(&LATENCY_BOUNDS_US),
            batch_size: Histogram::new(&BATCH_BOUNDS),
        }
    }

    /// A plain-data copy that is *directionally consistent* at any time
    /// and exact at quiescence.
    ///
    /// Load order is part of the contract (see the module-level audit):
    /// `degraded` is read before `completed` (writers increment
    /// `completed` first, so `degraded <= completed` holds in every
    /// snapshot), and all resolution counters are read with `Acquire`
    /// before `submitted` (each resolution's `Release` increment
    /// publishes its request's earlier admission, so
    /// `submitted >= completed + shed + failed + cancelled` holds in
    /// every snapshot). [`MetricsSnapshot::consistent`] asserts exactly
    /// these two under-load invariants; [`MetricsSnapshot::reconciles`]
    /// is the quiescent equality.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let c = &self.counters;
        // Resolution counters first (Acquire), degraded before completed.
        let degraded = c.degraded.load(Ordering::Acquire);
        let completed = c.completed.load(Ordering::Acquire);
        let shed = c.shed.load(Ordering::Acquire);
        let failed = c.failed.load(Ordering::Acquire);
        let cancelled = c.cancelled.load(Ordering::Acquire);
        // Admission side last: Acquire keeps the load ordered after the
        // resolution loads above (a Relaxed load could hoist past them
        // and under-count admissions for already-observed resolutions).
        let submitted = c.submitted.load(Ordering::Acquire);
        MetricsSnapshot {
            submitted,
            completed,
            degraded,
            shed,
            // Door-rejects and batch counts participate in no
            // cross-counter invariant: Relaxed.
            rejected_full: c.rejected_full.load(Ordering::Relaxed),
            failed,
            cancelled,
            batches: c.batches.load(Ordering::Relaxed),
            latency_p50_us: self.latency_us.quantile(0.50),
            latency_p95_us: self.latency_us.quantile(0.95),
            latency_p99_us: self.latency_us.quantile(0.99),
            latency_mean_us: self.latency_us.mean(),
            mean_batch: self.batch_size.mean(),
        }
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

/// Plain-data metrics snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Requests answered with a response (any tier).
    pub completed: u64,
    /// Completed requests served at tier > 0.
    pub degraded: u64,
    /// Requests shed on deadline expiry.
    pub shed: u64,
    /// Requests refused because the queue was full.
    pub rejected_full: u64,
    /// Requests failed (worker panic / solver error).
    pub failed: u64,
    /// Admitted requests swept at shutdown.
    pub cancelled: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// p50 latency (µs, bucket upper bound).
    pub latency_p50_us: u64,
    /// p95 latency (µs, bucket upper bound).
    pub latency_p95_us: u64,
    /// p99 latency (µs, bucket upper bound).
    pub latency_p99_us: u64,
    /// Exact mean latency (µs).
    pub latency_mean_us: f64,
    /// Mean dispatched batch size.
    pub mean_batch: f64,
}

impl MetricsSnapshot {
    /// `submitted == completed + shed + failed + cancelled` — every
    /// admitted request resolved exactly once.
    pub fn reconciles(&self) -> bool {
        self.submitted == self.completed + self.shed + self.failed + self.cancelled
    }

    /// The under-load direction of the identity: admissions are observed
    /// for every observed resolution, and every degraded response has its
    /// completion counted. Holds for **every** snapshot, including ones
    /// taken mid-flight from other threads (the stress test hammers
    /// this); [`Self::reconciles`] is the stronger quiescent equality.
    pub fn consistent(&self) -> bool {
        self.submitted >= self.completed + self.shed + self.failed + self.cancelled
            && self.degraded <= self.completed
    }

    /// The snapshot as one stable JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"submitted\":{},\"completed\":{},\"degraded\":{},\"shed\":{},\
             \"rejected_full\":{},\"failed\":{},\"cancelled\":{},\"batches\":{},\
             \"latency_p50_us\":{},\"latency_p95_us\":{},\"latency_p99_us\":{},\
             \"latency_mean_us\":{:.3},\"mean_batch\":{:.3}}}",
            self.submitted,
            self.completed,
            self.degraded,
            self.shed,
            self.rejected_full,
            self.failed,
            self.cancelled,
            self.batches,
            self.latency_p50_us,
            self.latency_p95_us,
            self.latency_p99_us,
            self.latency_mean_us,
            self.mean_batch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new(&LATENCY_BOUNDS_US);
        // 100 observations: 1..=100 µs.
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert!((h.mean() - 50.5).abs() < 1e-9);
        // Ranks: p50 -> 50th obs = 50µs -> bucket (32, 64].
        assert_eq!(h.quantile(0.50), 64);
        // p99 -> 99µs -> bucket (64, 128].
        assert_eq!(h.quantile(0.99), 128);
        assert_eq!(h.quantile(1.0), 128);
    }

    #[test]
    fn histogram_overflow_reports_max() {
        let h = Histogram::new(&BATCH_BOUNDS);
        h.record(1000);
        assert_eq!(h.quantile(0.5), u64::MAX);
        let counts = h.bucket_counts();
        assert_eq!(counts[BATCH_BOUNDS.len()], 1);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new(&BATCH_BOUNDS);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_rejects_zero() {
        Histogram::new(&BATCH_BOUNDS).quantile(0.0);
    }

    #[test]
    fn latency_bounds_are_powers_of_two() {
        assert_eq!(LATENCY_BOUNDS_US[0], 1);
        assert_eq!(LATENCY_BOUNDS_US[26], 1 << 26);
        assert!(LATENCY_BOUNDS_US.windows(2).all(|w| w[1] == 2 * w[0]));
    }

    #[test]
    fn snapshot_reconciliation_and_json() {
        let m = Metrics::new();
        m.counters.submitted.fetch_add(5, Ordering::Relaxed);
        m.counters.completed.fetch_add(3, Ordering::Relaxed);
        m.counters.degraded.fetch_add(1, Ordering::Relaxed);
        m.counters.shed.fetch_add(1, Ordering::Relaxed);
        m.counters.failed.fetch_add(1, Ordering::Relaxed);
        m.latency_us.record(100);
        m.batch_size.record(3);
        let s = m.snapshot();
        assert!(s.reconciles());
        let json = s.to_json();
        assert!(json.contains("\"submitted\":5"));
        assert!(json.contains("\"latency_p99_us\":128"));
        assert!(json.contains("\"mean_batch\":3.000"));
        let m2 = Metrics::new();
        m2.counters.submitted.fetch_add(1, Ordering::Relaxed);
        assert!(!m2.snapshot().reconciles());
    }

    #[test]
    fn consistent_is_the_under_load_direction() {
        let m = Metrics::new();
        m.counters.submitted.fetch_add(4, Ordering::Relaxed);
        m.counters.completed.fetch_add(2, Ordering::Release);
        m.counters.degraded.fetch_add(1, Ordering::Release);
        let s = m.snapshot();
        // Two requests still in flight: not reconciled, but consistent.
        assert!(!s.reconciles());
        assert!(s.consistent());
        // A resolution without an observed admission is inconsistent.
        let bad = MetricsSnapshot {
            completed: 5,
            ..s.clone()
        };
        assert!(!bad.consistent());
        // Degraded beyond completed is inconsistent.
        let bad2 = MetricsSnapshot { degraded: 3, ..s };
        assert!(!bad2.consistent());
    }
}
