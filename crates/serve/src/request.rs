//! The request lifecycle: what a client submits, what comes back, and the
//! explicit ways the runtime refuses work.

use enode_node::inference::NodeError;
use enode_tensor::synctrace;
use enode_tensor::Tensor;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};

/// The accuracy class a request is admitted under. Requests of different
/// classes never share a batch (the stepsize search runs per sample, but
/// the solver options are per batch), and each class maps to a base
/// tolerance the degradation tiers scale up from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ToleranceClass {
    /// ε = 1e-6 — the paper's experimental setting.
    Strict,
    /// ε = 1e-4 — the throughput/accuracy middle ground.
    Standard,
    /// ε = 1e-2 — always-on streaming workloads (keyword spotting).
    Relaxed,
}

impl ToleranceClass {
    /// The base error tolerance of the class (tier 0 serves at this ε).
    pub fn tolerance(self) -> f64 {
        match self {
            ToleranceClass::Strict => 1e-6,
            ToleranceClass::Standard => 1e-4,
            ToleranceClass::Relaxed => 1e-2,
        }
    }

    /// Stable textual form (metrics snapshots, bench rows).
    pub fn as_str(self) -> &'static str {
        match self {
            ToleranceClass::Strict => "strict",
            ToleranceClass::Standard => "standard",
            ToleranceClass::Relaxed => "relaxed",
        }
    }
}

/// Scheduling weight inside the ingress queue: high-priority requests are
/// batched ahead of normal ones that arrived earlier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Served in arrival order.
    Normal,
    /// Jumps ahead of `Normal` requests at batch formation.
    High,
}

/// One inference request.
#[derive(Clone, Debug)]
pub struct Request {
    /// A single sample, shape `[1, ...]` matching the served model.
    pub input: Tensor,
    /// Absolute deadline (µs in the server's clock domain). Work not
    /// dispatched by this time is shed; work with thin slack degrades.
    pub deadline_us: u64,
    /// The accuracy class (batching key and base tolerance).
    pub tolerance_class: ToleranceClass,
    /// Queue priority.
    pub priority: Priority,
}

/// Why the runtime refused (or failed) a request. Every variant is an
/// explicit, observable outcome — nothing is silently dropped.
#[derive(Clone, Debug, PartialEq)]
pub enum Rejected {
    /// Admission control: the bounded ingress queue was full. The caller
    /// owns backpressure (retry, downsample, or shed upstream).
    QueueFull {
        /// The configured queue capacity that was exhausted.
        capacity: usize,
    },
    /// Load shedding: the deadline expired before dispatch.
    DeadlineExpired {
        /// The request's absolute deadline.
        deadline_us: u64,
        /// The time the shed decision was made.
        now_us: u64,
    },
    /// The worker thread executing the batch panicked (e.g. a malformed
    /// input). The batch fails; the queue and the other workers live on.
    WorkerPanic,
    /// The solver failed (stepsize underflow / non-finite state).
    SolveFailed(NodeError),
    /// The server is shutting down and no longer accepts or serves work.
    ShuttingDown,
    /// Fleet admission control: no reachable instance holds the published
    /// model version in its weight SRAM (rolling publish or
    /// post-rebalance warm-up gap). The caller retries after warm-up.
    NotResident {
        /// The model the tenant is bound to.
        model: String,
        /// The published version no instance has warmed.
        version: u32,
    },
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::QueueFull { capacity } => {
                write!(f, "ingress queue full (capacity {capacity})")
            }
            Rejected::DeadlineExpired {
                deadline_us,
                now_us,
            } => write!(f, "deadline {deadline_us}µs expired at {now_us}µs"),
            Rejected::WorkerPanic => write!(f, "batch worker panicked"),
            Rejected::SolveFailed(e) => write!(f, "solver failed: {e}"),
            Rejected::ShuttingDown => write!(f, "server shutting down"),
            Rejected::NotResident { model, version } => {
                write!(f, "model {model} v{version} not resident on any instance")
            }
        }
    }
}

impl std::error::Error for Rejected {}

/// A served response.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// The model output for the request's sample (`[1, ...]`).
    pub output: Tensor,
    /// The degradation tier that served the request: 0 is full quality,
    /// higher tiers are cheaper solver configurations.
    pub tier: usize,
    /// How many requests shared the dispatched batch.
    pub batch_size: usize,
    /// When the request was admitted (µs, server clock).
    pub submitted_us: u64,
    /// When the response was delivered (µs, server clock).
    pub completed_us: u64,
}

impl Response {
    /// Queueing + service latency in microseconds.
    pub fn latency_us(&self) -> u64 {
        self.completed_us.saturating_sub(self.submitted_us)
    }
}

/// The outcome a [`Ticket`] resolves to.
pub type ServeResult = Result<Response, Rejected>;

#[derive(Debug)]
pub(crate) struct TicketInner {
    slot: Mutex<Option<ServeResult>>,
    ready: Condvar,
}

impl TicketInner {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(TicketInner {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    /// Delivers the outcome (first write wins; duplicates are ignored so
    /// shutdown can sweep already-failed tickets without panicking).
    pub(crate) fn fill(&self, result: ServeResult) {
        let mut slot = self
            .slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _t = synctrace::lock_acquired("ticket.slot");
        if slot.is_none() {
            *slot = Some(result);
            self.ready.notify_all();
        }
    }
}

/// The client's handle to an in-flight request: a one-shot receiver the
/// runtime resolves exactly once.
#[derive(Debug)]
pub struct Ticket {
    pub(crate) inner: Arc<TicketInner>,
}

impl Ticket {
    /// Blocks until the outcome is delivered.
    pub fn wait(self) -> ServeResult {
        let mut slot = self
            .inner
            .slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _t = synctrace::lock_acquired("ticket.slot");
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self
                .inner
                .ready
                .wait(slot)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Takes the outcome if it is already delivered (non-blocking).
    pub fn try_take(&self) -> Option<ServeResult> {
        let mut slot = self
            .inner
            .slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _t = synctrace::lock_acquired("ticket.slot");
        slot.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_classes_are_ordered_cheapest_last() {
        assert!(ToleranceClass::Strict.tolerance() < ToleranceClass::Standard.tolerance());
        assert!(ToleranceClass::Standard.tolerance() < ToleranceClass::Relaxed.tolerance());
        assert_eq!(ToleranceClass::Relaxed.as_str(), "relaxed");
    }

    #[test]
    fn ticket_resolves_once_and_duplicates_are_ignored() {
        let inner = TicketInner::new();
        let ticket = Ticket {
            inner: Arc::clone(&inner),
        };
        assert!(ticket.try_take().is_none());
        inner.fill(Err(Rejected::WorkerPanic));
        inner.fill(Err(Rejected::ShuttingDown)); // ignored
        assert_eq!(ticket.wait(), Err(Rejected::WorkerPanic));
    }

    #[test]
    fn ticket_wait_blocks_until_fill() {
        let inner = TicketInner::new();
        let ticket = Ticket {
            inner: Arc::clone(&inner),
        };
        let h = std::thread::spawn(move || ticket.wait());
        std::thread::sleep(std::time::Duration::from_millis(10));
        inner.fill(Err(Rejected::ShuttingDown));
        assert_eq!(h.join().unwrap(), Err(Rejected::ShuttingDown));
    }

    #[test]
    fn rejections_render() {
        let r = Rejected::QueueFull { capacity: 8 };
        assert!(r.to_string().contains("capacity 8"));
        let r = Rejected::DeadlineExpired {
            deadline_us: 10,
            now_us: 20,
        };
        assert!(r.to_string().contains("expired"));
        let r = Rejected::NotResident {
            model: "edge_default".to_string(),
            version: 3,
        };
        assert!(r.to_string().contains("edge_default v3 not resident"));
    }
}
