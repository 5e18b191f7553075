//! Runtime lock-order recorder (feature `synctrace`).
//!
//! Every traced mutex in the worker pool ([`parallel`](crate::parallel))
//! and the serving runtime one crate up binds a [`HeldToken`] from
//! [`lock_acquired`] right after taking its guard. The recorder keeps a
//! thread-local held-lock stack; each acquisition adds one
//! `held → acquired` edge per lock the thread already holds to a global
//! store. [`TraceReport::lock_order_cycle`] finds a cycle in the observed
//! graph: two code paths that nest the same locks in opposite orders, one
//! interleaving away from a deadlock. The serve crate's traced test
//! checks that graph against the nestings the runtime is meant to take.
//!
//! With the feature off every hook compiles to nothing and [`capture`]
//! returns an empty report; the types stay available, so tests can build
//! synthetic [`TraceReport`]s without the feature.

use std::collections::{BTreeMap, BTreeSet};

/// An observed `held → acquired` lock-order edge.
pub type Edge = (String, String);

/// Everything the recorder observed since the last [`reset`].
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Observed lock-order edges (held at the moment of acquisition).
    pub edges: BTreeSet<Edge>,
    /// Every lock observed acquired.
    pub locks: BTreeSet<String>,
}

impl TraceReport {
    /// A cycle in the observed `held → acquired` graph, as the lock ids
    /// along it with the first repeated at the end (`[a, b, a]`), or
    /// `None` when the observed order is acyclic. A lock taken while the
    /// same thread already holds it is the one-lock cycle `[a, a]`.
    pub fn lock_order_cycle(&self) -> Option<Vec<String>> {
        let mut succ: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (held, acquired) in &self.edges {
            succ.entry(held).or_default().push(acquired);
        }
        // `true` while a lock is on the current search path, `false` once
        // everything reachable from it is known acyclic.
        let mut on_path: BTreeMap<&str, bool> = BTreeMap::new();
        let mut path = Vec::new();
        succ.keys()
            .find_map(|&start| cycle_from(start, &succ, &mut on_path, &mut path))
    }
}

/// Depth-first search from `lock`; returns the first cycle closed by an
/// edge back onto the current path.
fn cycle_from<'a>(
    lock: &'a str,
    succ: &BTreeMap<&'a str, Vec<&'a str>>,
    on_path: &mut BTreeMap<&'a str, bool>,
    path: &mut Vec<&'a str>,
) -> Option<Vec<String>> {
    if on_path.contains_key(lock) {
        return None;
    }
    on_path.insert(lock, true);
    path.push(lock);
    for &next in succ.get(lock).into_iter().flatten() {
        if on_path.get(next) == Some(&true) {
            let start = path
                .iter()
                .position(|&l| l == next)
                .expect("a lock marked on-path is on the path");
            let mut cycle: Vec<String> = path[start..].iter().map(|l| l.to_string()).collect();
            cycle.push(next.to_string());
            return Some(cycle);
        }
        if let Some(cycle) = cycle_from(next, succ, on_path, path) {
            return Some(cycle);
        }
    }
    path.pop();
    on_path.insert(lock, false);
    None
}

#[cfg(feature = "synctrace")]
mod imp {
    use super::TraceReport;
    use std::cell::RefCell;
    use std::sync::{Mutex, OnceLock};

    thread_local! {
        static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    }

    fn store() -> &'static Mutex<TraceReport> {
        static STORE: OnceLock<Mutex<TraceReport>> = OnceLock::new();
        STORE.get_or_init(|| Mutex::new(TraceReport::default()))
    }

    fn with_store(f: impl FnOnce(&mut TraceReport)) {
        let mut g = store().lock().unwrap_or_else(|p| p.into_inner());
        f(&mut g);
    }

    pub fn record_acquire(id: &'static str) {
        HELD.with(|h| {
            let held = h.borrow();
            with_store(|r| {
                r.locks.insert(id.to_string());
                for held_id in held.iter() {
                    r.edges.insert((held_id.to_string(), id.to_string()));
                }
            });
        });
        HELD.with(|h| h.borrow_mut().push(id));
    }

    pub fn record_release(id: &'static str) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|x| *x == id) {
                held.remove(pos);
            }
        });
    }

    pub fn reset() {
        with_store(|r| *r = TraceReport::default());
    }

    pub fn capture() -> TraceReport {
        let g = store().lock().unwrap_or_else(|p| p.into_inner());
        g.clone()
    }
}

/// RAII record of a traced lock acquisition; dropping it marks the lock
/// released in the thread-local held stack. Construct one immediately
/// after taking the corresponding `MutexGuard` and bind it for the
/// guard's full scope.
#[must_use = "binds the traced hold; dropping immediately records a zero-length hold"]
pub struct HeldToken {
    #[cfg(feature = "synctrace")]
    id: &'static str,
}

impl Drop for HeldToken {
    fn drop(&mut self) {
        #[cfg(feature = "synctrace")]
        imp::record_release(self.id);
    }
}

/// Records an acquisition of `id`, with edges from every lock the
/// current thread already holds. No-op without `synctrace`.
pub fn lock_acquired(id: &'static str) -> HeldToken {
    #[cfg(feature = "synctrace")]
    {
        imp::record_acquire(id);
        HeldToken { id }
    }
    #[cfg(not(feature = "synctrace"))]
    {
        let _ = id;
        HeldToken {}
    }
}

/// Clears the global trace store. No-op without `synctrace`.
pub fn reset() {
    #[cfg(feature = "synctrace")]
    imp::reset();
}

/// Snapshots the global trace store. Always empty without `synctrace`.
pub fn capture() -> TraceReport {
    #[cfg(feature = "synctrace")]
    {
        imp::capture()
    }
    #[cfg(not(feature = "synctrace"))]
    {
        TraceReport::default()
    }
}

/// `true` when the crate was built with the `synctrace` feature, i.e.
/// [`capture`] returns real observations rather than an empty report.
pub fn enabled() -> bool {
    cfg!(feature = "synctrace")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(edges: &[(&str, &str)]) -> TraceReport {
        let mut r = TraceReport::default();
        for &(a, b) in edges {
            r.locks.insert(a.to_string());
            r.locks.insert(b.to_string());
            r.edges.insert((a.to_string(), b.to_string()));
        }
        r
    }

    #[test]
    fn a_chain_with_a_transitive_edge_has_no_cycle() {
        let r = report(&[("a", "b"), ("b", "c"), ("a", "c")]);
        assert_eq!(r.lock_order_cycle(), None);
        assert_eq!(TraceReport::default().lock_order_cycle(), None);
    }

    #[test]
    fn cycles_are_reported_with_their_locks() {
        for (edges, cycle) in [
            (&[("a", "b"), ("b", "a")][..], &["a", "b", "a"][..]),
            (
                &[("a", "b"), ("b", "c"), ("c", "a")][..],
                &["a", "b", "c", "a"][..],
            ),
            (&[("a", "a")][..], &["a", "a"][..]),
            // A cycle reached only through an acyclic prefix.
            (
                &[("x", "y"), ("y", "z"), ("z", "y")][..],
                &["y", "z", "y"][..],
            ),
        ] {
            let found = report(edges).lock_order_cycle();
            let found: Option<Vec<&str>> = found
                .as_ref()
                .map(|c| c.iter().map(String::as_str).collect());
            assert_eq!(found.as_deref(), Some(cycle), "{edges:?}");
        }
    }

    #[test]
    fn capture_is_empty_without_the_feature() {
        if !enabled() {
            reset();
            let r = capture();
            assert!(r.edges.is_empty() && r.locks.is_empty());
        }
    }
}
