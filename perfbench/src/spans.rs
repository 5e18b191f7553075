//! In-memory spans recorded around the calls the runner makes into each
//! layer, written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans written out per traced run; all are kept in memory and
/// aggregated, this only bounds the file at a few MB.
pub const MAX_WRITTEN: usize = 60_000;

/// One timed interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Request (or operation) id; every span of one request shares it.
    pub id: u64,
    /// Layer boundary name, e.g. `fleet.admit`.
    pub name: &'static str,
    /// Index of the parent span in the recorder, if any.
    pub parent: Option<usize>,
    /// Start (ns since the recorder's origin).
    pub start_ns: u64,
    /// End (ns since the recorder's origin).
    pub end_ns: u64,
    /// `true` for time spent waiting (queue wait), not working.
    pub wait: bool,
    /// Normalization slice the span was measured in.
    pub slice: usize,
}

impl Span {
    /// Duration (ns).
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name aggregate over a recorder's spans (raw, not normalized).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Aggregate {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations of working spans (ns).
    pub busy_ns: u64,
    /// Summed durations of waiting spans (ns).
    pub wait_ns: u64,
    /// Summed durations minus the time covered by child spans (ns).
    pub self_ns: u64,
}

/// The span store.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    /// Spans in recording order.
    pub spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    /// Nanoseconds since the recorder's origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the origin to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span and returns its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Checks that every child lies inside its parent's interval and
    /// carries its parent's id.
    ///
    /// # Errors
    ///
    /// Describes the first span that breaks either rule.
    pub fn check_nesting(&self) -> Result<(), String> {
        for (i, s) in self.spans.iter().enumerate() {
            let Some(p) = s.parent else { continue };
            let parent = self
                .spans
                .get(p)
                .ok_or_else(|| format!("span {i} ({}) has no parent {p}", s.name))?;
            if s.id != parent.id {
                return Err(format!(
                    "span {i} ({}) has id {} but its parent {} has id {}",
                    s.name, s.id, parent.name, parent.id
                ));
            }
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} ({}) [{}, {}] leaves its parent {} [{}, {}]",
                    s.name, s.start_ns, s.end_ns, parent.name, parent.start_ns, parent.end_ns
                ));
            }
        }
        Ok(())
    }

    /// Per-name count, busy, wait and self time, by name.
    pub fn aggregates(&self) -> BTreeMap<&'static str, Aggregate> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, Aggregate> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let a = out.entry(s.name).or_default();
            a.count += 1;
            if s.wait {
                a.wait_ns += s.dur_ns();
            } else {
                a.busy_ns += s.dur_ns();
            }
            let covered = covered_ns(
                children[i]
                    .iter()
                    .map(|&c| (self.spans[c].start_ns, self.spans[c].end_ns)),
            );
            a.self_ns += s.dur_ns().saturating_sub(covered);
        }
        out
    }

    /// Prints per-name count, busy, wait and self time.
    pub fn print_aggregates(&self) {
        for (name, a) in self.aggregates() {
            println!(
                "span {:<24} count {:>8}  busy {:>10.3} ms  wait {:>10.3} ms  self {:>10.3} ms",
                name,
                a.count,
                a.busy_ns as f64 / 1e6,
                a.wait_ns as f64 / 1e6,
                a.self_ns as f64 / 1e6
            );
        }
    }

    /// Writes the first [`MAX_WRITTEN`] spans as JSON lines to
    /// `spans/<workload>.jsonl` under the build directory
    /// (`CARGO_TARGET_DIR`, else `perfbench/target`), overwriting the
    /// previous traced run's file. Returns a line for the report.
    pub fn write(&self, workload: &str) -> String {
        let dir = std::path::PathBuf::from(
            std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into()),
        )
        .join("spans");
        let path = dir.join(format!("{workload}.jsonl"));
        let jsonl = self.to_jsonl(MAX_WRITTEN);
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &jsonl)) {
            Ok(()) => format!(
                "spans: {} of {} written to {}",
                jsonl.lines().count(),
                self.spans.len(),
                path.display()
            ),
            Err(e) => format!("spans: not written ({e})"),
        }
    }

    /// The first `limit` spans as JSON lines.
    pub fn to_jsonl(&self, limit: usize) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate().take(limit) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"id\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"wait\":{},\"slice\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.wait, s.slice
            );
        }
        out
    }
}

/// Length of the union of intervals.
fn covered_ns(intervals: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals.collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}
