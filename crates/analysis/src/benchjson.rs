//! Hand-rolled line scanner for the repo's flat, machine-written JSON
//! artifacts (`BENCH_kernels.json`, `COST_TABLE.json`).
//!
//! Every committed artifact the analysis crate ingests is emitted by one
//! of the bench binaries as *line-per-record* JSON with scalar fields
//! only, so a full JSON parser (a dependency this workspace deliberately
//! avoids) is unnecessary: [`field_str`]/[`field_usize`]/[`field_u64`]/
//! [`field_f64`] pull one `"key": value` pair out of one line, and the
//! per-artifact parsers ([`parse_baseline`], [`parse_cost_table`]) fold
//! lines into records. A field that does not appear on a line simply
//! yields `None` — the scanners are permissive about unknown keys, so a
//! schema can grow columns without breaking old readers.
//!
//! The scanner is shared by [`crate::cost`] (roofline cross-check against
//! the kernel bench baseline) and [`crate::schedcheck`] (schedulability
//! verdicts against the simulator-derived serving cost table). The
//! writing side shares one piece too: [`json_escape`].

/// The raw text after `"key":` on `line`, whitespace-trimmed, or `None`
/// if the key does not occur.
pub fn field_after<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\"");
    let at = line.find(&needle)?;
    let rest = &line[at + needle.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    Some(rest)
}

/// An unsigned integer field.
pub fn field_usize(line: &str, key: &str) -> Option<usize> {
    let rest = field_after(line, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// An unsigned 64-bit integer field (µs / µJ columns).
pub fn field_u64(line: &str, key: &str) -> Option<u64> {
    let rest = field_after(line, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// A floating-point field (plain or scientific notation).
pub fn field_f64(line: &str, key: &str) -> Option<f64> {
    let rest = field_after(line, key)?;
    let end = rest
        .find(|c: char| !matches!(c, '0'..='9' | '.' | '-' | '+' | 'e' | 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, and control characters; everything else passes through).
/// The one escape every JSON emitter in the workspace uses: the lint
/// diagnostics here and the bench artifacts in `enode-bench`.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A quoted string field (no escape handling — the emitters write plain
/// ASCII identifiers).
pub fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = field_after(line, key)?.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// One measured kernel row from `BENCH_kernels.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct MeasuredKernel {
    /// Bench row name, e.g. `"conv2d_forward_b8"`.
    pub name: String,
    /// Measured `secs_low / secs_high` speedup.
    pub speedup: f64,
    /// Measured single-thread speedup over the pinned pre-microkernel
    /// serial referent (`secs_referent / secs_low`, schema v2 rows only).
    pub speedup_vs_referent: Option<f64>,
}

/// The fields of the committed kernel-bench baseline the cost pass
/// consumes.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchBaseline {
    /// Physical cores of the machine that produced the baseline.
    pub host_cpus: usize,
    /// Thread count of the `secs_high` measurements.
    pub threads_high: usize,
    /// Measured kernel rows, in file order.
    pub kernels: Vec<MeasuredKernel>,
}

/// Parses the subset of `enode-bench-kernels/v1`/`v2` the cost pass
/// needs (v2 adds the optional per-row serial-referent columns).
/// Returns `None` on a schema mismatch or if a required field is missing.
pub fn parse_baseline(json: &str) -> Option<BenchBaseline> {
    let mut schema_ok = false;
    let mut host_cpus = None;
    let mut threads_high = None;
    let mut kernels = Vec::new();
    for line in json.lines() {
        if let Some(s) = field_str(line, "schema") {
            schema_ok = s.starts_with("enode-bench-kernels/");
        }
        if let Some(v) = field_usize(line, "host_cpus") {
            host_cpus = Some(v);
        }
        if let Some(v) = field_usize(line, "threads_high") {
            threads_high = Some(v);
        }
        if let (Some(name), Some(speedup)) = (field_str(line, "name"), field_f64(line, "speedup")) {
            kernels.push(MeasuredKernel {
                name: name.to_string(),
                speedup,
                speedup_vs_referent: field_f64(line, "speedup_vs_referent"),
            });
        }
    }
    if !schema_ok || kernels.is_empty() {
        return None;
    }
    Some(BenchBaseline {
        host_cpus: host_cpus?,
        threads_high: threads_high?,
        kernels,
    })
}

/// One simulated `(policy, tier, batch)` row of `COST_TABLE.json`.
/// `latency_us`/`energy_uj` are per *batch* (one dispatch), at the
/// Standard tolerance class.
#[derive(Clone, Debug, PartialEq)]
pub struct CostTableRow {
    /// Policy name the row belongs to.
    pub policy: String,
    /// Degradation-ladder index (0 = full quality).
    pub tier: usize,
    /// Batch size of the simulated dispatch.
    pub batch: usize,
    /// Accepted evaluation points per sample.
    pub points: usize,
    /// f-evaluations per sample (`trials × stages`).
    pub f_evals: usize,
    /// Simulated wall-clock of the batch, µs.
    pub latency_us: u64,
    /// Simulated total energy of the batch, µJ.
    pub energy_uj: u64,
}

/// The committed serving cost table, as read back from `COST_TABLE.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedCostTable {
    /// The generator's schema/version tag (`enode-cost-table/v1`).
    pub version: String,
    /// `(policy, ladder fingerprint)` pairs recorded at generation time.
    pub fingerprints: Vec<(String, String)>,
    /// All rows, in file order.
    pub rows: Vec<CostTableRow>,
}

impl ParsedCostTable {
    /// The recorded ladder fingerprint for `policy`, if present.
    pub fn fingerprint(&self, policy: &str) -> Option<&str> {
        self.fingerprints
            .iter()
            .find(|(p, _)| p == policy)
            .map(|(_, fp)| fp.as_str())
    }

    /// All rows of one `(policy, tier)`, in file (= batch) order.
    pub fn rows_for(&self, policy: &str, tier: usize) -> Vec<&CostTableRow> {
        self.rows
            .iter()
            .filter(|r| r.policy == policy && r.tier == tier)
            .collect()
    }

    /// Ladder depth recorded for `policy` (1 + highest tier index).
    pub fn tiers_for(&self, policy: &str) -> usize {
        self.rows
            .iter()
            .filter(|r| r.policy == policy)
            .map(|r| r.tier + 1)
            .max()
            .unwrap_or(0)
    }
}

/// Parses the committed `COST_TABLE.json` (the format
/// `enode_hw::table::CostTable::render_json` emits). Returns `None` if
/// the schema line is missing or no rows parse — version *mismatches*
/// are deliberately preserved for the caller, so `schedcheck` can report
/// a precise `E093` instead of a parse failure.
pub fn parse_cost_table(json: &str) -> Option<ParsedCostTable> {
    let mut version = None;
    let mut fingerprints = Vec::new();
    let mut rows = Vec::new();
    for line in json.lines() {
        if let Some(s) = field_str(line, "schema") {
            version = Some(s.to_string());
        }
        // Policy header lines carry a fingerprint; row lines carry a tier.
        if let (Some(policy), Some(fp)) =
            (field_str(line, "policy"), field_str(line, "fingerprint"))
        {
            fingerprints.push((policy.to_string(), fp.to_string()));
        }
        if let (Some(policy), Some(tier), Some(batch)) = (
            field_str(line, "policy"),
            field_usize(line, "tier"),
            field_usize(line, "batch"),
        ) {
            rows.push(CostTableRow {
                policy: policy.to_string(),
                tier,
                batch,
                points: field_usize(line, "points")?,
                f_evals: field_usize(line, "f_evals")?,
                latency_us: field_u64(line, "latency_us")?,
                energy_uj: field_u64(line, "energy_uj")?,
            });
        }
    }
    if rows.is_empty() {
        return None;
    }
    Some(ParsedCostTable {
        version: version?,
        fingerprints,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\n\t"), "x\\n\\t");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn field_scanners_pull_one_pair_per_line() {
        let line = "{ \"name\": \"conv\", \"tier\": 2, \"speedup\": 1.5e0, \"latency_us\": 42 }";
        assert_eq!(field_str(line, "name"), Some("conv"));
        assert_eq!(field_usize(line, "tier"), Some(2));
        assert_eq!(field_u64(line, "latency_us"), Some(42));
        assert!((field_f64(line, "speedup").unwrap() - 1.5).abs() < 1e-12);
        assert_eq!(field_str(line, "absent"), None);
        assert_eq!(
            field_usize(line, "name"),
            None,
            "quoted value is not an int"
        );
    }

    #[test]
    fn cost_table_roundtrips_through_the_render_format() {
        let json = "{\n\
                    \"schema\": \"enode-cost-table/v1\",\n\
                    \"policies\": [\n\
                    { \"policy\": \"p\", \"fingerprint\": \"00ff\" }\n\
                    ],\n\
                    \"rows\": [\n\
                    { \"policy\": \"p\", \"tier\": 0, \"batch\": 1, \"points\": 24, \
                    \"f_evals\": 144, \"latency_us\": 175, \"energy_uj\": 1209 },\n\
                    { \"policy\": \"p\", \"tier\": 1, \"batch\": 1, \"points\": 4, \
                    \"f_evals\": 12, \"latency_us\": 15, \"energy_uj\": 101 }\n\
                    ]\n}\n";
        let t = parse_cost_table(json).expect("parses");
        assert_eq!(t.version, "enode-cost-table/v1");
        assert_eq!(t.fingerprint("p"), Some("00ff"));
        assert_eq!(t.fingerprint("q"), None);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.tiers_for("p"), 2);
        assert_eq!(t.rows_for("p", 0).len(), 1);
        assert_eq!(t.rows_for("p", 1)[0].latency_us, 15);
    }

    #[test]
    fn cost_table_parse_rejects_garbage_but_keeps_foreign_versions() {
        assert!(parse_cost_table("").is_none());
        assert!(parse_cost_table("{\"schema\": \"enode-cost-table/v1\"}").is_none());
        // A future version still parses; the *caller* decides it is E093.
        let json = "{\"schema\": \"enode-cost-table/v9\"}\n\
                    { \"policy\": \"p\", \"tier\": 0, \"batch\": 1, \"points\": 4, \
                    \"f_evals\": 12, \"latency_us\": 1, \"energy_uj\": 1 }\n";
        let t = parse_cost_table(json).expect("foreign version parses");
        assert_eq!(t.version, "enode-cost-table/v9");
    }
}
