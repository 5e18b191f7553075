//! Tier-1 gate on the one JSON reader (`enode_hw::json`): every committed
//! artifact and every line of the pinned `enode-lint --json` corpus
//! parses with it, and the cost table reads back to the bytes it was
//! rendered from, in any layout, while a truncated table is refused.

use enode::hw::json::{self, Value};
use enode::hw::table::CostTable;

const COST_TABLE: &str = include_str!("../COST_TABLE.json");
const LINT_GOLDEN: &str = include_str!("../crates/analysis/tests/golden/lint_json.golden");

#[test]
fn committed_artifacts_parse_with_the_one_reader() {
    for (name, text) in [
        ("BENCH_serve.json", include_str!("../BENCH_serve.json")),
        ("BENCH_fleet.json", include_str!("../BENCH_fleet.json")),
        ("BENCH_kernels.json", include_str!("../BENCH_kernels.json")),
        ("COST_TABLE.json", COST_TABLE),
    ] {
        let doc = json::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            doc.get("schema").and_then(Value::as_str).is_some(),
            "{name} names its schema"
        );
    }
}

#[test]
fn cost_table_reads_back_in_any_layout_and_refuses_a_truncated_one() {
    let table = CostTable::from_json(COST_TABLE).expect("committed table reads");
    assert_eq!(table.render_json(), COST_TABLE, "reads back to its bytes");

    // The same table on one line is the same table.
    let one_line = CostTable::from_json(&COST_TABLE.replace('\n', "")).expect("one line reads");
    assert_eq!(one_line.rows.len(), 18);
    assert_eq!(one_line.policies.len(), 2);
    assert_eq!(one_line, table);

    // With its closing `]}` cut off it is not JSON, whatever its rows say.
    let cut = COST_TABLE
        .trim_end()
        .strip_suffix("]\n}")
        .expect("ends in ]}");
    assert!(CostTable::from_json(cut).is_err());
}

#[test]
fn every_lint_json_line_parses_and_its_severity_matches_its_code() {
    let mut lines = 0;
    for line in LINT_GOLDEN.lines().filter(|l| l.starts_with('{')) {
        let d = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let code = d.get("code").and_then(Value::as_str).expect("code");
        let severity = d.get("severity").and_then(Value::as_str).expect("severity");
        let want = match code.as_bytes()[0] {
            b'E' => "error",
            b'W' => "warning",
            _ => panic!("code {code} is neither E nor W"),
        };
        assert_eq!(severity, want, "{line}");
        for key in ["artifact", "message"] {
            assert!(
                d.get(key).and_then(Value::as_str).is_some(),
                "{key}: {line}"
            );
        }
        lines += 1;
    }
    assert!(lines > 0, "the golden corpus holds lint lines");
}
