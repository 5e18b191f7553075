//! Tier-1 gate: everything the repository ships must pass every static
//! lint — the same check `enode-lint` runs, wired into `cargo test` so a
//! regression in any tableau, DDG schedule, paper model, or Table I
//! configuration fails the suite.

use enode::analysis::{lint_everything, Code};

#[test]
fn shipped_artifacts_pass_all_static_lints() {
    let ds = lint_everything();
    assert!(
        !ds.has_errors(),
        "static lints found errors:\n{}",
        ds.render()
    );
    // The only tolerated warnings are advisories raised *by design*:
    // W085 host caveats from the roofline pass against the committed
    // 1-core bench baseline (see `analysis::cost`) and W044 serial-floor
    // notes on the two registered shapes that fall below the dispatch
    // floor (see `analysis::parallelcheck`); anything else is a
    // regression.
    assert!(
        ds.items().iter().all(|d| matches!(
            d.code,
            Code::W085CostFutileSplit | Code::W044ParSerialFloorEngaged
        )),
        "static lints found unexpected warnings:\n{}",
        ds.render()
    );
    assert_eq!(ds.warning_count(), 6, "{}", ds.render());
    let floored: Vec<&str> = ds
        .items()
        .iter()
        .filter(|d| d.code == Code::W044ParSerialFloorEngaged)
        .map(|d| d.subject.as_str())
        .collect();
    assert_eq!(
        floored,
        ["dense.forward", "groupnorm.forward"],
        "serial-floor advisories drifted:\n{}",
        ds.render()
    );
}
