//! `enode-lint`: runs every static-analysis pass over the repository's
//! shipped tableaux, depth-first DDG schedules, paper pipelines, Table I
//! hardware configurations, and registered parallel kernel splits. Exits
//! nonzero if any error-severity diagnostic fires, so it can gate CI.
//!
//! `--json` switches to machine-readable output: one JSON object per
//! diagnostic per line (keys `code`, `severity`, `artifact`, `message`,
//! `notes`), nothing else on stdout, so CI can diff lint results across
//! PRs with line-oriented tools.
//!
//! `--explain <CODE>` prints the rustc-style long description of one lint
//! code; `--emit-lints-md` prints the generated `docs/LINTS.md`.

use enode_analysis::{
    consistency, cost, ddg, fleetcheck, hwcheck, lint_everything, paper_pipelines, parallelcheck,
    precision, registry, schedcheck, shape, tableau,
};

fn main() {
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--emit-lints-md" => {
                print!("{}", registry::render_lints_md());
                return;
            }
            "--explain" => {
                let Some(code_str) = args.next() else {
                    eprintln!("enode-lint: --explain needs a lint code (e.g. E050)");
                    std::process::exit(2);
                };
                match registry::parse_code(&code_str) {
                    Some(code) => {
                        print!("{}", registry::explain(code));
                        return;
                    }
                    None => {
                        eprintln!("enode-lint: unknown lint code `{code_str}`");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!(
                    "enode-lint: unknown argument `{other}` \
                     (supported: --json, --explain <CODE>, --emit-lints-md)"
                );
                std::process::exit(2);
            }
        }
    }

    let all = lint_everything();

    if json {
        print!("{}", all.render_json());
        if all.has_errors() {
            std::process::exit(1);
        }
        return;
    }

    println!("enode-lint: static analysis of the eNODE stack\n");

    println!(
        "-- tableaux ({} methods) --",
        enode_ode::tableau::all_tableaux().len()
    );
    print!("{}", tableau::lint_all_tableaux().render());

    println!("\n-- depth-first DDG schedules --");
    print!("{}", ddg::lint_all_ddgs().render());

    let pipelines = paper_pipelines();

    println!("\n-- embedded-network shapes and FP16 range --");
    let sample = &pipelines[0];
    let mut ds = enode_analysis::Diagnostics::new();
    for (l, layer) in sample.model.layers().iter().enumerate() {
        ds.extend(shape::lint_network(
            &format!("{} layer {l}", sample.name),
            layer,
            &sample.state_shape,
            sample.input_bound,
        ));
    }
    print!("{}", ds.render());

    println!("\n-- FP16 precision over the solver schedule --");
    let mut ds = enode_analysis::Diagnostics::new();
    for artifact in &pipelines {
        ds.extend(precision::lint_precision(artifact));
    }
    print!("{}", ds.render());

    println!("\n-- cross-artifact consistency --");
    let mut ds = enode_analysis::Diagnostics::new();
    for artifact in &pipelines {
        ds.extend(consistency::lint_consistency(artifact));
    }
    print!("{}", ds.render());

    println!("\n-- hardware configurations (Table I) --");
    print!("{}", hwcheck::lint_paper_configs().render());

    println!(
        "\n-- parallel kernel splits ({} summaries) --",
        parallelcheck::registered_summaries().len()
    );
    print!("{}", parallelcheck::lint_registered_splits(4).render());

    println!("\n-- serving policies: ladders, load, deadlines and energy (COST_TABLE.json) --");
    print!("{}", schedcheck::lint_shipped_policies().render());

    println!("\n-- static roofline cost model --");
    print!("{}", cost::lint_shipped_baseline().render());

    println!("\n-- fleet registry & residency --");
    print!("{}", fleetcheck::lint_shipped_fleet().render());

    // The authoritative verdict covers every pipeline, not just the
    // samples printed above.
    println!("\n-- total --");
    print!("{}", all.render());

    if all.has_errors() {
        std::process::exit(1);
    }
}
