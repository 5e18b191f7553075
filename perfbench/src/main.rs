//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). Exits non-zero when any output fails its check.

use enode_perfbench::gate::Gate;
use enode_perfbench::referent::Normalizer;
use enode_perfbench::report::{self, Metric};
use enode_perfbench::{host, serve, train};
use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <serve_dynsys|serve_image|train_image> --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("metric {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn run_serve(spec: serve::ServeSpec, args: &Args, gate: &mut Gate) -> Result<Vec<Metric>, String> {
    let prep = serve::Prepared::new(spec, args.seed);
    println!(
        "inputs: {} tenants x {} pool, stream digest {:016x}; solo nfe/req {:.4} trials/req {:.4} rejected/req {:.4}",
        spec.tenants.len(),
        spec.pool,
        prep.stream_digest,
        prep.nfe_per_req,
        prep.trials_per_req,
        prep.rejected_per_req
    );
    println!(
        "referent {} (nominal {:.1} us) on {} thread(s)",
        spec.referent.name,
        spec.referent.nominal_us(),
        spec.referent.threads
    );
    let mut norm = Normalizer::new(&spec.referent);
    if !args.trace {
        let mut u = serve::run_untraced(&prep, &mut norm, args.seconds, false, gate);
        report::print_slices("untraced", &u.slices, &norm, 1.0);
        report::print_setup(&u.setup, &u.setup_norm);
        return serve::end_to_end(&mut u, &norm, gate.ok_share());
    }
    let u = serve::run_untraced(&prep, &mut norm, args.seconds * 0.4, true, gate);
    report::print_slices("untraced", &u.slices, &norm, 1.0);
    let t = serve::run_traced(&prep, &mut norm, args.seconds * 0.4, gate);
    report::print_slices("traced", &t.slices, &norm, 1.0);
    println!(
        "stage sums: {} of {} requests within tolerance, largest gap {:.1} us",
        t.stage_ok,
        t.stage_total,
        t.stage_max_gap_ns as f64 / 1e3
    );
    let p = serve::profile(&prep, &t, &mut norm, args.seconds * 0.2);
    t.rec.print_aggregates();
    println!("{}", t.rec.write(spec.name));
    Ok(report::listed(
        report::PER_LAYER,
        &serve::per_layer(&prep, &u, &t, &p, &norm),
    ))
}

fn main() -> ExitCode {
    // The benchmark fixes the pool width itself rather than inheriting
    // ENODE_THREADS: every workload runs one lane (the serving workers
    // read the global default); the traced runs time width 2 explicitly.
    std::env::set_var("ENODE_THREADS", "1");
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc()
    );
    let mut gate = Gate::default();
    let result = match args.workload.as_str() {
        "serve_dynsys" => {
            println!("pool width 1; 1 worker; fleet of 1 instance; 8 standard + 8 strict callers");
            run_serve(serve::DYNSYS, &args, &mut gate)
        }
        "serve_image" => {
            println!("pool width 1; 1 worker; server; 16 standard callers");
            run_serve(serve::IMAGE, &args, &mut gate)
        }
        "train_image" => {
            let run = train::RunArgs {
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
            };
            train::run(&run, &mut gate)
        }
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            gate.require(false, || e);
            let list = if args.trace {
                report::PER_LAYER
            } else {
                report::END_TO_END
            };
            report::listed(list, &BTreeMap::new())
        }
    };
    print_metrics(&metrics);
    for f in &gate.failures {
        println!("FAILED: {f}");
    }
    println!(
        "{}",
        report::json_line(gate.correct(), gate.attempted.max(1), gate.failed, &metrics)
    );
    if gate.correct() && metrics.iter().all(|m| m.value.is_finite()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
