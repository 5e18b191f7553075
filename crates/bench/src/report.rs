//! Console table formatting shared by the experiment harnesses, and the
//! command line and `--check` shared by the four artifact bins
//! (`serve_bench`, `fleet_bench`, `cost_table_json`,
//! `bench_kernels_json`).

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str) {
    println!();
    println!("=== {id}: {title} ===");
}

/// Prints a table header row followed by a separator.
pub fn header(cols: &[&str]) {
    row(cols);
    let widths: Vec<usize> = cols.iter().map(|c| c.len().max(12)).collect();
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("{}", sep.join("-+-"));
}

/// Prints one table row with 12-char-min columns.
pub fn row(cols: &[&str]) {
    let padded: Vec<String> = cols.iter().map(|c| format!("{c:>12}")).collect();
    println!("{}", padded.join(" | "));
}

/// Formats a float compactly.
pub fn f(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 || v.abs() < 0.01 {
        format!("{v:.3e}")
    } else {
        format!("{v:.3}")
    }
}

/// Formats a ratio as `N.NNx`.
pub fn ratio(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats bytes as MB.
pub fn mb(bytes: f64) -> String {
    format!("{:.2} MB", bytes / (1024.0 * 1024.0))
}

/// `available_parallelism()` of the emitting host (1 when unknown).
///
/// Every committed benchmark JSON carries this so consumers can read
/// speedups and latency numbers relative to the host that produced them —
/// it is the one field expected to differ across machines.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The command line of an artifact bin: the flags it takes and an
/// optional output path.
#[derive(Debug)]
pub struct ArtifactArgs {
    bin: &'static str,
    /// `--quick`: the reduced grid or sample count.
    pub quick: bool,
    /// `--check`: compare with the committed file instead of writing it.
    check: bool,
    /// Where the artifact is written or checked (its committed name by
    /// default).
    path: String,
}

impl ArtifactArgs {
    /// Reads the process arguments of `bin`, which takes the `flags`
    /// listed (`--quick`, `--check` or both) and writes `default_path`.
    /// Any other `-`-prefixed argument, or `--check` with `--quick`,
    /// exits 2 with a usage line.
    pub fn from_env(bin: &'static str, flags: &[&str], default_path: &str) -> ArtifactArgs {
        Self::parse(bin, flags, default_path, std::env::args().skip(1)).unwrap_or_else(|problem| {
            let flags: String = flags.iter().map(|f| format!("[{f}] ")).collect();
            eprintln!("{bin}: {problem}\nusage: {bin} {flags}[PATH]");
            std::process::exit(2);
        })
    }

    fn parse(
        bin: &'static str,
        flags: &[&str],
        default_path: &str,
        args: impl IntoIterator<Item = String>,
    ) -> Result<ArtifactArgs, String> {
        let mut out = ArtifactArgs {
            bin,
            quick: false,
            check: false,
            path: default_path.to_string(),
        };
        for arg in args {
            match arg.as_str() {
                "--quick" if flags.contains(&"--quick") => out.quick = true,
                "--check" if flags.contains(&"--check") => out.check = true,
                path if !path.starts_with('-') => out.path = arg,
                flag => return Err(format!("unknown flag {flag}")),
            }
        }
        if out.quick && out.check {
            return Err("--check compares the full run; it takes no --quick".to_string());
        }
        Ok(out)
    }

    /// Finishes the run: the rendered `json` must parse with the one JSON
    /// reader (exit 1 if not), then it is compared with the committed
    /// file under `--check` ([`check_artifact`]) or written to the path.
    pub fn emit(&self, json: &str) {
        if let Err(e) = enode_hw::json::parse(json) {
            eprintln!("{}: the rendered document is not JSON: {e}", self.bin);
            std::process::exit(1);
        }
        if self.check {
            let regenerate = format!("cargo run --release -p enode-bench --bin {}", self.bin);
            check_artifact(&self.path, json, &regenerate);
            return;
        }
        if let Err(e) = std::fs::write(&self.path, json) {
            eprintln!("{}: cannot write {}: {e}", self.bin, self.path);
            std::process::exit(1);
        }
        eprintln!("wrote {}", self.path);
    }
}

/// The top-level fields of `BENCH_serve.json` and `BENCH_fleet.json` that
/// describe the emitting host rather than the simulation. Everything else
/// in those documents is a pure function of the seed.
pub const HOST_METADATA_FIELDS: [&str; 2] = ["host_cpus", "enode_threads_default"];

/// `--check` for the artifact bins: compares the regenerated document
/// with the committed file at `path` byte for byte, except for the lines
/// holding one of the [`HOST_METADATA_FIELDS`] (`COST_TABLE.json` has
/// none). On a mismatch it prints the first differing line and how to
/// regenerate, and exits 1.
pub fn check_artifact(path: &str, regenerated: &str, regenerate_cmd: &str) {
    let committed = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    match first_difference_ignoring_host(&committed, regenerated) {
        None => eprintln!("{path}: up to date (host metadata skipped)"),
        Some((line, old, new)) => {
            eprintln!(
                "{path} is stale at line {line} (host metadata skipped):\n  committed:   {old}\n  \
                 regenerated: {new}\nrerun `{regenerate_cmd}`"
            );
            std::process::exit(1);
        }
    }
}

/// The first line (1-based, counted without the host-metadata lines) where
/// two documents differ once every [`HOST_METADATA_FIELDS`] line is
/// dropped, with both versions (empty past the end). `None` when the rest
/// of the bytes, trailing newline included, are identical.
fn first_difference_ignoring_host(
    committed: &str,
    regenerated: &str,
) -> Option<(usize, String, String)> {
    let is_host = |line: &&str| {
        let line = line.trim_start();
        HOST_METADATA_FIELDS
            .iter()
            .any(|f| line.starts_with(&format!("\"{f}\":")))
    };
    let a: Vec<&str> = committed
        .split_inclusive('\n')
        .filter(|l| !is_host(l))
        .collect();
    let b: Vec<&str> = regenerated
        .split_inclusive('\n')
        .filter(|l| !is_host(l))
        .collect();
    (0..a.len().max(b.len())).find_map(|i| {
        let (x, y) = (
            a.get(i).copied().unwrap_or(""),
            b.get(i).copied().unwrap_or(""),
        );
        (x != y).then(|| (i + 1, x.trim_end().to_string(), y.trim_end().to_string()))
    })
}

/// The single-core measurement caveat shared by every bench emitter:
/// `Some(warning row)` when the host cannot actually run `threads_high`
/// lanes in parallel (so parallel timings lose to serial by construction),
/// `None` on a capable host. The `W085` lint machine-checks the same
/// caveat against the committed `BENCH_kernels.json`.
pub fn host_caveat(threads_high: usize) -> Option<String> {
    let cpus = host_cpus();
    (cpus < threads_high).then(|| {
        format!(
            "warning: host has {cpus} cpu(s) for {threads_high} bench threads; \
             parallel timings cannot beat serial here (lint W085 machine-checks \
             this caveat against the committed baseline)"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_comparison_skips_only_host_metadata() {
        let committed =
            "{\n  \"host_cpus\": 1,\n  \"enode_threads_default\": 1,\n  \"seed\": 7\n}\n";
        let other_host = committed
            .replace("cpus\": 1", "cpus\": 64")
            .replace("default\": 1", "default\": 8");
        assert_eq!(first_difference_ignoring_host(committed, &other_host), None);
        let drifted = committed.replace("\"seed\": 7", "\"seed\": 8");
        assert_eq!(
            first_difference_ignoring_host(committed, &drifted),
            Some((2, "  \"seed\": 7".into(), "  \"seed\": 8".into()))
        );
        // A value that merely mentions a host field is not skipped, and
        // neither is a lost trailing newline or a truncated document.
        let renamed = committed.replace("\"seed\"", "\"host_cpus_seed\"");
        assert!(first_difference_ignoring_host(committed, &renamed).is_some());
        assert!(first_difference_ignoring_host(committed, committed.trim_end()).is_some());
        assert!(first_difference_ignoring_host(committed, "{\n").is_some());
    }

    #[test]
    fn artifact_args_refuse_typos_and_check_with_quick() {
        let parse = |flags: &[&str], args: &[&str]| {
            let args = args.iter().map(|a| a.to_string());
            ArtifactArgs::parse("bin", flags, "OUT.json", args).map(|a| (a.quick, a.check, a.path))
        };
        let both = ["--quick", "--check"];
        assert_eq!(parse(&both, &[]), Ok((false, false, "OUT.json".into())));
        assert_eq!(
            parse(&both, &["--quick", "/tmp/x.json"]),
            Ok((true, false, "/tmp/x.json".into()))
        );
        assert_eq!(
            parse(&both, &["--check"]),
            Ok((false, true, "OUT.json".into()))
        );
        // A typo is refused rather than taken for the output path.
        assert_eq!(parse(&both, &["--chek"]), Err("unknown flag --chek".into()));
        assert!(parse(&both, &["--check", "--quick"]).is_err());
        // So is a flag this bin does not take.
        assert!(parse(&["--quick"], &["--check"]).is_err());
        assert!(parse(&["--check"], &["-q"]).is_err());
    }

    #[test]
    fn host_cpus_is_positive() {
        assert!(host_cpus() >= 1);
    }

    #[test]
    fn host_caveat_only_fires_on_starved_hosts() {
        // One bench thread can never starve the host; an absurd demand
        // always does, and the row names the machine-checking lint.
        assert!(host_caveat(1).is_none());
        let row = host_caveat(usize::MAX).expect("usize::MAX threads must starve any host");
        assert!(row.contains("W085"), "{row}");
    }
}
