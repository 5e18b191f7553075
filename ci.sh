#!/usr/bin/env bash
# Tier-1 CI gate: formatting, lints, release build, full test suite.
# Everything runs fully offline — the workspace has no external deps.
set -euo pipefail
cd "$(dirname "$0")"

# Scratch outputs of the smoke runs below; removed however the script exits.
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

# Every test step runs under a generous bound (build time included), so a
# hang — a lost wakeup, a deadlock — fails with a message instead of
# stalling CI. `timeout` signals the whole process group: the test
# binaries too, not only cargo.
test_bound_s=1800
bounded() {
  local status=0
  timeout -k 30 "$test_bound_s" "$@" || status=$?
  if [ "$status" -eq 124 ]; then
    echo "ci.sh: '$*' did not finish within ${test_bound_s}s (a hang?)" >&2
  fi
  return "$status"
}

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy --all-targets --features sanitize (enode-tensor) -- -D warnings"
cargo clippy -p enode-tensor --all-targets --features sanitize -- -D warnings

echo "==> cargo clippy --all-targets --features synctrace (enode-serve) -- -D warnings"
cargo clippy -p enode-serve --all-targets --features synctrace -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
bounded cargo test -q --workspace

echo "==> cargo test -q --workspace (ENODE_THREADS=4)"
ENODE_THREADS=4 bounded cargo test -q --workspace

echo "==> sanitizer-enabled tensor suite + mutation tests (ENODE_THREADS=4)"
ENODE_THREADS=4 bounded cargo test -q -p enode-tensor --features sanitize

# The shadow tracker is the one check on lane claims; this runs it over the
# registered per-sample fan-out, node.forward_model_batched (the serving solve).
echo "==> sanitizer-enabled NODE determinism suite (ENODE_THREADS=4)"
ENODE_THREADS=4 bounded cargo test -q -p enode-node --features enode-tensor/sanitize --test parallel_determinism

echo "==> analysis mutation suite (planted defects must fire their exact codes)"
bounded cargo test -q -p enode-analysis --test mutations

echo "==> tensor + ODE suites in release (per-body SIMD tests against the optimized portable loops)"
bounded cargo test -q --release -p enode-tensor -p enode-ode

echo "==> serve suite + traced lock order under the synctrace recorder (ENODE_THREADS=4)"
ENODE_THREADS=4 bounded cargo test -q -p enode-serve --features synctrace

echo "==> bench_kernels_json smoke run (--quick)"
cargo run -q --release -p enode-bench --bin bench_kernels_json -- --quick "$scratch/kernels.json"

echo "==> serve_bench --check (BENCH_serve.json parses and matches a full regenerated sweep, host metadata skipped)"
cargo run -q --release -p enode-bench --bin serve_bench -- --check >/dev/null

echo "==> fleet_bench --check (BENCH_fleet.json parses and matches a full regenerated sweep, host metadata skipped)"
cargo run -q --release -p enode-bench --bin fleet_bench -- --check >/dev/null

echo "==> cost_table_json --check (COST_TABLE.json byte identity with the simulator)"
cargo run -q --release -p enode-bench --bin cost_table_json -- --check >/dev/null

echo "==> ablations (output identical to experiments_output.txt from '=== Ablation: packetized' to the end)"
cargo run -q --release -p enode-bench --bin ablations > "$scratch/ablations.txt"
# The bin prints one leading blank line the committed section does not have.
diff <(tail -n +2 "$scratch/ablations.txt") <(sed -n '/^=== Ablation: packetized/,$p' experiments_output.txt)

echo "==> perfbench self-tests (its own package, built against the workspace crates)"
bounded cargo test -q --offline --manifest-path perfbench/Cargo.toml

# The served solve (no recorder) and the solo traced solve (ACA checkpoint
# recorder) run on one stepping core; perfbench's gate compares every
# served response bit for bit with its solo solve. The exit status is the
# gate.
for workload in serve_dynsys serve_image; do
  echo "==> perfbench $workload (3 s, --trace 0; exit status gates served == solo bits)"
  cargo run -q --release --offline --manifest-path perfbench/Cargo.toml --bin perfbench -- \
    --workload "$workload" --seed 1 --seconds 3 --trace 0 >/dev/null
done

# The training workload runs the unfused conv forward, the ACA local
# forward and the conv backward kernels. Its traced run gates
# Trainer::step == forward_model + aca_backward_model and bit-identical
# logits at pool widths 1 and 2; its untraced part (40 % of --seconds, here
# ~4.8 s, ~130 steps) reaches the cycle's second round, where each batch's
# loss must have fallen. A 3-s run stops inside the first round and checks
# no descent. The exit status is the gate.
echo "==> perfbench train_image (12 s, --trace 1; exit status gates descent, step parity, width parity)"
cargo run -q --release --offline --manifest-path perfbench/Cargo.toml --bin perfbench -- \
  --workload train_image --seed 1 --seconds 12 --trace 1 >/dev/null

echo "==> cargo doc --no-deps (RUSTDOCFLAGS=-Dwarnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

# Exits 1 on any error-severity diagnostic: every E code is an error.
echo "==> enode-lint --json (static analysis over shipped artifacts; no error-severity diagnostics)"
lint_json="$(cargo run -q --release -p enode-analysis --bin enode-lint -- --json)" || {
  echo "enode-lint --json exited nonzero:"
  echo "$lint_json"
  exit 1
}

echo "CI OK"
