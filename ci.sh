#!/usr/bin/env bash
# Tier-1 CI gate: formatting, lints, release build, full test suite.
# Everything runs fully offline — the workspace has no external deps.
set -euo pipefail
cd "$(dirname "$0")"

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
cargo test -q --workspace

echo "==> cargo test -q --workspace (ENODE_THREADS=4)"
ENODE_THREADS=4 cargo test -q --workspace

echo "==> sanitizer-enabled tensor suite + mutation tests (ENODE_THREADS=4)"
ENODE_THREADS=4 cargo test -q -p enode-tensor --features sanitize

echo "==> analysis mutation suite (planted defects must fire their exact codes)"
cargo test -q -p enode-analysis --test mutations

echo "==> concurrency mutation seeds (E100/E101/E102 discrimination)"
cargo test -q -p enode-analysis --test mutations -- \
  flipped_lock_order_fires_exactly_e100 \
  dropped_notify_fires_exactly_e101 \
  skipped_join_fires_exactly_e102

echo "==> fleet mutation seeds (E110/E111/E112/E113 discrimination)"
cargo test -q -p enode-analysis --test mutations -- \
  oversized_published_model_fires_exactly_e110 \
  single_replica_fleet_fires_exactly_e111_on_loss \
  sub_window_sla_fires_exactly_e112 \
  tampered_registry_fingerprint_fires_exactly_e113

echo "==> serving runtime suite under a 4-lane pool (batcher determinism audit)"
ENODE_THREADS=4 cargo test -q -p enode-serve

echo "==> fleet determinism suite under a 4-lane pool (ENODE_THREADS=4)"
ENODE_THREADS=4 cargo test -q -p enode-serve --test fleet

echo "==> serve suite + sync-parity under the synctrace recorder (ENODE_THREADS=4)"
ENODE_THREADS=4 cargo test -q -p enode-serve --features synctrace

echo "==> bench_kernels_json smoke run (--quick)"
cargo run -q --release -p enode-bench --bin bench_kernels_json -- --quick "$(mktemp)"

echo "==> serve_bench smoke run (--smoke: JSON validated, p99 fields present)"
cargo run -q --release -p enode-bench --bin serve_bench -- --smoke >/dev/null

echo "==> fleet_bench smoke run (--smoke: JSON validated, residency fields present)"
cargo run -q --release -p enode-bench --bin fleet_bench -- --smoke >/dev/null

echo "==> serve_bench --check (BENCH_serve.json identity with a full regenerated sweep, host metadata skipped)"
cargo run -q --release -p enode-bench --bin serve_bench -- --check >/dev/null

echo "==> fleet_bench --check (BENCH_fleet.json identity with a full regenerated sweep, host metadata skipped)"
cargo run -q --release -p enode-bench --bin fleet_bench -- --check >/dev/null

echo "==> cost_table_json --check (COST_TABLE.json byte identity with the simulator)"
cargo run -q --release -p enode-bench --bin cost_table_json -- --check

echo "==> perfbench self-tests (its own package, built against the workspace crates)"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# The served solve (no recorder) and the solo traced solve (ACA checkpoint
# recorder) run on one stepping core; perfbench's gate compares every
# served response bit for bit with its solo solve. The exit status is the
# gate.
for workload in serve_dynsys serve_image; do
  echo "==> perfbench $workload (3 s, --trace 0; exit status gates served == solo bits)"
  cargo run -q --release --offline --manifest-path perfbench/Cargo.toml --bin perfbench -- \
    --workload "$workload" --seed 1 --seconds 3 --trace 0 >/dev/null
done

echo "==> cargo doc --no-deps (RUSTDOCFLAGS=-Dwarnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "==> enode-lint (static analysis over shipped artifacts)"
cargo run -q --release -p enode-analysis --bin enode-lint

echo "==> enode-lint --json (no error-severity diagnostics)"
lint_json="$(cargo run -q --release -p enode-analysis --bin enode-lint -- --json)" || {
  echo "enode-lint --json exited nonzero:"
  echo "$lint_json"
  exit 1
}
if echo "$lint_json" | grep -q '"severity":"error"'; then
  echo "error-severity lint diagnostics:"
  echo "$lint_json" | grep '"severity":"error"'
  exit 1
fi
if echo "$lint_json" | grep -q '"code":"E08'; then
  echo "affine access proofs failed (E08x) on registered kernel summaries:"
  echo "$lint_json" | grep '"code":"E08'
  exit 1
fi
if echo "$lint_json" | grep -q '"code":"E09'; then
  echo "schedulability / energy-budget proofs failed (E09x) on shipped policies:"
  echo "$lint_json" | grep '"code":"E09'
  exit 1
fi
if echo "$lint_json" | grep -q '"code":"E10'; then
  echo "concurrency proofs failed (E10x) on the registered sync skeletons:"
  echo "$lint_json" | grep '"code":"E10'
  exit 1
fi
if echo "$lint_json" | grep -q '"code":"E11'; then
  echo "fleet registry / residency proofs failed (E11x) on the shipped fleet:"
  echo "$lint_json" | grep '"code":"E11'
  exit 1
fi

echo "CI OK"
