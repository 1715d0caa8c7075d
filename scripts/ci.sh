#!/bin/sh
# Tier-1 gate: everything here must pass before merging.
# Fully offline — no network, no external dev-dependencies.
set -e

cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
build_start=$(date +%s)
cargo build --release
build_end=$(date +%s)
echo "release build took $((build_end - build_start))s"

echo "== cargo test (workspace) =="
cargo test --workspace -q

echo "== exp_chaos --smoke (server-level chaos, reduced scale) =="
./target/release/exp_chaos --smoke

echo "== exp_throughput --smoke (perf tripwire: batched must beat per-tuple) =="
./target/release/exp_throughput --smoke

echo "== exp_scaling --smoke (perf tripwire: partitioned exchange vs sequential) =="
./target/release/exp_scaling --smoke

echo "== exp_kernels --smoke (perf tripwire: kernel >= 2.5x interpreter, columnar eddy >= 1.5x row eddy, <= 24.0 row / 3.0 columnar allocs/tuple) =="
./target/release/exp_kernels --smoke

echo "== exp_query_scale --smoke (scale tripwire: 100k-CQ probe >= 20x naive, churn floor, zero probe allocs) =="
./target/release/exp_query_scale --smoke

echo "== exp_recovery --smoke (robustness tripwire: kill -> restore loses nothing) =="
./target/release/exp_recovery --smoke

echo "== exp_liveness --smoke (robustness tripwire: watchdog detects and recovers wedges) =="
./target/release/exp_liveness --smoke

echo "== exp_clients --smoke (transport tripwire: real TCP fleet, exact dead-client ledger) =="
./target/release/exp_clients --smoke

echo
echo "ci: all green"
