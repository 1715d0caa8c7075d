#!/bin/sh
# Run every experiment binary in crates/bench/src/bin/, regenerating the
# series DESIGN.md's per-experiment index describes and the BENCH_*.json
# perf trajectory, then the microbenchmark harness. Results are discussed
# in EXPERIMENTS.md.
#
#   ./scripts/run_experiments.sh          full run (experiments + microbenchmarks)
#   ./scripts/run_experiments.sh --smoke  experiments only, at reduced CI scale
set -e

cd "$(dirname "$0")/.."

usage="usage: $0 [--smoke]"
SMOKE=""
case "$#:$1" in
    0:) ;;
    1:--smoke) SMOKE="--smoke" ;;
    *)
        echo "$usage" >&2
        exit 2
        ;;
esac

cargo build --release -p tcq-bench

for exp in exp_eddy_adaptivity exp_adaptivity_knobs exp_cacq_sharing \
    exp_hybrid_join exp_window_memory exp_psoup exp_dynamic_queries \
    exp_storage exp_flux exp_chaos exp_throughput exp_scaling \
    exp_kernels exp_query_scale exp_recovery exp_liveness exp_clients; do
    echo
    echo "==== $exp $SMOKE ===="
    ./target/release/"$exp" $SMOKE
done

if [ -n "$SMOKE" ]; then
    echo
    echo "run_experiments: all experiments passed (smoke)"
    exit 0
fi

echo
echo "==== microbenchmarks (std timer harness) ===="
cargo bench -p tcq-bench

echo
echo "run_experiments: all experiments completed"
