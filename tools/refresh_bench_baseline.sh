#!/bin/sh
# Regenerate the committed benchmark baseline (bench/baseline/) that
# the CI bench-gate compares against. Run from the repository root
# after a Release build; commit the result together with the change
# that moved the numbers.
#
#   ./tools/refresh_bench_baseline.sh [--verify-clean] [build-dir]
#
# Uses the quick protocol (the one CI runs) so the committed files
# match what the gate measures. Only the deterministic "count"
# entries are gated — the wall-clock values recorded here are
# trajectory context, not a contract (see docs/BENCHMARKING.md).
#
# --verify-clean refuses to refresh unless `pcon_lint --strict`
# passes: a baseline blessed from a tree that violates the
# determinism rules would canonicalize numbers a clean tree cannot
# reproduce.
set -eu

VERIFY_CLEAN=0
if [ "${1:-}" = "--verify-clean" ]; then
    VERIFY_CLEAN=1
    shift
fi

BUILD_DIR=${1:-build}
OUT_DIR=bench/baseline

if [ "$VERIFY_CLEAN" = 1 ]; then
    if ! python3 tools/pcon_lint --root . --strict; then
        echo "refresh_bench_baseline: pcon-lint --strict failed;" \
             "fix findings (or stale suppressions) before blessing" \
             "a new baseline" >&2
        exit 3
    fi
fi

if [ ! -d "$BUILD_DIR/bench" ]; then
    echo "refresh_bench_baseline: no $BUILD_DIR/bench; build first" >&2
    exit 2
fi

mkdir -p "$OUT_DIR"
for suite in hotpath webwork_trace overhead_suite alignment; do
    PCON_BENCH_QUICK=1 PCON_BENCH_JSON_DIR="$OUT_DIR" \
        "./$BUILD_DIR/bench/bench_$suite"
done

echo "refresh_bench_baseline: wrote $(ls "$OUT_DIR" | wc -l) reports to $OUT_DIR"
