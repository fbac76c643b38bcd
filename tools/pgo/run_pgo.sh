#!/usr/bin/env bash
# Two-phase profile-guided-optimization build.
#
# Phase 1 configures an instrumented build (pgo-generate-<cc> preset),
# trains it on the two runs that dominate the simulator's hot paths
# — micro_engine_throughput (engine stepping, fast-forward replay,
# event-driven fleet serving) and `paper_figures fig22_fleet_scaling`
# (dispatch, harvest, billing) — then phase 2 rebuilds with the
# collected profiles plus LTO (pgo-use-<cc> preset).
#
# Usage: tools/pgo/run_pgo.sh [gcc|clang]   (default: gcc)
#
# The final optimized tree lands in build-pgo-use-<cc>/; compare
# bench-out/BENCH_*.json against a plain Release build to see the
# payoff.
set -euo pipefail

cc="${1:-gcc}"
case "$cc" in
gcc | clang) ;;
*)
    echo "usage: $0 [gcc|clang]" >&2
    exit 2
    ;;
esac

root="$(cd "$(dirname "$0")/../.." && pwd)"
cd "$root"
profiles="$root/build-pgo-profiles"
jobs="$(nproc 2>/dev/null || echo 4)"

echo "== phase 1: instrumented build (pgo-generate-$cc) =="
rm -rf "$profiles" "build-pgo-generate-$cc"
cmake --preset "pgo-generate-$cc"
cmake --build --preset "pgo-generate-$cc" -j "$jobs" \
    --target micro_engine_throughput paper_figures

echo "== training: micro_engine_throughput + paper_figures fig22_fleet_scaling =="
# Wall-clock speedup floors are meaningless on an instrumented binary.
export LITMUS_BENCH_STRICT=0
(cd "build-pgo-generate-$cc/bench" && ./micro_engine_throughput)
(cd "build-pgo-generate-$cc/bench" && ./paper_figures fig22_fleet_scaling)

if [ "$cc" = clang ]; then
    echo "== merging clang raw profiles =="
    merge_tool="$(command -v llvm-profdata || true)"
    if [ -z "$merge_tool" ]; then
        echo "run_pgo.sh: llvm-profdata not found — clang PGO needs it" >&2
        exit 1
    fi
    "$merge_tool" merge -output "$profiles/default.profdata" \
        "$profiles"/*.profraw
fi

echo "== phase 2: optimized build (pgo-use-$cc) =="
rm -rf "build-pgo-use-$cc"
cmake --preset "pgo-use-$cc"
cmake --build --preset "pgo-use-$cc" -j "$jobs"

echo "== validating the optimized build =="
(cd "build-pgo-use-$cc/bench" && ./micro_engine_throughput)
echo "PGO build ready in build-pgo-use-$cc/"
