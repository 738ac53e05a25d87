#!/usr/bin/env bash
# Full verification: tier-1 build + ctest, the same suite under
# ASan+UBSan, --require/--min-ratio gates over every committed
# BENCH_*.json at the repo root (so a stale or regressed committed
# export fails even if nobody re-ran the bench that wrote it), and the
# benchmark's own tests (perfbench/test_perfbench.py).
#
# Usage: scripts/verify.sh [--skip-sanitize]
#
# Build trees: build/ (plain, also used for bench_schema_check),
# build-asan/ (ZIZIPHUS_SANITIZE=address,undefined) and .bench_build/ (the
# perfbench driver, or $CARGO_TARGET_DIR when set). All are plain cmake
# trees — safe to delete, never committed.

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

SKIP_SANITIZE=0
for arg in "$@"; do
  case "$arg" in
    --skip-sanitize) SKIP_SANITIZE=1 ;;
    *) echo "unknown flag: $arg (want --skip-sanitize)" >&2; exit 2 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 4)"

banner() { printf '\n=== %s ===\n' "$*"; }

# ---- 1. tier-1: plain build + full ctest -------------------------------
banner "tier-1 build (build/)"
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
banner "tier-1 ctest"
ctest --test-dir build --output-on-failure -j "$JOBS"

# ---- 2. the same suite, instrumented -----------------------------------
if [[ "$SKIP_SANITIZE" == 0 ]]; then
  banner "sanitizer build (build-asan/, ZIZIPHUS_SANITIZE=address,undefined)"
  cmake -B build-asan -S . -DZIZIPHUS_SANITIZE=address,undefined >/dev/null
  cmake --build build-asan -j "$JOBS"
  banner "sanitizer ctest"
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"
fi

# ---- 3. committed BENCH_*.json gates -----------------------------------
# Schema-validate every committed export, then re-assert each file's
# headline claim. The per-file gates mirror (and for files without a
# dedicated ctest, extend) bench_reads_committed / bench_consensus_committed.
CHECK=build/tests/bench_schema_check

banner "BENCH_fig5.json"
"$CHECK" BENCH_fig5.json \
  --require=ziziphus/zones:3:lat_p50_ms \
  --require=steward/zones:3:lat_p50_ms \
  --require=two-level-pbft/zones:3:lat_p50_ms \
  --require=flat-pbft/zones:3:lat_p50_ms

banner "BENCH_simperf.json"
"$CHECK" BENCH_simperf.json \
  --require=simperf/fig4/zones:3:events \
  --require=simperf/fig4/zones:3:events_per_sec \
  --require=simperf/fig4/zones:3:allocs_per_event \
  --require=simperf/fig4/zones:3:tput_ktps

banner "BENCH_soak.json"
"$CHECK" BENCH_soak.json \
  --require=soak/trim:on:plateau_ratio \
  --require=soak/trim:on:high_water_kb \
  --require=soak/trim:off:high_water_kb \
  --require=rejoin/records:512/delta:on:ttr_ms \
  --require=rejoin/records:512/delta:on:transfer_kb

banner "BENCH_reads.json"
"$CHECK" BENCH_reads.json \
  --require=reads:90/fast:reads_served \
  --require=reads:90/fast:reads_cert_verified \
  --require=reads:99/fast:reads_served \
  --require=all-txn:tput_ktps \
  "--min-ratio=reads:90/fast|reads:90/txn-path|tput_ktps|2.0"

banner "BENCH_consensus.json"
"$CHECK" BENCH_consensus.json \
  --require=consensus/stable/failures:0:lat_p50_ms \
  --require=consensus/stable/failures:1:lat_p50_ms \
  --require=consensus/rotating/failures:0:rotations \
  --require=consensus/rotating/failures:1:lat_p50_ms \
  --require=consensus/fast-path/failures:0:fast_commits \
  --require=consensus/fast-path/failures:1:fast_fallbacks \
  "--min-ratio=consensus/stable/failures:0|consensus/fast-path/failures:0|lat_p50_ms|1.0" \
  "--min-ratio=consensus/stable/failures:1|consensus/fast-path/failures:1|lat_p50_ms|0.25"

# ---- 4. the benchmark's own tests ---------------------------------------
# Builds the perfbench driver the way perfbench/run.py does, then checks the
# message-to-layer table, the driver's --selftest, the BENCHMARK.json schema
# and that short runs emit exactly the declared metrics.
banner "perfbench self-tests"
python3 perfbench/test_perfbench.py

banner "verify.sh: all green"
