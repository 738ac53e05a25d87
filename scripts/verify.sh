#!/usr/bin/env bash
# Full verification: tier-1 build + ctest, the same suite under
# ASan+UBSan, and the benchmark's own tests (perfbench/test_perfbench.py).
# ctest re-runs every committed BENCH_*.json at the repo root and checks
# its gates (bench/CMakeLists.txt, `ctest -L replay`), so a stale or
# regressed committed export fails step 1.
#
# Usage: scripts/verify.sh [--skip-sanitize]
#
# Build trees: build/ (plain),
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

# ---- 3. the benchmark's own tests ---------------------------------------
# Builds the perfbench driver the way perfbench/run.py does, then checks the
# message-to-layer table, the driver's --selftest, the BENCHMARK.json schema
# and that short runs emit exactly the declared metrics.
banner "perfbench self-tests"
python3 perfbench/test_perfbench.py

banner "verify.sh: all green"
