#!/usr/bin/env bash
# Runs every swept test binary (chaos, recovery, consensus, reads) of one
# build tree and writes <out-dir>/<suite>.props: each test's name with its
# recorded `*fingerprint` and `*obs_hash` gtest properties, one per line.
# It also writes <out-dir>/ablation.json and <out-dir>/fig6.json, the quick
# `bench_paper ablation` and `bench_paper fig6` exports (ZIZIPHUS_BENCH_JSON),
# which no committed file replays: the threshold-signatures-off cell and
# the crashed-backup cells of every protocol. A same-behaviour refactor
# leaves all of these files identical, so run it on the parent's build and
# on the change's build and diff the two directories, skipping the raw
# gtest reports and bench logs (<suite>.gtest.json and <view>.log, which
# carry wall times):
#
#   scripts/sweep_props.sh ../parent/build /tmp/old
#   scripts/sweep_props.sh build /tmp/new
#   diff -r -x '*.gtest.json' -x '*.log' /tmp/old /tmp/new
#
# Usage: scripts/sweep_props.sh <build-dir> <out-dir>

set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <build-dir> <out-dir>" >&2
  exit 2
fi
BUILD="$1"
OUT="$2"
mkdir -p "$OUT"
FAILED=()

for t in chaos recovery consensus reads; do
  bin="$BUILD/tests/tests_$t"
  if [[ ! -x "$bin" ]]; then
    echo "missing test binary: $bin" >&2
    exit 1
  fi
  # A failing test still records its properties: write them all, then
  # report the failing suites and exit 1.
  "$bin" --gtest_output="json:$OUT/$t.gtest.json" >/dev/null || FAILED+=("$t")
  grep -E '"(name|[a-z0-9_]*fingerprint|[a-z0-9_]*obs_hash)"' \
      "$OUT/$t.gtest.json" > "$OUT/$t.props"
  echo "$OUT/$t.props: $(grep -c -E 'fingerprint|obs_hash' "$OUT/$t.props") props"
done

bench="$BUILD/bench/bench_paper"
if [[ ! -x "$bench" ]]; then
  echo "missing bench binary: $bench" >&2
  exit 1
fi
for view in ablation fig6; do
  ZIZIPHUS_BENCH_JSON="$OUT/$view.json" "$bench" "$view" \
      >"$OUT/$view.log" 2>&1 || FAILED+=("bench_paper $view")
  echo "$OUT/$view.json: $(grep -c '"name"' "$OUT/$view.json") cells"
done

if [[ ${#FAILED[@]} -gt 0 ]]; then
  echo "failing suites: ${FAILED[*]}" >&2
  exit 1
fi
