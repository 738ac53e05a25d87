#!/usr/bin/env bash
# Runs every swept test binary (chaos, recovery, consensus, reads) of one
# build tree and writes <out-dir>/<suite>.props: each test's name with its
# recorded `*fingerprint` and `*obs_hash` gtest properties, one per line.
# A same-behaviour refactor leaves these files identical, so run it on the
# parent's build and on the change's build and diff the two directories:
#
#   scripts/sweep_props.sh ../parent/build /tmp/old
#   scripts/sweep_props.sh build /tmp/new
#   diff -r /tmp/old /tmp/new
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
  "$bin" --gtest_output="json:$OUT/$t.json" >/dev/null || FAILED+=("$t")
  grep -E '"(name|[a-z0-9_]*fingerprint|[a-z0-9_]*obs_hash)"' \
      "$OUT/$t.json" > "$OUT/$t.props"
  echo "$OUT/$t.props: $(grep -c -E 'fingerprint|obs_hash' "$OUT/$t.props") props"
done

if [[ ${#FAILED[@]} -gt 0 ]]; then
  echo "failing suites: ${FAILED[*]}" >&2
  exit 1
fi
