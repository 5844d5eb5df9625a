#!/bin/sh
# Bench-regression gate: re-measure a bench group and compare every op's
# fresh OLS estimate against the checked-in baseline_estimates_ns of the
# matching BENCH_*.json. An op more than FACTOR x slower than its
# baseline fails the gate (exit 1); ops present in the baseline but
# missing from the fresh run fail too (a renamed bench must update its
# baseline in the same PR). A markdown comparison table is always
# written for the CI artifact / job summary.
#
# usage: scripts/bench_check.sh [-f FACTOR] [-q QUOTA] [-o TABLE.md] BASELINE.json GROUP
#   FACTOR   slowdown ratio that fails, default 2.0
#   QUOTA    per-test bechamel quota in seconds, default 1
#   TABLE.md where to append the markdown table, default bench_table.md
#
# e.g.  scripts/bench_check.sh -o table.md BENCH_scheduler.json sc
#       scripts/bench_check.sh -o table.md BENCH_overload.json ovl
#
# The baselines were recorded on a single-core container; CI runners are
# a different machine class, so the gate is meaningful only against
# baselines recorded on comparable hardware — re-record (bench/main.exe
# -json) and commit when the runner class changes.

set -eu

FACTOR=2.0
QUOTA=1
TABLE=bench_table.md
while getopts f:q:o: opt; do
  case $opt in
    f) FACTOR=$OPTARG ;;
    q) QUOTA=$OPTARG ;;
    o) TABLE=$OPTARG ;;
    *) echo "usage: $0 [-f FACTOR] [-q QUOTA] [-o TABLE.md] BASELINE.json GROUP" >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
[ $# -eq 2 ] || { echo "usage: $0 [-f FACTOR] [-q QUOTA] [-o TABLE.md] BASELINE.json GROUP" >&2; exit 2; }
BASELINE=$1
GROUP=$2

command -v jq >/dev/null || { echo "bench_check: jq not found" >&2; exit 2; }
jq -e '.baseline_estimates_ns' "$BASELINE" >/dev/null || {
  echo "bench_check: $BASELINE has no baseline_estimates_ns object" >&2; exit 2; }

FRESH=$(mktemp)
trap 'rm -f "$FRESH"' EXIT

echo "bench_check: measuring group '$GROUP' (quota ${QUOTA}s) against $BASELINE"
dune exec bench/main.exe -- -only "$GROUP" -quota "$QUOTA" -json "$FRESH" >/dev/null

# One row per baseline op: "name baseline_ns fresh_ns" (fresh_ns = "missing"
# when the op vanished from the bench binary).
ROWS=$(jq -r --slurpfile fresh "$FRESH" '
  .baseline_estimates_ns | to_entries[] |
  "\(.key) \(.value) \($fresh[0].estimates[.key] // "missing")"' "$BASELINE")

{
  echo ""
  echo "### bench_check: $GROUP vs $BASELINE (fail at >${FACTOR}x)"
  echo ""
  echo "| op | baseline | fresh | ratio | status |"
  echo "|---|---:|---:|---:|---|"
} >>"$TABLE"

FAIL=0
while read -r name base fresh; do
  [ -n "$name" ] || continue
  if [ "$fresh" = "missing" ]; then
    echo "| $name | $(printf '%s' "$base" | awk '{printf "%.2f ms", $1/1e6}') | missing | — | FAIL (op vanished) |" >>"$TABLE"
    echo "bench_check: FAIL $name: present in baseline, missing from fresh run" >&2
    FAIL=1
    continue
  fi
  LINE=$(awk -v b="$base" -v f="$fresh" -v limit="$FACTOR" 'BEGIN {
    ratio = f / b
    status = (ratio > limit) ? "FAIL" : "ok"
    printf "%.2f ms|%.2f ms|%.2fx|%s", b/1e6, f/1e6, ratio, status
  }')
  RATIO=${LINE%|*}; RATIO=${RATIO##*|}
  STATUS=${LINE##*|}
  echo "| $name | $(echo "$LINE" | cut -d'|' -f1) | $(echo "$LINE" | cut -d'|' -f2) | $RATIO | $STATUS |" >>"$TABLE"
  if [ "$STATUS" = "FAIL" ]; then
    echo "bench_check: FAIL $name: $RATIO slower than baseline (limit ${FACTOR}x)" >&2
    FAIL=1
  else
    echo "bench_check: ok   $name ($RATIO)"
  fi
done <<EOF
$ROWS
EOF

if [ "$FAIL" -ne 0 ]; then
  echo "bench_check: group '$GROUP' REGRESSED (see $TABLE)" >&2
  exit 1
fi
echo "bench_check: group '$GROUP' within ${FACTOR}x of baseline"
