#!/bin/sh
# Small-quota benchmark regression gate against the checked-in baseline.
#
#   tools/bench_gate.sh [BASELINE]
#
# Runs the `vhdlc bench` suite under a tiny per-experiment quota (0.25 s,
# 3 repetitions) and diffs it against BASELINE (default:
# BENCH_report.json at the repo root) with a deliberately generous time
# threshold (3.0, i.e. flag only >4x slowdowns), so tier-1 stays green
# across machines while a genuine order-of-magnitude regression still
# fails the build.  Allocation is near-deterministic rep to rep, so its
# threshold is tighter (0.5: +50% is far above noise while a planted 2x
# blow-up fails the gate).  Exit status is vhdlc's: 0 clean,
# 1 regression(s), 2 unreadable baseline.
#
# Environment:
#   VHDLC   path to a built vhdlc executable; when unset the script
#           builds bin/vhdlc.exe itself (do NOT leave it unset inside a
#           dune rule — nested dune invocations deadlock on the build lock)
set -eu
cd "$(dirname "$0")/.."

BASELINE=${1:-BENCH_report.json}

if [ ! -f "$BASELINE" ]; then
  echo "bench_gate: no baseline at $BASELINE — run 'vhdlc bench --out $BASELINE' first" >&2
  exit 2
fi

if [ -z "${VHDLC:-}" ]; then
  dune build bin/vhdlc.exe
  VHDLC=_build/default/bin/vhdlc.exe
fi

exec "$VHDLC" bench --against "$BASELINE" --threshold 3.0 --alloc-threshold 0.5 \
  --quota 0.25 --repeats 3 --warmup 0
