#!/bin/sh
# trajectory.sh — the benchmark trajectory the repository commits: one
# BENCH_pr<N>.json at the root per perf or simplicity PR. Run from anywhere.
#
#   scripts/trajectory.sh reduce -pr N -title TEXT [-parent-root DIR]
#           [-bench-before FILE -bench-after FILE] [-change LABEL] [-notes TEXT]
#       after `bash bench/run.sh suite RUNS PARENT`: reduces
#       bench/out/results.jsonl and parent.jsonl (other paths: -results,
#       -parent) to BENCH_pr<N>.json — per workload and end-to-end metric
#       both medians, the parent's interquartile spread, the median paired
#       delta and pairs won-lost; host metadata and both commits; the traced
#       runs' per-layer samples; scripts/loc.sh on both trees (-parent-root);
#       `go test -bench` medians from the two output files. -change names
#       the change when it was measured as an uncommitted tree (its records
#       then carry the parent's commit).
#   scripts/trajectory.sh print
#       the series over every committed BENCH_pr*.json.
#
# Needs only the go toolchain (scripts/trajectory.go is stdlib-only).
set -eu
cd "$(dirname "$0")/.."
exec go run scripts/trajectory.go "$@"
