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
#       When the two files hold the same number of runs of a benchmark
#       (as `ab` writes them), go_bench also gets the k-th runs paired.
#       host.probe_ns is the median of ten runs of the calibration probe
#       (a frozen stdlib sort + SHA-256 kernel, see probe in trajectory.go).
#   scripts/trajectory.sh print
#       the series over every committed BENCH_pr*.json, each with its
#       probe_ns, so a series that moved with the host shows as such.
#   scripts/trajectory.sh ab -parent REV [-bench REGEX] [-pkgs "PKG..."]
#           [-rounds N] [-benchtime D] [-cpu LIST] [-out DIR]
#       paired layer benchmarks of the working tree against REV: checks
#       REV out with `git worktree` (removed on exit), builds `go test -c`
#       of each package (default ".") on both trees, then runs the two
#       sides alternately for N rounds (default 10), flipping which goes
#       first each round. Writes ab-parent.txt and ab-change.txt (the
#       -bench-before/-bench-after files of reduce; each round's child
#       user + sys seconds as comment lines) and prints per benchmark the
#       medians, the median paired ns/op delta, rounds won-lost and the
#       exact two-sided sign-test p (10-0 of 10 is p = 0.002), and the
#       median ns of the calibration probe, run once between the two sides
#       of every round. -cpu passes -test.cpu through and names each result
#       by its CPU count (BenchmarkX@cpu1, BenchmarkX@cpu2), in the files
#       and in the table.
#
# Needs only the go toolchain (scripts/trajectory.go is stdlib-only).
set -eu
cd "$(dirname "$0")/.."
exec go run scripts/trajectory.go "$@"
