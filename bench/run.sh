#!/usr/bin/env bash
# bench/run.sh builds crowdbench from source and runs it. Run it from
# anywhere; it works from the root of the checkout it lives in and writes
# only under bench/out/ (build cache, binary, scratch data, traces,
# records), which .gitignore names.
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of output is the result JSON.
#       This is BENCHMARK.json's command.
#   bash bench/run.sh suite [RUNS [PARENT]]
#       RUNS (default 1) untraced runs of every workload, seeds 1..RUNS, each
#       run its own process, recorded in bench/out/results.jsonl; then one
#       traced run per workload (per-layer metrics, bench/out/trace-*.json).
#       With PARENT, the root of another checkout (`.` for an A/A check),
#       every untraced run is made on both checkouts, one right after the
#       other and taking turns to go first, so that the machine's drift
#       falls on both sides alike; the parent's records go to
#       bench/out/parent.jsonl and the two files are compared at the end.
#   bash bench/run.sh compare PARENT.jsonl CHANGE.jsonl
#       per workload and end-to-end metric: both medians, the delta against
#       the metric's bound, and ok / improved / REGRESSION / unresolved;
#       exits 1 on a regression or a failed operation, 2 when runs are
#       missing from a file.
set -euo pipefail
here="$PWD"
cd "$(dirname "$0")/.."

out=bench/out
mkdir -p "$out"
# Everything the toolchain writes stays inside the checkout, and nothing is
# fetched: the module has no dependencies outside this repository.
export GOCACHE="$PWD/$out/gocache" GOMODCACHE="$PWD/$out/gomodcache"
export GOPROXY=off GOTOOLCHAIN=local
(cd bench && go build -o "../$out/crowdbench" ./crowdbench)
bin="$out/crowdbench"
CROWDBENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export CROWDBENCH_COMMIT

# The run length every workload is measured for; BENCHMARK.json's
# run_seconds says the same.
seconds=15
workloads="serve-hot serve-ingest cold-dataset repro-batch"

case "${1:-suite}" in
suite)
	runs="${2:-1}"
	parent="${3:+$(cd "$here" && cd "$3" && pwd)}"
	mine="$PWD/$out/results.jsonl"
	theirs="$PWD/$out/parent.jsonl"
	: >"$mine"
	run_mine() { "$bin" --workload "$1" --seed "$2" --seconds "$seconds" --trace "$3" --record "$mine"; }
	# The parent runs its own copy of this script: its own build of its own
	# sources, its own bench/out.
	run_theirs() { bash "$parent/bench/run.sh" --workload "$1" --seed "$2" --seconds "$seconds" --trace 0 --record "$theirs"; }
	[ -z "$parent" ] || : >"$theirs"
	for seed in $(seq 1 "$runs"); do
		i=0
		for w in $workloads; do
			i=$((i + 1))
			if [ -z "$parent" ]; then
				run_mine "$w" "$seed" 0
			elif [ $(((seed + i) % 2)) -eq 0 ]; then
				run_theirs "$w" "$seed"
				run_mine "$w" "$seed" 0
			else
				run_mine "$w" "$seed" 0
				run_theirs "$w" "$seed"
			fi
		done
	done
	for w in $workloads; do
		run_mine "$w" 1 1
	done
	echo "records: $mine   traces: $out/trace-*.json"
	[ -z "$parent" ] || exec "$bin" -compare "$theirs" "$mine"
	;;
compare)
	exec "$bin" -compare "$2" "$3"
	;;
*)
	exec "$bin" "$@"
	;;
esac
