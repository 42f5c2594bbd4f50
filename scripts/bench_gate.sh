#!/bin/sh
# bench_gate.sh <current.json> <baseline.json> <factor> <benchmark-name>...
#
# Fails when any named benchmark's ns/op in current.json exceeds
# factor × its committed baseline, or is missing from either file; where
# the baseline also holds "<name> B/op", the benchmark's bytes allocated
# per op are judged the same way (and must be present in current.json).
# Every name is judged before the script exits. One-iteration CI runs are
# noisy, so the factor is deliberately loose: the gate catches
# order-of-magnitude regressions (an accidental O(n^2), a dropped fast
# path, a copy per op of something the size of the store), not percent
# drift.
set -eu
current=$1
baseline=$2
factor=$3
shift 3

# judge KEY UNIT: one comparison of current.json's KEY against the baseline.
judge() {
    cur=$(jq -er --arg n "$1" '.[$n]' "$current") || { echo "FAIL: $1 missing from $current"; return 1; }
    base=$(jq -er --arg n "$1" '.[$n]' "$baseline") || { echo "FAIL: $1 missing from $baseline"; return 1; }
    awk -v c="$cur" -v b="$base" -v f="$factor" -v n="$1" -v u="$2" 'BEGIN {
        if (c > b * f) {
            printf "FAIL: %s at %.0f %s exceeds %.1fx committed baseline %.0f %s\n", n, c, u, f, b, u
            exit 1
        }
        printf "OK: %s at %.0f %s within %.1fx of baseline %.0f %s\n", n, c, u, f, b, u
    }'
}

status=0
for name in "$@"; do
    judge "$name" ns/op || status=1
    if jq -e --arg n "$name B/op" 'has($n)' "$baseline" >/dev/null; then
        judge "$name B/op" B/op || status=1
    fi
done
exit $status
