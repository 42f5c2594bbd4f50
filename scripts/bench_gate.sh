#!/bin/sh
# bench_gate.sh <current.json> <baseline.json> <factor> <benchmark-name>...
#
# Fails when any named benchmark's ns/op in current.json exceeds
# factor × its committed baseline, or is missing from either file; every
# name is judged before the script exits. One-iteration CI runs are
# noisy, so the factor is deliberately loose: the gate catches
# order-of-magnitude regressions (an accidental O(n^2), a dropped fast
# path), not percent drift.
set -eu
current=$1
baseline=$2
factor=$3
shift 3

status=0
for name in "$@"; do
    cur=$(jq -er --arg n "$name" '.[$n]' "$current") || { echo "FAIL: $name missing from $current"; status=1; continue; }
    base=$(jq -er --arg n "$name" '.[$n]' "$baseline") || { echo "FAIL: $name missing from $baseline"; status=1; continue; }
    awk -v c="$cur" -v b="$base" -v f="$factor" -v n="$name" 'BEGIN {
        if (c > b * f) {
            printf "FAIL: %s at %.0f ns/op exceeds %.1fx committed baseline %.0f ns/op\n", n, c, f, b
            exit 1
        }
        printf "OK: %s at %.0f ns/op within %.1fx of baseline %.0f ns/op\n", n, c, f, b
    }' || status=1
done
exit $status
