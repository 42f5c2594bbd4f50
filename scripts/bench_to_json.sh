#!/bin/sh
# bench_to_json.sh <bench.txt>
#
# Converts `go test -bench` output into a flat JSON object mapping
# benchmark name (GOMAXPROCS suffix stripped) to ns/op, and, where the
# line reports it (-benchmem or b.ReportAllocs), "<name> B/op" to its
# bytes allocated per op. Names shared by benchmarks in different
# packages keep the last occurrence; the CI gate only reads names that
# are unique across the module.
set -eu
awk '
BEGIN { printf "{" ; sep = "" }
/^Benchmark/ && $4 == "ns/op" {
    name = $1
    sub(/-[0-9]+$/, "", name)
    printf "%s\n  \"%s\": %s", sep, name, $3
    sep = ","
    for (i = 5; i < NF; i += 2) {
        if ($(i + 1) == "B/op") {
            printf ",\n  \"%s B/op\": %s", name, $i
        }
    }
}
END { printf "\n}\n" }
' "$1"
