#!/bin/sh
# bench_to_json.sh <bench.txt>
#
# Converts `go test -bench` output into a flat JSON object mapping
# benchmark name (GOMAXPROCS suffix stripped) to ns/op, and, where the
# line reports it (-benchmem or b.ReportAllocs), "<name> B/op" to its
# bytes allocated per op. A name run more than once (-count=N) maps to
# the median of its runs — the middle value of an odd count, the mean of
# the two middle values of an even one — so that one slow run on a noisy
# runner does not decide a gate; a name run once maps to its value as
# printed. Names shared by benchmarks in different packages are pooled
# the same way; the CI gate only reads names that are unique across the
# module.
set -eu
awk '
function add(k, v) {
    if (!(k in n)) {
        order[++nk] = k
        n[k] = 0
    }
    vals[k, ++n[k]] = v
}
function median(k,    m, i, j, t, a) {
    m = n[k]
    for (i = 1; i <= m; i++) {
        t = vals[k, i]
        for (j = i - 1; j >= 1 && a[j] + 0 > t + 0; j--) {
            a[j + 1] = a[j]
        }
        a[j + 1] = t
    }
    if (m % 2) {
        return a[(m + 1) / 2]
    }
    return sprintf("%.15g", (a[m / 2] + a[m / 2 + 1]) / 2)
}
/^Benchmark/ && $4 == "ns/op" {
    name = $1
    sub(/-[0-9]+$/, "", name)
    add(name, $3)
    for (i = 5; i < NF; i += 2) {
        if ($(i + 1) == "B/op") {
            add(name " B/op", $i)
        }
    }
}
END {
    printf "{"
    sep = ""
    for (i = 1; i <= nk; i++) {
        printf "%s\n  \"%s\": %s", sep, order[i], median(order[i])
        sep = ","
    }
    printf "\n}\n"
}
' "$1"
