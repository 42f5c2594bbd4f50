#!/bin/sh
# loc.sh — non-test and test Go lines per package under cmd/ and
# internal/, and their totals: the figures CHANGES.md and ROADMAP quote.
# A report, not a gate. Run from the repository root.
set -eu
find cmd internal -name '*.go' | awk '
{
    dir = $0; sub(/\/[^\/]*$/, "", dir)
    kind = ($0 ~ /_test\.go$/) ? "test" : "code"
    while ((getline line < $0) > 0) lines[dir, kind]++
    close($0)
    dirs[dir] = 1
}
END { for (d in dirs) printf "%s %d %d\n", d, lines[d, "code"], lines[d, "test"] }' | sort | awk '
BEGIN { printf "%-24s %9s %9s\n", "package", "non-test", "test" }
{ printf "%-24s %9d %9d\n", $1, $2, $3; code += $2; test += $3 }
END { printf "%-24s %9d %9d\n", "total", code, test }'
