#!/usr/bin/env sh
# Run every benchmark in the module and capture the results as JSON so
# regressions are diffable across commits.
#
# Usage:
#   scripts/bench.sh [output.json]
#
# Environment:
#   BENCHTIME   passed to -benchtime (default 1s; set e.g. 100x for a
#               quick smoke run)
#   BENCHFILTER passed to -bench (default ., i.e. everything)
#
# The output is one JSON object with the toolchain, date, core count
# (nproc and the GOMAXPROCS the benchmarks ran under), commit, and a
# list of benchmark records: {"name": ..., "iterations": N, "metrics":
# {"ns/op": ..., "B/op": ..., "allocs/op": ...}}. The committed
# baseline lives at BENCH_baseline.json.
set -e
cd "$(dirname "$0")/.."

out="${1:-BENCH_baseline.json}"
benchtime="${BENCHTIME:-1s}"
filter="${BENCHFILTER:-.}"

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench "$filter" -benchmem -benchtime "$benchtime" ./... | tee "$raw"

# The commit the numbers describe; "+dirty" when the tree differs from it.
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
if [ "$commit" != unknown ] && [ -n "$(git status --porcelain 2>/dev/null)" ]; then
	commit="$commit+dirty"
fi

awk -v goversion="$(go version)" -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
	-v nproc="$(nproc)" -v gomaxprocs="${GOMAXPROCS:-$(nproc)}" -v commit="$commit" '
BEGIN {
	printf "{\n  \"go\": \"%s\",\n  \"date\": \"%s\",\n", goversion, date
	printf "  \"nproc\": %d,\n  \"gomaxprocs\": %d,\n  \"commit\": \"%s\",\n", nproc, gomaxprocs, commit
	printf "  \"benchmarks\": ["
	n = 0
}
/^pkg: / { pkg = $2 }
/^Benchmark/ && NF >= 4 {
	# go test appends "-<GOMAXPROCS>" to every name when it is above 1.
	# The count is recorded once above; names stay comparable across
	# machines (jaal-benchdiff matches on them).
	name = $1
	suffix = "-" gomaxprocs
	if (gomaxprocs > 1 && substr(name, length(name) - length(suffix) + 1) == suffix)
		name = substr(name, 1, length(name) - length(suffix))
	if (n++) printf ","
	printf "\n    {\"pkg\": \"%s\", \"name\": \"%s\", \"iterations\": %s, \"metrics\": {", pkg, name, $2
	m = 0
	for (i = 3; i + 1 <= NF; i += 2) {
		if (m++) printf ", "
		printf "\"%s\": %s", $(i + 1), $i
	}
	printf "}}"
}
END { printf "\n  ]\n}\n" }
' "$raw" >"$out"

echo "wrote $out"
