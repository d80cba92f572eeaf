#!/usr/bin/env sh
# Full local check: formatting, vet, build, and the test suite under
# the race detector. The parallel summarization engine (internal/par
# and its callers) and the observability layer's atomics are exactly
# the kind of code -race exists for, so this is the gate to run before
# sending changes.
set -e
cd "$(dirname "$0")/.."

# Formatting gate: fail loudly instead of letting drift accumulate.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
go build ./...

# The k-means distance leaves round every product before adding it: the
# amd64 vector kernel does, and KMeansInto is compared bit for bit with a
# reference built on SquaredDistance (DESIGN.md, "k-means"). arm64 has a
# fused multiply-add the compiler uses for s += d*d unless the product is
# converted explicitly, so vet that port and look at its machine code.
GOARCH=arm64 go vet ./...
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
GOARCH=arm64 go test -c -o "$tmp/linalg.test" ./internal/linalg
leaves=$(go tool objdump -s 'linalg\.(SquaredDistance|goColumnDistances)$' "$tmp/linalg.test")
if [ "$(echo "$leaves" | grep -c '^TEXT')" -ne 2 ] || echo "$leaves" | grep -E 'FN?M(ADD|SUB)D'; then
	echo "arm64: a distance leaf is missing or fuses multiply and add" >&2
	exit 1
fi
if grep -nE 'VFN?M(ADD|SUB)' internal/linalg/*.s; then
	echo "fused multiply-add in the amd64 distance kernel" >&2
	exit 1
fi

# Non-test Go outside bench/: the figure ROADMAP aim 2 tracks, printed so
# every PR log shows which way it moved.
echo "non-test Go lines: $(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*' | xargs cat | wc -l)"

# Project-specific invariants: determinism (no wall clock / global RNG /
# unsorted map walks in reproducible packages), obs disabled-path
# allocation freedom, atomic-access and lock-copy discipline, wire
# decode robustness, every span ended, no dead helpers, and hot-path
# allocations (hotalloc). Codec symmetry and locks held across blocking
# operations are held by tests instead (the decode→encode fuzzers and
# TestChaosRawFetchStallCompletes). Any finding fails the build;
# reviewed exceptions carry a //jaalvet:ignore <analyzer> — <reason>
# comment, the one syntax for all nine analyzers. Stale suppressions
# print as warnings.
# -summary prints per-analyzer finding/suppression counts so a PR diff
# of this output shows where new exceptions crept in. See DESIGN.md
# ("Static analysis"). The run covers internal/analysis itself: the
# analyzers are not exempt from their own invariants.
go run ./cmd/jaal-vet -summary ./...

# The determinism invariants first: these fail fast and carry the most
# signal when instrumentation touches a hot path. The trace golden test
# locks the epoch-trace topology (which spans each stage emits, per
# process and monitor, timestamps scrubbed) against
# internal/core/testdata/trace_topology.golden; regenerate with
# -update-trace-golden after an intentional instrumentation change.
# The parity test runs the same traffic through the engine's in-process
# and wire endpoints and wants the same alerts and stats.
go test -race -run 'TestPipelineParallelDeterminism|TestPipelineObsDeterminism|TestPipelineTraceDeterminism|TestPipelineTraceGolden|TestEngineInProcessWireParity' ./internal/core/
# The estimator's row windows against a sweep over every row, and the
# aggregate's sorted columns first used from many goroutines at once.
go test -race -run 'TestEstimateWindowEqualsSweep|TestSortedColumnBuiltOnce' ./internal/inference/

# Detection accuracy gate: the scoreboard report must be byte-identical
# across worker counts, and the quick-profile scores must stay within
# the tolerance bands of internal/scenario/testdata/scoreboard.golden;
# regenerate with -update-scoreboard-golden after an intentional
# detection change. See EXPERIMENTS.md ("Scenario scoreboard").
go test -race -run 'TestScoreboardWorkerDeterminism|TestScoreboardGolden' ./internal/scenario/

# Everything, which includes the ingest sketch pass's exactness oracle
# (internal/sketch/countmin_oracle_test.go: the one-walk count-min, the
# multiply-based remainder and the counted heavy threshold against the
# two-walk, divide-per-row reference, compared with ==).
go test -race ./...
