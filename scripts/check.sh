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
# unsorted map walks in reproducible packages), every span ended, no
# dead helpers, and hot-path allocations (hotalloc). Codec symmetry,
# fail-closed decoding, locks held across blocking operations and metric
# atomics are held by tests instead (the decode→encode fuzzers, the wire
# unit tests, TestChaosRawFetchStallCompletes and
# TestMetricsConcurrentReadWrite below). Any finding fails the build;
# reviewed exceptions carry a //jaalvet:ignore <analyzer> — <reason>
# comment, the one syntax for all five analyzers. Stale suppressions
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
# and wire endpoints and wants the same alerts and stats. The epoch-log
# record test runs traced epochs over two wire monitors and reads each
# epoch's line back against its result and its sealed trace.
go test -race -run 'TestPipelineParallelDeterminism|TestPipelineObsDeterminism|TestPipelineTraceDeterminism|TestEpochRecordReadsTrace|TestPipelineTraceGolden|TestEngineInProcessWireParity' ./internal/core/ ./cmd/jaal-controller/
# Every table `jaal-experiments -quick all` prints, byte for byte
# against internal/experiments/testdata/figures_quick.golden; regenerate
# with -update-figure-golden after an intentional model change. The
# whole set runs without -race (~3 s, against ~30 s under it); the -race
# run checks the Fig. 7/8/9 tables (topology, netsim, Mirai and flow
# assignment) only.
go test -run 'TestQuickFiguresGolden' ./internal/experiments/
go test -race -run 'TestQuickFiguresGolden' ./internal/experiments/
# The estimator's row windows against a sweep over every row, the
# aggregate's radix-sorted columns against a comparison sort (and their
# ranks against its inverse), and those columns first used from many
# goroutines at once.
go test -race -run 'TestEstimateWindowEqualsSweep|TestSortedColumnBuiltOnce|TestRadixOrder|FuzzRadixOrder' ./internal/inference/
# The question index's candidate pass tests its questions in chunks of
# whole bitset words across the worker pool: against the brute-force
# oracle and the per-pin search at question counts around a word and a
# chunk edge, where two chunks sharing a word would race; and its merged
# per-field walk against the per-pin search on the fuzz seeds.
go test -race -run 'TestCandidatesChunkBoundaries|FuzzCandidatesEqualSearch' ./internal/rules/
# Every metric field is a typed atomic that no reader copies: metrics
# written from four goroutines while the registry is rendered. This test
# is what holds that invariant, and it needs -race to see a violation.
go test -race -run 'TestMetricsConcurrentReadWrite' ./internal/obs/
# The estimator's allocation bound: a pruned estimate allocates nothing
# and a tracked one its row buffer (≤ 1) only when sync.Pool keeps its
# scratch and chunk of results, which the race detector prevents at
# random, so this one runs without -race.
go test -run 'TestEstimatorScratchReuse' ./internal/inference/

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
