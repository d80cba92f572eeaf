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

# Every test, fuzz target and benchmark the documents cite in backticks
# must be declared by a func in some _test.go file, so a renamed or
# deleted test cannot leave a claim pointing at nothing. A name inside a
# -run, -bench or -fuzz pattern only has to start one (`-run TestChaos`).
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
find . -name '*_test.go' ! -path '*/testdata/*' -exec sed -nE 's/^func ((Test|Fuzz|Benchmark)[A-Za-z0-9_]*).*/\1/p' {} + >"$tmp/declared"
if ! awk -v declared="$tmp/declared" '
	BEGIN { while ((getline name <declared) > 0) have[name] = 1; RS = "`" }
	FNR % 2 == 0 {
		pattern = ($0 ~ /(^|[ \t\n])-(run|bench|fuzz)[ \t\n=]/)
		s = $0
		while (match(s, /(^|[^A-Za-z0-9_])(Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*/)) {
			name = substr(s, RSTART, RLENGTH)
			s = substr(s, RSTART + RLENGTH)
			sub(/^[^A-Za-z0-9_]/, "", name)
			if (name in have) continue
			found = 0
			if (pattern) for (h in have) if (index(h, name) == 1) { found = 1; break }
			if (!found) { print FILENAME ": `" name "` is declared by no _test.go"; bad = 1 }
		}
	}
	END { exit bad }
' DESIGN.md EXPERIMENTS.md README.md; then
	echo "a document cites a test that does not exist" >&2
	exit 1
fi

go vet ./...
go build ./...

# Summarization and inference round every product before adding it:
# the amd64 vector kernels do, the Go compiler never fuses on amd64, and
# KMeansInto, the SVD, the reconstruction and Algorithm 2 are compared
# bit for bit with references (DESIGN.md, "Performance"); so do the
# experiments and the network simulator, whose figures are pinned by
# figures_quick.golden. arm64 has a fused multiply-add the compiler
# uses for s += x*y unless the product is converted explicitly, so vet
# that port, build the arm64 test binaries of the six packages, and
# fail on any fused instruction in a function of theirs defined outside
# a _test.go file (test functions, and product code inlined into them,
# are not counted). The seven portable leaves must be among the
# functions scanned (axpy is inlined into goReflect), so the scan cannot
# pass by missing them.
GOARCH=arm64 go vet ./...
for pkg in linalg summary inference rules experiments netsim; do
	GOARCH=arm64 go test -c -o "$tmp/$pkg.test" ./internal/$pkg
	go tool objdump -s 'repro/internal/(linalg|summary|inference|rules|experiments|netsim)\.' "$tmp/$pkg.test" | awk '
		/^TEXT/ { fn = $2; product = ($3 !~ /_test\.go$/); next }
		product && /FN?M(ADD|SUB)D/ { print fn ": " $0 }' >>"$tmp/fused"
done
goleaves='SquaredDistance|Dot|columnSums|goSeedRound|goNearest|goReflect|goLift'
if [ "$(go tool objdump -s "linalg\.($goleaves)\$" "$tmp/linalg.test" | grep -c '^TEXT')" -ne 7 ] || [ -s "$tmp/fused" ]; then
	cat "$tmp/fused" >&2
	echo "arm64: a summarization leaf is missing or a product function fuses multiply and add" >&2
	exit 1
fi
if grep -nE 'VFN?M(ADD|SUB)' internal/linalg/*.s; then
	echo "fused multiply-add in an amd64 summarization kernel" >&2
	exit 1
fi
# Legacy (non-VEX) SSE inside an AVX loop costs a state transition on
# every iteration on some cores: the kernels use VEX forms only (VMOVQ,
# VMOVSD, VADDSD, ...). Flag SSE mnemonics and a MOVQ into an X register.
if grep -nE '^[[:space:]]+(MOV(SD|SS|UPD|UPS|APD|APS|DQU|DQA)|(ADD|SUB|MUL|DIV|MIN|MAX|SQRT)(SD|PD|SS|PS)|UCOMISD|COMISD|CVT[A-Z0-9]+|XORPS|XORPD|PXOR|SHUFPD|UNPCK[LH]PD|MOVQ[[:space:]].*,[[:space:]]*X[0-9]+)([[:space:]]|$)' internal/linalg/*.s; then
	echo "non-VEX SSE instruction in an amd64 summarization kernel" >&2
	exit 1
fi
# The AVX-512 kernels run only where init found AVX512F and the OS's ZMM
# and opmask state: a host without them would die on SIGILL at the first
# EVEX instruction. So every EVEX-only operand or mnemonic — a Z or K
# register, X16–X31 or Y16–Y31, a .Z/.BCST/rounding suffix, a D/Q-typed
# logic op, a 32/64-typed move, VPBROADCAST from a general register —
# must sit in a TEXT block whose name ends in AVX512.
if ! awk '
	{ sub(/\/\/.*/, "") }
	/^TEXT/ { evex = ($2 ~ /AVX512\(SB\)/); next }
	evex || !/^[[:space:]]+[A-Z]/ { next }
	/(^|[^A-Za-z0-9_])(Z[0-9]+|K[0-7]|[XY](1[6-9]|2[0-9]|3[01]))([^A-Za-z0-9_]|$)/ ||
	$1 ~ /\./ ||
	$1 ~ /^(K[A-Z0-9]+|V[A-Z0-9]*(32|64)(X[248])?|VP(XOR|OR|AND|ANDN|ROL|ROR|ROLV|RORV|TERNLOG|CONFLICT|LZCNT)[DQ]|VP(MINS|MAXS|MINU|MAXU|ABS|SRA|SRAV)Q|VPERM[IT]2[A-Z]+|VPCMPU?[BWDQ]|V(P?COMPRESS|P?EXPAND|RNDSCALE|SCALEF|GETEXP|GETMANT|FIXUPIMM|RCP14|RSQRT14|RANGE|REDUCE|FPCLASS)[A-Z]+|VALIGN[DQ])$/ ||
	($1 ~ /^VPBROADCAST[BWDQ]$/ && $2 ~ /^(AX|BX|CX|DX|SI|DI|BP|R[0-9]+),?$/) {
		print FILENAME ":" FNR ":" $0; bad = 1
	}
	END { exit bad }
' internal/linalg/*.s; then
	echo "AVX-512 instruction outside an *AVX512 kernel" >&2
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
# epoch's line back against its result and its sealed trace. Every
# golden rests on where the pipeline puts each flow:
# TestPipelinePlacesFlowsLikeGreedy holds that placement to §6's greedy.
go test -race -run 'TestPipelineParallelDeterminism|TestPipelineObsDeterminism|TestPipelineTraceDeterminism|TestEpochRecordReadsTrace|TestPipelineTraceGolden|TestEngineInProcessWireParity|TestPipelinePlacesFlowsLikeGreedy' ./internal/core/ ./cmd/jaal-controller/
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
# Two k-means runs at once on separate Scratches must equal the serial
# runs: every buffer a call uses, the packed centres included, comes
# from its own Scratch.
go test -race -run 'TestKMeansConcurrentScratch' ./internal/linalg/
# Every metric field is a typed atomic that no reader copies: metrics
# written from four goroutines while the registry is rendered. This test
# is what holds that invariant, and it needs -race to see a violation.
go test -race -run 'TestMetricsConcurrentReadWrite' ./internal/obs/
# The estimator's allocation bound: a pruned or matching plain estimate
# allocates nothing only when sync.Pool keeps its scratch and chunk of
# results, which the race detector prevents at random, so this one runs
# without -race.
go test -run 'TestEstimatorScratchReuse' ./internal/inference/

# Detection accuracy gate: the scoreboard report must be byte-identical
# across worker counts, and the quick-profile scores must stay within
# the tolerance bands of internal/scenario/testdata/scoreboard.golden;
# regenerate with -update-scoreboard-golden after an intentional
# detection change. The same catalogue on seeds moved by +1000, which no
# threshold was fitted on, is held to scoreboard_heldout.golden
# (-update-heldout-golden). See EXPERIMENTS.md ("Scenario scoreboard",
# "Held-out seeds").
go test -race -run 'TestScoreboardWorkerDeterminism|TestScoreboardGolden|TestHeldOutScoreboardGolden' ./internal/scenario/

# Everything, which includes the ingest sketch pass's exactness oracle
# (internal/sketch/countmin_oracle_test.go: the one-walk count-min, the
# multiply-based remainder and the counted heavy threshold against the
# two-walk, divide-per-row reference, compared with ==).
go test -race ./...
