package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/trace"
)

// updateTraceGolden regenerates testdata/trace_topology.golden from the
// current instrumentation instead of comparing against it.
var updateTraceGolden = flag.Bool("update-trace-golden", false,
	"rewrite the trace topology golden file")

// withEpochTracing turns the global tracer on with fresh state and
// restores the disabled default when the test ends.
func withEpochTracing(t *testing.T) {
	t.Helper()
	trace.Reset()
	trace.SetEnabled(true)
	t.Cleanup(func() {
		trace.SetEnabled(false)
		trace.Reset()
	})
}

// TestPipelineTraceDeterminism locks in the tracing layer's hard
// constraint: epoch tracing is a write-only side channel, so the same
// seeded workload produces byte-identical alerts and identical
// accounting with tracing off or on, sequentially or fanned out. The
// controller's epoch log is a reader of the sealed trace, so this is
// also what holds that writing one changes no alert.
func TestPipelineTraceDeterminism(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	offSeq, offSeqStats := runSeededWorkload(t, 1)
	offPar, offParStats := runSeededWorkload(t, workers)

	withEpochTracing(t)
	onSeq, onSeqStats := runSeededWorkload(t, 1)
	trace.Reset()
	onPar, onParStats := runSeededWorkload(t, workers)

	if offSeq != onSeq || offSeqStats != onSeqStats {
		t.Errorf("workers=1: tracing changed the run:\n--- off ---\n%s--- on ---\n%s\nstats %+v vs %+v",
			offSeq, onSeq, offSeqStats, onSeqStats)
	}
	if offPar != onPar || offParStats != onParStats {
		t.Errorf("workers=%d: tracing changed the run:\n--- off ---\n%s--- on ---\n%s\nstats %+v vs %+v",
			workers, offPar, onPar, offParStats, onParStats)
	}
	// The tracer must actually have recorded the workload (guards
	// against a silently disabled layer passing the comparison).
	if traces := trace.Snapshot(0); len(traces) == 0 {
		t.Fatal("tracing enabled but no epoch traces recorded")
	}
}

// topology renders the retained epoch traces (oldest first) in a
// timestamp-free normal form: per epoch, the alert count and one line
// per (proc, monitor, stage) group with its span count. Wall-clock
// fields (starts, durations, critical path, slowest monitor) are
// scrubbed, so the rendering depends only on which spans each pipeline
// stage emits — the golden-file contract.
func topology(traces []*trace.EpochTrace) string {
	var b strings.Builder
	for i := len(traces) - 1; i >= 0; i-- { // Snapshot is newest-first
		tr := traces[i]
		fmt.Fprintf(&b, "epoch %d: alerts=%d\n", tr.Epoch, tr.Alerts)
		type key struct {
			proc, monitor int32
			stage         string
		}
		counts := map[key]int{}
		var keys []key
		for _, s := range tr.Spans {
			k := key{s.Proc, s.Monitor, s.Stage.String()}
			if counts[k] == 0 {
				keys = append(keys, k)
			}
			counts[k]++
		}
		sort.Slice(keys, func(i, j int) bool {
			a, c := keys[i], keys[j]
			if a.proc != c.proc {
				return a.proc < c.proc
			}
			if a.monitor != c.monitor {
				return a.monitor < c.monitor
			}
			return a.stage < c.stage
		})
		for _, k := range keys {
			fmt.Fprintf(&b, "  proc=%d monitor=%d stage=%s n=%d\n", k.proc, k.monitor, k.stage, counts[k])
		}
	}
	return b.String()
}

// TestPipelineTraceGolden runs the seeded workload with tracing on and
// compares the normalized trace topology against a golden file: the
// same stages, attributed to the same processes and monitors, with the
// same span counts, at every worker count. Regenerate with
// -update-trace-golden after an intentional instrumentation change.
func TestPipelineTraceGolden(t *testing.T) {
	withEpochTracing(t)
	_, _ = runSeededWorkload(t, 1)
	seq := topology(trace.Snapshot(0))

	trace.Reset()
	_, _ = runSeededWorkload(t, runtime.GOMAXPROCS(0))
	par := topology(trace.Snapshot(0))

	if seq != par {
		t.Fatalf("trace topology depends on worker count:\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
			seq, runtime.GOMAXPROCS(0), par)
	}

	golden := filepath.Join("testdata", "trace_topology.golden")
	if *updateTraceGolden {
		if err := os.WriteFile(golden, []byte(seq), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update-trace-golden to create): %v", err)
	}
	if seq != string(want) {
		t.Errorf("trace topology drifted from golden:\n--- got ---\n%s--- want ---\n%s", seq, want)
	}
}
