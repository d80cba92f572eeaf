package trace

import (
	"sync"
	"testing"
)

// finish seals epoch e with one controller span whose Seq is e and
// reports whether FinishEpoch returned its trace.
func finish(e uint64) bool {
	col.stageEpoch(e, SpanRecord{Stage: StageEpoch, Proc: ControllerProc, Monitor: ControllerProc, Seq: e, Dur: 1})
	return FinishEpoch(e, 0) != nil
}

func TestRingFillAndWraparound(t *testing.T) {
	withTracing(t)
	if got := Snapshot(0); len(got) != 0 {
		t.Fatalf("fresh collector holds %d traces", len(got))
	}
	const total = ringSize + 2
	for e := uint64(1); e <= total; e++ {
		if !finish(e) {
			t.Fatalf("epoch %d did not finish", e)
		}
	}
	snap := Snapshot(0)
	if len(snap) != ringSize {
		t.Fatalf("snapshot after wrap holds %d traces, want %d", len(snap), ringSize)
	}
	// Newest first; epochs 1 and 2 were overwritten.
	for i, tr := range snap {
		if want := uint64(total - i); tr.Epoch != want {
			t.Fatalf("snapshot[%d].Epoch = %d, want %d", i, tr.Epoch, want)
		}
	}
}

func TestRingSnapshotLimit(t *testing.T) {
	withTracing(t)
	for e := uint64(1); e <= 5; e++ {
		if !finish(e) {
			t.Fatalf("epoch %d did not finish", e)
		}
	}
	snap := Snapshot(2)
	if len(snap) != 2 || snap[0].Epoch != 5 || snap[1].Epoch != 4 {
		t.Fatalf("Snapshot(2) = %+v, want epochs 5,4", snap)
	}
	// Requesting more than retained clamps.
	if got := Snapshot(100); len(got) != 5 {
		t.Fatalf("Snapshot(100) size = %d, want 5", len(got))
	}
}

// TestRingConcurrentWriters finishes epochs from several goroutines
// while others snapshot, under -race in CI: every observed slot must be
// a fully-formed trace (never nil mid-overwrite, never torn), and the
// ring ends full.
func TestRingConcurrentWriters(t *testing.T) {
	withTracing(t)
	const writers, perWriter = 4, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if e := uint64(w*perWriter + i); !finish(e) {
					t.Errorf("epoch %d did not finish", e)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		for _, tr := range Snapshot(0) {
			if tr == nil {
				t.Fatal("snapshot observed a nil slot")
			}
			if len(tr.Spans) != 1 || tr.Spans[0].Seq != tr.Epoch {
				t.Fatalf("torn trace: %+v", tr)
			}
		}
	}
	if got := len(Snapshot(0)); got != ringSize {
		t.Fatalf("final snapshot holds %d traces, want %d", got, ringSize)
	}
}
