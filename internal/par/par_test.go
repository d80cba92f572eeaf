package par

import (
	"os"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestMain raises GOMAXPROCS before any dispatch so the pool — sized
// once at first use — gets real helpers even on a single-CPU CI box.
// With zero helpers every dispatch inlines and the tests below would
// exercise none of the queueing, shedding, or nested-dispatch paths.
func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(4)
	os.Exit(m.Run())
}

// TestForCoversExactly checks every index in [0, n) is visited exactly
// once, across the inline path and the dispatched one, with one-index
// claims and with runs that do and do not divide n.
func TestForCoversExactly(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1000, 4096} {
		for _, workers := range []int{0, 1, 3, 8} {
			hits := make([]int32, n)
			For(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, h)
				}
			}
		}
	}
}

// TestNestedDispatch drives a fan-out whose work items themselves fan
// out — the scenario scoreboard shape (scenario sweep → pipeline →
// monitor polls and question matching). This is
// the regression test for the pool's deadlock guarantee: when every
// helper is occupied by an outer task, the nested dispatch must shed
// its slots and run inline instead of queueing work that only the
// blocked helpers could drain. Before idle-helper accounting, the
// buffered queue accepted those slots and all pool participants parked
// in wg.Wait on each other; the test then hangs until the go test
// timeout. Repeated rounds widen the window for every participant to
// reach the nested dispatch at once. Run with -race.
func TestNestedDispatch(t *testing.T) {
	const rounds, outer, inner = 20, 8, 4096
	for r := 0; r < rounds; r++ {
		var total atomic.Int64
		For(outer, 0, func(i int) {
			For(inner, 0, func(int) { total.Add(1) })
		})
		if got := total.Load(); got != outer*inner {
			t.Fatalf("round %d: nested dispatch covered %d indices, want %d", r, got, outer*inner)
		}
	}
}
