package summary

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/packet"
	"repro/internal/trafficgen"
)

// retainedFixture seals and summarizes one batch of n packets at k
// centroids and retains it.
func retainedFixture(t testing.TB, n, k int) (*Buffer, *Batch, *Summary) {
	t.Helper()
	b := NewBuffer(n)
	var batch *Batch
	for _, h := range randomHeaders(rand.New(rand.NewSource(31)), n) {
		batch, _ = b.Add(h)
	}
	if batch == nil {
		t.Fatal("batch not sealed")
	}
	s, err := NewSummarizer(Config{BatchSize: n, Rank: 8, Centroids: k, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Summarize(batch.Headers, 0, batch.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	b.Retain(batch, sum)
	return b, batch, sum
}

// TestRawPacketsHostileCentroid: the centroid index of a raw request is a
// uint32 off the wire. Whatever it is, the answer is nil, not a panic and
// not another centroid's packets.
func TestRawPacketsHostileCentroid(t *testing.T) {
	b, batch, sum := retainedFixture(t, 80, 10)
	for _, c := range []int{sum.K(), sum.K() + 1, 1 << 20, math.MaxInt32, math.MaxInt, -1, math.MinInt} {
		if hs := b.RawPackets(batch.Epoch, c); hs != nil {
			t.Fatalf("centroid %d of a k=%d batch returned %d headers, want nil", c, sum.K(), len(hs))
		}
	}
	if hs := b.RawPackets(batch.Epoch+1, 0); hs != nil {
		t.Fatalf("unknown batch returned %d headers, want nil", len(hs))
	}
}

// TestRawPacketsGroupsByCentroidInArrivalOrder checks the table against
// the assignment vector it was built from, and that a caller appending to
// one centroid's packets cannot overwrite the next centroid's.
func TestRawPacketsGroupsByCentroidInArrivalOrder(t *testing.T) {
	b, batch, sum := retainedFixture(t, 120, 9)
	for c := 0; c < sum.K(); c++ {
		var want []packet.Header
		for i, a := range sum.Assignments {
			if a == c {
				want = append(want, batch.Headers[i])
			}
		}
		got := b.RawPackets(batch.Epoch, c)
		if len(got) != len(want) {
			t.Fatalf("centroid %d: %d packets, want %d", c, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("centroid %d packet %d differs from arrival order", c, i)
			}
		}
		if cap(got) != len(got) {
			t.Fatalf("centroid %d: capacity %d beyond length %d reaches the next centroid's packets", c, cap(got), len(got))
		}
	}
}

// TestRetainAllocations pins the cost of retaining a batch: the header
// slab, the offsets and the table entry — not a slice per centroid.
func TestRetainAllocations(t *testing.T) {
	b, batch, sum := retainedFixture(t, 1000, 200)
	if n := testing.AllocsPerRun(50, func() { b.Retain(batch, sum) }); n > 3 {
		t.Fatalf("Retain made %v allocations per batch, want ≤ 3", n)
	}
}

// summarizeOp is one warmed-up Summarize of a 1000-packet traffic batch
// at the paper's operating point: what BenchmarkSummarizeBatch times and
// TestSummarizeSteadyStateFootprint holds to zero allocations.
func summarizeOp(tb testing.TB) (*Summarizer, func()) {
	batch := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(1)).Batch(1000)
	s, err := NewSummarizer(DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	var epoch uint64
	summarize := func() {
		if _, err := s.Summarize(batch, 0, epoch); err != nil {
			tb.Fatal(err)
		}
		epoch++
	}
	summarize()
	return s, summarize
}

// BenchmarkSummarizeBatch measures the monitor-side cost of summarizing
// one n=1000 batch — the §8 "computation costs" observation that SVD +
// k-means keeps up with hundreds of Mbps.
func BenchmarkSummarizeBatch(b *testing.B) {
	_, summarize := summarizeOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		summarize()
	}
	b.ReportMetric(float64(1000*b.N)/b.Elapsed().Seconds(), "packets/s")
}

// TestSummarizeSteadyStateFootprint pins what a warmed-up summarizer
// costs: under one allocation per batch (an arena chunk every eighth
// batch, so AllocsPerRun reads 0) and a scratch slab no larger than the
// 72 000 floats it has always been.
func TestSummarizeSteadyStateFootprint(t *testing.T) {
	s, summarize := summarizeOp(t)
	if n := testing.AllocsPerRun(64, summarize); n != 0 {
		t.Fatalf("steady-state Summarize made %v allocations per batch, want 0", n)
	}
	if got := s.sc.FloatCap(); got > 72000 {
		t.Fatalf("scratch float slab grew to %d floats, want ≤ 72000", got)
	}
}
