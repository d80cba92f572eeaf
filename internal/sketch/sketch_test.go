package sketch

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

// The inlined hash must match hash/fnv over the 16-byte concatenation
// of the 8-byte row salt and the 8-byte key — same function the old
// code wanted, minus the allocation and the byte(row) truncation.
func TestCountMinHashMatchesFNV(t *testing.T) {
	cm := newCountMinDims(1000, 300)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		row := rng.Intn(cm.Depth())
		key := rng.Uint64()
		h := fnv.New64a()
		var buf [16]byte
		binary.BigEndian.PutUint64(buf[0:8], uint64(row))
		binary.BigEndian.PutUint64(buf[8:16], key)
		h.Write(buf[:])
		want := int(h.Sum64() % uint64(cm.Width()))
		if got := cm.hash(row, key); got != want {
			t.Fatalf("row %d key %#x: hash = %d, want %d", row, key, got, want)
		}
	}
}

// Regression for the byte(row) salt truncation: with depth > 255, rows
// 0 and 256 used to collide into the same bucket stream, silently
// reducing the effective depth. Every row must now hash independently.
func TestCountMinRowSaltBeyond255(t *testing.T) {
	// δ = 1e-120 forces depth ⌈ln 1e120⌉ = 277 > 255.
	cm, err := NewCountMin(0.1, 1e-120)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Depth() <= 255 {
		t.Fatalf("depth = %d, need > 255 to exercise the regression", cm.Depth())
	}
	for _, key := range []uint64{0, 1, 42, 1 << 40, ^uint64(0)} {
		same := 0
		for row := 256; row < cm.Depth(); row++ {
			if cm.hash(row, key) == cm.hash(row-256, key) {
				same++
			}
		}
		// With the truncated salt every pair collided; independent
		// hashes collide with probability 1/width ≈ 3.6 %. Allow a
		// generous margin.
		if same > cm.Depth()/8 {
			t.Fatalf("key %#x: %d of %d row pairs (r, r-256) share buckets — salt truncation is back", key, same, cm.Depth()-256)
		}
	}
}

// Distribution sanity: each row spreads distinct keys roughly uniformly
// over its buckets, including rows ≥ 256.
func TestCountMinHashDistribution(t *testing.T) {
	cm := newCountMinDims(64, 300)
	const keys = 64 * 64 // 64 expected per bucket
	for _, row := range []int{0, 1, 255, 256, 299} {
		hist := make([]int, cm.Width())
		for k := 0; k < keys; k++ {
			hist[cm.hash(row, uint64(k)*0x9e3779b97f4a7c15)]++
		}
		for b, n := range hist {
			if n < 16 || n > 160 {
				t.Fatalf("row %d bucket %d holds %d of %d keys (expected ≈64) — hash badly skewed", row, b, n, keys)
			}
		}
	}
}

// allocsPerStep is testing.AllocsPerRun over steps 0, 1, 2, ….
func allocsPerStep(step func(i int)) float64 {
	i := 0
	return testing.AllocsPerRun(1000, func() {
		step(i)
		i++
	})
}

// benchStep times steps 0 … b.N-1.
func benchStep(b *testing.B, step func(i int)) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}

// countMinAddOp counts key i once: what BenchmarkCountMinAdd times and
// TestCountMinAddZeroAlloc holds to zero allocations.
func countMinAddOp(tb testing.TB) (*CountMin, func(i int)) {
	cm, err := NewCountMin(0.005, 0.01)
	if err != nil {
		tb.Fatal(err)
	}
	return cm, func(i int) { cm.Add(uint64(i), 1) }
}

func BenchmarkCountMinAdd(b *testing.B) {
	_, add := countMinAddOp(b)
	benchStep(b, add)
}

// Add and Estimate must be allocation-free for the sketch to sit on the
// ingest path (the hotalloc analyzer gates this too).
func TestCountMinAddZeroAlloc(t *testing.T) {
	cm, add := countMinAddOp(t)
	if n := allocsPerStep(add); n != 0 {
		t.Fatalf("CountMin.Add allocates %v times per op, want 0", n)
	}
	if n := allocsPerStep(func(i int) { _ = cm.Estimate(uint64(i)) }); n != 0 {
		t.Fatalf("CountMin.Estimate allocates %v times per op, want 0", n)
	}
}

func TestCountMinReset(t *testing.T) {
	cm, _ := NewCountMin(0.01, 0.01)
	for i := uint64(0); i < 100; i++ {
		cm.Add(i, 2)
	}
	if cm.Total() != 200 || cm.Estimate(1) < 2 {
		t.Fatalf("total = %d, estimate(1) = %d before Reset", cm.Total(), cm.Estimate(1))
	}
	cm.Reset()
	if cm.Total() != 0 || cm.Estimate(1) != 0 {
		t.Fatal("Reset must clear counts and total")
	}
}

func TestHLLEstimate(t *testing.T) {
	h := NewHLL()
	if got := h.Estimate(); got != 0 {
		t.Fatalf("empty estimate = %d, want 0", got)
	}
	rng := rand.New(rand.NewSource(3))
	for _, truth := range []int{10, 100, 1000, 50000} {
		h.Reset()
		seen := make(map[uint64]bool, truth)
		for len(seen) < truth {
			k := rng.Uint64()
			seen[k] = true
		}
		for k := range seen {
			h.Add(k)
			h.Add(k) // duplicates must not inflate
		}
		est := float64(h.Estimate())
		if est < float64(truth)*0.7 || est > float64(truth)*1.3 {
			t.Fatalf("truth %d: estimate %.0f outside ±30%%", truth, est)
		}
	}
}

func TestHLLMerge(t *testing.T) {
	a, b := NewHLL(), NewHLL()
	for i := uint64(0); i < 1000; i++ {
		a.Add(i * 0x9e3779b97f4a7c15)
	}
	for i := uint64(1000); i < 2000; i++ {
		b.Add(i * 0x9e3779b97f4a7c15)
	}
	a.Merge(b)
	est := float64(a.Estimate())
	if est < 2000*0.7 || est > 2000*1.3 {
		t.Fatalf("union estimate %.0f outside ±30%% of 2000", est)
	}
}

func TestHLLAddZeroAlloc(t *testing.T) {
	h := NewHLL()
	if n := allocsPerStep(func(i int) { h.Add(uint64(i)) }); n != 0 {
		t.Fatalf("HLL.Add allocates %v times per op, want 0", n)
	}
}
