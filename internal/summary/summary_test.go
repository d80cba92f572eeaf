package summary

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
	"repro/internal/packet"
)

// randomHeaders fabricates n headers with realistic-ish field spreads.
func randomHeaders(rng *rand.Rand, n int) []packet.Header {
	hs := make([]packet.Header, n)
	for i := range hs {
		hs[i] = packet.Header{
			SrcIP:       rng.Uint32(),
			DstIP:       rng.Uint32(),
			Protocol:    packet.ProtoTCP,
			TTL:         uint8(32 + rng.Intn(96)),
			TotalLength: uint16(40 + rng.Intn(1460)),
			IPID:        uint16(rng.Intn(65536)),
			TOS:         0,
			SrcPort:     uint16(1024 + rng.Intn(64512)),
			DstPort:     uint16(rng.Intn(1024)),
			Seq:         rng.Uint32(),
			Ack:         rng.Uint32(),
			DataOffset:  5,
			Flags:       packet.FlagACK,
			Window:      uint16(rng.Intn(65536)),
		}
	}
	return hs
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{BatchSize: 0, Rank: 12, Centroids: 10},
		{BatchSize: 100, Rank: 0, Centroids: 10},
		{BatchSize: 100, Rank: 19, Centroids: 10},
		{BatchSize: 100, Rank: 12, Centroids: 0},
		{BatchSize: 100, Rank: 12, Centroids: 10, MinBatch: 101},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %d should be invalid: %+v", i, c)
		}
	}
}

func TestSizeFormulas(t *testing.T) {
	// Paper parameters: p = 18, n = 1000, k = 200, r = 12.
	p, k, r := 18, 200, 12
	if got := CombinedSize(k, p); got != 200*19 {
		t.Fatalf("combined size = %d, want %d", got, 200*19)
	}
	if got := SplitSize(r, k, p); got != 12*(200+18+1)+200 {
		t.Fatalf("split size = %d, want %d", got, 12*219+200)
	}
	// At the paper's operating point the combined encoding is smaller:
	// 12·219+200 = 2828 vs 200·19 = 3800 → split wins.
	if !PreferSplit(r, k, p) {
		t.Fatal("split must be preferred at r=12, k=200, p=18")
	}
	// With tiny k the combined form wins: k=5 → 5·19=95 vs 12·24+5=293.
	if PreferSplit(12, 5, 18) {
		t.Fatal("combined must be preferred at r=12, k=5")
	}
}

func TestSummarizeBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	hs := randomHeaders(rng, 300)
	s, err := NewSummarizer(Config{BatchSize: 300, Rank: 12, Centroids: 60, MinBatch: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Summarize(hs, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if sum.MonitorID != 3 || sum.Epoch != 9 {
		t.Fatalf("labels not stamped: %+v", sum)
	}
	if sum.K() != 60 {
		t.Fatalf("k = %d, want 60", sum.K())
	}
	if sum.BatchSize != 300 {
		t.Fatalf("batch size = %d, want 300", sum.BatchSize)
	}
	total := 0
	for _, c := range sum.Counts {
		total += c
	}
	if total != 300 {
		t.Fatalf("counts sum to %d, want 300", total)
	}
	if len(sum.Assignments) != 300 {
		t.Fatalf("%d assignments, want 300", len(sum.Assignments))
	}
}

func TestSummarizeTooSmall(t *testing.T) {
	s, err := NewSummarizer(Config{BatchSize: 100, Rank: 5, Centroids: 10, MinBatch: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	_, err = s.Summarize(randomHeaders(rng, 10), 0, 0)
	if !errors.Is(err, ErrBatchTooSmall) {
		t.Fatalf("got %v, want ErrBatchTooSmall", err)
	}
}

func TestSummarizeKindSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	hs := randomHeaders(rng, 200)

	// r=12, k=40, p=18: split = 12·59+40 = 748, combined = 40·19 = 760 → split.
	s1, _ := NewSummarizer(Config{BatchSize: 200, Rank: 12, Centroids: 40, Seed: 1})
	sum, err := s1.Summarize(hs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Kind != KindSplit {
		t.Fatalf("kind = %v, want split", sum.Kind)
	}
	if sum.Centroids.Cols() != 12 {
		t.Fatalf("split centroid width %d, want 12", sum.Centroids.Cols())
	}

	// r=12, k=10: split = 12·29+10 = 358, combined = 190 → combined.
	s2, _ := NewSummarizer(Config{BatchSize: 200, Rank: 12, Centroids: 10, Seed: 1})
	sum2, err := s2.Summarize(hs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Kind != KindCombined {
		t.Fatalf("kind = %v, want combined", sum2.Kind)
	}
	if sum2.Centroids.Cols() != packet.NumFields {
		t.Fatalf("combined centroid width %d, want %d", sum2.Centroids.Cols(), packet.NumFields)
	}
}

func TestRepresentativesEquivalence(t *testing.T) {
	// The split and combined encodings must describe (nearly) the same
	// representatives: reconstructing Ũ_r·Σ_r·V_rᵀ from a split summary
	// of the same batch approximates the combined centroids. We verify
	// the weaker but deterministic property: representatives of a split
	// summary lie in normalized field space with small reconstruction
	// residual vs the batch.
	rng := rand.New(rand.NewSource(4))
	hs := randomHeaders(rng, 400)
	s, _ := NewSummarizer(Config{BatchSize: 400, Rank: 16, Centroids: 80, Seed: 5})
	sum, err := s.Summarize(hs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Kind != KindSplit {
		t.Skipf("expected split at this operating point, got %v", sum.Kind)
	}
	reps, err := sum.Representatives()
	if err != nil {
		t.Fatal(err)
	}
	if reps.Rows() != 80 || reps.Cols() != packet.NumFields {
		t.Fatalf("representatives are %dx%d", reps.Rows(), reps.Cols())
	}
	relErr, err := ApproximationError(hs, sum)
	if err != nil {
		t.Fatal(err)
	}
	if relErr > 0.35 {
		t.Fatalf("relative approximation error %.3f too large", relErr)
	}
}

func TestApproximationErrorShrinksWithK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	hs := randomHeaders(rng, 500)
	errAt := func(k int) float64 {
		s, _ := NewSummarizer(Config{BatchSize: 500, Rank: 16, Centroids: k, Seed: 6})
		sum, err := s.Summarize(hs, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		e, err := ApproximationError(hs, sum)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	if e10, e100 := errAt(10), errAt(100); e100 >= e10 {
		t.Fatalf("error must shrink with k: e(10)=%.4f, e(100)=%.4f", e10, e100)
	}
}

func TestElementsMatchesFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	hs := randomHeaders(rng, 200)
	s, _ := NewSummarizer(Config{BatchSize: 200, Rank: 12, Centroids: 40, Seed: 1})
	sum, err := s.Summarize(hs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := SplitSize(12, 40, packet.NumFields)
	if sum.Kind == KindCombined {
		want = CombinedSize(40, packet.NumFields)
	}
	if sum.Elements() != want {
		t.Fatalf("Elements() = %d, want %d", sum.Elements(), want)
	}
}

func TestMarshalRoundTripCombined(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	hs := randomHeaders(rng, 150)
	s, _ := NewSummarizer(Config{BatchSize: 150, Rank: 12, Centroids: 8, Seed: 2})
	sum, err := s.Summarize(hs, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Kind != KindCombined {
		t.Fatalf("expected combined summary, got %v", sum.Kind)
	}
	roundTrip(t, sum)
}

func TestMarshalRoundTripSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	hs := randomHeaders(rng, 150)
	s, _ := NewSummarizer(Config{BatchSize: 150, Rank: 10, Centroids: 50, Seed: 2})
	sum, err := s.Summarize(hs, 6, 12)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Kind != KindSplit {
		t.Fatalf("expected split summary, got %v", sum.Kind)
	}
	roundTrip(t, sum)
}

func roundTrip(t *testing.T, sum *Summary) {
	t.Helper()
	data, err := sum.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != sum.Kind || got.MonitorID != sum.MonitorID || got.Epoch != sum.Epoch ||
		got.BatchSize != sum.BatchSize || got.Rank != sum.Rank {
		t.Fatalf("metadata mismatch: got %+v", got)
	}
	// Elements travel as float32; round-tripping quantizes to ~1e-7
	// relative precision.
	const tol = 1e-5
	if !linalg.Equal(got.Centroids, sum.Centroids, tol) {
		t.Fatal("centroids mismatch after round trip")
	}
	for i, c := range sum.Counts {
		if got.Counts[i] != c {
			t.Fatalf("count %d mismatch", i)
		}
	}
	if sum.Kind == KindSplit {
		if !linalg.Equal(got.V, sum.V, tol) {
			t.Fatal("V mismatch after round trip")
		}
		for i, v := range sum.Sigma {
			if math.Abs(got.Sigma[i]-v) > tol*(1+math.Abs(v)) {
				t.Fatalf("sigma %d mismatch", i)
			}
		}
	}
	if got.Assignments != nil {
		t.Fatal("assignments must not travel on the wire")
	}
}

func TestUnmarshalCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	hs := randomHeaders(rng, 100)
	s, _ := NewSummarizer(Config{BatchSize: 100, Rank: 8, Centroids: 30, Seed: 2})
	sum, err := s.Summarize(hs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := sum.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":      {},
		"short":      data[:len(data)/2],
		"bad kind":   append([]byte{99}, data[1:]...),
		"trailing":   append(append([]byte{}, data...), 0xAB),
		"header cut": data[:codecHeaderSize-1],
	}
	// A lying monitor: well-formed frames whose numbers the controller
	// would add up. patch overwrites 4 bytes of a copy of data.
	patch := func(off int, v uint32) []byte {
		c := append([]byte{}, data...)
		binary.BigEndian.PutUint32(c[off:], v)
		return c
	}
	firstCount, firstElem := codecHeaderSize, codecHeaderSize+4*sum.K()
	cases["inflated count"] = patch(firstCount, uint32(sum.Counts[0])+1000)
	cases["inflated batch size"] = patch(13, uint32(sum.BatchSize)+1)
	cases["count wraps uint32"] = patch(firstCount, 0xFFFFFFFF)
	cases["NaN element"] = patch(firstElem, math.Float32bits(float32(math.NaN())))
	cases["+Inf element"] = patch(firstElem+4, math.Float32bits(float32(math.Inf(1))))
	cases["-Inf last element"] = patch(len(data)-4, math.Float32bits(float32(math.Inf(-1))))
	for name, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Fatalf("case %q: expected unmarshal error", name)
		}
	}
}

// FuzzUnmarshal: the decoder never panics on hostile bytes, and whatever
// it accepts is safe to aggregate — every element finite, and the counts
// stand for exactly the batch the header claims — and re-Marshals to the
// input byte for byte, so encoder and decoder agree on every field.
// Seeded from real Marshal output, combined and split.
func FuzzUnmarshal(f *testing.F) {
	// Summarize picks the smaller encoding: the first config comes out
	// combined, the second split.
	for _, c := range []struct {
		rank, k int
		kind    Kind
	}{{8, 12, KindCombined}, {2, 40, KindSplit}} {
		szr, err := NewSummarizer(Config{BatchSize: 60, Rank: c.rank, Centroids: c.k, Seed: 4})
		if err != nil {
			f.Fatal(err)
		}
		sum, err := szr.Summarize(randomHeaders(rand.New(rand.NewSource(21)), 60), 3, 7)
		if err != nil || sum.Kind != c.kind {
			f.Fatalf("seed summary: kind %v, err %v; want %v", sum.Kind, err, c.kind)
		}
		data, err := sum.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Unmarshal(data)
		if err != nil {
			return
		}
		total := 0
		for _, c := range s.Counts {
			total += c
		}
		if total != s.BatchSize {
			t.Fatalf("accepted counts summing to %d for batch size %d", total, s.BatchSize)
		}
		elems := [][]float64{s.Centroids.Data(), s.Sigma}
		if s.V != nil {
			elems = append(elems, s.V.Data())
		}
		for _, xs := range elems {
			for _, x := range xs {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("accepted non-finite element %v", x)
				}
			}
		}
		again, err := s.Marshal()
		if err != nil {
			t.Fatalf("accepted summary does not re-marshal: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("re-marshal differs from the input:\n got %x\nwant %x", again, data)
		}
	})
}

func TestBufferBatching(t *testing.T) {
	b := NewBuffer(5)
	rng := rand.New(rand.NewSource(10))
	hs := randomHeaders(rng, 12)
	var sealed int
	for _, h := range hs {
		if batch, ok := b.Add(h); ok {
			sealed++
			if len(batch.Headers) != 5 {
				t.Fatalf("sealed batch of %d, want 5", len(batch.Headers))
			}
		}
	}
	if sealed != 2 {
		t.Fatalf("sealed %d batches, want 2", sealed)
	}
	if b.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", b.Pending())
	}
	fl := b.Flush()
	if fl == nil || len(fl.Headers) != 2 {
		t.Fatalf("flush returned %+v", fl)
	}
	if b.Flush() != nil {
		t.Fatal("second flush must return nil")
	}
}

func TestBufferRetention(t *testing.T) {
	b := NewBuffer(50)
	rng := rand.New(rand.NewSource(11))
	var batch *Batch
	for _, h := range randomHeaders(rng, 50) {
		batch, _ = b.Add(h)
	}
	if batch == nil {
		t.Fatal("expected sealed batch")
	}
	s, _ := NewSummarizer(Config{BatchSize: 50, Rank: 8, Centroids: 5, Seed: 3})
	sum, err := s.Summarize(batch.Headers, 0, batch.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	b.Retain(batch, sum)

	total := 0
	for c := 0; c < sum.K(); c++ {
		pkts := b.RawPackets(batch.Epoch, c)
		if len(pkts) != sum.Counts[c] {
			t.Fatalf("centroid %d: %d raw packets, count says %d", c, len(pkts), sum.Counts[c])
		}
		total += len(pkts)
	}
	if total != 50 {
		t.Fatalf("retained %d packets, want 50", total)
	}

	// Retention expires after two epoch advances.
	b.AdvanceEpoch()
	if b.RawPackets(batch.Epoch, 0) == nil {
		t.Fatal("previous epoch must still be retained")
	}
	b.AdvanceEpoch()
	if b.RawPackets(batch.Epoch, 0) != nil {
		t.Fatal("expired epoch must be dropped")
	}
}

func TestBufferEpoch(t *testing.T) {
	b := NewBuffer(10)
	if b.Epoch() != 0 {
		t.Fatalf("initial epoch = %d", b.Epoch())
	}
	if e := b.AdvanceEpoch(); e != 1 || b.Epoch() != 1 {
		t.Fatalf("epoch after advance = %d", e)
	}
}

// Property: counts always sum to the batch size and marshalling round-trips
// for random operating points.
func TestSummarizeInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 60 + rng.Intn(140)
		k := 2 + rng.Intn(40)
		r := 2 + rng.Intn(16)
		s, err := NewSummarizer(Config{BatchSize: n, Rank: r, Centroids: k, Seed: seed})
		if err != nil {
			return false
		}
		sum, err := s.Summarize(randomHeaders(rng, n), 1, 2)
		if err != nil {
			return false
		}
		total := 0
		for _, c := range sum.Counts {
			total += c
		}
		if total != n {
			return false
		}
		data, err := sum.Marshal()
		if err != nil {
			return false
		}
		back, err := Unmarshal(data)
		if err != nil {
			return false
		}
		return linalg.Equal(back.Centroids, sum.Centroids, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
