package summary

import (
	"math/rand"
	"testing"

	"repro/internal/packet"
)

// Shed counts accumulate between seals and are stamped onto the next
// sealed batch, so per-batch accounting reflects the true offered
// volume the batch stands for.
func TestBufferShedAccounting(t *testing.T) {
	b := NewBuffer(10)
	rng := rand.New(rand.NewSource(31))
	hs := randomHeaders(rng, 25)

	// Interleave: 10 buffered with 5 shed → first batch.
	for i := 0; i < 5; i++ {
		b.NoteShed(1)
	}
	var batch *Batch
	for _, h := range hs[:10] {
		batch, _ = b.Add(h)
	}
	if batch == nil {
		t.Fatal("first batch not sealed")
	}
	if batch.Shed != 5 {
		t.Fatalf("first batch shed = %d, want 5", batch.Shed)
	}
	if got, want := batch.ShedFraction(), 5.0/15.0; got != want {
		t.Fatalf("shed fraction = %v, want %v", got, want)
	}

	// A shed-free batch reports zero.
	for _, h := range hs[10:20] {
		batch, _ = b.Add(h)
	}
	if batch == nil || batch.Shed != 0 || batch.ShedFraction() != 0 {
		t.Fatalf("shed-free batch carries shed state: %+v", batch)
	}
	if batch.Epoch != 1 {
		t.Fatalf("second batch epoch = %d, want 1", batch.Epoch)
	}
}

// A fully-shed window — only NoteShed, nothing buffered — flushes to
// nil without advancing seq, and its shed count carries over to the
// next batch that actually seals.
func TestBufferFlushFullyShedWindow(t *testing.T) {
	b := NewBuffer(10)
	b.NoteShed(40)
	if b.ShedPending() != 40 {
		t.Fatalf("shed pending = %d, want 40", b.ShedPending())
	}
	if got := b.Flush(); got != nil {
		t.Fatalf("fully-shed flush returned a batch: %+v", got)
	}
	if b.ShedPending() != 40 {
		t.Fatal("nil flush must not consume the shed count")
	}

	rng := rand.New(rand.NewSource(32))
	var batch *Batch
	for _, h := range randomHeaders(rng, 10) {
		batch, _ = b.Add(h)
	}
	if batch == nil {
		t.Fatal("batch not sealed")
	}
	if batch.Epoch != 0 {
		t.Fatalf("batch epoch = %d, want 0 — the nil flush advanced seq", batch.Epoch)
	}
	if batch.Shed != 40 {
		t.Fatalf("carried-over shed = %d, want 40", batch.Shed)
	}
	if b.ShedPending() != 0 {
		t.Fatal("seal must consume the shed count")
	}
}

// Retention and raw-packet fetch round-trip unchanged for a subsampled
// batch: the shed packets are gone, but every surviving header is
// retrievable by centroid and reassembles into the full batch.
func TestBufferRetentionRoundTripUnderShedding(t *testing.T) {
	const n = 60
	b := NewBuffer(n)
	rng := rand.New(rand.NewSource(33))
	var batch *Batch
	for i, h := range randomHeaders(rng, 2*n) {
		if i%2 == 0 {
			b.NoteShed(1) // shed every other offered packet
			continue
		}
		batch, _ = b.Add(h)
	}
	if batch == nil {
		t.Fatal("batch not sealed")
	}
	if batch.Shed != n || batch.ShedFraction() != 0.5 {
		t.Fatalf("subsampled batch accounting: shed=%d fraction=%v", batch.Shed, batch.ShedFraction())
	}

	s, err := NewSummarizer(Config{BatchSize: n, Rank: 8, Centroids: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Summarize(batch.Headers, 0, batch.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	b.Retain(batch, sum)

	// Per-centroid fetches return exactly the surviving members, and
	// together they reassemble the kept multiset.
	var raw []packet.Header
	for c := 0; c < sum.K(); c++ {
		hs := b.RawPackets(batch.Epoch, c)
		if len(hs) != sum.Counts[c] {
			t.Fatalf("centroid %d: fetched %d headers, counts say %d", c, len(hs), sum.Counts[c])
		}
		raw = append(raw, hs...)
	}
	if len(raw) != n {
		t.Fatalf("fetched %d headers across centroids, want %d", len(raw), n)
	}
	want := map[packet.Header]int{}
	for _, h := range batch.Headers {
		want[h]++
	}
	for _, h := range raw {
		want[h]--
	}
	for h, cnt := range want {
		if cnt != 0 {
			t.Fatalf("header multiset mismatch at %+v (%+d)", h, cnt)
		}
	}
}
