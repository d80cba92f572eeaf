package sketch

import (
	"bytes"
	"strings"
	"testing"
)

func sampleDigest() *Digest {
	flows := NewHLL()
	for i := uint64(0); i < 500; i++ {
		flows.Add(i * 0x9e3779b97f4a7c15)
	}
	return &Digest{
		MonitorID: 3,
		Epoch:     42,
		Offered:   20000,
		Shed:      12000,
		Kept:      8000,
		Flows:     flows,
		TopDst: []HeavyHitter{
			{Key: 0x0A00002A, Count: 9000},
			{Key: 0x0A000001, Count: 400},
		},
		TopSrc: []HeavyHitter{{Key: 0xC0A80001, Count: 8800}},
	}
}

func TestDigestWireRoundTrip(t *testing.T) {
	d := sampleDigest()
	wire := d.AppendWire(nil)
	if !IsDigest(wire) {
		t.Fatal("IsDigest must recognize an encoded digest")
	}
	got, n, err := DecodeDigest(wire)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(wire) {
		t.Fatalf("consumed %d of %d bytes", n, len(wire))
	}
	if got.MonitorID != d.MonitorID || got.Epoch != d.Epoch ||
		got.Offered != d.Offered || got.Shed != d.Shed || got.Kept != d.Kept {
		t.Fatalf("accounting changed across round-trip: %+v", got)
	}
	if got.FlowEstimate() != d.FlowEstimate() {
		t.Fatalf("flow estimate %d != %d", got.FlowEstimate(), d.FlowEstimate())
	}
	if len(got.TopDst) != 2 || got.TopDst[0] != d.TopDst[0] || got.TopDst[1] != d.TopDst[1] {
		t.Fatalf("TopDst changed: %+v", got.TopDst)
	}
	if len(got.TopSrc) != 1 || got.TopSrc[0] != d.TopSrc[0] {
		t.Fatalf("TopSrc changed: %+v", got.TopSrc)
	}
}

// The digest must decode from the front of a longer payload (it sits
// before the trace trailer) and report its exact block length.
func TestDigestDecodePrefix(t *testing.T) {
	wire := sampleDigest().AppendWire(nil)
	blockLen := len(wire)
	wire = append(wire, []byte("trailing trace trailer bytes")...)
	got, n, err := DecodeDigest(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || n != blockLen {
		t.Fatalf("consumed %d, want block length %d", n, blockLen)
	}
}

// Unknown versions skip the whole block without error so old readers
// survive new senders.
func TestDigestUnknownVersionSkips(t *testing.T) {
	wire := sampleDigest().AppendWire(nil)
	wire[2] = 99
	got, n, err := DecodeDigest(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatal("unknown version must yield a nil digest")
	}
	if n != len(wire) {
		t.Fatalf("unknown version consumed %d of %d bytes", n, len(wire))
	}
}

func TestDigestDecodeRejectsCorruption(t *testing.T) {
	wire := sampleDigest().AppendWire(nil)
	for cut := 0; cut < len(wire); cut++ {
		if _, _, err := DecodeDigest(wire[:cut]); err == nil {
			t.Fatalf("truncation at %d must fail", cut)
		}
	}
	bad := bytes.Clone(wire)
	bad[0] = 'X'
	if _, _, err := DecodeDigest(bad); err == nil {
		t.Fatal("bad magic must fail")
	}
	bad = bytes.Clone(wire)
	bad[7] = 0xFF // block length beyond payload
	if _, _, err := DecodeDigest(bad); err == nil {
		t.Fatal("oversized block length must fail")
	}
}

// A monitor that lies about its epoch is refused at decode, and the
// error names the field that gave it away.
func TestDigestDecodeRejectsLies(t *testing.T) {
	cases := []struct {
		name  string
		lie   func(d *Digest)
		field string
	}{
		{"accounting", func(d *Digest) { d.Kept++ }, "shed"},
		{"accounting overflow", func(d *Digest) { d.Shed, d.Kept = 1<<63+d.Offered, 1<<63 }, "shed"},
		{"shed above offered", func(d *Digest) { d.Shed = d.Offered + 1 }, "shed"},
		{"count above offered", func(d *Digest) { d.TopSrc[0].Count = d.Offered + 1 }, "exceeds offered"},
		{"hll rank 58", func(d *Digest) { d.Flows.registers[3] = hllMaxRank + 1 }, "hll register 3"},
		{"hll rank 200", func(d *Digest) { d.Flows.registers[255] = 200 }, "hll register 255"},
		{"ascending counts", func(d *Digest) { d.TopDst[0], d.TopDst[1] = d.TopDst[1], d.TopDst[0] }, "out of order"},
		{"duplicate hitter", func(d *Digest) { d.TopDst[1] = d.TopDst[0] }, "out of order"},
		{"tie with descending keys", func(d *Digest) { d.TopDst[1].Count = d.TopDst[0].Count }, "out of order"},
	}
	for _, c := range cases {
		d := sampleDigest()
		c.lie(d)
		_, _, err := DecodeDigest(d.AppendWire(nil))
		if err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
		if !strings.Contains(err.Error(), c.field) {
			t.Fatalf("%s: error %q does not name %q", c.name, err, c.field)
		}
	}
	// The largest honest rank and a tie in key order are fine.
	d := sampleDigest()
	d.Flows.registers[0] = hllMaxRank
	d.TopDst[0].Count = d.TopDst[1].Count
	d.TopDst[0], d.TopDst[1] = d.TopDst[1], d.TopDst[0]
	if _, _, err := DecodeDigest(d.AppendWire(nil)); err != nil {
		t.Fatalf("honest edge digest refused: %v", err)
	}
}

// checkHonest fails unless d satisfies what DecodeDigest promises of an
// accepted digest.
func checkHonest(t *testing.T, d *Digest) {
	t.Helper()
	if d.Shed > d.Offered || d.Offered-d.Shed != d.Kept {
		t.Fatalf("accepted shed %d + kept %d != offered %d", d.Shed, d.Kept, d.Offered)
	}
	for i, r := range d.Flows.registers {
		if r > hllMaxRank {
			t.Fatalf("accepted hll register %d = %d", i, r)
		}
	}
	for _, hh := range [][]HeavyHitter{d.TopDst, d.TopSrc} {
		for j, h := range hh {
			if h.Count > d.Offered {
				t.Fatalf("accepted hitter count %d above offered %d", h.Count, d.Offered)
			}
			if j > 0 && hh[j-1].compare(h) >= 0 {
				t.Fatalf("accepted hitter list out of order: %+v", hh)
			}
		}
	}
}

// FuzzDecodeDigest shakes the decoder with arbitrary bytes; it must
// never panic, every accepted digest must be one an honest monitor
// could have sent, and re-encoding it must reproduce the block it came
// from byte for byte (the reserved flags byte aside, which the decoder
// ignores and the encoder writes as 0).
func FuzzDecodeDigest(f *testing.F) {
	f.Add(sampleDigest().AppendWire(nil))
	f.Add((&Digest{}).AppendWire(nil))
	short := sampleDigest().AppendWire(nil)
	f.Add(short[:9])
	lying := sampleDigest()
	lying.Flows.registers[0] = 200
	f.Add(lying.AppendWire(nil))
	f.Fuzz(func(t *testing.T, p []byte) {
		d, n, err := DecodeDigest(p)
		if err != nil {
			return
		}
		if n < 8 || n > len(p) {
			t.Fatalf("consumed %d of %d bytes", n, len(p))
		}
		if d == nil {
			return // version skip
		}
		checkHonest(t, d)
		want := bytes.Clone(p[:n])
		want[3] = 0
		if got := d.AppendWire(nil); !bytes.Equal(got, want) {
			t.Fatalf("re-encode of an accepted block differs from the block:\n got %x\nwant %x", got, want)
		}
	})
}

func TestIngestDisabled(t *testing.T) {
	g, err := NewIngest(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if g != nil {
		t.Fatal("disabled config must yield a nil pass")
	}
}

// A negative watermark is refused whether or not the pass is enabled:
// a disabled config must not hide a bad -shed-watermark.
func TestIngestRejectsNegativeWatermark(t *testing.T) {
	for _, cfg := range []Config{{ShedWatermark: -1}, {Enabled: true, ShedWatermark: -1}} {
		if g, err := NewIngest(cfg); err == nil {
			t.Fatalf("NewIngest(%+v) = %v, nil; want an error", cfg, g)
		}
	}
}

func TestIngestKeepsEverythingBelowWatermark(t *testing.T) {
	g, err := NewIngest(DefaultConfig(1000))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if !g.Observe(uint32(i), uint32(i%7), uint64(i)) {
			t.Fatalf("packet %d shed below the watermark", i)
		}
	}
	if g.shed != 0 || g.kept != 1000 || g.offered != 1000 {
		t.Fatalf("accounting off: offered=%d kept=%d shed=%d", g.offered, g.kept, g.shed)
	}
}

func TestIngestZeroWatermarkNeverSheds(t *testing.T) {
	g, err := NewIngest(Config{Enabled: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if !g.Observe(uint32(i), 1, uint64(i)) {
			t.Fatal("watermark 0 must never shed")
		}
	}
}

// Above the watermark, heavy-hitter traffic survives and mice are
// subsampled at 1-in-miceKeep.
func TestIngestShedsMiceNotHeavy(t *testing.T) {
	// The watermark keeps the run inside the band between it and the hard
	// ceiling: this test pins the band's semantics (heavy exempt, mice
	// subsampled); TestIngestHardCeilingBoundsKept covers the ceiling.
	const watermark = 6000
	g, err := NewIngest(DefaultConfig(watermark))
	if err != nil {
		t.Fatal(err)
	}
	const victim = uint32(0x0A00002A)
	heavyKept, miceOffered, miceKept := 0, 0, 0
	for i := 0; i < 20000; i++ {
		if i%10 == 0 {
			// Heavy flow: a tenth of all traffic hits one victim.
			if g.Observe(uint32(0xC0A80000+i%4), victim, uint64(i%64)) {
				heavyKept++
			}
		} else {
			// Mice: unique src/dst/flow per packet.
			miceOffered++
			if g.Observe(uint32(i)<<8, uint32(i)|0xF0000000, uint64(i)*0x9e3779b97f4a7c15) {
				miceKept++
			}
		}
	}
	if g.offered != 20000 || g.kept+g.shed != 20000 {
		t.Fatalf("accounting off: offered=%d kept=%d shed=%d", g.offered, g.kept, g.shed)
	}
	if g.shed == 0 {
		t.Fatal("overloaded run must shed")
	}
	if g.kept >= hardLimitFactor*watermark {
		t.Fatalf("kept %d reached the hard ceiling; the run must stay inside the band", g.kept)
	}
	if heavyKept != 2000 {
		t.Fatalf("heavy-hitter packets kept %d of 2000 — heavy traffic must never be shed", heavyKept)
	}
	// Mice shed to roughly 1-in-miceKeep past the watermark.
	if miceKept >= miceOffered/2 {
		t.Fatalf("mice kept %d of %d — subsampling not engaged", miceKept, miceOffered)
	}
	d := g.Digest(1, 9)
	if d.Offered != 20000 || d.Shed != g.shed || d.Kept != g.kept {
		t.Fatalf("digest accounting mismatch: %+v", d)
	}
	if len(d.TopDst) == 0 || d.TopDst[0].Key != victim {
		t.Fatalf("victim missing from TopDst: %+v", d.TopDst)
	}
	if est := d.FlowEstimate(); est < 5000 {
		t.Fatalf("flow estimate %d too low for ~10k distinct mice flows", est)
	}

	g.Reset()
	if g.offered != 0 || g.shed != 0 || g.kept != 0 {
		t.Fatal("Reset must clear accounting")
	}
	if d2 := g.Digest(1, 10); len(d2.TopDst) != 0 || d2.FlowEstimate() != 0 {
		t.Fatalf("Reset must clear sketches: %+v", d2)
	}
}

// Past hardLimitFactor × watermark kept packets, even heavy-hitter
// traffic is shed: the epoch's slab admission is hard-bounded at any
// offered load.
func TestIngestHardCeilingBoundsKept(t *testing.T) {
	g, err := NewIngest(DefaultConfig(500)) // default factor 2 → ceiling 1000
	if err != nil {
		t.Fatal(err)
	}
	const victim = uint32(0x0A00002A)
	for i := 0; i < 50000; i++ {
		// Every packet hits one destination: all-heavy traffic.
		g.Observe(uint32(0xC0A80000+i%4), victim, uint64(i%64))
	}
	if g.kept != 1000 {
		t.Fatalf("kept %d heavy packets, want exactly the 1000-packet ceiling", g.kept)
	}
	if g.shed != 49000 {
		t.Fatalf("shed %d, want 49000", g.shed)
	}
	// The digest still reports the full pre-shed picture.
	d := g.Digest(0, 1)
	if d.Offered != 50000 || len(d.TopDst) == 0 || d.TopDst[0].Key != victim {
		t.Fatalf("ceiling must not blind the digest: %+v", d)
	}
}
