package sampling

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/packet"
)

func TestReservoirFillsToSize(t *testing.T) {
	r, err := NewReservoir(10, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		r.Observe(packet.Header{IPID: uint16(i)})
	}
	if len(r.Sample()) != 5 {
		t.Fatalf("sample size %d, want 5 (underfilled)", len(r.Sample()))
	}
	for i := 5; i < 100; i++ {
		r.Observe(packet.Header{IPID: uint16(i)})
	}
	if len(r.Sample()) != 10 {
		t.Fatalf("sample size %d, want 10", len(r.Sample()))
	}
	if r.Seen() != 100 {
		t.Fatalf("seen = %d, want 100", r.Seen())
	}
}

func TestReservoirInvalidArgs(t *testing.T) {
	if _, err := NewReservoir(0, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("size 0 must be rejected")
	}
	if _, err := NewReservoir(5, nil); err == nil {
		t.Fatal("nil rng must be rejected")
	}
}

// Uniformity: every stream position should appear in the sample with
// probability size/stream. We check inclusion frequency of the first
// element across many runs.
func TestReservoirUniformity(t *testing.T) {
	const (
		streamLen = 200
		size      = 20
		trials    = 2000
	)
	included := 0
	for trial := 0; trial < trials; trial++ {
		r, _ := NewReservoir(size, rand.New(rand.NewSource(int64(trial))))
		for i := 0; i < streamLen; i++ {
			r.Observe(packet.Header{Seq: uint32(i)})
		}
		for _, h := range r.Sample() {
			if h.Seq == 0 {
				included++
				break
			}
		}
	}
	got := float64(included) / trials
	want := float64(size) / streamLen // 0.10
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("first-element inclusion rate %.3f, want ≈%.3f", got, want)
	}
}

func TestReservoirReset(t *testing.T) {
	r, _ := NewReservoir(5, rand.New(rand.NewSource(2)))
	for i := 0; i < 20; i++ {
		r.Observe(packet.Header{})
	}
	r.Reset()
	if r.Seen() != 0 || len(r.Sample()) != 0 {
		t.Fatal("reset must empty the reservoir")
	}
}

func TestReservoirScaleFactor(t *testing.T) {
	r, _ := NewReservoir(10, rand.New(rand.NewSource(3)))
	if r.ScaleFactor() != 0 {
		t.Fatal("empty reservoir scale factor must be 0")
	}
	for i := 0; i < 100; i++ {
		r.Observe(packet.Header{})
	}
	if sf := r.ScaleFactor(); sf != 10 {
		t.Fatalf("scale factor = %v, want 10", sf)
	}
}

func TestReservoirSampleIsCopy(t *testing.T) {
	r, _ := NewReservoir(2, rand.New(rand.NewSource(4)))
	r.Observe(packet.Header{IPID: 7})
	s := r.Sample()
	s[0].IPID = 99
	if r.Sample()[0].IPID != 7 {
		t.Fatal("Sample must return a copy")
	}
}
