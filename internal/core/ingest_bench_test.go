package core

import (
	"testing"

	"repro/internal/rules"
	"repro/internal/sketch"
	"repro/internal/summary"
	"repro/internal/trafficgen"
)

// ingestSheddingOp is one Monitor.Ingest at the deployment benchmark's
// overload operating point: a SYN flood at 20 % of a Zipf background,
// the sketch pass armed with watermark 625, and an epoch closed
// (Monitor.Poll) every 150 000 packets — one monitor's share of a
// 300 000-packet epoch. All but 1 250 packets an epoch are shed, so this
// is the lock, the sketch pass and the shed accounting.
// BenchmarkMonitorIngestShedding times it and
// TestMonitorIngestSheddingZeroAlloc holds it to zero allocations.
func ingestSheddingOp(tb testing.TB) func() {
	const perEpoch = 150000
	m, err := NewMonitorSketch(0, summary.DefaultConfig(), sketch.DefaultConfig(625))
	if err != nil {
		tb.Fatal(err)
	}
	atk, err := trafficgen.NewAttack(rules.AttackSYNFlood, trafficgen.AttackConfig{Seed: 2, Victim: 0x0A00002A})
	if err != nil {
		tb.Fatal(err)
	}
	mix := trafficgen.NewMixer(trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(1)), atk,
		trafficgen.MixConfig{Seed: 3, AttackFraction: 0.2})
	pkts := mix.Batch(1 << 16)
	var i int
	var epoch uint64
	return func() {
		if err := m.Ingest(pkts[i%len(pkts)].Header); err != nil {
			tb.Fatal(err)
		}
		i++
		if i%perEpoch == 0 {
			_, _, d, err := m.Poll(epoch)
			if err != nil {
				tb.Fatal(err)
			}
			if d == nil || d.Offered != perEpoch || d.Kept != 1250 {
				tb.Fatalf("epoch %d: digest %+v, want offered %d and kept 1250", epoch, d, perEpoch)
			}
			epoch++
		}
	}
}

func BenchmarkMonitorIngestShedding(b *testing.B) {
	ingest := ingestSheddingOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ingest()
	}
}

// TestMonitorIngestSheddingZeroAlloc covers 100 000 packets of one
// epoch; the one batch that seals among them amortizes to well under one
// allocation per packet.
func TestMonitorIngestSheddingZeroAlloc(t *testing.T) {
	if n := testing.AllocsPerRun(100000, ingestSheddingOp(t)); n != 0 {
		t.Fatalf("Monitor.Ingest made %v allocations per packet, want 0", n)
	}
}
