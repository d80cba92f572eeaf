package core

import (
	"testing"

	"repro/internal/rules"
	"repro/internal/sketch"
	"repro/internal/summary"
	"repro/internal/trafficgen"
)

// BenchmarkMonitorIngestShedding times Monitor.Ingest at the deployment
// benchmark's overload operating point: a SYN flood at 20 % of a Zipf
// background, the sketch pass armed with watermark 625, and an epoch
// closed (Monitor.Poll) every 150 000 packets — one monitor's
// share of a 300 000-packet epoch. All but 1 250 packets an epoch are
// shed, so this is the lock, the sketch pass and the shed accounting.
func BenchmarkMonitorIngestShedding(b *testing.B) {
	const perEpoch = 150000
	m, err := NewMonitorSketch(0, summary.DefaultConfig(), sketch.DefaultConfig(625))
	if err != nil {
		b.Fatal(err)
	}
	atk, err := trafficgen.NewAttack(rules.AttackSYNFlood, trafficgen.AttackConfig{Seed: 2, Victim: 0x0A00002A})
	if err != nil {
		b.Fatal(err)
	}
	mix := trafficgen.NewMixer(trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(1)), atk,
		trafficgen.MixConfig{Seed: 3, AttackFraction: 0.2})
	pkts := mix.Batch(1 << 16)

	b.ReportAllocs()
	b.ResetTimer()
	epoch := uint64(0)
	for i := 0; i < b.N; i++ {
		if err := m.Ingest(pkts[i%len(pkts)].Header); err != nil {
			b.Fatal(err)
		}
		if (i+1)%perEpoch == 0 {
			_, _, d, err := m.Poll(epoch)
			if err != nil {
				b.Fatal(err)
			}
			if d == nil || d.Offered != perEpoch || d.Kept != 1250 {
				b.Fatalf("epoch %d: digest %+v, want offered %d and kept 1250", epoch, d, perEpoch)
			}
			epoch++
		}
	}
}
