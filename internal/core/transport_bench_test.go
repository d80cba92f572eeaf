package core

import (
	"fmt"
	"net"
	"testing"

	"repro/internal/sketch"
	"repro/internal/summary"
	"repro/internal/trafficgen"
	"repro/internal/wire"
)

// BenchmarkRawPull times the feedback loop's unit of work: one raw
// request–response round trip to a monitor over loopback TCP, against a
// paper-sized batch (n = 1000, k = 200: about five headers a centroid).
// refs=1 asks for one centroid; refs=125 for as many as one monitor's
// share of a `feedback` round, in one exchange.
func BenchmarkRawPull(b *testing.B) {
	cfg := summary.DefaultConfig()
	m, err := NewMonitorSketch(0, cfg, sketch.Config{})
	if err != nil {
		b.Fatal(err)
	}
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(25))
	if err := m.IngestBatch(bg.Batch(cfg.BatchSize)); err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		served <- (&MonitorServer{Monitor: m}).Serve(conn)
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	remote, err := DialMonitorRetry(oneShot(conn), RetryConfig{})
	if err != nil {
		b.Fatal(err)
	}
	ss, _, _, err := remote.Poll(0)
	if err != nil || len(ss) != 1 {
		b.Fatalf("poll: %d summaries, %v", len(ss), err)
	}
	epoch, k := ss[0].Epoch, ss[0].K()

	for _, n := range []int{1, 125} {
		b.Run(fmt.Sprintf("refs=%d", n), func(b *testing.B) {
			refs := make([]wire.RawRef, n)
			b.ReportAllocs()
			b.ResetTimer()
			headers, next := 0, 0
			for i := 0; i < b.N; i++ {
				for j := range refs {
					refs[j] = wire.RawRef{Epoch: epoch, Centroid: next % k}
					next++
				}
				groups, err := remote.RawBatch(refs)
				if err != nil {
					b.Fatal(err)
				}
				for _, g := range groups {
					headers += len(g)
				}
			}
			b.StopTimer()
			if next >= k && headers == 0 {
				b.Fatal("no raw headers served")
			}
		})
	}
	remote.Close()
	if err := <-served; err != nil {
		b.Fatal(err)
	}
}
