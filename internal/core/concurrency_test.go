package core

import (
	"sync"
	"testing"

	"repro/internal/sketch"
	"repro/internal/summary"
	"repro/internal/trafficgen"
	"repro/internal/wire"
)

// TestMonitorConcurrentIngestAndPoll drives a monitor from concurrent
// goroutines the way a deployment does: a packet-ingest loop racing the
// controller's summary polls (each of which ends the monitor's epoch),
// raw fetches and load queries. Run with -race.
func TestMonitorConcurrentIngestAndPoll(t *testing.T) {
	m, err := NewMonitorSketch(1, summary.Config{BatchSize: 200, Rank: 8, Centroids: 40, MinBatch: 50, Seed: 1}, sketch.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(41))
		for i := 0; i < 5000; i++ {
			if err := m.Ingest(bg.Next()); err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
		}
		close(stop)
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			ss, _, _, err := m.Poll(0)
			if err != nil {
				t.Errorf("poll: %v", err)
				return
			}
			for _, s := range ss {
				refs := make([]wire.RawRef, s.K())
				for c := range refs {
					refs[c] = wire.RawRef{Epoch: s.Epoch, Centroid: c}
				}
				if _, err := m.RawBatch(refs); err != nil {
					t.Errorf("raw batch: %v", err)
					return
				}
			}
			m.LoadAndReset()
		}
	}()

	wg.Wait()
}

// TestMonitorIngestDuringSummarizeWindow stresses the lock-free
// summarize window: several ingest goroutines keep feeding the monitor
// while a poll loop forces flush summarizations, raw fetches and epoch
// ends. The monitor releases mu during
// every SVD+k-means, so ingest and compute genuinely overlap; the packet
// conservation check at the end proves no header is lost or double
// counted across the snapshot/summarize/publish handoff. Run with -race.
func TestMonitorIngestDuringSummarizeWindow(t *testing.T) {
	cfg := summary.Config{BatchSize: 150, Rank: 8, Centroids: 30, MinBatch: 40, Seed: 2}
	m, err := NewMonitorSketch(1, cfg, sketch.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const (
		ingesters   = 3
		perIngester = 2000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for g := 0; g < ingesters; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(seed))
			for i := 0; i < perIngester; i++ {
				if err := m.Ingest(bg.Next()); err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
			}
		}(int64(60 + g))
	}
	go func() {
		wg.Wait()
		close(stop)
	}()

	summarized := 0
	collect := func() {
		ss, _, _, err := m.Poll(0)
		if err != nil {
			t.Errorf("poll: %v", err)
			return
		}
		for _, s := range ss {
			summarized += s.BatchSize
			// Hit the retained batch from the same goroutine the
			// controller would: raw fetches race the in-flight ingests.
			m.RawPackets(s.Epoch, 0)
		}
	}
	for done := false; !done; {
		select {
		case <-stop:
			done = true
		default:
		}
		collect()
	}
	// Drain what sealed after the last in-loop collection.
	collect()

	m.mu.Lock()
	pending := m.buf.Pending()
	m.mu.Unlock()
	if got := summarized + pending; got != ingesters*perIngester {
		t.Fatalf("packet conservation: summarized %d + pending %d = %d, want %d",
			summarized, pending, got, ingesters*perIngester)
	}
}

// TestControllerConcurrentEpochs runs inference rounds from multiple
// goroutines against a shared controller; stats and alerts must stay
// consistent. Run with -race.
func TestControllerConcurrentEpochs(t *testing.T) {
	ctrl, err := NewController(ControllerConfig{Env: testEnv(), Questions: testQuestions(t, 1000)})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(seed))
			szr, err := NewMonitorSketch(int(seed), summary.Config{BatchSize: 250, Rank: 8, Centroids: 50, MinBatch: 50, Seed: seed}, sketch.Config{})
			if err != nil {
				t.Error(err)
				return
			}
			for round := 0; round < 3; round++ {
				if err := szr.IngestBatch(bg.Batch(250)); err != nil {
					t.Error(err)
					return
				}
				ss, _, err := szr.CollectSummaries()
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := ctrl.ProcessEpoch(ss); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(50 + g))
	}
	wg.Wait()
	if st := ctrl.Stats(); st.Epochs != 12 {
		t.Fatalf("epochs = %d, want 12", st.Epochs)
	}
}
