package core

import (
	"net"
	"testing"

	"repro/internal/sketch"
	"repro/internal/trafficgen"
)

func TestFinerSummaryInProcess(t *testing.T) {
	m, err := NewMonitorSketch(1, smallSummaryConfig(), sketch.Config{}) // k = 100
	if err != nil {
		t.Fatal(err)
	}
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(21))
	if err := m.IngestBatch(bg.Batch(500)); err != nil {
		t.Fatal(err)
	}
	ss, _, _, err := m.Poll(0)
	if err != nil || len(ss) != 1 {
		t.Fatalf("summaries: %d, %v", len(ss), err)
	}
	coarse := ss[0]

	fine, err := m.FinerSummary(coarse.Epoch, 250)
	if err != nil {
		t.Fatal(err)
	}
	if fine == nil {
		t.Fatal("finer summary must be available while retained")
	}
	if fine.K() != 250 {
		t.Fatalf("finer summary has k=%d, want 250", fine.K())
	}
	total := 0
	for _, c := range fine.Counts {
		total += c
	}
	if total != 500 {
		t.Fatalf("finer summary stands for %d packets, want 500", total)
	}

	// Requesting fewer centroids than the original is not "finer".
	if _, err := m.FinerSummary(coarse.Epoch, 50); err == nil {
		t.Fatal("k below the original must be rejected")
	}

	// Expired batches yield nil: the poll above was the first epoch end
	// since the batch was sealed, the next shipping poll is the second.
	if err := m.IngestBatch(bg.Batch(500)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := m.Poll(1); err != nil {
		t.Fatal(err)
	}
	got, err := m.FinerSummary(coarse.Epoch, 250)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatal("expired batch must yield nil")
	}
}

func TestFinerSummaryOverWire(t *testing.T) {
	m, err := NewMonitorSketch(4, smallSummaryConfig(), sketch.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(22))
	if err := m.IngestBatch(bg.Batch(500)); err != nil {
		t.Fatal(err)
	}

	client, server := net.Pipe()
	go (&MonitorServer{Monitor: m}).Serve(server)
	remote, err := DialMonitor(client)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	ss, _, _, err := remote.Poll(0)
	if err != nil || len(ss) != 1 {
		t.Fatalf("poll: %d, %v", len(ss), err)
	}

	fine, err := remote.FinerSummary(ss[0].Epoch, 200)
	if err != nil {
		t.Fatal(err)
	}
	if fine == nil || fine.K() != 200 {
		t.Fatalf("remote finer summary: %+v", fine)
	}

	// A bogus epoch declines cleanly.
	none, err := remote.FinerSummary(9999, 200)
	if err != nil {
		t.Fatal(err)
	}
	if none != nil {
		t.Fatal("unknown epoch must decline")
	}
}
