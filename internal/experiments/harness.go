package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/inference"
	"repro/internal/packet"
	"repro/internal/sketch"
	"repro/internal/summary"
	"repro/internal/trafficgen"
)

// This file holds the one trial every detection experiment runs: draw a
// mixed batch, summarize it per monitor (§4), aggregate the summaries
// (§5.1).

// draw returns the next n headers of the mixed stream, without labels.
func draw(mix *trafficgen.Mixer, n int) []packet.Header {
	pkts := mix.Batch(n)
	hs := make([]packet.Header, len(pkts))
	for i, lp := range pkts {
		hs[i] = lp.Header
	}
	return hs
}

// summarizeTrial splits the mixed stream across monitors, one monitor at
// a time: monitor m is a core.Monitor with ID m and seed cfg.Seed+m, fed
// batches·cfg.BatchSize headers, so it seals and summarizes batch b as
// its epoch b, and every summary is aggregated. The monitors keep their
// batches' raw packets, so the returned fetcher serves the feedback loop.
func summarizeTrial(mix *trafficgen.Mixer, cfg summary.Config, monitors, batches int) (*inference.Aggregate, monitorFetcher, error) {
	var sums []*summary.Summary
	fetch := make(monitorFetcher, monitors)
	for m := range fetch {
		mcfg := cfg
		mcfg.Seed += int64(m)
		mon, err := core.NewMonitorSketch(m, mcfg, sketch.Config{})
		if err != nil {
			return nil, nil, err
		}
		if err := mon.IngestBatch(draw(mix, batches*cfg.BatchSize)); err != nil {
			return nil, nil, err
		}
		ss, _, err := mon.CollectSummaries()
		if err != nil {
			return nil, nil, err
		}
		sums = append(sums, ss...)
		fetch[m] = mon
	}
	agg, err := inference.AggregateSummaries(sums)
	return agg, fetch, err
}

// monitorFetcher serves raw packets from a trial's monitors; monitor m
// has ID m.
type monitorFetcher []*core.Monitor

func (f monitorFetcher) FetchRaw(ref inference.CentroidRef) ([]packet.Header, int, error) {
	if ref.MonitorID < 0 || ref.MonitorID >= len(f) {
		return nil, 0, fmt.Errorf("experiments: unknown monitor %d", ref.MonitorID)
	}
	hs := f[ref.MonitorID].RawPackets(ref.Epoch, ref.Centroid)
	return hs, len(hs), nil
}

// summarizeBatch summarizes one batch as the given epoch of monitor 0
// and aggregates that summary alone, for experiments that keep one
// summarizer across epochs.
func summarizeBatch(szr *summary.Summarizer, hs []packet.Header, epoch uint64) (*inference.Aggregate, error) {
	s, err := szr.Summarize(hs, 0, epoch)
	if err != nil {
		return nil, err
	}
	return inference.AggregateSummaries([]*summary.Summary{s})
}
