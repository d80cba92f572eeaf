package experiments

import (
	"repro/internal/inference"
	"repro/internal/packet"
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
// a time: monitor m summarizes batches of cfg.BatchSize headers with its
// own summarizer seeded cfg.Seed+m, batch b as epoch b, and every summary
// is aggregated. A non-nil fetch also retains each monitor's batches in
// a buffer it can serve raw packets from.
func summarizeTrial(mix *trafficgen.Mixer, cfg summary.Config, monitors, batches int, fetch *monitorFetcher) (*inference.Aggregate, error) {
	var sums []*summary.Summary
	for m := 0; m < monitors; m++ {
		mcfg := cfg
		mcfg.Seed += int64(m)
		szr, err := summary.NewSummarizer(mcfg)
		if err != nil {
			return nil, err
		}
		var buf *summary.Buffer
		if fetch != nil {
			buf = summary.NewBuffer(cfg.BatchSize)
			fetch.buffers[m] = buf
		}
		for b := 0; b < batches; b++ {
			hs := draw(mix, cfg.BatchSize)
			s, err := szr.Summarize(hs, m, uint64(b))
			if err != nil {
				return nil, err
			}
			if buf != nil {
				var batch *summary.Batch
				for _, h := range hs {
					batch, _ = buf.Add(h)
				}
				buf.Retain(batch, s)
			}
			sums = append(sums, s)
		}
	}
	return inference.AggregateSummaries(sums)
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
