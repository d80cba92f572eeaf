package main

import (
	"fmt"
	"sort"
)

// selfCheckEpochs is the fixed length of a determinism self-check run.
const selfCheckEpochs = 48

// fixedCounts runs one workload for a fixed number of epochs, then the
// layer probe over its first cycle, and returns everything that must be
// a pure function of (workload, seed): the alert hashes, the
// count-derived end-to-end metrics, the failure count and every work
// count of the per-layer ledger.
func fixedCounts(sp spec, seed int64) (map[string]string, error) {
	in, err := prepare(sp, seed)
	if err != nil {
		return nil, err
	}
	d, err := deploy(in, false)
	if err != nil {
		return nil, err
	}
	res, err := d.runAndClose(runLimit{epochs: selfCheckEpochs})
	if err != nil {
		return nil, err
	}
	if len(res.violations) > 0 {
		return nil, fmt.Errorf("correctness violation: %s", res.violations[0])
	}
	tot, err := probe(in, probeEpochs)
	if err != nil {
		return nil, err
	}
	var summaries, flushed, declines, alerts int
	for _, e := range res.epochs {
		summaries += e.summaries
		flushed += e.flushed
		declines += e.declines
		alerts += e.alerts
	}
	out := map[string]string{
		"alert_stream_sha":         res.allSHA,
		"library_alert_stream_sha": res.librarySHA,
		"wire_bytes_per_packet":    fmt.Sprint(ratio(float64(res.wireUp+res.wireDown), float64(res.offered))),
		"detect_latency_epochs":    fmt.Sprint(res.detectLatency),
		"epochs_failed":            fmt.Sprint(res.failed),
	}
	for name, n := range map[string]int64{
		"run.offered": int64(res.offered), "run.digest_offered": int64(res.digestOffered),
		"run.shed": int64(res.shed), "run.kept": int64(res.kept),
		"run.summaries": int64(summaries), "run.flushed": int64(flushed),
		"run.declines": int64(declines), "run.alerts": int64(alerts),
		"run.raw_headers": int64(res.rawHeaders), "run.wire_up": res.wireUp, "run.wire_down": res.wireDown,
		"probe.pkts": int64(tot.pkts), "probe.batches": int64(tot.batches),
		"probe.flush_batches": int64(tot.flushBatches), "probe.kmeans_iters": int64(tot.kmeansIters),
		"probe.summary_bytes": int64(tot.summaryBytes), "probe.elements": int64(tot.elements),
		"probe.frames": int64(tot.frames), "probe.digest_bytes": int64(tot.digestBytes),
		"probe.aggregate_rows": int64(tot.aggRows), "probe.candidates": int64(tot.candidateQuestions),
		"probe.uncertain": int64(tot.uncertain), "probe.raw_headers": tot.rawHeaders.Load(),
	} {
		out[name] = fmt.Sprint(n)
	}
	return out, nil
}

// selfCheck is the determinism self-check: the same seed twice must
// agree on every count and hash, and another seed must change the alert
// stream.
func selfCheck(specs []spec, seed int64) error {
	for _, sp := range specs {
		a, err := fixedCounts(sp, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		b, err := fixedCounts(sp, seed)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		other, err := fixedCounts(sp, seed+1)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
		names := make([]string, 0, len(a))
		for name := range a {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if a[name] != b[name] {
				return fmt.Errorf("%s: %s differs between two runs of seed %d: %s vs %s", sp.name, name, seed, a[name], b[name])
			}
		}
		if a["alert_stream_sha"] == other["alert_stream_sha"] {
			return fmt.Errorf("%s: seeds %d and %d give the same alert stream %s", sp.name, seed, seed+1, a["alert_stream_sha"])
		}
		fmt.Printf("%s: %d epochs twice with seed %d agree on %d counts and hashes; seed %d differs; alert_stream_sha %s\n",
			sp.name, selfCheckEpochs, seed, len(names), seed+1, a["alert_stream_sha"])
	}
	return nil
}
