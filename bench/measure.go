package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/trace"
)

// A run sets the deployment up at least minSetupRounds times, and goes
// on, up to maxSetupRounds, until set-up has taken setupBudget in all:
// setup_s is the median round, and for the three workloads whose set-up
// takes 25 ms one round in three would be too few to be steady. The last
// round's deployment is the one the run measures.
const (
	minSetupRounds = 3
	maxSetupRounds = 15
	setupBudget    = time.Second
)

// undisturbed is the quantile of the per-cycle rates a run reports. The
// machine the benchmark runs on is shared: it slows down for seconds at
// a time when its neighbours are busy and never speeds up, so the upper
// end of a run's cycles is what the code does, and the median is what
// the code and the neighbours do. Over twenty runs of one commit the
// 90th percentile of cycles spread about two thirds as wide as the
// median of cycles.
const undisturbed = 0.90

// outDir is where the traced pass writes its span file, relative to the
// directory the benchmark is run from (the repository root).
var outDir = filepath.Join("bench", "out")

// reconcileTolerance is how far the layer probe's stage times may sum
// away from the span tree's before the traced pass fails.
const reconcileTolerance = 0.15

// environment describes where the numbers were taken.
func environment() string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "unknown" {
		if head, err := os.ReadFile(filepath.Join(".git", "HEAD")); err == nil {
			ref := strings.TrimSpace(strings.TrimPrefix(string(head), "ref: "))
			if sha, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
				ref = strings.TrimSpace(string(sha))
			}
			commit = ref
		}
	}
	return fmt.Sprintf("bench: nproc=%d GOMAXPROCS=%d %s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// setUp prepares the inputs and deploys, several times over, and returns
// the last deployment with the median duration in seconds.
func setUp(sp spec, seed int64) (*deployment, float64, error) {
	var durs []float64
	began := time.Now()
	for round := 1; ; round++ {
		start := time.Now()
		in, err := prepare(sp, seed)
		if err != nil {
			return nil, 0, err
		}
		d, err := deploy(in, false)
		if err != nil {
			return nil, 0, err
		}
		durs = append(durs, time.Since(start).Seconds())
		if round == maxSetupRounds || round >= minSetupRounds && time.Since(began) >= setupBudget {
			return d, median(durs), nil
		}
		if err := d.close(); err != nil {
			return nil, 0, err
		}
	}
}

// measure runs one pass of one workload and builds its report.
func measure(sp spec, seed int64, limit runLimit, traced bool) (*report, error) {
	if traced {
		return measureLayers(sp, seed, limit)
	}
	d, setup, err := setUp(sp, seed)
	if err != nil {
		return nil, err
	}
	res, err := d.runAndClose(limit)
	if err != nil {
		return nil, err
	}
	if sp.genRules > 0 {
		if err := checkLibraryStream(sp, seed, res); err != nil {
			return nil, err
		}
	}

	rep := newReport(sp, seed, res)
	var perSec, perCPU, closeP50 []float64
	for _, c := range res.cycles {
		perSec = append(perSec, ratio(float64(c.pkts), c.wall.Seconds()))
		perCPU = append(perCPU, ratio(float64(c.pkts), c.cpu.Seconds()))
		closeP50 = append(closeP50, c.closeP50)
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("measured %d epochs in %d cycles over %.2fs: feed %.0f%% / close %.0f%% of wall; epoch close is a median of %d epochs per cycle",
			len(res.epochs), len(res.cycles), res.measureWall.Seconds(),
			100*ratio(float64(res.feedWall), float64(res.measureWall)),
			100*ratio(float64(res.closeWall), float64(res.measureWall)), sp.cycleEpochs()),
		fmt.Sprintf("harness.traffic_mb %.1f", float64(d.in.tr.total)/(1<<20)))
	err = rep.fill(endToEnd, map[string]float64{
		"setup_s":               setup,
		"packets_per_s":         percentile(perSec, undisturbed),
		"packets_per_cpu_s":     percentile(perCPU, undisturbed),
		"epoch_close_ms_p50":    percentile(closeP50, 1-undisturbed),
		"detect_latency_epochs": res.detectLatency,
		"detected_epoch_share":  ratio(float64(res.activeEpochs-res.missed), float64(res.activeEpochs)),
		"wire_bytes_per_packet": ratio(float64(res.wireUp+res.wireDown), float64(res.offered)),
		"peak_rss_mb":           res.peakRSS,
	})
	return rep, err
}

// newReport starts a report with what both passes share: the failure
// counts, the violations and the notes that let two runs be compared by
// eye.
func newReport(sp spec, seed int64, res *runResult) *report {
	return &report{
		Correct:    len(res.violations) == 0,
		Attempted:  res.attempted,
		Failed:     res.failed,
		workload:   sp.name,
		violations: res.violations,
		notes: []string{
			fmt.Sprintf("seed %d; epochs_attempted %d, epochs_failed %d; %d attack windows, %d of %d attack epochs undetected, false alerts in %d of %d clean epochs",
				seed, res.attempted, res.failed, res.windows, res.missed, res.activeEpochs, res.falseAlerts, res.cleanEpochs),
			fmt.Sprintf("alert_stream_sha %s (first %d cycles)", res.allSHA, hashCycles),
		},
	}
}

// checkLibraryStream is ruleset10k's cross-check: generated rules must
// not change what the library rules alert on. It replays the epochs the
// alert hash covers through a deployment with only the library rules
// (backbone's) and compares the library alert streams.
func checkLibraryStream(sp spec, seed int64, res *runResult) error {
	ref := sp
	ref.genRules = 0
	in, err := prepare(ref, seed)
	if err != nil {
		return err
	}
	d, err := deploy(in, false)
	if err != nil {
		return err
	}
	n := min(res.first+len(res.epochs), hashCycles*sp.cycleEpochs())
	refRes, err := d.runAndClose(runLimit{epochs: n})
	if err != nil {
		return err
	}
	if refRes.librarySHA != res.librarySHA {
		res.violations = append(res.violations, fmt.Sprintf(
			"library alert stream differs from the library-only deployment's over the first %d epochs: %s vs %s",
			n, res.librarySHA, refRes.librarySHA))
	}
	return nil
}

// measureLayers is the traced pass. It measures the same closed loop
// twice for a third of the time each — untraced, then with the span
// tree around the core calls and the program's own epoch tracing on —
// and steps the layer probe between the traced run's epochs, which
// takes about the remaining third.
func measureLayers(sp spec, seed int64, limit runLimit) (*report, error) {
	limit.seconds /= 3
	in, err := prepare(sp, seed)
	if err != nil {
		return nil, err
	}
	// The probe steps between the traced run's first measured epochs, so
	// that both are timed under the same machine conditions.
	pr, err := newProber(in)
	if err != nil {
		return nil, err
	}
	pass := func(traced bool) (*deployment, *runResult, error) {
		d, err := deploy(in, traced)
		if err != nil {
			return nil, nil, err
		}
		if traced {
			d.afterEpoch = func() error {
				if pr.tot.epochs == probeWindows*probeEpochs {
					return nil
				}
				return pr.step()
			}
		}
		res, err := d.runAndClose(limit)
		return d, res, err
	}
	_, plain, err := pass(false)
	if err != nil {
		return nil, err
	}
	d, res, err := pass(true)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	if err := writeSpans(sp.name, d.rec.spans); err != nil {
		return nil, err
	}
	tot, cycle := pr.tot, sp.cycleEpochs()
	self, err := selfCost(in, min(tot.epochs, cycle))
	if err != nil {
		return nil, err
	}

	// What the span tree saw of the probed epochs, process_epoch as its
	// self time. The probe must reconcile over one of its windows: a
	// probe that has drifted is off in every window, a neighbour's burst
	// on the machine is not.
	waits := rawFetchCover(d.rec.spans)
	spans := make([]time.Duration, tot.epochs)
	for i := range spans {
		e := res.epochs[i]
		spans[i] = e.feed[0] + e.feed[1] + e.poll + e.process - waits[res.first+i]
	}
	var gap, epochGap float64
	var drift error
	for lo := 0; lo < tot.epochs; lo += probeEpochs {
		hi := min(lo+probeEpochs, tot.epochs)
		if hi-lo < probeEpochs && lo > 0 {
			break // a partial window after a whole one
		}
		g, eg, err := reconcile(tot.busy[lo:hi], spans[lo:hi], reconcileTolerance)
		if lo == 0 || math.Abs(g) < math.Abs(gap) {
			gap, epochGap, drift = g, eg, err
		}
	}

	rep := newReport(sp, seed, res)
	rep.violations = append(rep.violations, plain.violations...)
	if drift != nil {
		rep.drift = drift.Error()
	}
	rep.Correct = len(rep.violations) == 0 && drift == nil
	rep.notes = append(rep.notes,
		fmt.Sprintf("traced %d epochs in %d cycles, untraced %d in %d, probed %d", len(res.epochs), len(res.cycles), len(plain.epochs), len(plain.cycles), tot.epochs),
		spanShares(res), tot.layerShares())
	err = rep.fill(perLayer, layerMetrics(in, d, plain, res, tot, self, gap, epochGap))
	return rep, err
}

// spanShares says where the traced epochs' wall time went, by the spans
// around the core calls.
func spanShares(res *runResult) string {
	var feed, poll, observe, process, send, sink, total time.Duration
	for _, e := range res.epochs {
		f := maxDuration(e.feed[:])
		feed += f
		poll += e.poll
		observe += e.observe
		process += e.process
		send += e.send
		sink += e.sinkWait
		total += f + e.closeDur
	}
	pct := func(d time.Duration) float64 { return 100 * ratio(float64(d), float64(total)) }
	return fmt.Sprintf("span shares of epoch wall: feed %.1f%% poll %.1f%% observe_digests %.1f%% process_epoch %.1f%% alert_send %.1f%% sink_wait %.1f%%",
		pct(feed), pct(poll), pct(observe), pct(process), pct(send), pct(sink))
}

// layerShares says where the probed epochs' busy time went, by layer.
func (t *probeTotals) layerShares() string {
	raw := time.Duration(t.rawCodec.Load() + t.rawMatch.Load())
	parts := []struct {
		name string
		d    time.Duration
	}{
		{"packet.decode", t.decode}, {"sketch.observe", t.observe}, {"summary.buffer", t.buffer},
		{"summary+linalg.summarize", t.summarize}, {"summary.codec", t.marshal + t.unmarshal},
		{"sketch.digest", t.digest}, {"wire.frames", t.frameWrite + t.frameRead},
		{"inference.aggregate", t.aggregate}, {"rules+inference.candidates", t.candidates},
		{"inference.evaluate", t.evaluate}, {"inference.feedback", max(0, t.feedback-raw)},
		{"packet.rawbatch+snort", raw}, {"inference.alerts", t.alertBuild},
	}
	var total time.Duration
	for _, p := range parts {
		total += p.d
	}
	out := "probe shares of busy time:"
	for _, p := range parts {
		out += fmt.Sprintf(" %s %.1f%%", p.name, 100*ratio(float64(p.d), float64(total)))
	}
	return out
}

// rawFetchCover returns, per epoch, how much of the process_epoch span
// its raw_fetch children cover: the length of the union of their
// intervals, since fetches of one epoch overlap.
func rawFetchCover(spans []span) map[int]time.Duration {
	byEpoch := make(map[int][]span)
	for _, sp := range spans {
		if sp.Name == "raw_fetch" {
			byEpoch[sp.Epoch] = append(byEpoch[sp.Epoch], sp)
		}
	}
	out := make(map[int]time.Duration, len(byEpoch))
	for epoch, fetches := range byEpoch {
		sort.Slice(fetches, func(i, j int) bool { return fetches[i].Start < fetches[j].Start })
		var covered, end int64
		for _, f := range fetches {
			if f.Start > end {
				end = f.Start
			}
			if f.End > end {
				covered += f.End - end
				end = f.End
			}
		}
		out[epoch] = time.Duration(covered)
	}
	return out
}

// selfCost times the feed loop with nothing behind it, decoding only,
// over up to one cycle, and returns nanoseconds per packet.
func selfCost(in *inputs, epochs int) (float64, error) {
	pkts := 0
	start := time.Now()
	for c := 0; c < epochs; c++ {
		for m := 0; m < numMonitors; m++ {
			if err := decodeOnly(in.tr.bytes[c][m]); err != nil {
				return 0, err
			}
			pkts += in.tr.pkts[c][m]
		}
	}
	return ratio(float64(time.Since(start)), float64(pkts)), nil
}

// layerMetrics derives the per-layer metrics: times from the traced run
// (res, through deployment d) and the probe, byte and allocation counts
// from the untraced run of the same pass (plain), whose frames carry no
// trace trailer.
func layerMetrics(in *inputs, d *deployment, plain, res *runResult, tot *probeTotals, selfPerPkt, gap, epochGap float64) map[string]float64 {
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	ns := func(d time.Duration) float64 { return float64(d) }

	epochs := float64(len(res.epochs))
	pkts := float64(res.offered)
	var feedBusy, skew, poll, observe, process, send, sinkWait time.Duration
	var summaries, flushed, declines, alerts, degraded float64
	intrace := make(map[trace.Stage]time.Duration)
	for _, e := range res.epochs {
		feedBusy += e.feed[0] + e.feed[1]
		skew += (e.feed[0] - e.feed[1]).Abs()
		poll += e.poll
		observe += e.observe
		process += e.process
		send += e.send
		sinkWait += e.sinkWait
		summaries += float64(e.summaries)
		flushed += float64(e.flushed)
		declines += float64(e.declines)
		alerts += float64(e.alerts)
		if e.failure != "" {
			degraded++
		}
		for st, dur := range e.intrace {
			intrace[st] += dur
		}
	}
	var plainWall, tracedWall []float64
	for _, c := range plain.cycles {
		plainWall = append(plainWall, c.wall.Seconds())
	}
	for _, c := range res.cycles {
		tracedWall = append(tracedWall, c.wall.Seconds())
	}
	plainEpochs, plainPkts := float64(len(plain.epochs)), float64(plain.offered)
	var plainCloses []float64
	for _, e := range plain.epochs {
		plainCloses = append(plainCloses, ms(e.closeDur))
	}

	pe, pp := float64(tot.epochs), float64(tot.pkts)
	batches, psum := float64(tot.batches), float64(tot.summaries)
	rawCalls := float64(d.rawCalls.Load())

	return map[string]float64{
		"packet.decode_ns_per_pkt":         ratio(ns(tot.decode), pp),
		"packet.decode_fail":               0, // a decode failure is fatal, so a reported run had none
		"packet.normalize_ns_per_pkt":      ratio(ns(tot.normalize), float64(tot.batchPkts)),
		"packet.rawbatch_codec_ns_per_hdr": ratio(float64(tot.rawCodec.Load()), float64(tot.rawHeaders.Load())),

		"sketch.observe_ns_per_pkt":     ratio(ns(tot.observe), pp),
		"sketch.offered_pkts":           ratio(float64(plain.digestOffered), plainEpochs),
		"sketch.kept_pkts":              ratio(float64(plain.kept), plainEpochs),
		"sketch.shed_share":             ratio(float64(plain.shed), float64(plain.digestOffered)),
		"sketch.digest_us_per_epoch":    ratio(us(tot.digest), pe),
		"sketch.digest_bytes_per_epoch": ratio(float64(tot.digestBytes), pe),

		"summary.buffer_add_ns_per_pkt":    ratio(ns(tot.buffer), pp),
		"summary.summarize_ms_per_batch":   ratio(ms(tot.summarize), batches),
		"summary.summarize_ns_per_pkt":     ratio(ns(tot.summarize), float64(tot.batchPkts)),
		"summary.batches":                  ratio(summaries, epochs),
		"summary.flush_batches":            ratio(flushed, epochs),
		"summary.flush_share":              ratio(flushed, summaries),
		"summary.marshal_us_per_summary":   ratio(us(tot.marshal), psum),
		"summary.unmarshal_us_per_summary": ratio(us(tot.unmarshal), psum),
		"summary.bytes_per_summary":        ratio(float64(tot.summaryBytes), psum),
		"summary.elements_per_pkt":         ratio(float64(tot.elements), pp),
		"summary.allocs_per_batch":         ratio(float64(tot.summarizeMallocs), batches),

		"linalg.svd_ms_per_batch":       ratio(ms(tot.svd), batches),
		"linalg.kmeans_ms_per_batch":    ratio(ms(tot.kmeans), batches),
		"linalg.kmeans_iters_per_batch": ratio(float64(tot.kmeansIters), batches),
		"linalg.share_of_summarize":     ratio(float64(tot.svd+tot.kmeans), float64(tot.summarize)),

		"wire.frame_write_ns_per_frame": ratio(ns(tot.frameWrite), float64(tot.frames)),
		"wire.frame_read_ns_per_frame":  ratio(ns(tot.frameRead), float64(tot.frames)),
		// One request per monitor, its summaries and the closing decline,
		// a request and a batch per raw fetch, and the alerts.
		"wire.frames_per_epoch":   ratio(2*numMonitors*epochs+summaries+2*rawCalls+alerts, epochs),
		"wire.up_bytes_per_pkt":   ratio(float64(plain.wireUp), plainPkts),
		"wire.down_bytes_per_pkt": ratio(float64(plain.wireDown), plainPkts),

		"core.ingest_ns_per_pkt":            ratio(ns(feedBusy), pkts) - selfPerPkt,
		"core.ingest_busy_share":            ratio(float64(feedBusy), numMonitors*float64(res.measureWall)),
		"core.epoch_skew_ms":                ratio(ms(skew), epochs),
		"core.poll_ms_per_epoch":            ratio(ms(poll), epochs),
		"core.poll_declines":                ratio(declines, epochs),
		"core.poll_degraded":                ratio(degraded, epochs),
		"core.observe_digests_us_per_epoch": ratio(us(observe), epochs),
		"core.process_epoch_ms_per_epoch":   ratio(ms(process), epochs),
		"core.raw_fetch_calls_per_epoch":    ratio(rawCalls, float64(res.first)+epochs),
		"core.raw_fetch_ms_per_epoch":       ratio(float64(d.rawNanos.Load())/1e6, float64(res.first)+epochs),
		"core.raw_fetch_hdrs_per_pkt":       ratio(float64(plain.rawHeaders), plainPkts),
		"core.alert_send_us_per_alert":      ratio(us(send), alerts),
		"core.alert_sink_lag_us":            ratio(us(sinkWait), epochs),
		"core.epoch_close_ms_p95":           percentile(plainCloses, 0.95),
		"core.alerts_per_epoch":             ratio(alerts, epochs),

		"inference.aggregate_us_per_epoch":   ratio(us(tot.aggregate), pe),
		"inference.aggregate_rows":           ratio(float64(tot.aggRows), pe),
		"inference.candidates_us_per_epoch":  ratio(us(tot.candidates), pe),
		"inference.candidate_share":          ratio(float64(tot.candidateQuestions), pe*float64(tot.questions)),
		"inference.evaluate_ms_per_epoch":    ratio(ms(tot.evaluate), pe),
		"inference.evaluate_ns_per_question": ratio(ns(tot.evaluate), float64(tot.evaluated)),
		"inference.feedback_ms_per_epoch":    ratio(ms(tot.feedback), pe),
		"inference.uncertain_share":          ratio(float64(tot.uncertain), float64(tot.feedbackRuns)),
		"inference.false_alert_share":        ratio(float64(plain.falseAlerts), float64(plain.cleanEpochs)),

		"rules.questions":      float64(tot.questions),
		"rules.translate_ms":   ms(in.translate),
		"rules.index_build_ms": ms(d.indexBuild),

		"snort.raw_match_ns_per_hdr": ratio(float64(tot.rawMatch.Load()), float64(tot.rawMatchHeaders.Load())),

		"runtime.alloc_bytes_per_pkt": ratio(float64(plain.mem.allocBytes), plainPkts),
		"runtime.allocs_per_pkt":      ratio(float64(plain.mem.mallocs), plainPkts),
		"runtime.gc_cycles":           ratio(float64(plain.mem.gcCycles), plainEpochs),
		"runtime.gc_pause_ms_total":   ratio(ms(plain.mem.gcPause), plainEpochs),
		"runtime.heap_peak_mb":        float64(plain.mem.heapPeak) / (1 << 20),

		"harness.traffic_mb":        float64(in.tr.total) / (1 << 20),
		"harness.self_ns_per_pkt":   selfPerPkt,
		"trace.overhead_share":      ratio(median(tracedWall), median(plainWall)) - 1,
		"probe.reconcile_gap_share": gap,
		"probe.epoch_gap_p50":       epochGap,

		"summary.summarize_ms_intrace": ratio(ms(intrace[trace.StageSummarize]), epochs),
		"summary.encode_ms_intrace":    ratio(ms(intrace[trace.StageEncode]), epochs),
		"summary.decode_ms_intrace":    ratio(ms(intrace[trace.StageDecode]), epochs),
		"wire.ship_ms_intrace":         ratio(ms(intrace[trace.StageShip]), epochs),
		"inference.infer_ms_intrace":   ratio(ms(intrace[trace.StageInfer]), epochs),
		"core.raw_fetch_ms_intrace":    ratio(ms(intrace[trace.StageRawFetch]), epochs),
		"core.alert_emit_ms_intrace":   ratio(ms(intrace[trace.StageAlertEmit]), epochs),
	}
}

// writeSpans writes the traced run's span tree where a person can load
// it: one JSON array, spans in the order they were opened.
func writeSpans(workload string, spans []span) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+workload+".json"), data, 0o644)
}
