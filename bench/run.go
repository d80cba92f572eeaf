package main

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// hashCycles is how many cycles from the start of a run the alert
// hashes cover. A time-bound run always gets that far (the warm-up cycle
// plus the first two timed ones), so the hash is a function of
// (workload, seed) however many cycles the run went on to do.
const hashCycles = 3

// minTimedCycles is the fewest cycles a time-bound run measures: the
// rate metrics are a quantile over cycles.
const minTimedCycles = 3

// runLimit says when a run ends. With epochs set it runs exactly that
// many epochs and skips the warm-up, so every count it reports is a
// pure function of (workload, seed, epochs); otherwise it warms up for
// one cycle and then measures whole cycles for about seconds.
type runLimit struct {
	seconds float64
	epochs  int
}

// epochRecord is what the harness saw of one epoch.
type epochRecord struct {
	// feed is each feeder's busy time; closeDur runs from the barrier
	// after the last Ingest to the sink having seen the epoch's last
	// alert.
	feed     [numMonitors]time.Duration
	closeDur time.Duration
	// The controller goroutine's phases, in order.
	poll, observe, process, send, sinkWait time.Duration
	// intrace sums the program's own spans for the epoch by stage
	// (traced run only).
	intrace map[trace.Stage]time.Duration

	summaries, flushed, declines int
	alerts                       int
	// offered, shed and kept sum the epoch's sketch digests (zero when
	// the sketch is off).
	offered, shed, kept uint64
	// library holds the IDs of the epoch's alerts that did not come from
	// generated rules, in the order raised.
	library []rules.AttackID
	// failure is why the epoch did not make it through the deployment,
	// if it did not.
	failure     string
	victimNamed bool
}

// cycleRecord is one measured cycle: every time-based end-to-end metric
// is computed per cycle first, and the run reports a quantile over its
// cycles.
type cycleRecord struct {
	wall, cpu time.Duration
	pkts      int
	// closeP50 is the median epoch close of the cycle's epochs, in
	// milliseconds.
	closeP50 float64
}

// runResult is everything one run of one deployment produced.
type runResult struct {
	epochs []epochRecord
	cycles []cycleRecord
	// first is the global epoch number of epochs[0]: the warm-up length.
	first int
	// offered counts packets fed in the measured epochs; the next three
	// come from the sketch digests and are zero without the sketch.
	offered                   int
	digestOffered, shed, kept uint64
	wireUp, wireDown          int64
	rawHeaders                int
	peakRSS                   float64
	mem                       memDelta
	allSHA, librarySHA        string
	attempted, failed         int
	// missed of activeEpochs attack epochs raised no accepted alert;
	// falseAlerts of cleanEpochs clean ones raised an unaccepted one.
	missed, activeEpochs             int
	falseAlerts, cleanEpochs         int
	detectLatency                    float64
	windows                          int
	violations                       []string
	feedWall, closeWall, measureWall time.Duration
}

// memDelta is the Go runtime's accounting over the measured epochs.
type memDelta struct {
	allocBytes, mallocs uint64
	gcCycles            uint32
	gcPause             time.Duration
	heapPeak            uint64
}

// feed decodes one monitor's share of an epoch and ingests it: the
// timed path from header bytes to the monitor.
func feed(mon *core.Monitor, buf []byte) error {
	var h packet.Header
	for off := 0; off < len(buf); {
		n, _, err := h.UnmarshalIPv4(buf[off:])
		if err != nil {
			return fmt.Errorf("decode at byte %d: %w", off, err)
		}
		off += n
		if err := mon.Ingest(h); err != nil {
			return err
		}
	}
	return nil
}

// decodeOnly is feed with nothing behind it: the harness's own share of
// the feed loop.
func decodeOnly(buf []byte) error {
	var h packet.Header
	for off := 0; off < len(buf); {
		n, _, err := h.UnmarshalIPv4(buf[off:])
		if err != nil {
			return fmt.Errorf("decode at byte %d: %w", off, err)
		}
		off += n
	}
	return nil
}

// runEpoch is the closed loop's body for global epoch g: both feeders,
// a barrier, then the controller's epoch exactly as the
// cmd/jaal-controller ticker body runs it. When core grows a single
// epoch engine, everything after the barrier becomes one call.
func (d *deployment) runEpoch(g int, sent *int64) epochRecord {
	var rec epochRecord
	c := g % d.in.sp.cycleEpochs()
	fail := func(format string, args ...any) {
		if rec.failure == "" {
			rec.failure = fmt.Sprintf(format, args...)
		}
	}

	start := time.Now()
	root := d.rec.begin("epoch", g, -1, start)
	d.curEpoch.Store(int64(g))
	var (
		wg       sync.WaitGroup
		feedErrs [numMonitors]error
		feedEnds [numMonitors]time.Time
	)
	for m := 0; m < numMonitors; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			feedErrs[m] = feed(d.monitors[m], d.in.tr.bytes[c][m])
			feedEnds[m] = time.Now()
		}(m)
	}
	wg.Wait()
	fed := time.Now()
	for m := 0; m < numMonitors; m++ {
		rec.feed[m] = feedEnds[m].Sub(start)
		d.rec.add(fmt.Sprintf("feed.m%d", m), g, root, start, feedEnds[m])
		if feedErrs[m] != nil {
			fail("monitor %d: %v", m, feedErrs[m])
		}
	}

	epochN := d.ctrl.Epoch()
	res := d.poller.Poll(epochN)
	polled := time.Now()
	d.rec.add("poll", g, root, fed, polled)
	if res.Degraded {
		fail("poll degraded")
	}
	for _, dec := range res.Declines {
		if dec.Unreachable() {
			fail("monitor %d unreachable: %v", dec.MonitorID, dec.Err)
		}
	}
	rec.declines = len(res.Declines)
	rec.summaries = len(res.Summaries)
	for _, s := range res.Summaries {
		if s.BatchSize < summaryConfig(0).BatchSize {
			rec.flushed++
		}
	}

	for _, dg := range res.Digests {
		rec.offered += dg.Offered
		rec.shed += dg.Shed
		rec.kept += dg.Kept
	}
	d.digestOffered += rec.offered
	d.digestShed += rec.shed
	rep := d.ctrl.ObserveDigests(epochN, res.Digests)
	observed := time.Now()
	d.rec.add("observe_digests", g, root, polled, observed)
	if rep != nil {
		for _, v := range rep.Verdicts {
			if v.Dimension == "dst" && v.Addr == scenario.Victim {
				rec.victimNamed = true
			}
		}
	}

	d.curProcess.Store(int64(d.rec.begin("process_epoch", g, root, observed)))
	alerts, err := d.ctrl.ProcessEpoch(res.Summaries)
	processed := time.Now()
	d.rec.end(int(d.curProcess.Load()), processed)
	if err != nil {
		fail("process epoch: %v", err)
	}

	for _, a := range alerts {
		if err := d.alerts.Send(a); err != nil {
			fail("alert send: %v", err)
			continue
		}
		*sent++
		if !strings.HasPrefix(string(a.Attack), genPrefix) {
			rec.library = append(rec.library, a.Attack)
		}
	}
	rec.alerts = len(alerts)
	shipped := time.Now()
	d.rec.add("alert_send", g, root, processed, shipped)
	if !d.sink.wait(*sent) {
		fail("sink saw %d of %d alerts within %v", d.sink.seen.Load(), *sent, sinkTimeout)
	}
	closed := time.Now()
	d.rec.add("sink_wait", g, root, shipped, closed)

	// One load query per monitor ends the epoch. It is the
	// flow-assignment module's poll, and here it is also a fence:
	// MonitorServer advances the monitor's epoch (and resets its sketch)
	// after it has written the poll's last frame, so without a further
	// exchange on the connection the next epoch's first packets could be
	// ingested before the reset and wiped by it.
	for _, rm := range d.remotes {
		if _, err := rm.QueryLoad(); err != nil {
			fail("load query: %v", err)
		}
	}
	fenced := time.Now()
	d.rec.add("load_query", g, root, closed, fenced)
	d.rec.end(root, fenced)

	if et := trace.FinishEpoch(epochN, len(alerts)); et != nil {
		rec.intrace = make(map[trace.Stage]time.Duration)
		for _, sp := range et.Spans {
			rec.intrace[sp.Stage] += time.Duration(sp.Dur)
		}
	}

	rec.closeDur = closed.Sub(fed)
	rec.poll, rec.observe, rec.process = polled.Sub(fed), observed.Sub(polled), processed.Sub(observed)
	rec.send, rec.sinkWait = shipped.Sub(processed), closed.Sub(shipped)
	return rec
}

// run drives the deployment through its closed loop and scores it.
func (d *deployment) run(limit runLimit) (*runResult, error) {
	sp := d.in.sp
	cycle := sp.cycleEpochs()
	res := &runResult{}
	var sent int64
	g := 0
	epoch := func() epochRecord {
		d.sink.hashing.Store(g < hashCycles*cycle)
		rec := d.runEpoch(g, &sent)
		g++
		return rec
	}

	if limit.epochs == 0 {
		for i := 0; i < cycle; i++ {
			if rec := epoch(); rec.failure != "" {
				return nil, fmt.Errorf("warm-up epoch %d: %s", i, rec.failure)
			}
		}
		res.first = cycle
	}

	up0, down0 := d.wire.up.Load(), d.wire.down.Load()
	stats0 := d.ctrl.Stats()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mem0 := ms
	// skipWall and skipCPU total the time spent in afterEpoch; every
	// later reading of the clocks is taken back by them.
	var skipWall, skipCPU time.Duration
	began := time.Now()
	cycleStart, cycleCPU, cyclePkts := began, cpuNow(), 0
	cycleFirst := 0 // index in res.epochs of the running cycle's first epoch
	for {
		c := g % cycle
		rec := epoch()
		res.epochs = append(res.epochs, rec)
		for m := 0; m < numMonitors; m++ {
			cyclePkts += d.in.tr.pkts[c][m]
		}
		res.feedWall += maxDuration(rec.feed[:])
		res.digestOffered += rec.offered
		res.shed += rec.shed
		res.kept += rec.kept
		res.closeWall += rec.closeDur
		rss, err := rssMiB()
		if err != nil {
			return nil, err
		}
		res.peakRSS = max(res.peakRSS, rss)
		if d.afterEpoch != nil {
			// The traced pass steps its layer probe here. Its time is
			// not the deployment's: it comes off the cycle's wall and
			// CPU time below.
			t, c0 := time.Now(), cpuNow()
			if err := d.afterEpoch(); err != nil {
				return nil, err
			}
			skipWall += time.Since(t)
			skipCPU += cpuNow() - c0
		}

		done := limit.epochs > 0 && len(res.epochs) == limit.epochs
		if c == cycle-1 || done {
			now, cpu := time.Now().Add(-skipWall), cpuNow()-skipCPU
			// A trailing partial cycle of a fixed-epoch run has another
			// traffic mix than a whole one, so it stays out of the rate
			// medians unless it is all there is.
			if c == cycle-1 || len(res.cycles) == 0 {
				var closes []float64
				for _, e := range res.epochs[cycleFirst:] {
					closes = append(closes, float64(e.closeDur)/1e6)
				}
				res.cycles = append(res.cycles, cycleRecord{
					wall: now.Sub(cycleStart), cpu: cpu - cycleCPU, pkts: cyclePkts, closeP50: median(closes),
				})
			}
			cycleFirst = len(res.epochs)
			res.offered += cyclePkts
			runtime.ReadMemStats(&ms)
			res.mem.heapPeak = max(res.mem.heapPeak, ms.HeapInuse)
			last := now.Sub(cycleStart)
			cycleStart, cycleCPU, cyclePkts = now, cpu, 0
			if done {
				break
			}
			if limit.epochs == 0 && len(res.cycles) >= minTimedCycles &&
				now.Sub(began)+last/2 >= time.Duration(limit.seconds*float64(time.Second)) {
				break
			}
		}
	}
	res.measureWall = time.Since(began) - skipWall
	res.wireUp, res.wireDown = d.wire.up.Load()-up0, d.wire.down.Load()-down0
	res.mem.allocBytes = ms.TotalAlloc - mem0.TotalAlloc
	res.mem.mallocs = ms.Mallocs - mem0.Mallocs
	res.mem.gcCycles = ms.NumGC - mem0.NumGC
	res.mem.gcPause = time.Duration(ms.PauseTotalNs - mem0.PauseTotalNs)
	res.allSHA, res.librarySHA = shaHex(d.sink.all), shaHex(d.sink.library)
	d.score(res)
	d.check(res, stats0, sent)
	return res, nil
}

// runAndClose runs the deployment and tears it down, reporting the first
// error of the two.
func (d *deployment) runAndClose(limit runLimit) (*runResult, error) {
	res, err := d.run(limit)
	if cerr := d.close(); err == nil {
		err = cerr
	}
	return res, err
}

func maxDuration(ds []time.Duration) time.Duration {
	var out time.Duration
	for _, d := range ds {
		out = max(out, d)
	}
	return out
}

// score grades the measured epochs against the ground truth, with the
// scoreboard's semantics: an alert in epoch e also covers activity of
// epoch e-1, because a batch below n_min at the epoch boundary is
// summarized one epoch late.
func (d *deployment) score(res *runResult) {
	sp := d.in.sp
	cycle := sp.cycleEpochs()
	truthAt := func(i int) rules.AttackID {
		if i < 0 {
			return ""
		}
		return sp.activeAttack((res.first + i) % cycle)
	}
	hit := func(i int, truth rules.AttackID) bool {
		if i >= len(res.epochs) {
			return false
		}
		for _, id := range res.epochs[i].library {
			if accepts(id, truth) {
				return true
			}
		}
		return false
	}
	var latencies []float64
	for i := range res.epochs {
		rec := &res.epochs[i]
		res.attempted++
		truth := truthAt(i)
		// An epoch fails when it did not make it through the deployment:
		// a decode or ingest error, a degraded poll, an inference or
		// alert-delivery error, a sink that did not acknowledge.
		// Detection quality is reported as shares instead. The background
		// carries benign bursts that look like attacks on purpose, so at
		// this operating point a few clean epochs alert and, on some
		// seeds, an attack epoch goes unnoticed; how many depends on how
		// many cycles a run fits into its seconds. Counted as failures
		// they would hold faster code to fewer of them per second.
		if rec.failure != "" {
			res.failed++
		}
		switch {
		case truth != "":
			res.activeEpochs++
			if !hit(i, truth) && !hit(i+1, truth) {
				res.missed++
			}
		default:
			res.cleanEpochs++
			for _, id := range rec.library {
				if prev := truthAt(i - 1); prev == "" || !accepts(id, prev) {
					res.falseAlerts++
					break
				}
			}
		}
		// Detection latency, once per window, counted from 1: an alert
		// in the onset epoch scores 1, so the metric is never 0. A
		// window nobody alerted on scores its length plus 2 (one past
		// the carry-over epoch).
		if truth != "" && truthAt(i-1) == "" && i+periodActive < len(res.epochs) {
			lat := float64(periodActive + 2)
			for k := 0; k <= periodActive; k++ {
				if hit(i+k, truth) {
					lat = float64(k + 1)
					break
				}
			}
			latencies = append(latencies, lat)
		}
	}
	res.windows = len(latencies)
	res.detectLatency = mean(latencies)
}

// check runs the output correctness checks. Any violation makes the
// run incorrect.
func (d *deployment) check(res *runResult, stats0 core.Stats, sent int64) {
	violate := func(format string, args ...any) {
		res.violations = append(res.violations, fmt.Sprintf(format, args...))
	}
	sp := d.in.sp
	stats := d.ctrl.Stats()
	res.rawHeaders = stats.RawPacketsFetched - stats0.RawPacketsFetched

	if got := d.sink.seen.Load(); got != int64(stats.AlertsRaised) || got != sent {
		violate("sink saw %d alerts, controller raised %d, harness sent %d", got, stats.AlertsRaised, sent)
	}
	for i, rec := range res.epochs {
		if rec.failure != "" {
			violate("epoch %d: %s", res.first+i, rec.failure)
		}
		if sp.shed && sp.activeAttack((res.first+i)%sp.cycleEpochs()) != "" && !rec.victimNamed {
			violate("epoch %d: volumetric report does not name the victim", res.first+i)
		}
	}

	// Everything fed must be accounted for: summarized, shed by the
	// sketch, or still buffered. Draining the monitors directly shows
	// what is still buffered; it is the last thing done to them.
	fedTotal := 0
	for g := 0; g < res.first+len(res.epochs); g++ {
		for m := 0; m < numMonitors; m++ {
			fedTotal += d.in.tr.pkts[g%sp.cycleEpochs()][m]
		}
	}
	buffered := 0
	for _, mon := range d.monitors {
		ss, pending, err := mon.CollectSummaries()
		if err != nil {
			violate("drain monitor %d: %v", mon.ID(), err)
		}
		buffered += pending
		for _, s := range ss {
			buffered += s.BatchSize
		}
	}
	if sp.shed && d.digestOffered != uint64(fedTotal) {
		violate("digests report %d packets offered, %d were fed", d.digestOffered, fedTotal)
	}
	if got, want := stats.PacketsSummarized, fedTotal-int(d.digestShed)-buffered; got != want {
		violate("controller summarized %d packets, want %d fed - %d shed - %d buffered = %d",
			got, fedTotal, d.digestShed, buffered, want)
	}
}
