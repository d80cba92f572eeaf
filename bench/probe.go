package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/inference"
	"repro/internal/linalg"
	"repro/internal/packet"
	"repro/internal/par"
	"repro/internal/rules"
	"repro/internal/sketch"
	"repro/internal/snort"
	"repro/internal/summary"
	"repro/internal/wire"
)

// The layer probe times what core composes internally. Per epoch it
// drives the same header bytes through the public functions of packet,
// sketch, summary, linalg, wire, inference, rules and snort one layer at
// a time, each stage over the whole epoch so the timer's own cost
// amortises. It keeps the concurrency of the real
// deployment — both monitors' stages run side by side as the two
// feeders do, question evaluation fans out over the shared pool as in
// Controller.ProcessEpoch — so its stage times add up to what the
// span tree saw around the core calls. reconcile checks that they do.

// indexTauHeadroom mirrors core's private constant of the same name:
// the probe builds its question index the way core.NewController does.
const indexTauHeadroom = 1.25

// probeTotals accumulates stage times and work counts over the probed
// epochs.
type probeTotals struct {
	// epochs counts the steps taken so far.
	epochs int

	pkts                        int
	decode, observe, buffer     time.Duration
	batches, flushBatches       int
	batchPkts                   int
	summarize                   time.Duration
	summarizeMallocs            uint64
	normalize, svd, kmeans      time.Duration
	kmeansIters                 int
	summaries, summaryBytes     int
	elements                    int
	marshal, unmarshal          time.Duration
	frames                      int
	frameWrite, frameRead       time.Duration
	digest                      time.Duration
	digestBytes                 int
	aggregate, candidates       time.Duration
	aggRows, candidateQuestions int
	questions                   int
	evaluate, feedback          time.Duration
	evaluated, feedbackRuns     int
	uncertain                   int
	alertBuild                  time.Duration
	rawCodec, rawMatch          atomic.Int64
	rawHeaders, rawMatchHeaders atomic.Int64

	// busy[g] is the probe's equivalent of epoch g's feed + poll +
	// process_epoch time: monitor-side stages summed over monitors, the
	// poll-time stages of the slower monitor, and the controller stages.
	busy []time.Duration
}

// probeMonitor is the state core.Monitor keeps, held in the open.
type probeMonitor struct {
	id  int
	ing *sketch.Ingest
	buf *summary.Buffer
	szr *summary.Summarizer
	// rng drives the k-means of the component replay; the summarizer's
	// own stays in step with a real monitor's.
	rng *rand.Rand
	// mu guards buf during raw fetches, which arrive from the pool's
	// goroutines; core.Monitor holds its own lock the same way.
	mu sync.Mutex

	headers []packet.Header
	keep    []bool
	sealed  []*summary.Batch
	ready   []*summary.Summary
	decoded []*summary.Summary

	// Per-epoch stage times of this monitor.
	feedSide, pollSide time.Duration
}

// probeFetcher serves raw fetches from the probe monitors' retention,
// through the raw-batch codec as the wire does, once per centroid and
// epoch like the controller's own fetcher.
type probeFetcher struct {
	mons *[numMonitors]*probeMonitor
	tot  *probeTotals
	mu   sync.Mutex
	memo map[inference.CentroidRef][]packet.Header
}

func (f *probeFetcher) FetchRaw(ref inference.CentroidRef) ([]packet.Header, int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if hs, ok := f.memo[ref]; ok {
		return hs, 0, nil
	}
	if ref.MonitorID < 0 || ref.MonitorID >= numMonitors {
		return nil, 0, fmt.Errorf("probe: no monitor %d", ref.MonitorID)
	}
	m := f.mons[ref.MonitorID]
	m.mu.Lock()
	raw := m.buf.RawPackets(ref.Epoch, ref.Centroid)
	m.mu.Unlock()
	start := time.Now()
	hs, err := packet.DecodeBatch(packet.EncodeBatch(raw))
	f.tot.rawCodec.Add(int64(time.Since(start)))
	if err != nil {
		return nil, 0, err
	}
	f.tot.rawHeaders.Add(int64(len(hs)))
	f.memo[ref] = hs
	return hs, len(hs), nil
}

// probeMatcher times snort.RawMatcher.
type probeMatcher struct {
	m   snort.RawMatcher
	tot *probeTotals
}

func (p probeMatcher) MatchRaw(q *rules.Question, hs []packet.Header) bool {
	start := time.Now()
	ok := p.m.MatchRaw(q, hs)
	p.tot.rawMatch.Add(int64(time.Since(start)))
	p.tot.rawMatchHeaders.Add(int64(len(hs)))
	return ok
}

// bothMonitors runs stage for each monitor on its own goroutine, as the
// two feeders run, and adds each monitor's stage time to the side
// (feed or poll) the stage belongs to. It returns the summed time.
func bothMonitors(mons *[numMonitors]*probeMonitor, pollSide bool, stage func(m *probeMonitor) error) (time.Duration, error) {
	var (
		wg   sync.WaitGroup
		durs [numMonitors]time.Duration
		errs [numMonitors]error
	)
	for i, m := range mons {
		wg.Add(1)
		go func(i int, m *probeMonitor) {
			defer wg.Done()
			start := time.Now()
			errs[i] = stage(m)
			durs[i] = time.Since(start)
		}(i, m)
	}
	wg.Wait()
	var sum time.Duration
	for i, m := range mons {
		if errs[i] != nil {
			return 0, errs[i]
		}
		sum += durs[i]
		if pollSide {
			m.pollSide += durs[i]
		} else {
			m.feedSide += durs[i]
		}
	}
	return sum, nil
}

// probeEpochs is the length of one probe window: one cycle of the
// 24-epoch workloads, four of overload's, whose epochs are too few and
// too short for one cycle to time them steadily. The traced pass probes
// probeWindows of them.
const (
	probeEpochs  = 24
	probeWindows = 2
)

// prober steps the layer probe through a run's epochs, one call per
// epoch. The traced pass interleaves the steps with the deployment's
// own epochs, so that the two are timed under the same conditions: on
// a shared machine, speed drifts by more than the reconciliation
// tolerance between one second and the next.
type prober struct {
	in   *inputs
	tot  *probeTotals
	mons [numMonitors]*probeMonitor
	// spacers keeps the two monitors' state apart on the heap; see
	// heapSpacer.
	spacers [][][]*byte

	ids                 []rules.AttackID
	qs                  []*rules.Question
	plain, withFeedback []int
	index               *rules.QuestionIndex
	matcher             inference.RawMatcher
	codecBefore         time.Duration
}

// newProber builds fresh monitors' worth of state and the question
// index, as the deployment has them when it comes up.
func newProber(in *inputs) (*prober, error) {
	p := &prober{in: in, tot: &probeTotals{}}
	for id := range p.mons {
		p.spacers = append(p.spacers, heapSpacer())
		cfg := summaryConfig(id)
		szr, err := summary.NewSummarizer(cfg)
		if err != nil {
			return nil, err
		}
		ing, err := sketch.NewIngest(in.sp.sketchConfig())
		if err != nil {
			return nil, err
		}
		// The header and keep slices are sized for the largest epoch and
		// written once here, so that the first probed epoch does not pay
		// for growing them and faulting their pages in.
		most := 0
		for c := range in.tr.pkts {
			most = max(most, in.tr.pkts[c][id])
		}
		m := &probeMonitor{
			id: id, ing: ing, szr: szr, buf: summary.NewBuffer(cfg.BatchSize),
			rng:     rand.New(rand.NewSource(cfg.Seed)),
			headers: make([]packet.Header, most), keep: make([]bool, most),
		}
		for i := range m.headers {
			m.headers[i].TTL = 1
			m.keep[i] = true
		}
		p.mons[id] = m
	}

	p.ids, p.qs = in.rs.sorted()
	maxTau := make([]float64, len(p.qs))
	for i, id := range p.ids {
		bound := p.qs[i].DistanceThreshold
		if fb, ok := in.rs.feedback[id]; ok {
			p.withFeedback = append(p.withFeedback, i)
			bound = max(bound, fb.TauD2)
		} else {
			p.plain = append(p.plain, i)
		}
		maxTau[i] = bound * indexTauHeadroom
	}
	var err error
	if p.index, err = rules.NewQuestionIndex(p.qs, maxTau); err != nil {
		return nil, err
	}
	p.tot.questions = len(p.qs)
	p.matcher = probeMatcher{m: snort.RawMatcher{Env: scenarioEnv}, tot: p.tot}
	return p, nil
}

// probe steps a fresh prober through the first `epochs` epochs.
func probe(in *inputs, epochs int) (*probeTotals, error) {
	p, err := newProber(in)
	if err != nil {
		return nil, err
	}
	for i := 0; i < epochs; i++ {
		if err := p.step(); err != nil {
			return nil, err
		}
	}
	return p.tot, nil
}

// step drives the next epoch through the layers.
func (p *prober) step() error {
	in, tot, mons := p.in, p.tot, &p.mons
	ids, qs, plain, withFeedback, index, matcher := p.ids, p.qs, p.plain, p.withFeedback, p.index, p.matcher
	g := tot.epochs
	tot.epochs++
	c := g % in.sp.cycleEpochs()
	for _, m := range mons {
		m.feedSide, m.pollSide = 0, 0
	}

	// Feed side: decode → sketch → buffer → summarize sealed batches.
	d, err := bothMonitors(mons, false, func(m *probeMonitor) error {
		m.headers = m.headers[:in.tr.pkts[c][m.id]]
		buf, off := in.tr.bytes[c][m.id], 0
		for i := range m.headers {
			n, _, err := m.headers[i].UnmarshalIPv4(buf[off:])
			if err != nil {
				return err
			}
			off += n
		}
		return nil
	})
	if err != nil {
		return err
	}
	tot.decode += d
	for _, m := range mons {
		tot.pkts += len(m.headers)
	}

	if in.sp.shed {
		d, _ = bothMonitors(mons, false, func(m *probeMonitor) error {
			m.keep = m.keep[:len(m.headers)]
			for i := range m.headers {
				h := &m.headers[i]
				m.keep[i] = m.ing.Observe(h.SrcIP, h.DstIP, h.Flow().FastHash())
			}
			return nil
		})
		tot.observe += d
	}

	d, _ = bothMonitors(mons, false, func(m *probeMonitor) error {
		m.sealed = m.sealed[:0]
		for i, h := range m.headers {
			if m.ing != nil && !m.keep[i] {
				m.buf.NoteShed(1)
				continue
			}
			if b, ok := m.buf.Add(h); ok {
				m.sealed = append(m.sealed, b)
			}
		}
		return nil
	})
	tot.buffer += d

	if err := tot.summarizeStage(mons, false); err != nil {
		return err
	}

	// Poll side: flush and summarize what is pending, encode, frame,
	// decode. In the deployment the two monitors' polls overlap, so
	// the slower one sets the poll's length.
	for _, m := range mons {
		m.sealed = m.sealed[:0]
		if m.buf.Pending() >= m.szr.Config().MinBatch && m.buf.Pending() > 0 {
			m.sealed = append(m.sealed, m.buf.Flush())
			tot.flushBatches++
		}
	}
	if err := tot.summarizeStage(mons, true); err != nil {
		return err
	}
	if err := tot.shipStage(mons, g); err != nil {
		return err
	}

	// Controller side.
	var decoded []*summary.Summary
	for _, m := range mons {
		decoded = append(decoded, m.decoded...)
	}
	start := time.Now()
	agg, err := inference.AggregateSummaries(decoded)
	if err != nil {
		return err
	}
	aggregated := time.Now()
	cs := inference.Candidates(agg, index)
	indexed := time.Now()
	matches := make([]*inference.MatchResult, len(plain))
	par.For(len(plain), 0, func(j int) {
		i := plain[j]
		matches[j] = inference.EstimateSimilarityIndexed(agg, qs[i], cs.Contains(i))
	})
	evaluated := time.Now()
	fet := &probeFetcher{mons: mons, tot: tot, memo: make(map[inference.CentroidRef][]packet.Header)}
	fbs := make([]*inference.FeedbackResult, len(withFeedback))
	fbErrs := make([]error, len(withFeedback))
	par.For(len(withFeedback), 0, func(j int) {
		i := withFeedback[j]
		fbs[j], fbErrs[j] = inference.RunFeedbackIndexed(agg, qs[i], in.rs.feedback[ids[i]], fet, matcher, cs.Contains(i))
	})
	fedBack := time.Now()
	for j, r := range matches {
		if r.Alerted() {
			_ = inference.NewAlertFromMatch(ids[plain[j]], uint64(g), r, nil)
		}
	}
	for j, r := range fbs {
		if fbErrs[j] != nil {
			return fbErrs[j]
		}
		if r.Verdict == inference.VerdictUncertain {
			tot.uncertain++
		}
		if r.Alerted {
			_ = inference.NewAlertFromFeedback(ids[withFeedback[j]], uint64(g), r, nil)
		}
	}
	built := time.Now()

	tot.aggregate += aggregated.Sub(start)
	tot.candidates += indexed.Sub(aggregated)
	tot.evaluate += evaluated.Sub(indexed)
	tot.feedback += fedBack.Sub(evaluated)
	tot.alertBuild += built.Sub(fedBack)
	tot.aggRows += agg.Rows()
	tot.candidateQuestions += cs.Count()
	tot.evaluated += len(plain)
	tot.feedbackRuns += len(withFeedback)

	// The raw-batch codec ran inside the feedback stage; in the
	// deployment it runs inside the raw_fetch spans, which reconcile
	// leaves out of the spans' side too.
	codec := time.Duration(tot.rawCodec.Load())
	busy := built.Sub(start) - (codec - p.codecBefore)
	p.codecBefore = codec
	var pollSide time.Duration
	for _, m := range mons {
		busy += m.feedSide
		pollSide = max(pollSide, m.pollSide)
	}
	tot.busy = append(tot.busy, busy+pollSide)
	return nil
}

// summarizeStage summarizes every monitor's sealed batches through
// Summarizer.Summarize, as core.Monitor does, then replays the same
// batches through the pieces Summarize is made of — normalization, the
// truncated SVD and k-means — to split its time. The replay is outside
// the reconciled busy time: the deployment does not run it.
func (t *probeTotals) summarizeStage(mons *[numMonitors]*probeMonitor, pollSide bool) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	d, err := bothMonitors(mons, pollSide, func(m *probeMonitor) error {
		for _, b := range m.sealed {
			s, err := m.szr.Summarize(b.Headers, m.id, b.Epoch)
			if err != nil {
				return err
			}
			m.ready = append(m.ready, s)
		}
		return nil
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms)
	t.summarize += d
	t.summarizeMallocs += ms.Mallocs - mallocs
	for _, m := range mons {
		t.batches += len(m.sealed)
		for _, b := range m.sealed {
			t.batchPkts += len(b.Headers)
		}
	}

	// Retaining the raw headers by centroid is the buffer's work.
	d, _ = bothMonitors(mons, pollSide, func(m *probeMonitor) error {
		for i, b := range m.sealed {
			m.buf.Retain(b, m.ready[len(m.ready)-len(m.sealed)+i])
		}
		return nil
	})
	t.buffer += d

	for _, m := range mons {
		for _, b := range m.sealed {
			if err := t.replay(m, b.Headers); err != nil {
				return err
			}
		}
	}
	return nil
}

// replay times the stages inside Summarize on one batch. At the
// benchmark's operating point Summarize takes the split encoding, which
// clusters the rows of U_r; the replay does the same.
func (t *probeTotals) replay(m *probeMonitor, headers []packet.Header) error {
	cfg := m.szr.Config()
	n, p, r := len(headers), packet.NumFields, cfg.Rank
	k := min(cfg.Centroids, n)
	sc := linalg.GetScratch()
	defer linalg.PutScratch(sc)

	start := time.Now()
	x := sc.Matrix(n, p)
	for i := range headers {
		headers[i].NormalizedVector(x.Row(i))
	}
	normalized := time.Now()
	ur, sigma, v := sc.Matrix(n, r), sc.Floats(r), sc.Matrix(p, r)
	if err := linalg.TruncatedSVDInto(x, r, ur, sigma, v, sc); err != nil {
		return err
	}
	decomposed := time.Now()
	_, iters, err := linalg.KMeansInto(ur, k, m.rng, linalg.KMeansConfig{}, sc, sc.Matrix(k, r), sc.Ints(n), sc.Ints(k))
	if err != nil {
		return err
	}
	t.normalize += normalized.Sub(start)
	t.svd += decomposed.Sub(normalized)
	t.kmeans += time.Since(decomposed)
	t.kmeansIters += iters
	return nil
}

// shipStage takes each monitor's ready summaries across the wire
// format: Marshal, the sketch digest trailer, WriteFrame and ReadFrame
// through an in-memory pipe, Unmarshal — what MonitorServer and
// RemoteMonitor.Poll do between them for one poll.
func (t *probeTotals) shipStage(mons *[numMonitors]*probeMonitor, epoch int) error {
	payloads := make([][][]byte, numMonitors)
	d, err := bothMonitors(mons, true, func(m *probeMonitor) error {
		for _, s := range m.ready {
			data, err := s.Marshal()
			if err != nil {
				return err
			}
			payloads[m.id] = append(payloads[m.id], data)
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.marshal += d
	for _, m := range mons {
		t.summaries += len(m.ready)
		for i, s := range m.ready {
			t.summaryBytes += len(payloads[m.id][i])
			t.elements += s.Elements()
		}
	}

	// A poll that ships nothing carries no digest and leaves the sketch
	// running into the next epoch, as MonitorServer does.
	var digestBytes [numMonitors]int
	d, _ = bothMonitors(mons, true, func(m *probeMonitor) error {
		if m.ing == nil || len(payloads[m.id]) == 0 {
			return nil
		}
		before := len(payloads[m.id][0])
		payloads[m.id][0] = m.ing.Digest(m.id, uint64(epoch)).AppendWire(payloads[m.id][0])
		digestBytes[m.id] = len(payloads[m.id][0]) - before
		return nil
	})
	t.digest += d
	for _, n := range digestBytes {
		t.digestBytes += n
	}

	pipes := make([]bytes.Buffer, numMonitors)
	d, err = bothMonitors(mons, true, func(m *probeMonitor) error {
		for _, data := range payloads[m.id] {
			if err := wire.WriteFrame(&pipes[m.id], wire.MsgSummary, data); err != nil {
				return err
			}
		}
		return wire.WriteFrame(&pipes[m.id], wire.MsgSummaryDecline, wire.EncodeSummaryDecline(m.id, uint64(epoch), m.buf.Pending()))
	})
	if err != nil {
		return err
	}
	t.frameWrite += d

	frames := make([][]*wire.Message, numMonitors)
	d, err = bothMonitors(mons, true, func(m *probeMonitor) error {
		for pipes[m.id].Len() > 0 {
			msg, err := wire.ReadFrame(&pipes[m.id])
			if err != nil {
				return err
			}
			frames[m.id] = append(frames[m.id], msg)
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.frameRead += d

	d, err = bothMonitors(mons, true, func(m *probeMonitor) error {
		m.decoded = m.decoded[:0]
		for _, msg := range frames[m.id] {
			if msg.Type != wire.MsgSummary {
				continue
			}
			n, err := summary.EncodedLen(msg.Payload)
			if err != nil {
				return err
			}
			s, err := summary.Unmarshal(msg.Payload[:n])
			if err != nil {
				return err
			}
			if rest := msg.Payload[n:]; sketch.IsDigest(rest) {
				if _, _, err := sketch.DecodeDigest(rest); err != nil {
					return err
				}
			}
			m.decoded = append(m.decoded, s)
		}
		return nil
	})
	if err != nil {
		return err
	}
	t.unmarshal += d

	for _, m := range mons {
		t.frames += len(frames[m.id])
		if len(m.ready) > 0 {
			if m.ing != nil {
				m.ing.Reset()
			}
			m.buf.AdvanceEpoch()
		}
		m.ready = m.ready[:0]
	}
	return nil
}

// reconcile compares the probe's busy time with the span tree's
// feed + poll + process_epoch time, epoch by epoch: spans[i] is what the
// span tree saw of the epoch that probe step i followed, process_epoch
// counted as its self time, that is without the stretches a raw fetch
// was in flight. Those are round trips over loopback, which no layer
// function contains. It returns the relative gap of the sums, the median
// per-epoch gap, and an error naming the gap when the sums are further
// apart than tolerance.
func reconcile(busy, spans []time.Duration, tolerance float64) (gap, epochGap float64, err error) {
	var probed, seen time.Duration
	var gaps []float64
	var worst []string
	for i, b := range busy {
		probed += b
		seen += spans[i]
		rel := ratio(float64(b-spans[i]), float64(spans[i]))
		gaps = append(gaps, math.Abs(rel))
		if math.Abs(rel) > tolerance && len(worst) < 4 {
			worst = append(worst, fmt.Sprintf("epoch %d: probe %v vs spans %v", i, b.Round(time.Microsecond), spans[i].Round(time.Microsecond)))
		}
	}
	gap = ratio(float64(probed-seen), float64(seen))
	if math.Abs(gap) > tolerance {
		err = fmt.Errorf("layer probe has drifted from core: its stages sum to %v over %d epochs, the spans around core's calls to %v (%+.1f%%, tolerance %.0f%%); %s",
			probed.Round(time.Microsecond), len(busy), seen.Round(time.Microsecond), 100*gap, 100*tolerance, strings.Join(worst, "; "))
	}
	return gap, median(gaps), err
}
