package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/inference"
	"repro/internal/packet"
	"repro/internal/par"
	"repro/internal/rules"
	"repro/internal/snort"
	"repro/internal/summary"
	"repro/internal/trace"
	"repro/internal/wire"
)

// RawSource abstracts how the controller reaches a monitor's retained
// raw packets: directly (in-process pipeline) or over the wire protocol.
type RawSource interface {
	RawPackets(epoch uint64, centroid int) []packet.Header
}

// rawBatcher is how a feedback round reaches a monitor: every centroid
// the round wants from it, in one exchange, answered in ref order.
// Monitor and RemoteMonitor implement it; RegisterSource lifts any other
// RawSource with perRef.
type rawBatcher interface {
	RawBatch(refs []wire.RawRef) ([][]packet.Header, error)
}

// perRef lifts a RawSource without RawBatch: one RawPackets call per ref.
type perRef struct{ RawSource }

func (s perRef) RawBatch(refs []wire.RawRef) ([][]packet.Header, error) {
	out := make([][]packet.Header, len(refs))
	for i, r := range refs {
		out[i] = s.RawPackets(r.Epoch, r.Centroid)
	}
	return out, nil
}

// Controller is Jaal's central analysis-and-inference engine (§5). It
// aggregates the summaries polled from monitors each epoch, evaluates
// every translated rule against the aggregate, and raises alerts — by
// direct similarity matching, variance postprocessing, and optionally
// the two-threshold feedback loop with raw-packet retrieval.
type Controller struct {
	env *rules.Environment
	// ids and qs are the evaluation order, fixed at construction:
	// attack IDs sorted ascending with qs[i] the question for ids[i].
	// The question index and the evaluator are built over qs in this
	// order, so candidate bit i and result i always refer to ids[i].
	ids []rules.AttackID
	qs  []*rules.Question
	// index prunes provably unmatchable questions each epoch. (A nil
	// index evaluates every question: the linear sweep the in-package
	// equivalence tests use as their oracle.)
	index *rules.QuestionIndex
	// eval is the library compiled once: each question's pins,
	// budgets and, with feedback on, its two stages.
	eval *inference.Evaluator
	// workers bounds the fan-outs of ProcessEpoch (0 = GOMAXPROCS).
	workers int
	// spare holds the storage of the last finished round for the next
	// ProcessEpoch. Rounds may run concurrently: one that finds it taken
	// builds its own, and one that finds it full drops its own.
	spare chan *round

	// mu guards the fields below it. Everything above is fixed in
	// NewController, so the per-question fan-out reads it unlocked.
	mu      sync.Mutex
	sources map[int]rawBatcher
	epoch   uint64
	// stats accumulate communication accounting across epochs.
	stats Stats
}

// Stats tracks the communication accounting of §8.
type Stats struct {
	// SummaryElements is the total float64 elements received in
	// summaries.
	SummaryElements int
	// RawPacketsFetched counts raw headers pulled by the feedback loop.
	RawPacketsFetched int
	// PacketsSummarized is the total raw packets the summaries stand for.
	PacketsSummarized int
	// Epochs is the number of inference rounds executed.
	Epochs int
	// AlertsRaised counts issued alerts.
	AlertsRaised int
}

// SummaryBytes estimates the bytes transferred for summaries (one
// float32 per element on the wire).
func (s Stats) SummaryBytes() int { return s.SummaryElements * summary.ElementSize }

// RawHeaderBytes returns the bytes the equivalent raw-header transfer
// would have cost, the baseline of the paper's overhead comparison.
func (s Stats) RawHeaderBytes() int { return s.PacketsSummarized * packet.WireSize }

// FeedbackBytes returns bytes spent on feedback raw fetches.
func (s Stats) FeedbackBytes() int { return s.RawPacketsFetched * packet.WireSize }

// OverheadFraction returns (summary + feedback bytes) / raw bytes: the
// paper's headline "35 % of raw" metric.
func (s Stats) OverheadFraction() float64 {
	raw := s.RawHeaderBytes()
	if raw == 0 {
		return 0
	}
	return float64(s.SummaryBytes()+s.FeedbackBytes()) / float64(raw)
}

// ControllerConfig assembles a controller.
type ControllerConfig struct {
	// Env resolves rule variables ($HOME_NET etc.).
	Env *rules.Environment
	// Questions are the translated rules to evaluate each epoch.
	Questions map[rules.AttackID]*rules.Question
	// Feedback holds per-attack two-threshold configs; attacks present
	// here use the feedback loop when UseFeedback is set.
	Feedback map[rules.AttackID]inference.FeedbackConfig
	// UseFeedback enables the §5.3 two-stage path.
	UseFeedback bool
	// Workers bounds how many questions ProcessEpoch evaluates
	// concurrently; zero selects GOMAXPROCS, 1 forces the sequential
	// sweep. Results merge in sorted attack-ID order, so alerts are
	// identical for every worker count.
	Workers int
}

// indexTauHeadroom widens the per-question τ bound the index is built
// with. The thresholds are fixed for the controller's lifetime, so any
// factor ≥ 1 is sound; a wider bound only costs pruning power, never
// correctness (the candidate sets stay a conservative superset).
// bench/probe.go mirrors this constant so its layer probe builds the
// same index, and tightening it would change every question's candidacy
// and with it ruleset10k's candidate share and speed: the two move
// together.
const indexTauHeadroom = 1.25

// buildIndex constructs the question index over the controller's fixed
// evaluation order, bounding each question by the widest threshold it
// is evaluated at: τ_d2 for feedback questions (fbs[i] non-nil), the
// question's own τ_d otherwise, both with indexTauHeadroom.
func (c *Controller) buildIndex(fbs []*inference.FeedbackConfig) (*rules.QuestionIndex, error) {
	maxTau := make([]float64, len(c.qs))
	for i, q := range c.qs {
		bound := q.DistanceThreshold
		if fbs[i] != nil && fbs[i].TauD2 > bound {
			bound = fbs[i].TauD2
		}
		maxTau[i] = bound * indexTauHeadroom
	}
	return rules.NewQuestionIndex(c.qs, maxTau)
}

// NewController builds a controller.
func NewController(cfg ControllerConfig) (*Controller, error) {
	if len(cfg.Questions) == 0 {
		return nil, fmt.Errorf("core: controller needs at least one question")
	}
	// Validate in sorted order so which config's error surfaces first
	// does not depend on map iteration order.
	fbIDs := make([]rules.AttackID, 0, len(cfg.Feedback))
	for id := range cfg.Feedback {
		fbIDs = append(fbIDs, id)
	}
	sort.Slice(fbIDs, func(i, j int) bool { return fbIDs[i] < fbIDs[j] })
	for _, id := range fbIDs {
		if err := cfg.Feedback[id].Validate(); err != nil {
			return nil, fmt.Errorf("core: feedback config for %s: %w", id, err)
		}
	}
	c := &Controller{
		env:     cfg.Env,
		workers: cfg.Workers,
		sources: make(map[int]rawBatcher),
		spare:   make(chan *round, 1),
	}
	// Fix the evaluation order once: attack IDs sorted ascending. Every
	// epoch reuses it, and the question index is aligned to it.
	ids := make([]rules.AttackID, 0, len(cfg.Questions))
	for id := range cfg.Questions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	c.ids = ids
	c.qs = make([]*rules.Question, len(c.ids))
	fbs := make([]*inference.FeedbackConfig, len(c.ids))
	for i, id := range c.ids {
		if c.qs[i] = cfg.Questions[id]; c.qs[i] == nil {
			return nil, fmt.Errorf("core: nil question for attack %s", id)
		}
		if fb, ok := cfg.Feedback[id]; cfg.UseFeedback && ok {
			fbs[i] = &fb
		}
	}
	var err error
	if c.index, err = c.buildIndex(fbs); err != nil {
		return nil, fmt.Errorf("core: question index: %w", err)
	}
	if c.eval, err = inference.NewEvaluator(c.qs, fbs, c.workers); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return c, nil
}

// RegisterSource attaches a monitor's raw-packet source for the feedback
// loop. A source with a RawBatch method answers a round in one exchange;
// any other is asked once per centroid.
func (c *Controller) RegisterSource(monitorID int, src RawSource) {
	b, ok := src.(rawBatcher)
	if !ok {
		b = perRef{src}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sources[monitorID] = b
}

// rawFetch is one centroid's raw packets in a round's raw re-analysis.
type rawFetch struct {
	ref inference.CentroidRef
	hs  []packet.Header
	// paid is set once a question has been charged for the transfer.
	paid bool
}

// monitorPulls is what one round wants from one monitor.
type monitorPulls struct {
	id int
	// src is nil when no source is registered for the monitor.
	src rawBatcher
	// want indexes the round's fetches, in order of first use.
	want []int
}

// settleUncertain is the raw re-analysis of one inference round (§5.3
// case 3). It pulls the raw packets behind every centroid the round's
// uncertain questions asked for — once each, however many questions
// share it — and settles those questions against them. Each monitor is
// asked once, for all of its centroids in order of first use, in one
// exchange, and the monitors are asked side by side, so the time a round
// spends here is its slowest monitor's one round trip. A failed exchange
// reads as no packets for each of its centroids, and so does a monitor
// with no registered source, whose refs are counted in
// jaal_feedback_fetch_failures_total as a failed exchange's are. A shared
// centroid's transfer is charged to the first question that wants it, in
// evaluation order. results are the round's two-stage results, in
// evaluation order. It returns the number of headers transferred.
func (c *Controller) settleUncertain(agg *inference.Aggregate, epoch uint64, results []inference.FeedbackResult, matcher inference.RawMatcher) int {
	var (
		fetches []rawFetch
		index   map[inference.CentroidRef]int // ref → position in fetches
		pulls   []monitorPulls
		slot    map[int]int // monitor ID → position in pulls
	)
	for i := range results {
		if results[i].Verdict != inference.VerdictUncertain {
			continue
		}
		if index == nil {
			index = make(map[inference.CentroidRef]int)
			slot = make(map[int]int)
		}
		for _, row := range results[i].Stage2.FetchRows {
			ref := agg.Refs[row]
			if _, ok := index[ref]; ok {
				continue
			}
			m, ok := slot[ref.MonitorID]
			if !ok {
				m = len(pulls)
				slot[ref.MonitorID] = m
				pulls = append(pulls, monitorPulls{id: ref.MonitorID}) //jaalvet:ignore hotalloc — one entry per monitor holding an uncertain centroid
			}
			index[ref] = len(fetches)
			pulls[m].want = append(pulls[m].want, len(fetches)) //jaalvet:ignore hotalloc — uncertain-verdict path only; the centroid count is data-dependent
			fetches = append(fetches, rawFetch{ref: ref})       //jaalvet:ignore hotalloc — uncertain-verdict path only; the centroid count is data-dependent
		}
	}
	if len(fetches) == 0 {
		return 0
	}

	c.mu.Lock()
	for m := range pulls {
		pulls[m].src = c.sources[pulls[m].id]
	}
	c.mu.Unlock()
	par.For(len(pulls), c.workers, func(m int) {
		p := &pulls[m]
		if p.src == nil {
			cFetchFailures.Add(int64(len(p.want)))
			return
		}
		refs := make([]wire.RawRef, len(p.want))
		for i, j := range p.want {
			refs[i] = wire.RawRef{Epoch: fetches[j].ref.Epoch, Centroid: fetches[j].ref.Centroid}
		}
		// One span per exchange: which monitor's round trip stretched
		// the epoch.
		sp := trace.StartSpan(hRawFetchSeconds, trace.StageRawFetch, p.id, epoch)
		groups, err := p.src.RawBatch(refs)
		sp.End()
		if err != nil {
			return
		}
		for i, j := range p.want {
			fetches[j].hs = groups[i]
		}
	})

	transferred := 0
	for i := range results {
		r := &results[i]
		if r.Verdict != inference.VerdictUncertain {
			continue
		}
		var raw []packet.Header
		charged := 0
		for _, row := range r.Stage2.FetchRows {
			f := &fetches[index[agg.Refs[row]]]
			if !f.paid {
				f.paid = true
				charged += len(f.hs)
			}
			raw = append(raw, f.hs...) //jaalvet:ignore hotalloc — uncertain-verdict path only, a handful of questions per epoch; row count is data-dependent
		}
		r.Settle(matcher, raw, charged)
		transferred += charged
	}
	return transferred
}

// round is the storage one ProcessEpoch works in: the aggregate, with
// its sorted columns, and the evaluator's results and scratch. Nothing
// of it outlives the call — an alert copies what it reports — so the
// next call reuses all of it.
type round struct {
	agg     inference.Aggregator
	results inference.Results
}

// ProcessEpoch runs one inference round over the summaries collected
// from all monitors and returns the alerts raised (§5.1–§5.3).
func (c *Controller) ProcessEpoch(summaries []*summary.Summary) ([]*inference.Alert, error) {
	defer trace.StartSpan(hEpochSeconds, trace.StageInfer, trace.ControllerProc, c.Epoch()).End()
	var rd *round
	select {
	case rd = <-c.spare:
	default:
		rd = new(round)
	}
	defer func() {
		select {
		case c.spare <- rd:
		default:
		}
	}()
	rd.agg.Reset()
	for _, s := range summaries {
		if err := rd.agg.Add(s); err != nil {
			return nil, err
		}
	}
	agg := rd.agg.Build()

	c.mu.Lock()
	epoch := c.epoch
	c.epoch++
	c.stats.Epochs++
	c.stats.SummaryElements += agg.Elements
	c.stats.PacketsSummarized += agg.TotalPackets
	c.mu.Unlock()
	cEpochs.Inc()
	cSummaryElements.Add(int64(agg.Elements))
	cPacketsSummarized.Add(int64(agg.TotalPackets))

	// Convert to the interface once: passing the concrete struct below
	// would box it again for every question of the round.
	var matcher inference.RawMatcher = snort.RawMatcher{Env: c.env}

	// One candidate-set computation covers every question this epoch (a
	// nil index yields a nil set whose Contains is always true).
	cs := inference.Candidates(agg, c.index)
	if c.index != nil {
		cands := cs.Count()
		cIndexCandidates.Add(int64(cands))
		cIndexPruned.Add(int64(len(c.qs) - cands))
	}

	// Deterministic evaluation order: question evaluation fans out across
	// the worker pool, but each question writes only its own result slot
	// and alerts are assembled sequentially in sorted attack-ID order, so
	// the output is identical for every worker count. The index bounds a
	// feedback question by τ_d2, the widest threshold its stages use, so
	// pruning it is sound.
	results := &rd.results
	c.eval.Evaluate(agg, cs, results)

	// The questions left uncertain are settled against raw packets once
	// all of them are known, so that each centroid is pulled once and
	// each monitor connection is driven by one goroutine.
	rawFetched := c.settleUncertain(agg, epoch, results.Feedbacks(), matcher)

	asp := trace.StartSpan(nil, trace.StageAlertEmit, trace.ControllerProc, epoch)
	var alerts []*inference.Alert
	for i, id := range c.ids {
		if fb := results.Feedback(i); fb != nil {
			countVerdict(fb.Verdict)
			if fb.Alerted {
				alerts = append(alerts, inference.NewAlertFromFeedback(id, epoch, fb, inference.DefaultClock)) //jaalvet:ignore hotalloc — each alert already allocates its *Alert; growth adds O(log alerts) more
			}
			continue
		}
		if m := results.Match(i); m.Alerted() {
			cSimMatches.Inc()
			alerts = append(alerts, inference.NewAlertFromMatch(id, epoch, m, inference.DefaultClock)) //jaalvet:ignore hotalloc — each alert already allocates its *Alert; growth adds O(log alerts) more
		}
	}
	asp.End()

	c.mu.Lock()
	c.stats.AlertsRaised += len(alerts)
	c.stats.RawPacketsFetched += rawFetched
	stats := c.stats
	c.mu.Unlock()
	cQuestions.Add(int64(len(c.ids)))
	cAlerts.Add(int64(len(alerts)))
	cFeedbackPulls.Add(int64(rawFetched))
	gCompression.Set(stats.OverheadFraction())
	return alerts, nil
}

// Stats returns a copy of the accumulated accounting.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Epoch returns the next epoch number to be processed.
func (c *Controller) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}
