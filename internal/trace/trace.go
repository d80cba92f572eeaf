// Package trace is Jaal's cross-process epoch tracer: it records
// causally-linked spans for every stage of an epoch — monitor
// capture/seal, summarize, encode, wire ship, controller decode,
// inference, feedback raw fetches, alert emission — and assembles them
// into one timeline per controller epoch, across process boundaries.
//
// Where internal/obs answers "how long do summarizations take on
// average", this package answers "where did epoch 41's two seconds go,
// which monitor was the straggler, and how long did that alert take
// from packet capture to delivery". Monitor-side spans are staged
// per monitor and either adopted directly (in-process pipeline) or
// shipped to the controller as a compact trace-context block appended
// to the MsgSummary payload (see context.go); the controller merges
// them with its own spans, computes the critical path, and derives the
// end-to-end detection latency per alert (jaal_alert_latency_seconds).
//
// The same two properties that hold for obs hold here:
//
//   - Tracing never affects outputs. Spans are a write-only side
//     channel; alerts are byte-identical with tracing on or off
//     (TestPipelineTraceDeterminism), and with tracing off the wire
//     frames carry no context block at all, so old peers interop.
//   - Disabled is (almost) free: one atomic load and a branch per
//     instrumentation point, zero allocations
//     (BenchmarkTraceDisabled).
//
// The package is intentionally absent from the detrand analyzer's
// deterministic set: it owns the wall-clock reads, so instrumented
// packages (core, summary) need no new time.Now calls and no
// new suppressions.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// on gates all recording. Exporters read assembled traces regardless,
// so a /trace scrape after SetEnabled(false) still sees the ring.
var on atomic.Bool

// SetEnabled turns epoch tracing on or off process-wide.
func SetEnabled(v bool) { on.Store(v) }

// Enabled reports whether tracing is active.
func Enabled() bool { return on.Load() }

// ControllerProc is the process ID used for spans recorded by the
// controller itself (Proc/Monitor fields); monitors use their own IDs.
const ControllerProc = -1

// Stage identifies one pipeline stage of an epoch.
type Stage uint8

// Pipeline stages, in rough causal order.
const (
	// StageCapture spans a batch's fill time at a monitor: first
	// buffered header to seal.
	StageCapture Stage = 1
	// StageSummarize spans one batch's SVD+k-means summarization.
	StageSummarize Stage = 2
	// StageEncode spans marshalling the queued summaries to wire form.
	StageEncode Stage = 3
	// StageShip spans one monitor's full poll round trip as seen by the
	// controller (request → last frame).
	StageShip Stage = 4
	// StageCollect spans one monitor's collection (Monitor.Poll).
	StageCollect Stage = 5
	// StageDecode spans decoding one received summary at the controller.
	StageDecode Stage = 6
	// StageInfer spans one inference round (aggregate + all questions).
	StageInfer Stage = 7
	// StageRawFetch spans one feedback raw-packet fetch round trip.
	StageRawFetch Stage = 8
	// StageAlertEmit spans assembling and emitting the epoch's alerts.
	StageAlertEmit Stage = 9
	// StageEpoch spans the whole epoch (RunEpoch or poll+process).
	StageEpoch Stage = 10
)

// String names the stage as it appears in exports.
func (s Stage) String() string {
	switch s {
	case StageCapture:
		return "capture"
	case StageSummarize:
		return "summarize"
	case StageEncode:
		return "encode"
	case StageShip:
		return "ship"
	case StageCollect:
		return "collect"
	case StageDecode:
		return "decode"
	case StageInfer:
		return "infer"
	case StageRawFetch:
		return "raw_fetch"
	case StageAlertEmit:
		return "alert_emit"
	case StageEpoch:
		return "epoch"
	default:
		return "stage(" + itoa(int64(s)) + ")"
	}
}

// MarshalJSON renders the stage by name so /trace output and golden
// files stay readable and stable.
func (s Stage) MarshalJSON() ([]byte, error) {
	name := s.String()
	b := make([]byte, 0, len(name)+2)
	b = append(b, '"')
	b = append(b, name...)
	return append(b, '"'), nil
}

// SpanRecord is one completed span inside an epoch trace.
type SpanRecord struct {
	// Stage is the pipeline stage this span timed.
	Stage Stage `json:"stage"`
	// Proc is the process that recorded the span: a monitor ID, or
	// ControllerProc for the controller.
	Proc int32 `json:"proc"`
	// Monitor is the monitor the stage concerns (the polled monitor for
	// ship/decode spans, the recording monitor for its own stages), or
	// ControllerProc for monitor-agnostic controller stages.
	Monitor int32 `json:"monitor"`
	// Seq is the monitor's batch sequence number for per-batch stages,
	// or the controller epoch for epoch-scoped stages.
	Seq uint64 `json:"seq"`
	// Start is the span's wall-clock start (Unix nanoseconds), shifted
	// into the controller's clock for remote spans (see
	// AddRemoteContext).
	Start int64 `json:"start_unix_nano"`
	// Dur is the span's duration in nanoseconds, measured on the
	// recording process's monotonic clock.
	Dur int64 `json:"dur_nanos"`
}

// end returns the span's end time in Unix nanoseconds.
func (r SpanRecord) end() int64 { return r.Start + r.Dur }

// EpochTrace is one assembled cross-process epoch timeline.
type EpochTrace struct {
	// Epoch is the controller epoch the trace covers.
	Epoch uint64 `json:"epoch"`
	// Start is the earliest span start (Unix nanoseconds).
	Start int64 `json:"start_unix_nano"`
	// Dur is the whole trace's wall extent in nanoseconds.
	Dur int64 `json:"dur_nanos"`
	// Spans are every recorded span, in deterministic
	// (Proc, Monitor, Stage, Seq, Start) order.
	Spans []SpanRecord `json:"spans"`
	// Alerts is how many alerts the epoch raised.
	Alerts int `json:"alerts"`
	// AlertLatencySeconds is the end-to-end detection latency for the
	// epoch's alerts — earliest capture start to alert emission — when
	// Alerts > 0 and a latency could be derived; 0 otherwise.
	AlertLatencySeconds float64 `json:"alert_latency_seconds,omitempty"`
	// SlowestMonitor is the monitor whose chain ended last (the
	// critical-path straggler), or ControllerProc when no monitor span
	// was recorded.
	SlowestMonitor int32 `json:"slowest_monitor"`
	// CriticalPath names the stages on the critical path: the slowest
	// monitor's chain in start order, then the controller's own stages.
	CriticalPath []string `json:"critical_path"`
	// CriticalSeconds is the wall extent of the critical path.
	CriticalSeconds float64 `json:"critical_seconds"`
	// CounterDeltas, set only on slow-epoch exemplars, holds the obs
	// counter movement that accompanied the epoch (counter name →
	// increase since the previous finished epoch).
	CounterDeltas map[string]int64 `json:"counter_deltas,omitempty"`
}

// hAlertLatency is the per-alert end-to-end detection latency: the time
// from the earliest captured packet contributing to the epoch to the
// moment the alert was emitted. This is the paper's detection-latency
// claim (§6) made measurable per alert.
var hAlertLatency = obs.NewHistogram("jaal_alert_latency_seconds",
	"end-to-end capture-to-emission latency of raised alerts", obs.DurationBuckets())

// Config tunes the collector. The zero value selects the defaults.
type Config struct {
	// RingSize is how many finished epoch traces the ring retains
	// (default 64).
	RingSize int
	// SlowThreshold pins epochs whose wall extent exceeds it as
	// exemplars with full span detail and obs counter deltas
	// (default 250ms; <0 disables exemplars).
	SlowThreshold time.Duration
}

func (c Config) withDefaults() Config {
	if c.RingSize <= 0 {
		c.RingSize = 64
	}
	if c.SlowThreshold == 0 {
		c.SlowThreshold = 250 * time.Millisecond
	}
	return c
}

// maxExemplars bounds the pinned slow epochs; the oldest is evicted
// first.
const maxExemplars = 8

// maxPendingEpochs bounds the in-flight assembly map: a controller that
// never calls FinishEpoch (or a monitor process, which has no epochs)
// cannot grow it without bound — the oldest pending epoch is dropped.
const maxPendingEpochs = 64

// maxStagedSpans bounds the per-monitor staging queue the same way: a
// monitor that is never polled drops its oldest staged spans.
const maxStagedSpans = 4096

// collector is the process-wide trace state.
type collector struct {
	mu sync.Mutex
	// staged holds monitor-side spans awaiting shipment (TakeContext)
	// or adoption (AdoptMonitorSpans), keyed by monitor ID.
	staged map[int32][]SpanRecord
	// epochs holds controller-side spans being assembled per epoch.
	epochs map[uint64][]SpanRecord
	ring   *Ring
	// exemplars pins slow epochs, oldest first.
	exemplars []*EpochTrace
	cfg       Config
	// prevCounters is the obs counter snapshot at the last finished
	// epoch, for exemplar deltas.
	prevCounters map[string]int64
}

var col = newCollector(Config{})

func newCollector(cfg Config) *collector {
	cfg = cfg.withDefaults()
	return &collector{
		staged: make(map[int32][]SpanRecord),
		epochs: make(map[uint64][]SpanRecord),
		ring:   NewRing(cfg.RingSize),
		cfg:    cfg,
	}
}

// Configure replaces the collector's tuning (ring size, slow-epoch
// threshold) and clears all assembled state. Call it
// before SetEnabled; it is not safe to race with active recording.
func Configure(cfg Config) {
	col.mu.Lock()
	defer col.mu.Unlock()
	cfg = cfg.withDefaults()
	col.cfg = cfg
	col.ring = NewRing(cfg.RingSize)
	col.staged = make(map[int32][]SpanRecord)
	col.epochs = make(map[uint64][]SpanRecord)
	col.exemplars = nil
	col.prevCounters = nil
}

// Reset drops all staged and assembled state but keeps the
// configuration (tests and benchmarks).
func Reset() {
	col.mu.Lock()
	defer col.mu.Unlock()
	col.staged = make(map[int32][]SpanRecord)
	col.epochs = make(map[uint64][]SpanRecord)
	col.ring = NewRing(col.cfg.RingSize)
	col.exemplars = nil
	col.prevCounters = nil
}

// stageMonitor queues a monitor-side span for later shipment/adoption.
func (c *collector) stageMonitor(rec SpanRecord) {
	c.mu.Lock()
	q := c.staged[rec.Proc]
	if len(q) >= maxStagedSpans {
		q = q[1:]
	}
	c.staged[rec.Proc] = append(q, rec)
	c.mu.Unlock()
}

// stageEpoch adds a controller-side span to its epoch's assembly.
func (c *collector) stageEpoch(epoch uint64, rec SpanRecord) {
	c.mu.Lock()
	c.addEpochLocked(epoch, rec)
	c.mu.Unlock()
}

func (c *collector) addEpochLocked(epoch uint64, recs ...SpanRecord) {
	if _, ok := c.epochs[epoch]; !ok && len(c.epochs) >= maxPendingEpochs {
		oldest := epoch
		for e := range c.epochs {
			if e < oldest {
				oldest = e
			}
		}
		delete(c.epochs, oldest)
	}
	c.epochs[epoch] = append(c.epochs[epoch], recs...)
}

// RecordSpan adds a pre-measured monitor-side span — used for stages
// whose start predates the instrumentation point, like a batch's
// capture window, whose first-packet time is stamped by the buffer.
// No-op while tracing is disabled.
func RecordSpan(st Stage, monitorID int, seq uint64, startUnixNano, durNanos int64) {
	if !on.Load() {
		return
	}
	col.stageMonitor(SpanRecord{
		Stage: st, Proc: int32(monitorID), Monitor: int32(monitorID),
		Seq: seq, Start: startUnixNano, Dur: durNanos,
	})
}

// TakeContext drains the monitor's staged spans into a shippable
// Context, or returns nil when tracing is off or nothing is staged.
// The monitor server calls it once per summary poll.
func TakeContext(monitorID int) *Context {
	if !on.Load() {
		return nil
	}
	id := int32(monitorID)
	col.mu.Lock()
	spans := col.staged[id]
	delete(col.staged, id)
	col.mu.Unlock()
	if len(spans) == 0 {
		return nil
	}
	return &Context{MonitorID: monitorID, SentUnixNano: time.Now().UnixNano(), Spans: spans}
}

// AddRemoteContext merges a monitor's shipped spans into an epoch's
// assembly. recvUnixNano is the controller-side receive time; every
// remote span is shifted by (recv − sent) so monitor clocks that
// disagree with the controller's still yield causal timelines (a
// shipped span always ends at or before the frame carrying it was
// received). No-op while tracing is disabled or ctx is nil.
func AddRemoteContext(epoch uint64, ctx *Context, recvUnixNano int64) {
	if !on.Load() || ctx == nil || len(ctx.Spans) == 0 {
		return
	}
	shift := recvUnixNano - ctx.SentUnixNano
	col.mu.Lock()
	for _, rec := range ctx.Spans {
		rec.Start += shift
		col.addEpochLocked(epoch, rec)
	}
	col.mu.Unlock()
}

// AdoptMonitorSpans moves a monitor's staged spans into an epoch's
// assembly without clock shifting — the in-process pipeline's
// equivalent of ship+AddRemoteContext. No-op while tracing is disabled.
func AdoptMonitorSpans(epoch uint64, monitorID int) {
	if !on.Load() {
		return
	}
	id := int32(monitorID)
	col.mu.Lock()
	spans := col.staged[id]
	delete(col.staged, id)
	if len(spans) > 0 {
		col.addEpochLocked(epoch, spans...)
	}
	col.mu.Unlock()
}

// FinishEpoch seals epoch's assembly into an EpochTrace: spans are
// sorted deterministically, the critical path computed, per-alert
// detection latency derived (and observed into
// jaal_alert_latency_seconds), and the trace pushed into the ring
// (plus the exemplar set when slow). It returns the trace, or nil when
// tracing is disabled or the epoch recorded no spans.
func FinishEpoch(epoch uint64, alerts int) *EpochTrace {
	if !on.Load() {
		return nil
	}
	col.mu.Lock()
	spans := col.epochs[epoch]
	delete(col.epochs, epoch)
	col.mu.Unlock()
	if len(spans) == 0 {
		return nil
	}

	// Deterministic order: worker scheduling decides which span was
	// *recorded* first, but the sorted sequence — and with it the
	// topology a golden test sees — is the same at any worker count.
	//jaalvet:ignore hotalloc — sorting runs once per epoch seal, over at most a few hundred spans
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		if a.Monitor != b.Monitor {
			return a.Monitor < b.Monitor
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return a.Start < b.Start
	})

	t := &EpochTrace{Epoch: epoch, Spans: spans, Alerts: alerts}
	start, end := spans[0].Start, spans[0].end()
	for _, r := range spans[1:] {
		if r.Start < start {
			start = r.Start
		}
		if r.end() > end {
			end = r.end()
		}
	}
	t.Start, t.Dur = start, end-start

	t.SlowestMonitor, t.CriticalPath, t.CriticalSeconds = criticalPath(spans)

	if alerts > 0 {
		if lat := alertLatency(spans, end); lat > 0 {
			t.AlertLatencySeconds = lat
			for i := 0; i < alerts; i++ {
				hAlertLatency.Observe(lat)
			}
		}
	}

	col.mu.Lock()
	if col.cfg.SlowThreshold >= 0 && time.Duration(t.Dur) > col.cfg.SlowThreshold {
		t.CounterDeltas = counterDeltasLocked()
		col.exemplars = append(col.exemplars, t)
		if len(col.exemplars) > maxExemplars {
			col.exemplars = col.exemplars[len(col.exemplars)-maxExemplars:]
		}
	} else {
		// Keep the baseline fresh so a later exemplar's deltas span one
		// epoch, not the whole run.
		refreshCountersLocked()
	}
	col.ring.Add(t)
	col.mu.Unlock()
	return t
}

// criticalPath finds the straggler chain: the monitor whose last span
// ends latest (ties to the smaller ID), followed by the controller's
// own stages, in start order.
func criticalPath(spans []SpanRecord) (slowest int32, path []string, seconds float64) {
	slowest = ControllerProc
	var slowestEnd int64
	for _, r := range spans {
		if r.Monitor < 0 {
			continue
		}
		switch {
		case slowest == ControllerProc || r.end() > slowestEnd:
			slowest, slowestEnd = r.Monitor, r.end()
		case r.end() == slowestEnd && r.Monitor < slowest:
			slowest = r.Monitor
		}
	}

	var chain []SpanRecord
	for _, r := range spans {
		onPath := (slowest != ControllerProc && r.Monitor == slowest) ||
			(r.Proc == ControllerProc && r.Monitor == ControllerProc)
		if onPath {
			chain = append(chain, r) //jaalvet:ignore hotalloc — critical-path extraction runs once per epoch; chain length is the epoch's span count
		}
	}
	if len(chain) == 0 {
		return slowest, nil, 0
	}
	//jaalvet:ignore hotalloc — once per epoch, on the already-extracted chain
	sort.SliceStable(chain, func(i, j int) bool {
		if chain[i].Start != chain[j].Start {
			return chain[i].Start < chain[j].Start
		}
		return chain[i].Stage < chain[j].Stage
	})
	start, end := chain[0].Start, chain[0].end()
	for _, r := range chain {
		path = append(path, r.Stage.String())
		if r.end() > end {
			end = r.end()
		}
	}
	return slowest, path, float64(end-start) / float64(time.Second)
}

// alertLatency derives the end-to-end detection latency: earliest
// capture (or failing that, earliest span) start to the alert-emit end
// (or failing that, the trace end).
func alertLatency(spans []SpanRecord, traceEnd int64) float64 {
	var capStart, anyStart, emitEnd int64
	capStart, anyStart = -1, -1
	for _, r := range spans {
		if anyStart < 0 || r.Start < anyStart {
			anyStart = r.Start
		}
		if r.Stage == StageCapture && (capStart < 0 || r.Start < capStart) {
			capStart = r.Start
		}
		if r.Stage == StageAlertEmit && r.end() > emitEnd {
			emitEnd = r.end()
		}
	}
	start := capStart
	if start < 0 {
		start = anyStart
	}
	if emitEnd == 0 {
		emitEnd = traceEnd
	}
	if start < 0 || emitEnd <= start {
		return 0
	}
	return float64(emitEnd-start) / float64(time.Second)
}

// counterDeltasLocked computes per-counter movement since the previous
// snapshot and refreshes the baseline. Caller holds col.mu.
func counterDeltasLocked() map[string]int64 {
	cur := obs.CounterValues()
	deltas := make(map[string]int64)
	for name, v := range cur {
		if d := v - col.prevCounters[name]; d != 0 {
			deltas[name] = d
		}
	}
	col.prevCounters = cur
	if len(deltas) == 0 {
		return nil
	}
	return deltas
}

func refreshCountersLocked() {
	if obs.Enabled() {
		col.prevCounters = obs.CounterValues()
	}
}

// Snapshot returns up to n finished traces, newest first (n <= 0 means
// all retained).
func Snapshot(n int) []*EpochTrace {
	col.mu.Lock()
	r := col.ring
	col.mu.Unlock()
	return r.Snapshot(n)
}

// Exemplars returns the pinned slow epochs, oldest first.
func Exemplars() []*EpochTrace {
	col.mu.Lock()
	out := make([]*EpochTrace, len(col.exemplars))
	copy(out, col.exemplars)
	col.mu.Unlock()
	return out
}

// NowNano returns the current wall clock in Unix nanoseconds while
// tracing is enabled, and 0 otherwise. Deterministic packages use it to
// stamp capture times without importing time — the clock read lives
// here, where the detrand analyzer permits it, and costs one atomic
// load when tracing is off.
func NowNano() int64 {
	if !on.Load() {
		return 0
	}
	return time.Now().UnixNano()
}

// itoa is a minimal non-negative integer formatter, avoiding strconv in
// the Stage hot path (String is only called by exporters, but keeping
// the package's import surface small is free).
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
