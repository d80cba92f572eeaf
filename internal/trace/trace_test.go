package trace

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// withTracing enables tracing on fresh collector state and restores the
// disabled default when the test ends.
func withTracing(t testing.TB) {
	t.Helper()
	Reset()
	SetEnabled(true)
	t.Cleanup(func() {
		SetEnabled(false)
		Reset()
	})
}

func TestDisabledIsNoop(t *testing.T) {
	SetEnabled(false)
	Reset()

	if sp := StartSpan(nil, StageInfer, ControllerProc, 1); sp != (Span{}) {
		t.Fatalf("disabled StartSpan returned armed span %+v", sp)
	}
	RecordSpan(StageCapture, 0, 1, 100, 50)
	if ctx := TakeContext(0); ctx != nil {
		t.Fatalf("disabled TakeContext = %+v, want nil", ctx)
	}
	if tr := FinishEpoch(1, 0); tr != nil {
		t.Fatalf("disabled FinishEpoch = %+v, want nil", tr)
	}
	if n := NowNano(); n != 0 {
		t.Fatalf("disabled NowNano = %d, want 0", n)
	}
}

func TestSpanRecordsIntoEpoch(t *testing.T) {
	withTracing(t)

	sp := StartSpan(nil, StageInfer, ControllerProc, 7)
	time.Sleep(time.Millisecond)
	sp.End()

	tr := FinishEpoch(7, 0)
	if tr == nil {
		t.Fatal("FinishEpoch returned nil after a recorded span")
	}
	if tr.Epoch != 7 || len(tr.Spans) != 1 {
		t.Fatalf("trace = epoch %d, %d spans; want epoch 7, 1 span", tr.Epoch, len(tr.Spans))
	}
	r := tr.Spans[0]
	if r.Stage != StageInfer || r.Proc != ControllerProc || r.Monitor != ControllerProc {
		t.Fatalf("span = %+v, want infer/controller", r)
	}
	if r.Dur <= 0 || tr.Dur != r.Dur {
		t.Fatalf("span dur %d, trace dur %d; want equal and positive", r.Dur, tr.Dur)
	}
	// The epoch is consumed: finishing again yields nothing.
	if tr2 := FinishEpoch(7, 0); tr2 != nil {
		t.Fatalf("second FinishEpoch returned %+v, want nil", tr2)
	}
}

func TestMonitorStagingAndTakeContext(t *testing.T) {
	withTracing(t)

	RecordSpan(StageCapture, 3, 11, 1000, 500)
	StartMonitorSpan(nil, StageSummarize, 3, 11).End()

	ctx := TakeContext(3)
	if ctx == nil || ctx.MonitorID != 3 || len(ctx.Spans) != 2 {
		t.Fatalf("TakeContext = %+v, want 2 spans for monitor 3", ctx)
	}
	if ctx.SentUnixNano == 0 {
		t.Fatal("TakeContext did not stamp SentUnixNano")
	}
	for _, s := range ctx.Spans {
		if s.Proc != 3 || s.Monitor != 3 {
			t.Fatalf("staged span has proc %d monitor %d, want 3/3", s.Proc, s.Monitor)
		}
	}
	// The staging queue drains.
	if again := TakeContext(3); again != nil {
		t.Fatalf("second TakeContext = %+v, want nil", again)
	}
}

// handOver moves monitor id's staged spans into epoch e the way the
// in-process pipeline does: the Context joins at its own send time.
func handOver(e uint64, id int) {
	if ctx := TakeContext(id); ctx != nil {
		AddRemoteContext(e, ctx, ctx.SentUnixNano)
	}
}

func TestInProcessHandOffUnshifted(t *testing.T) {
	withTracing(t)

	RecordSpan(StageCapture, 1, 4, 2000, 300)
	handOver(9, 1)

	tr := FinishEpoch(9, 0)
	if tr == nil || len(tr.Spans) != 1 {
		t.Fatalf("handed-over trace = %+v, want 1 span", tr)
	}
	if s := tr.Spans[0]; s.Start != 2000 || s.Dur != 300 {
		t.Fatalf("handed-over span = %+v, want unshifted 2000+300", s)
	}
}

func TestAddRemoteContextShiftsClock(t *testing.T) {
	withTracing(t)

	// The monitor's clock reads 1_000 when it sends; the controller
	// receives at its own 5_000 — every remote span shifts by +4_000.
	ctx := &Context{
		MonitorID:    2,
		SentUnixNano: 1_000,
		Spans: []SpanRecord{
			{Stage: StageSummarize, Proc: 2, Monitor: 2, Seq: 1, Start: 400, Dur: 100},
		},
	}
	AddRemoteContext(5, ctx, 5_000)

	tr := FinishEpoch(5, 0)
	if tr == nil || len(tr.Spans) != 1 {
		t.Fatalf("remote trace = %+v, want 1 span", tr)
	}
	if s := tr.Spans[0]; s.Start != 4_400 {
		t.Fatalf("remote span start = %d, want 400 + (5000-1000) = 4400", s.Start)
	}
}

func TestFinishEpochDeterministicOrder(t *testing.T) {
	withTracing(t)

	// Stage out of order across two monitors and the controller; the
	// sealed trace must sort by (Proc, Monitor, Stage, Seq, Start).
	col.stageEpoch(3, SpanRecord{Stage: StageInfer, Proc: ControllerProc, Monitor: ControllerProc, Seq: 3, Start: 50, Dur: 5})
	col.stageEpoch(3, SpanRecord{Stage: StageDecode, Proc: ControllerProc, Monitor: 1, Seq: 3, Start: 40, Dur: 5})
	col.stageEpoch(3, SpanRecord{Stage: StageSummarize, Proc: 1, Monitor: 1, Seq: 0, Start: 30, Dur: 5})
	col.stageEpoch(3, SpanRecord{Stage: StageCapture, Proc: 0, Monitor: 0, Seq: 0, Start: 20, Dur: 5})
	col.stageEpoch(3, SpanRecord{Stage: StageCapture, Proc: 0, Monitor: 0, Seq: 1, Start: 25, Dur: 5})

	tr := FinishEpoch(3, 0)
	if tr == nil {
		t.Fatal("FinishEpoch returned nil")
	}
	want := []struct {
		proc int32
		st   Stage
		seq  uint64
	}{
		{ControllerProc, StageInfer, 3}, // controller spans first (Proc -1), controller-wide (Monitor -1) before per-monitor
		{ControllerProc, StageDecode, 3},
		{0, StageCapture, 0},
		{0, StageCapture, 1},
		{1, StageSummarize, 0},
	}
	if len(tr.Spans) != len(want) {
		t.Fatalf("got %d spans, want %d", len(tr.Spans), len(want))
	}
	for i, w := range want {
		g := tr.Spans[i]
		if g.Proc != w.proc || g.Stage != w.st || g.Seq != w.seq {
			t.Fatalf("span[%d] = proc %d stage %v seq %d, want proc %d stage %v seq %d",
				i, g.Proc, g.Stage, g.Seq, w.proc, w.st, w.seq)
		}
	}
	if tr.Start != 20 || tr.Dur != 35 { // 20 … 55 (infer ends at 50+5)
		t.Fatalf("trace extent = start %d dur %d, want 20/35", tr.Start, tr.Dur)
	}
}

func TestCriticalPath(t *testing.T) {
	withTracing(t)

	// Monitor 0 finishes at 40; monitor 1 straggles to 80; the
	// controller's own inference runs 100..120. Critical path = monitor
	// 1's chain (capture, ship) then the controller stages.
	col.stageEpoch(2, SpanRecord{Stage: StageCapture, Proc: 0, Monitor: 0, Seq: 0, Start: 10, Dur: 30})
	col.stageEpoch(2, SpanRecord{Stage: StageCapture, Proc: 1, Monitor: 1, Seq: 0, Start: 10, Dur: 40})
	col.stageEpoch(2, SpanRecord{Stage: StageShip, Proc: ControllerProc, Monitor: 1, Seq: 2, Start: 60, Dur: 20})
	col.stageEpoch(2, SpanRecord{Stage: StageInfer, Proc: ControllerProc, Monitor: ControllerProc, Seq: 2, Start: 100, Dur: 20})

	tr := FinishEpoch(2, 0)
	if tr == nil {
		t.Fatal("FinishEpoch returned nil")
	}
	if tr.SlowestMonitor != 1 {
		t.Fatalf("slowest monitor = %d, want 1", tr.SlowestMonitor)
	}
	wantPath := []string{"capture", "ship", "infer"}
	if len(tr.CriticalPath) != len(wantPath) {
		t.Fatalf("critical path = %v, want %v", tr.CriticalPath, wantPath)
	}
	for i, s := range wantPath {
		if tr.CriticalPath[i] != s {
			t.Fatalf("critical path = %v, want %v", tr.CriticalPath, wantPath)
		}
	}
	// Path extent: 10 … 120.
	if got, want := tr.CriticalSeconds, 110/float64(time.Second); got != want {
		t.Fatalf("critical seconds = %g, want %g", got, want)
	}
}

func TestAlertLatency(t *testing.T) {
	withTracing(t)

	col.stageEpoch(4, SpanRecord{Stage: StageCapture, Proc: 0, Monitor: 0, Seq: 0, Start: 1_000, Dur: 100})
	col.stageEpoch(4, SpanRecord{Stage: StageInfer, Proc: ControllerProc, Monitor: ControllerProc, Seq: 4, Start: 2_000, Dur: 500})
	col.stageEpoch(4, SpanRecord{Stage: StageAlertEmit, Proc: ControllerProc, Monitor: ControllerProc, Seq: 4, Start: 2_500, Dur: 500})

	tr := FinishEpoch(4, 2)
	if tr == nil {
		t.Fatal("FinishEpoch returned nil")
	}
	if tr.Alerts != 2 {
		t.Fatalf("alerts = %d, want 2", tr.Alerts)
	}
	// Earliest capture 1_000 to alert-emit end 3_000.
	if got, want := tr.AlertLatencySeconds, 2_000/float64(time.Second); got != want {
		t.Fatalf("alert latency = %g s, want %g s", got, want)
	}
}

func TestAlertLatencyWithoutCaptureFallsBack(t *testing.T) {
	withTracing(t)

	col.stageEpoch(6, SpanRecord{Stage: StageInfer, Proc: ControllerProc, Monitor: ControllerProc, Seq: 6, Start: 100, Dur: 400})
	tr := FinishEpoch(6, 1)
	if tr == nil {
		t.Fatal("FinishEpoch returned nil")
	}
	// Earliest span start 100 to trace end 500.
	if got, want := tr.AlertLatencySeconds, 400/float64(time.Second); got != want {
		t.Fatalf("alert latency = %g s, want %g s", got, want)
	}
}

// slowEpoch seals epoch e with one handed-over monitor span lasting dur.
func slowEpoch(e uint64, dur time.Duration) *EpochTrace {
	RecordSpan(StageCapture, 0, e, int64(e)*int64(time.Hour), int64(dur))
	handOver(e, 0)
	return FinishEpoch(e, 0)
}

func TestSlowEpochExemplars(t *testing.T) {
	withTracing(t)
	obs.SetEnabled(true)
	t.Cleanup(func() {
		obs.SetEnabled(false)
		obs.ResetAll()
	})

	for e := uint64(0); e <= maxExemplars; e++ {
		if tr := slowEpoch(e, slowThreshold+time.Millisecond); tr == nil {
			t.Fatalf("epoch %d did not finish", e)
		}
	}
	ex := Exemplars()
	if len(ex) != maxExemplars {
		t.Fatalf("exemplar count = %d, want maxExemplars = %d", len(ex), maxExemplars)
	}
	// Oldest evicted: the survivors are epochs 1 … maxExemplars, in order.
	for i, tr := range ex {
		if tr.Epoch != uint64(i+1) {
			t.Fatalf("exemplar %d is epoch %d, want %d", i, tr.Epoch, i+1)
		}
	}
}

func TestFastEpochsAreNotExemplars(t *testing.T) {
	withTracing(t)
	if tr := slowEpoch(1, slowThreshold); tr == nil {
		t.Fatal("epoch did not finish")
	}
	if ex := Exemplars(); len(ex) != 0 {
		t.Fatalf("an epoch at the threshold pinned as exemplar: %+v", ex)
	}
}

func TestPendingEpochEviction(t *testing.T) {
	withTracing(t)

	// Fill beyond the pending cap; the oldest epoch's assembly is
	// dropped rather than growing without bound.
	for e := uint64(0); e <= maxPendingEpochs; e++ {
		col.stageEpoch(e, SpanRecord{Stage: StageInfer, Proc: ControllerProc, Monitor: ControllerProc, Seq: e})
	}
	if tr := FinishEpoch(0, 0); tr != nil {
		t.Fatalf("evicted epoch 0 still finished: %+v", tr)
	}
	if tr := FinishEpoch(maxPendingEpochs, 0); tr == nil {
		t.Fatal("newest epoch lost")
	}
}

func TestStagedSpanCap(t *testing.T) {
	withTracing(t)

	for i := 0; i < maxStagedSpans+5; i++ {
		RecordSpan(StageCapture, 0, uint64(i), int64(i), 1)
	}
	ctx := TakeContext(0)
	if ctx == nil || len(ctx.Spans) != maxStagedSpans {
		t.Fatalf("staged %d spans, want cap %d", len(ctx.Spans), maxStagedSpans)
	}
	// Oldest dropped: the first surviving span is seq 5.
	if ctx.Spans[0].Seq != 5 {
		t.Fatalf("oldest surviving seq = %d, want 5", ctx.Spans[0].Seq)
	}
}

// spanDisabledOp is one full instrumentation point (StartSpan + End)
// with tracing and obs off, and nowNanoDisabledOp the capture stamp with
// tracing off: a few nanoseconds with zero allocations, the contract that
// lets span sites sit on per-batch paths unguarded. The benchmarks time
// them and TestDisabledPathsZeroAlloc holds them to zero allocations.
func spanDisabledOp(testing.TB) func() {
	SetEnabled(false)
	obs.SetEnabled(false)
	var seq uint64
	return func() {
		StartSpan(hAlertLatency, StageInfer, ControllerProc, seq).End()
		seq++
	}
}

func nowNanoDisabledOp(tb testing.TB) func() {
	SetEnabled(false)
	return func() {
		if NowNano() != 0 {
			tb.Fatal("tracing enabled during the measurement")
		}
	}
}

func benchOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkTraceDisabled(b *testing.B)   { benchOp(b, spanDisabledOp(b)) }
func BenchmarkNowNanoDisabled(b *testing.B) { benchOp(b, nowNanoDisabledOp(b)) }

func TestDisabledPathsZeroAlloc(t *testing.T) {
	for _, c := range []struct {
		name string
		op   func(testing.TB) func()
	}{
		{"TraceDisabled", spanDisabledOp},
		{"NowNanoDisabled", nowNanoDisabledOp},
	} {
		t.Run(c.name, func(t *testing.T) {
			if n := testing.AllocsPerRun(1000, c.op(t)); n != 0 {
				t.Fatalf("%s made %v allocations per call, want 0", c.name, n)
			}
		})
	}
}
