package core

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/inference"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/sketch"
	"repro/internal/snort"
	"repro/internal/summary"
	"repro/internal/trafficgen"
)

// countingSource wraps a monitor's raw source and counts how many times
// each (epoch, centroid) is pulled.
type countingSource struct {
	inner  RawSource
	calls  map[[2]uint64]int
	served int
}

func (s *countingSource) RawPackets(epoch uint64, centroid int) []packet.Header {
	s.calls[[2]uint64{epoch, uint64(centroid)}]++
	hs := s.inner.RawPackets(epoch, centroid)
	s.served += len(hs)
	return hs
}

// TestFeedbackFetchSharedCentroidOnce pins the per-epoch raw-fetch
// memoization: when several questions' uncertain bands cover the same
// centroid, the monitor is asked for it exactly once and the transfer
// is accounted exactly once (stats equal the deduplicated header count
// actually served, not the per-question sum).
func TestFeedbackFetchSharedCentroidOnce(t *testing.T) {
	m, err := NewMonitorSketch(1, smallSummaryConfig(), sketch.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(7))
	atk, _ := trafficgen.NewAttack(rules.AttackDistributedSYNFlood,
		trafficgen.AttackConfig{Seed: 7, Victim: 0x0A000001})
	mix := trafficgen.NewMixer(bg, atk, trafficgen.MixConfig{Seed: 7})
	for _, lp := range mix.Batch(4000) {
		if err := m.Ingest(lp.Header); err != nil {
			t.Fatal(err)
		}
	}
	ss, _, err := m.CollectSummaries()
	if err != nil {
		t.Fatal(err)
	}

	qs := testQuestions(t, 4000)
	fb := make(map[rules.AttackID]inference.FeedbackConfig)
	for id := range qs {
		// τ_d1 = 0 forces every τ_d2 match into the uncertain band, so
		// all questions fetch and their fetch sets overlap heavily.
		fb[id] = inference.FeedbackConfig{TauD1: 0, TauD2: 0.2}
	}
	ctrl, err := NewController(ControllerConfig{
		Env: testEnv(), Questions: qs, Feedback: fb, UseFeedback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{inner: m, calls: make(map[[2]uint64]int)}
	ctrl.RegisterSource(1, src)
	if _, err := ctrl.ProcessEpoch(ss); err != nil {
		t.Fatal(err)
	}
	if len(src.calls) == 0 {
		t.Fatal("workload produced no raw fetches; the test exercises nothing")
	}
	for key, n := range src.calls {
		if n != 1 {
			t.Errorf("centroid (epoch %d, c %d) fetched %d times, want 1", key[0], key[1], n)
		}
	}
	if st := ctrl.Stats(); st.RawPacketsFetched != src.served {
		t.Fatalf("stats count %d raw headers, source served %d — transfer double-counted",
			st.RawPacketsFetched, src.served)
	}
}

// memoFetcher is the textbook per-round fetcher: the first pull of a
// centroid transfers, a repeat is served from the memo for nothing.
type memoFetcher struct {
	sources map[int]RawSource
	memo    map[inference.CentroidRef][]packet.Header
}

func (f *memoFetcher) FetchRaw(ref inference.CentroidRef) ([]packet.Header, int, error) {
	if hs, ok := f.memo[ref]; ok {
		return hs, 0, nil
	}
	hs := f.sources[ref.MonitorID].RawPackets(ref.Epoch, ref.Centroid)
	f.memo[ref] = hs
	return hs, len(hs), nil
}

// exclusiveSource fails the test when two pulls are in flight on it at
// once: a monitor's connection carries one exchange at a time, and the
// round is supposed to drive each with a single goroutine.
type exclusiveSource struct {
	t        *testing.T
	inner    RawSource
	inFlight atomic.Int32
	calls    atomic.Int32
}

func (s *exclusiveSource) RawPackets(epoch uint64, centroid int) []packet.Header {
	if s.inFlight.Add(1) != 1 {
		s.t.Error("two raw pulls in flight on one monitor")
	}
	defer s.inFlight.Add(-1)
	s.calls.Add(1)
	runtime.Gosched() // give a second puller the chance to show up
	return s.inner.RawPackets(epoch, centroid)
}

// twoMonitorRound feeds attack-laden traffic to two monitors and returns
// them with their summaries and questions whose uncertain bands overlap.
func twoMonitorRound(t *testing.T) ([2]*Monitor, []*summary.Summary, map[rules.AttackID]*rules.Question, map[rules.AttackID]inference.FeedbackConfig) {
	t.Helper()
	var ms [2]*Monitor
	for i := range ms {
		m, err := NewMonitorSketch(i+1, smallSummaryConfig(), sketch.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ms[i] = m
	}
	bg := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(7))
	atk, _ := trafficgen.NewAttack(rules.AttackDistributedSYNFlood,
		trafficgen.AttackConfig{Seed: 7, Victim: 0x0A000001})
	mix := trafficgen.NewMixer(bg, atk, trafficgen.MixConfig{Seed: 7})
	for i, lp := range mix.Batch(8000) {
		if err := ms[i%2].Ingest(lp.Header); err != nil {
			t.Fatal(err)
		}
	}
	var ss []*summary.Summary
	for _, m := range ms {
		got, _, err := m.CollectSummaries()
		if err != nil {
			t.Fatal(err)
		}
		ss = append(ss, got...)
	}
	qs := testQuestions(t, 8000)
	fb := make(map[rules.AttackID]inference.FeedbackConfig)
	for id := range qs {
		// τ_d1 = 0 forces every τ_d2 match into the uncertain band, so
		// all questions fetch and their fetch sets overlap heavily.
		fb[id] = inference.FeedbackConfig{TauD1: 0, TauD2: 0.2}
	}
	return ms, ss, qs, fb
}

// TestSettleUncertainMatchesPerQuestionFeedback pins the round-level raw
// re-analysis against the per-question loop it replaced: staging every
// question and settling the round gives each question exactly the result
// inference.RunFeedbackIndexed gives it when the questions run one after
// another, in evaluation order, over a memoizing fetcher — verdict,
// decision, fetch count, and the transfer charged to the first question
// that wants a shared centroid.
func TestSettleUncertainMatchesPerQuestionFeedback(t *testing.T) {
	ms, ss, qs, fb := twoMonitorRound(t)
	ctrl, err := NewController(ControllerConfig{
		Env: testEnv(), Questions: qs, Feedback: fb, UseFeedback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.RegisterSource(1, ms[0])
	ctrl.RegisterSource(2, ms[1])
	agg, err := inference.AggregateSummaries(ss)
	if err != nil {
		t.Fatal(err)
	}
	var matcher inference.RawMatcher = snort.RawMatcher{Env: testEnv()}

	fet := &memoFetcher{sources: map[int]RawSource{1: ms[0], 2: ms[1]}, memo: make(map[inference.CentroidRef][]packet.Header)}
	want := make([]*inference.FeedbackResult, len(ctrl.ids))
	var staged inference.Results
	ctrl.eval.Evaluate(agg, nil, &staged)
	uncertain, wantTransferred := 0, 0
	for i, id := range ctrl.ids {
		want[i], err = inference.RunFeedbackIndexed(agg, ctrl.qs[i], fb[id], fet, matcher, true)
		if err != nil {
			t.Fatal(err)
		}
		wantTransferred += want[i].RawPackets
		if want[i].Verdict == inference.VerdictUncertain {
			uncertain++
		}
	}
	if uncertain < 2 || wantTransferred == 0 {
		t.Fatalf("round has %d uncertain questions and %d raw headers; the test exercises nothing", uncertain, wantTransferred)
	}

	got := ctrl.settleUncertain(agg, 0, staged.Feedbacks(), matcher)
	if got != wantTransferred {
		t.Errorf("round transferred %d raw headers, per-question loop %d", got, wantTransferred)
	}
	for i, id := range ctrl.ids {
		// Only stage 2's fetch rows are built in a round: nothing reads
		// stage 1's.
		w := *want[i]
		s1 := *w.Stage1
		s1.FetchRows, w.Stage1 = nil, &s1
		if g := staged.Feedback(i); !reflect.DeepEqual(g, &w) {
			t.Errorf("%s: settled round gives %+v, per-question loop %+v", id, g, &w)
		}
	}
}

// TestSettleUncertainOneGoroutinePerMonitor pins how the round reaches
// its monitors: never two pulls at once on one of them, every wanted
// centroid pulled, and a monitor without a registered source read as a
// failed exchange — its questions settle on no packets, the epoch's
// other alerts stand, and its centroids are counted in
// jaal_feedback_fetch_failures_total.
func TestSettleUncertainOneGoroutinePerMonitor(t *testing.T) {
	ms, ss, qs, fb := twoMonitorRound(t)
	newCtrl := func() *Controller {
		ctrl, err := NewController(ControllerConfig{
			Env: testEnv(), Questions: qs, Feedback: fb, UseFeedback: true, Workers: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	}

	ctrl := newCtrl()
	srcs := [2]*exclusiveSource{{t: t, inner: ms[0]}, {t: t, inner: ms[1]}}
	ctrl.RegisterSource(1, srcs[0])
	ctrl.RegisterSource(2, srcs[1])
	if _, err := ctrl.ProcessEpoch(ss); err != nil {
		t.Fatal(err)
	}
	for i, s := range srcs {
		if s.calls.Load() == 0 {
			t.Errorf("monitor %d was never pulled from; the test exercises nothing", i+1)
		}
	}

	obs.SetEnabled(true)
	defer func() { obs.SetEnabled(false); obs.ResetAll() }()
	empty := &emptySource{}
	wantAlerts, wantStats := runRound(t, ss, qs, fb, ms[0], empty)
	if empty.asked == 0 || wantStats.AlertsRaised == 0 {
		t.Fatalf("monitor 2 was asked for %d centroids and the round raised %d alerts; the test exercises nothing",
			empty.asked, wantStats.AlertsRaised)
	}
	before := cFetchFailures.Value()
	gotAlerts, gotStats := runRound(t, ss, qs, fb, ms[0], nil)
	if gotAlerts != wantAlerts || gotStats != wantStats {
		t.Fatalf("round with monitor 2 unregistered:\n%s%+v\nwant monitor 2 read as empty:\n%s%+v",
			gotAlerts, gotStats, wantAlerts, wantStats)
	}
	if d := cFetchFailures.Value() - before; d != int64(empty.asked) {
		t.Fatalf("jaal_feedback_fetch_failures_total moved by %d, want monitor 2's %d centroids", d, empty.asked)
	}
}
