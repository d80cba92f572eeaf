package inference

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/summary"
)

// TestClassifyVerdict pins the Fig. 3 case table, including case 4
// (t1 ∧ ¬t2), which stage monotonicity makes unreachable through
// RunFeedbackIndexed with a validated config but which the controller's
// verdict accounting must still name correctly.
func TestClassifyVerdict(t *testing.T) {
	cases := []struct {
		t1, t2 bool
		want   Verdict
	}{
		{true, true, VerdictAlert},
		{false, false, VerdictClear},
		{false, true, VerdictUncertain},
		{true, false, VerdictAnomalous},
	}
	for _, c := range cases {
		if got := classifyVerdict(c.t1, c.t2); got != c.want {
			t.Errorf("classifyVerdict(%v, %v) = %v, want %v", c.t1, c.t2, got, c.want)
		}
	}
	if VerdictAnomalous.String() != "anomalous" {
		t.Errorf("VerdictAnomalous.String() = %q", VerdictAnomalous.String())
	}
	if got := Verdict(99).String(); got != "verdict(99)" {
		t.Errorf("unknown verdict renders %q", got)
	}
}

// TestFeedbackAnomalousUnreachable documents why case 4 cannot fire
// from real aggregates: τ_d2 ≥ τ_d1 and τ_c2 ≤ τ_c make stage 2's
// count trigger monotone in stage 1's, so t1 ⇒ t2 across a sweep of
// operating points.
func TestFeedbackAnomalousUnreachable(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	mixed := append(benignHeaders(rng, 700), synFloodHeaders(rng, 300, 0x0A000001)...)
	sum := summarize(t, mixed, 0, 0)
	agg, err := AggregateSummaries([]*summary.Summary{sum})
	if err != nil {
		t.Fatal(err)
	}
	q := synQuestion(t, 80)
	for _, tau1 := range []float64{0, 0.01, 0.05, 0.08, 0.15} {
		for _, tau2 := range []float64{0.02, 0.08, 0.2, 0.4} {
			if tau2 <= tau1 {
				continue
			}
			for _, cs := range []float64{0, 0.3, 0.7, 1} {
				res, err := RunFeedbackIndexed(agg, q, FeedbackConfig{TauD1: tau1, TauD2: tau2, CountScale2: cs}, nil, nil, true)
				if err != nil {
					t.Fatal(err)
				}
				if res.Verdict == VerdictAnomalous {
					t.Fatalf("anomalous verdict at τ_d1=%v τ_d2=%v cs=%v: stage monotonicity violated", tau1, tau2, cs)
				}
			}
		}
	}
}

func TestStage2CountThreshold(t *testing.T) {
	cases := []struct {
		scale float64
		tc    int
		want  int
	}{
		{0, 100, 100},   // zero means no relaxation
		{1, 100, 100},   // one means no relaxation
		{0.5, 100, 50},  // plain relaxation
		{0.55, 9, 4},    // truncation toward zero
		{0.5, 1, 1},     // relaxed < 1 clamps to 1
		{0.001, 100, 1}, // aggressive relaxation clamps to 1
		{0.5, 0, 1},     // zero τ_c still clamps up to 1
	}
	for _, c := range cases {
		cfg := FeedbackConfig{TauD1: 0.01, TauD2: 0.1, CountScale2: c.scale}
		if got := cfg.stage2CountThreshold(c.tc); got != c.want {
			t.Errorf("stage2CountThreshold(scale=%v, tc=%d) = %d, want %d", c.scale, c.tc, got, c.want)
		}
	}
}

func TestValidateRejectsDegenerateBand(t *testing.T) {
	for _, cs := range []float64{0, 1} {
		err := (FeedbackConfig{TauD1: 0.1, TauD2: 0.1, CountScale2: cs}).Validate()
		if err == nil {
			t.Fatalf("τ_d1 == τ_d2 with CountScale2=%v must be rejected", cs)
		}
		if !strings.Contains(err.Error(), "degenerate") {
			t.Fatalf("error should name the degeneracy, got %v", err)
		}
	}
	// Equal thresholds with a real count relaxation keep a usable band.
	if err := (FeedbackConfig{TauD1: 0.1, TauD2: 0.1, CountScale2: 0.5}).Validate(); err != nil {
		t.Fatalf("count-relaxed equal thresholds are valid: %v", err)
	}
	// And distinct thresholds remain valid with any legal scale.
	for _, cs := range []float64{0, 0.5, 1} {
		if err := (FeedbackConfig{TauD1: 0.05, TauD2: 0.1, CountScale2: cs}).Validate(); err != nil {
			t.Fatalf("valid config rejected (cs=%v): %v", cs, err)
		}
	}
}

func TestFeedbackRawPacketsCountTransferOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	mixed := append(benignHeaders(rng, 900), synFloodHeaders(rng, 100, 0x0A000001)...)
	buf := summary.NewBuffer(len(mixed))
	var batch *summary.Batch
	for _, h := range mixed {
		batch, _ = buf.Add(h)
	}
	if batch == nil {
		t.Fatal("batch not sealed")
	}
	sum := summarize(t, batch.Headers, 1, batch.Epoch)
	buf.Retain(batch, sum)
	agg, _ := AggregateSummaries([]*summary.Summary{sum})
	q := synQuestion(t, 60)

	// First run against a cold fetcher: everything is a transfer.
	cold := &memFetcher{buffers: map[int]*summary.Buffer{1: buf}}
	res1, err := RunFeedbackIndexed(agg, q, FeedbackConfig{TauD1: 0, TauD2: 0.2}, cold, thresholdMatcher{minSYN: 60}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Verdict != VerdictUncertain || res1.RawPackets == 0 {
		t.Fatalf("expected uncertain with transfers, got %v/%d", res1.Verdict, res1.RawPackets)
	}
	coldCalls := cold.calls

	// Second run through a fetcher that reports zero transferred (a
	// warm per-epoch cache): same raw data, zero accounted cost.
	warm := &zeroTransferFetcher{inner: cold}
	res2, err := RunFeedbackIndexed(agg, q, FeedbackConfig{TauD1: 0, TauD2: 0.2}, warm, thresholdMatcher{minSYN: 60}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Alerted != res1.Alerted {
		t.Fatal("cache hits must not change the decision")
	}
	if res2.RawPackets != 0 {
		t.Fatalf("cache hits accounted %d transferred packets, want 0", res2.RawPackets)
	}
	if warmCalls := cold.calls - coldCalls; warmCalls != coldCalls {
		t.Fatalf("fetch requests differ: %d vs %d", warmCalls, coldCalls)
	}
}

// zeroTransferFetcher wraps a fetcher, reporting every pull as a cache
// hit (transferred == 0).
type zeroTransferFetcher struct{ inner RawPacketFetcher }

func (f *zeroTransferFetcher) FetchRaw(ref CentroidRef) ([]packet.Header, int, error) {
	hs, _, err := f.inner.FetchRaw(ref)
	return hs, 0, err
}
