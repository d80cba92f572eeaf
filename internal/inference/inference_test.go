package inference

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/linalg"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/summary"
)

// benignHeaders fabricates established-looking TCP traffic.
func benignHeaders(rng *rand.Rand, n int) []packet.Header {
	hs := make([]packet.Header, n)
	for i := range hs {
		hs[i] = packet.Header{
			SrcIP:       rng.Uint32(),
			DstIP:       0x0A000000 | rng.Uint32()&0xFFFF, // 10.0.x.x
			Protocol:    packet.ProtoTCP,
			TTL:         64,
			TotalLength: uint16(40 + rng.Intn(1400)),
			IPID:        uint16(rng.Intn(65536)),
			SrcPort:     uint16(1024 + rng.Intn(60000)),
			DstPort:     [4]uint16{80, 443, 8080, 25}[rng.Intn(4)],
			Seq:         rng.Uint32(),
			Ack:         rng.Uint32(),
			DataOffset:  5,
			Flags:       packet.FlagACK,
			Window:      uint16(8192 + rng.Intn(57343)),
		}
	}
	return hs
}

// synFloodHeaders fabricates a SYN flood against one victim from many
// random sources.
func synFloodHeaders(rng *rand.Rand, n int, victim uint32) []packet.Header {
	hs := make([]packet.Header, n)
	for i := range hs {
		hs[i] = packet.Header{
			SrcIP:       rng.Uint32(),
			DstIP:       victim,
			Protocol:    packet.ProtoTCP,
			TTL:         uint8(32 + rng.Intn(96)),
			TotalLength: 40,
			IPID:        uint16(rng.Intn(65536)),
			SrcPort:     uint16(1024 + rng.Intn(60000)),
			DstPort:     80,
			Seq:         rng.Uint32(),
			DataOffset:  5,
			Flags:       packet.FlagSYN,
			Window:      65535,
		}
	}
	return hs
}

func summarize(t *testing.T, hs []packet.Header, monitorID int, epoch uint64) *summary.Summary {
	t.Helper()
	s, err := summary.NewSummarizer(summary.Config{
		BatchSize: len(hs), Rank: 12, Centroids: len(hs) / 5, MinBatch: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Summarize(hs, monitorID, epoch)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func synQuestion(t *testing.T, count int) *rules.Question {
	t.Helper()
	r, err := rules.Parse(`alert tcp any any -> any any (msg:"SYN flood"; flags:S; sid:1;)`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := rules.Translate(r, nil, rules.DefaultTranslateConfig())
	if err != nil {
		t.Fatal(err)
	}
	return q.WithCountThreshold(count).WithDistanceThreshold(0.08)
}

func TestAggregateCombinesMonitors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s1 := summarize(t, benignHeaders(rng, 200), 1, 5)
	s2 := summarize(t, benignHeaders(rng, 300), 2, 5)
	agg, err := AggregateSummaries([]*summary.Summary{s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Rows() != s1.K()+s2.K() {
		t.Fatalf("aggregate has %d rows, want %d", agg.Rows(), s1.K()+s2.K())
	}
	if agg.TotalPackets != 500 {
		t.Fatalf("total packets = %d, want 500", agg.TotalPackets)
	}
	if agg.Elements != s1.Elements()+s2.Elements() {
		t.Fatalf("elements = %d, want %d", agg.Elements, s1.Elements()+s2.Elements())
	}
	// Refs must track origins.
	if agg.Refs[0].MonitorID != 1 || agg.Refs[agg.Rows()-1].MonitorID != 2 {
		t.Fatalf("refs mislabeled: first=%+v last=%+v", agg.Refs[0], agg.Refs[agg.Rows()-1])
	}
}

func TestAggregateEmpty(t *testing.T) {
	agg, err := AggregateSummaries(nil)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Rows() != 0 || agg.TotalPackets != 0 {
		t.Fatalf("empty aggregate: %+v", agg)
	}
}

func TestEstimateSimilarityDetectsSYNFlood(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mixed := append(benignHeaders(rng, 800), synFloodHeaders(rng, 200, 0x0A000001)...)
	sum := summarize(t, mixed, 0, 0)
	agg, err := AggregateSummaries([]*summary.Summary{sum})
	if err != nil {
		t.Fatal(err)
	}
	q := synQuestion(t, 100)
	res := EstimateSimilarity(agg, q)
	if !res.Matched {
		t.Fatalf("SYN flood not detected: matched count %d", res.MatchedCount)
	}
	// The matched count should be in the ballpark of the 200 injected
	// SYNs (clustering may blur boundaries slightly).
	if res.MatchedCount < 120 || res.MatchedCount > 350 {
		t.Fatalf("matched count = %d, expected ≈200", res.MatchedCount)
	}
}

func TestEstimateSimilarityCleanTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sum := summarize(t, benignHeaders(rng, 1000), 0, 0)
	agg, err := AggregateSummaries([]*summary.Summary{sum})
	if err != nil {
		t.Fatal(err)
	}
	q := synQuestion(t, 100)
	res := EstimateSimilarity(agg, q)
	if res.Matched {
		t.Fatalf("false positive on clean traffic: matched %d packets", res.MatchedCount)
	}
}

func TestPostprocessorDistinguishesDistributed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	victim := uint32(0x0A000001)

	// Distributed flood: many random sources.
	dist := append(benignHeaders(rng, 500), synFloodHeaders(rng, 300, victim)...)
	// Single-source flood: one attacker.
	single := append(benignHeaders(rng, 500), func() []packet.Header {
		hs := synFloodHeaders(rng, 300, victim)
		for i := range hs {
			hs[i].SrcIP = 0x01020304
		}
		return hs
	}()...)

	q := synQuestion(t, 100).WithVariance(packet.FieldSrcIP, 0.01)

	check := func(hs []packet.Header) *MatchResult {
		sum := summarize(t, hs, 0, 0)
		agg, err := AggregateSummaries([]*summary.Summary{sum})
		if err != nil {
			t.Fatal(err)
		}
		return EstimateSimilarity(agg, q)
	}

	rd := check(dist)
	if !rd.Matched || !rd.VariancePassed {
		t.Fatalf("distributed flood: matched=%v variancePassed=%v var=%v", rd.Matched, rd.VariancePassed, rd.Variance)
	}
	rs := check(single)
	if !rs.Matched {
		t.Fatal("single-source flood must still match the signature")
	}
	if rs.VariancePassed {
		t.Fatalf("single-source flood must fail the src-IP variance check (var=%v)", rs.Variance)
	}
	if rd.Variance <= rs.Variance {
		t.Fatalf("distributed variance %v must exceed single-source %v", rd.Variance, rs.Variance)
	}
}

func TestMatchedVarianceEmpty(t *testing.T) {
	agg := &Aggregate{Representatives: linalg.NewMatrix(0, packet.NumFields)}
	if v := MatchedVariance(agg, nil, packet.FieldSrcIP); v != 0 {
		t.Fatalf("variance of empty match set = %v, want 0", v)
	}
}

func TestEvaluateAll(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sum := summarize(t, benignHeaders(rng, 400), 0, 0)
	agg, _ := AggregateSummaries([]*summary.Summary{sum})
	qs := []*rules.Question{synQuestion(t, 1), synQuestion(t, 1000000)}
	res := linearSweepOracle(agg, qs)
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	if res[1].Matched {
		t.Fatal("absurd count threshold must not match")
	}
}

// memFetcher serves raw packets from summaries' retained assignments.
type memFetcher struct {
	buffers map[int]*summary.Buffer
	calls   int
}

func (f *memFetcher) FetchRaw(ref CentroidRef) ([]packet.Header, int, error) {
	f.calls++
	b, ok := f.buffers[ref.MonitorID]
	if !ok {
		return nil, 0, errors.New("no such monitor")
	}
	hs := b.RawPackets(ref.Epoch, ref.Centroid)
	return hs, len(hs), nil
}

// thresholdMatcher alerts when at least minSYN raw packets carry SYN.
type thresholdMatcher struct{ minSYN int }

func (m thresholdMatcher) MatchRaw(q *rules.Question, hs []packet.Header) bool {
	n := 0
	for i := range hs {
		if hs[i].Flags.Has(packet.FlagSYN) {
			n++
		}
	}
	return n >= m.minSYN
}

func TestFeedbackConfigValidate(t *testing.T) {
	if err := (FeedbackConfig{TauD1: 0.1, TauD2: 0.05}).Validate(); err == nil {
		t.Fatal("τ_d2 < τ_d1 must be rejected")
	}
	if err := (FeedbackConfig{TauD1: -1, TauD2: 0}).Validate(); err == nil {
		t.Fatal("negative τ_d1 must be rejected")
	}
	if err := (FeedbackConfig{TauD1: 0.02, TauD2: 0.1}).Validate(); err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	for _, c := range []struct {
		field string
		cfg   FeedbackConfig
	}{
		{"TauD1", FeedbackConfig{TauD1: nan, TauD2: 0.1}},
		{"TauD2", FeedbackConfig{TauD1: 0.02, TauD2: nan}},
		{"CountScale2", FeedbackConfig{TauD1: 0.02, TauD2: 0.1, CountScale2: nan}},
	} {
		err := c.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("NaN %s: Validate() = %v, want an error naming the field", c.field, err)
		}
	}
}

func TestFeedbackCaseAlert(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	mixed := append(benignHeaders(rng, 600), synFloodHeaders(rng, 400, 0x0A000001)...)
	sum := summarize(t, mixed, 0, 0)
	agg, _ := AggregateSummaries([]*summary.Summary{sum})
	q := synQuestion(t, 100)
	fetcher := &memFetcher{}
	res, err := RunFeedbackIndexed(agg, q, FeedbackConfig{TauD1: 0.08, TauD2: 0.2}, fetcher, thresholdMatcher{minSYN: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictAlert || !res.Alerted {
		t.Fatalf("verdict = %v alerted = %v, want alert", res.Verdict, res.Alerted)
	}
	if fetcher.calls != 0 || res.RawPackets != 0 {
		t.Fatalf("case 1 must not fetch raw packets: %d fetches, %d packets", fetcher.calls, res.RawPackets)
	}
}

func TestFeedbackCaseClear(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sum := summarize(t, benignHeaders(rng, 600), 0, 0)
	agg, _ := AggregateSummaries([]*summary.Summary{sum})
	q := synQuestion(t, 100)
	res, err := RunFeedbackIndexed(agg, q, FeedbackConfig{TauD1: 0.01, TauD2: 0.02}, nil, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictClear || res.Alerted {
		t.Fatalf("verdict = %v alerted = %v, want clear", res.Verdict, res.Alerted)
	}
}

func TestFeedbackCaseUncertainFetchesRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// A modest flood that the tight threshold misses but the loose one
	// catches: engineered by sandwiching flood packets among benign
	// ones so centroids land between the two thresholds.
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
	fetcher := &memFetcher{buffers: map[int]*summary.Buffer{1: buf}}
	// τ_d1 = 0 (only exact matches — clustering noise keeps centroids
	// off the exact signature), τ_d2 loose.
	res, err := RunFeedbackIndexed(agg, q, FeedbackConfig{TauD1: 0.0, TauD2: 0.2}, fetcher, thresholdMatcher{minSYN: 60}, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictUncertain {
		t.Fatalf("verdict = %v, want uncertain (s1=%d s2=%d)", res.Verdict, res.Stage1.MatchedCount, res.Stage2.MatchedCount)
	}
	if fetcher.calls == 0 || fetcher.calls != len(res.Stage2.FetchRows) {
		t.Fatalf("case 3 must fetch the raw packets of every fetch row: %d fetches for %d rows", fetcher.calls, len(res.Stage2.FetchRows))
	}
	if !res.Alerted {
		t.Fatalf("raw re-analysis must confirm the flood (fetched %d packets)", res.RawPackets)
	}
	if res.RawPackets == 0 {
		t.Fatal("raw packet count must be accounted")
	}
}

func TestFeedbackUncertainWithoutFetcherAlerts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mixed := append(benignHeaders(rng, 900), synFloodHeaders(rng, 100, 0x0A000001)...)
	sum := summarize(t, mixed, 0, 0)
	agg, _ := AggregateSummaries([]*summary.Summary{sum})
	q := synQuestion(t, 60)
	res, err := RunFeedbackIndexed(agg, q, FeedbackConfig{TauD1: 0.0, TauD2: 0.2}, nil, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictUncertain || !res.Alerted {
		t.Fatalf("nil fetcher must fall back to alerting: %v/%v", res.Verdict, res.Alerted)
	}
}

// TestStageThenSettleEqualsRunFeedback pins the split a round-level
// caller uses: staging a question with an Evaluator and, when it is left
// uncertain, settling it against the headers behind its stage-2 fetch
// rows gives the result RunFeedbackIndexed gives, but for stage 1's
// fetch rows, which the Evaluator does not build; a settled verdict
// needs no Settle at all.
func TestStageThenSettleEqualsRunFeedback(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
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
	fetcher := &memFetcher{buffers: map[int]*summary.Buffer{1: buf}}

	verdicts := make(map[Verdict]bool)
	for _, tc := range []struct {
		count int
		cfg   FeedbackConfig
		match thresholdMatcher
	}{
		{60, FeedbackConfig{TauD1: 0, TauD2: 0.2}, thresholdMatcher{minSYN: 60}},      // uncertain, confirmed
		{60, FeedbackConfig{TauD1: 0, TauD2: 0.2}, thresholdMatcher{minSYN: 1 << 20}}, // uncertain, refuted
		{60, FeedbackConfig{TauD1: 0.2, TauD2: 0.3}, thresholdMatcher{minSYN: 60}},    // alert at stage 1
		{1000000, FeedbackConfig{TauD1: 0, TauD2: 0.2}, thresholdMatcher{minSYN: 60}}, // clear
	} {
		q := synQuestion(t, tc.count)
		want, err := RunFeedbackIndexed(agg, q, tc.cfg, fetcher, tc.match, true)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := NewEvaluator([]*rules.Question{q}, []*FeedbackConfig{&tc.cfg}, 1)
		if err != nil {
			t.Fatal(err)
		}
		var staged Results
		ev.Evaluate(agg, nil, &staged)
		got := staged.Feedback(0)
		if got.Stage1.FetchRows != nil {
			t.Fatalf("stage 1 built %d fetch rows that nothing reads", len(got.Stage1.FetchRows))
		}
		s1 := *want.Stage1
		s1.FetchRows, want.Stage1 = nil, &s1
		verdicts[got.Verdict] = true
		if got.Verdict == VerdictUncertain {
			if got.Alerted {
				t.Fatal("an uncertain result must not alert before it is settled")
			}
			var raw []packet.Header
			for _, row := range got.Stage2.FetchRows {
				hs, _, _ := fetcher.FetchRaw(agg.Refs[row])
				raw = append(raw, hs...)
			}
			got.Settle(tc.match, raw, len(raw))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("count %d, %+v: staged and settled %+v, RunFeedbackIndexed %+v", tc.count, tc.cfg, got, want)
		}
	}
	for _, v := range []Verdict{VerdictAlert, VerdictClear, VerdictUncertain} {
		if !verdicts[v] {
			t.Errorf("no case reached verdict %v; the test exercises less than it claims", v)
		}
	}
}

func TestAlertConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	mixed := append(benignHeaders(rng, 500), synFloodHeaders(rng, 300, 0x0A000001)...)
	sum := summarize(t, mixed, 0, 3)
	agg, _ := AggregateSummaries([]*summary.Summary{sum})
	q := synQuestion(t, 100).WithVariance(packet.FieldSrcIP, 0.01)
	m := EstimateSimilarity(agg, q)
	a := NewAlertFromMatch(rules.AttackDistributedSYNFlood, 3, m, nil)
	if a.Attack != rules.AttackDistributedSYNFlood || a.Epoch != 3 {
		t.Fatalf("alert = %+v", a)
	}
	if want := DefaultClock.At(3); !a.Time.Equal(want) {
		t.Fatalf("alert time = %v, want epoch-derived %v", a.Time, want)
	}
	if a.SID != 1 {
		t.Fatalf("sid = %d, want 1", a.SID)
	}
	if !a.Distributed {
		t.Fatal("distributed flood alert must be flagged distributed")
	}
	if a.String() == "" {
		t.Fatal("alert must render")
	}
}
