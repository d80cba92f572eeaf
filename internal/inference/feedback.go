package inference

import (
	"fmt"
	"math"

	"repro/internal/packet"
	"repro/internal/rules"
)

// Verdict classifies the feedback loop's four cases (§5.3, Fig. 3).
type Verdict int

// Feedback-loop verdicts.
const (
	// VerdictAlert: t1 positive and t2 positive (case 1) — high
	// confidence attack; alert immediately.
	VerdictAlert Verdict = iota
	// VerdictClear: t1 negative and t2 negative (case 2) — no alert.
	VerdictClear
	// VerdictUncertain: t1 negative, t2 positive (case 3) — fetch raw
	// packets for the uncertain centroids and re-analyze.
	VerdictUncertain
	// VerdictAnomalous: t1 positive, t2 negative (case 4) — should not
	// occur since τ_d2 > τ_d1 implies t1's matches are a subset of
	// t2's; surfaced for observability.
	VerdictAnomalous
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictAlert:
		return "alert"
	case VerdictClear:
		return "clear"
	case VerdictUncertain:
		return "uncertain"
	case VerdictAnomalous:
		return "anomalous"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// classifyVerdict maps the two stage outcomes onto the four cases of
// Fig. 3. t1 is stage 1's full alert decision (count and variance), t2
// is stage 2's high-recall count trigger.
func classifyVerdict(t1, t2 bool) Verdict {
	switch {
	case t1 && t2:
		return VerdictAlert
	case !t1 && !t2:
		return VerdictClear
	case !t1 && t2:
		return VerdictUncertain
	default: // t1 && !t2
		return VerdictAnomalous
	}
}

// RawPacketFetcher retrieves the raw packet headers behind one centroid
// of one monitor's summary for RunFeedbackIndexed, which settles one question at
// a time: the experiments and tests implement it in memory. (The
// controller settles a whole round at once instead — Evaluator.Evaluate
// stages every question, then one exchange per monitor fetches all of
// the round's centroids on it, then FeedbackResult.Settle — and reaches
// its monitors through core.RawSource.)
type RawPacketFetcher interface {
	// FetchRaw returns the headers behind ref plus the number of
	// headers actually transferred over the wire for this call.
	// Fetchers that memoize within an epoch return transferred == 0 on
	// a cache hit, so one centroid pulled by several questions in the
	// same epoch is accounted (and transferred) exactly once; plain
	// uncached fetchers return transferred == len(headers).
	FetchRaw(ref CentroidRef) (hs []packet.Header, transferred int, err error)
}

// RawMatcher decides whether a set of raw packet headers constitutes the
// attack a question describes. The production implementation is the
// Snort-style raw engine; it is the "analysis ... by pattern matching
// using traditional Snort rules" of §5.3's case 3.
type RawMatcher interface {
	MatchRaw(q *rules.Question, hs []packet.Header) bool
}

// FeedbackConfig carries the per-attack two-stage configuration: stage 1
// is the low-FPR operating point (τ_d1, full τ_c), stage 2 the high-TPR
// one (τ_d2 ≥ τ_d1 and a τ_c relaxed by CountScale2 ≤ 1). Anything stage
// 2 catches that stage 1 missed is "uncertain" and resolved against raw
// packets (§5.3).
type FeedbackConfig struct {
	TauD1 float64
	TauD2 float64
	// CountScale2 relaxes stage 2's count threshold: τ_c2 = τ_c ×
	// CountScale2. Zero or 1 means no relaxation. Summaries lose part
	// of an attack's mass to contaminated clusters, so a count-bound
	// miss at stage 1 can only be recovered by a more sensitive second
	// stage; the raw-packet confirmation keeps the FPR in check.
	CountScale2 float64
}

// Validate reports whether the thresholds are ordered correctly and the
// configuration actually opens an uncertain band. τ_d1 == τ_d2 with no
// count relaxation makes stage 2 identical to stage 1 — the feedback
// loop would be "enabled" yet never fetch a raw packet, which is a
// misconfiguration masquerading as feedback, so it is rejected.
func (c FeedbackConfig) Validate() error {
	// NaN fails every comparison below, so it would pass them all.
	switch {
	case math.IsNaN(c.TauD1):
		return fmt.Errorf("inference: feedback TauD1 is NaN")
	case math.IsNaN(c.TauD2):
		return fmt.Errorf("inference: feedback TauD2 is NaN")
	case math.IsNaN(c.CountScale2):
		return fmt.Errorf("inference: feedback CountScale2 is NaN")
	}
	if c.TauD1 < 0 || c.TauD2 < c.TauD1 {
		return fmt.Errorf("inference: need 0 ≤ τ_d1 ≤ τ_d2, got %v, %v", c.TauD1, c.TauD2)
	}
	if c.CountScale2 < 0 || c.CountScale2 > 1 {
		return fmt.Errorf("inference: count scale %v outside [0,1]", c.CountScale2)
	}
	if c.TauD1 == c.TauD2 && (c.CountScale2 == 0 || c.CountScale2 == 1) {
		return fmt.Errorf("inference: degenerate feedback config: τ_d1 == τ_d2 == %v with count scale %v leaves an empty uncertain band (stage 2 ≡ stage 1)",
			c.TauD1, c.CountScale2)
	}
	return nil
}

// stage2Question returns q's copy with stage 2's relaxed τ_c.
func (c FeedbackConfig) stage2Question(q *rules.Question) *rules.Question {
	return q.WithCountThreshold(c.stage2CountThreshold(q.CountThreshold))
}

// stage2CountThreshold returns stage 2's relaxed τ_c.
func (c FeedbackConfig) stage2CountThreshold(tc int) int {
	if c.CountScale2 <= 0 || c.CountScale2 >= 1 {
		return tc
	}
	relaxed := int(float64(tc) * c.CountScale2)
	if relaxed < 1 {
		relaxed = 1
	}
	return relaxed
}

// FeedbackResult is the outcome of a two-stage inference for one question.
type FeedbackResult struct {
	Question *rules.Question
	Verdict  Verdict
	// Alerted is the final decision after any raw-packet re-analysis.
	Alerted bool
	// Stage1, Stage2 are the threshold-based results at τ_d1 and τ_d2.
	Stage1, Stage2 *MatchResult
	// RawPackets counts raw packet headers actually transferred by the
	// feedback — the extra communication cost of §5.3. Centroids served
	// from a per-epoch cache cost nothing here, so summing RawPackets
	// over an epoch's questions equals the deduplicated transfer.
	RawPackets int
}

// RunFeedbackIndexed performs the two-stage inference of §5.3 for one
// question.
//
// Both stages run over the same aggregate. Case 3 (uncertain) asks
// fetcher for the raw packets of every centroid matched at τ_d2 but not
// at τ_d1, and re-analyzes them with matcher; the final decision is the
// raw-analysis outcome. A nil fetcher or matcher downgrades case 3 to a
// summary-only decision at τ_d2 (alerting), preserving the high-TPR
// operating point at the price of FPR.
//
// candidate is the question index's verdict (true without an index):
// false means the index proved no centroid can match q at τ_d2 — the
// widest threshold either stage evaluates, which the index bound must
// cover — so both stages run the pruned fast path, the same tail code
// over an empty matched set, keeping the result byte-identical to the
// full scan's.
//
// It validates cfg and derives stage 2's question on every call, and
// both stages build their fetch rows; an Evaluator does all of that once
// per library. Like EstimateSimilarity, it stays only until ROADMAP D1.
func RunFeedbackIndexed(agg *Aggregate, q *rules.Question, cfg FeedbackConfig, fetcher RawPacketFetcher, matcher RawMatcher, candidate bool) (*FeedbackResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &FeedbackResult{
		Question: q,
		Stage1:   estimateOne(agg, q, cfg.TauD1, candidate),
		Stage2:   estimateOne(agg, cfg.stage2Question(q), cfg.TauD2, candidate),
	}
	res.decide()
	if res.Verdict != VerdictUncertain {
		return res, nil
	}
	if fetcher == nil || matcher == nil {
		res.Alerted = true
		return res, nil
	}
	var raw []packet.Header
	transferred := 0
	for _, row := range res.Stage2.FetchRows {
		hs, n, err := fetcher.FetchRaw(agg.Refs[row])
		if err != nil {
			return nil, fmt.Errorf("inference: feedback fetch: %w", err)
		}
		transferred += n
		raw = append(raw, hs...)
	}
	res.Settle(matcher, raw, transferred)
	return res, nil
}

// decide takes the verdict of Fig. 3 from the two stages. Every verdict
// but VerdictUncertain is final. An uncertain result keeps Alerted false
// until Settle has re-analyzed the raw packets behind Stage2.FetchRows —
// the uncertain evidence of Fig. 3, localized around the winning tracked
// value so the transfer stays proportional to the suspicion. (The set
// includes centroids stage 1 already matched below its count threshold:
// those packets are part of the same suspicion and the raw re-analysis
// needs them.)
func (r *FeedbackResult) decide() {
	t1 := r.Stage1.Alerted()
	// Stage 2 is a pure high-recall trigger: only the count matters.
	// Variance refinement belongs to stage 1 and to the raw re-analysis
	// — a wrong-window variance verdict must not suppress the fetch.
	t2 := r.Stage2.Matched
	r.Verdict = classifyVerdict(t1, t2)
	switch r.Verdict {
	case VerdictAlert:
		r.Alerted = true
	case VerdictAnomalous:
		r.Alerted = t1
	}
}

// Settle finishes an uncertain result: raw is the concatenation, in
// Stage2.FetchRows order, of the headers behind those rows; the final
// decision is matcher's verdict on them. transferred is recorded as
// RawPackets.
func (r *FeedbackResult) Settle(matcher RawMatcher, raw []packet.Header, transferred int) {
	r.RawPackets = transferred
	r.Alerted = matcher.MatchRaw(r.Question, raw)
}
