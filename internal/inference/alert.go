package inference

import (
	"strconv"
	"time"

	"repro/internal/rules"
)

// Alert timestamps come from an injected Clock (clock.go), never from
// time.Now: wall-clock stamps made same-seed alert streams differ
// byte-for-byte, which broke the reproducibility contract every
// experiment relies on.

// Alert is an issued intrusion alert.
type Alert struct {
	// Attack identifies the matched attack/rule.
	Attack rules.AttackID
	// SID is the Snort rule ID that fired.
	SID int
	// Msg is the rule's message.
	Msg string
	// Epoch is the inference round that produced the alert.
	Epoch uint64
	// Time is the issue time as derived from the epoch by the
	// controller's Clock — simulation time, not the wall clock, so
	// same-seed runs emit identical alerts.
	Time time.Time
	// MatchedPackets is the estimated number of packets behind the
	// alert (Σ c_i over matching centroids).
	MatchedPackets int
	// Distributed reports whether the postprocessor classified the
	// attack as distributed (variance over threshold).
	Distributed bool
	// Variance is the measured postprocessor variance, when applicable.
	Variance float64
	// ViaFeedback reports whether the alert needed the raw-packet
	// feedback path (case 3 of §5.3).
	ViaFeedback bool
}

// String renders the alert as a log line.
func (a *Alert) String() string { return string(a.AppendText(nil)) }

// AppendText appends the alert's log line to dst and returns the
// extended slice: the bytes fmt's
// "[epoch %d] ALERT %s sid=%d matched=%d distributed=%v msg=%q" gives,
// without fmt. It allocates only when dst has no room.
func (a *Alert) AppendText(dst []byte) []byte {
	dst = append(dst, "[epoch "...)
	dst = strconv.AppendUint(dst, a.Epoch, 10)
	dst = append(dst, "] ALERT "...)
	dst = append(dst, a.Attack...)
	dst = append(dst, " sid="...)
	dst = strconv.AppendInt(dst, int64(a.SID), 10)
	dst = append(dst, " matched="...)
	dst = strconv.AppendInt(dst, int64(a.MatchedPackets), 10)
	dst = append(dst, " distributed="...)
	dst = strconv.AppendBool(dst, a.Distributed)
	dst = append(dst, " msg="...)
	return strconv.AppendQuote(dst, a.Msg)
}

// NewAlertFromMatch builds an alert from a plain (single-threshold)
// match result, stamping it via clk (nil selects DefaultClock).
func NewAlertFromMatch(id rules.AttackID, epoch uint64, m *MatchResult, clk Clock) *Alert {
	if clk == nil {
		clk = DefaultClock
	}
	a := &Alert{
		Attack:         id,
		Epoch:          epoch,
		Time:           clk.At(epoch),
		MatchedPackets: m.MatchedCount,
		Variance:       m.Variance,
	}
	if m.Question != nil && m.Question.Rule != nil {
		a.SID = m.Question.Rule.SID
		a.Msg = m.Question.Rule.Msg
	}
	if m.Question != nil && m.Question.Variance != nil {
		a.Distributed = m.VariancePassed
	}
	return a
}

// NewAlertFromFeedback builds an alert from a feedback-loop result,
// stamping it via clk (nil selects DefaultClock).
func NewAlertFromFeedback(id rules.AttackID, epoch uint64, r *FeedbackResult, clk Clock) *Alert {
	a := NewAlertFromMatch(id, epoch, r.Stage2, clk)
	a.Attack = id
	a.ViaFeedback = r.Verdict == VerdictUncertain
	return a
}
