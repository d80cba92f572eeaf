package rules

import (
	"fmt"
	"math"

	"repro/internal/packet"
)

// Irrelevant is the question-vector entry marking a header field the rule
// does not constrain (§5.2).
const Irrelevant = -1.0

// Question is a translated rule: a vector q of length p in normalized
// field space with Irrelevant (−1) for unconstrained fields, plus the
// matching thresholds the similarity estimator needs (Algorithm 1) and
// the optional postprocessor directive (Algorithm 2).
type Question struct {
	// Rule is the source rule.
	Rule *Rule
	// Vector is q, length packet.NumFields.
	Vector []float64
	// DistanceThreshold is τ_d: a centroid x matches when d_q(x) ≤ τ_d.
	DistanceThreshold float64
	// CountThreshold is τ_c: an alert needs Σ c_i ≥ τ_c over matching
	// centroids. 1 means any match alerts.
	CountThreshold int
	// Variance, when non-nil, directs the postprocessor to check the
	// spread of one header field over matching representatives.
	Variance *VarianceCheck
	// TrackBy, when ≥ 0, translates Snort's "track by_dst"
	// detection_filter semantics onto summaries: instead of summing
	// counts over all matching centroids, the estimator finds the
	// maximum count concentrated within a TrackWindow-wide interval of
	// the tracked field — per-destination counting without knowing the
	// victim a priori. −1 disables tracking (global count).
	TrackBy int
	// TrackWindow is the width, in normalized field units, of the
	// tracking interval. Zero selects the estimator default, wide
	// enough to tolerate centroid blur from mildly mixed clusters and
	// narrow enough to isolate one victim.
	TrackWindow float64
	// VolumetricCount marks τ_c as a per-1000-packets rate that scales
	// with epoch volume (flood/scan rules). When false, τ_c is a
	// semantic per-victim constant ("8 connection attempts"). Zero
	// value defers to the ≥volumetricCountMin heuristic.
	VolumetricCount *bool
	// TauDScale rescales threshold sweeps for this question. Rules
	// that pin a specific port need τ_d values ~50× smaller than
	// flag-only rules: port gaps normalize to ≤1e-3 and the
	// active-field average of Eq. 5 dilutes them further, so the same
	// absolute τ_d that suits a flood signature would erase the port
	// constraint. Zero means 1 (no scaling).
	TauDScale float64
}

// EffectiveTau applies the question's τ_d sweep scale to a raw sweep
// value.
func (q *Question) EffectiveTau(tau float64) float64 {
	if q.TauDScale > 0 {
		return tau * q.TauDScale
	}
	return tau
}

// VarianceCheck is the postprocessor directive: alert when the weighted
// variance of normalized field values across matching representatives
// meets or exceeds Threshold (τ_v).
type VarianceCheck struct {
	Field     packet.FieldIndex
	Threshold float64
}

// ActiveFields returns the indices of the constrained entries of q.
func (q *Question) ActiveFields() []packet.FieldIndex {
	var out []packet.FieldIndex
	for i, v := range q.Vector {
		if v != Irrelevant {
			out = append(out, packet.FieldIndex(i))
		}
	}
	return out
}

// Distance computes d_q(x) per Eq. 5: the mean absolute deviation over
// the constrained entries. x must be a normalized field vector of length
// p. A question with no constrained entries returns NaN, which no
// threshold admits, +Inf included: it matches nothing, as the question
// index and the estimator hold. The estimator's row test sums the same
// pins with PinDistance, so this is the distance its matches are held
// to.
func (q *Question) Distance(x []float64) float64 {
	var buf [packet.NumFields]Pin
	pins := q.AppendPins(buf[:0])
	if len(pins) == 0 {
		return math.NaN()
	}
	sum, _ := PinDistance(pins, x[:len(q.Vector)], math.Inf(1))
	return sum / float64(len(pins))
}

// Pin is one field a question constrains and the question's value on it.
type Pin struct {
	Field packet.FieldIndex
	V     float64
}

// AppendPins appends q's constrained fields to pins in ascending field
// order and returns the extended slice.
func (q *Question) AppendPins(pins []Pin) []Pin {
	for f, v := range q.Vector {
		if v != Irrelevant {
			pins = append(pins, Pin{Field: packet.FieldIndex(f), V: v})
		}
	}
	return pins
}

// PinDistance adds |p.V − x[p.Field]| over pins, in order, and reports
// whether the sum stayed within budget. It stops at the first partial sum
// over budget: a floating-point sum of non-negatives only grows, so the
// full sum would exceed budget too. With an infinite budget it is Eq. 5's
// numerator, the sum Distance divides.
func PinDistance(pins []Pin, x []float64, budget float64) (sum float64, within bool) {
	for _, p := range pins {
		if sum += math.Abs(p.V - x[p.Field]); sum > budget {
			return sum, false
		}
	}
	return sum, true
}

// MatchBudget bounds the deviation |q_f − x_f| any one constrained field
// can show on a centroid that matches, at threshold tau, a question with
// active constrained fields. The question index and the estimator's row
// windows both prune with it, so neither can drop a row the other keeps.
// Soundness: Distance adds non-negative terms, and a floating-point sum
// of non-negatives never rounds below an operand, so each term is
// ≤ fl(Σ); fl(fl(Σ)/n) ≤ τ puts fl(Σ) within one rounding of τ·n, and the
// 1e-9 relative plus 1e-12 absolute margins are orders of magnitude
// wider than that. Callers keep what deviates by ≤ the budget and still
// run the exact distance on it, so a generous budget costs time, never a
// result: a NaN tau gives a NaN budget no deviation satisfies (as no
// distance is ≤ NaN), a negative tau a budget no larger than 1e-12, and
// +Inf keeps every row.
func MatchBudget(tau float64, active int) float64 {
	return float64(tau*float64(active)*(1+1e-9)) + 1e-12
}

// TranslateConfig tunes translation defaults.
type TranslateConfig struct {
	// DefaultDistanceThreshold is τ_d for rules without an explicit
	// override. The evaluation sweeps this; 0.05 is a sensible default
	// in normalized field space.
	DefaultDistanceThreshold float64
	// VarianceThreshold is the default τ_v for variance checks.
	VarianceThreshold float64
}

// DefaultTranslateConfig mirrors the mid-range operating point of the
// paper's ROC sweeps.
func DefaultTranslateConfig() TranslateConfig {
	return TranslateConfig{DefaultDistanceThreshold: 0.05, VarianceThreshold: 0.01}
}

// Translate converts a parsed rule into a question vector (§5.2). Address
// variables are resolved against env; a variable bound to a /32 or /24
// prefix contributes the (normalized) network address, while "any",
// unresolvable variables and negated specs contribute Irrelevant, since a
// single point in field space cannot encode them.
func Translate(r *Rule, env *Environment, cfg TranslateConfig) (*Question, error) {
	if r == nil {
		return nil, fmt.Errorf("rules: nil rule")
	}
	if cfg.DefaultDistanceThreshold <= 0 {
		cfg.DefaultDistanceThreshold = DefaultTranslateConfig().DefaultDistanceThreshold
	}
	if cfg.VarianceThreshold <= 0 {
		cfg.VarianceThreshold = DefaultTranslateConfig().VarianceThreshold
	}

	q := &Question{
		Rule:              r,
		Vector:            make([]float64, packet.NumFields),
		DistanceThreshold: cfg.DefaultDistanceThreshold,
		CountThreshold:    1,
		TrackBy:           -1,
	}
	for i := range q.Vector {
		q.Vector[i] = Irrelevant
	}

	if n := r.Protocol.Number(); n >= 0 {
		q.Vector[packet.FieldProtocol] = packet.Normalize(packet.FieldProtocol, float64(n))
	}
	if ip, ok := resolveAddress(r.Src, env); ok {
		q.Vector[packet.FieldSrcIP] = packet.Normalize(packet.FieldSrcIP, float64(ip))
	}
	if ip, ok := resolveAddress(r.Dst, env); ok {
		q.Vector[packet.FieldDstIP] = packet.Normalize(packet.FieldDstIP, float64(ip))
	}
	if port, ok := resolvePort(r.SrcPort); ok {
		q.Vector[packet.FieldSrcPort] = packet.Normalize(packet.FieldSrcPort, float64(port))
	}
	if port, ok := resolvePort(r.DstPort); ok {
		q.Vector[packet.FieldDstPort] = packet.Normalize(packet.FieldDstPort, float64(port))
	}
	if r.Flags != nil {
		setFlag := func(idx packet.FieldIndex, bit packet.TCPFlags) {
			if r.Flags.Set.Has(bit) {
				q.Vector[idx] = 1
			} else if r.Flags.Exact {
				q.Vector[idx] = 0
			}
		}
		setFlag(packet.FieldSYN, packet.FlagSYN)
		setFlag(packet.FieldACK, packet.FlagACK)
		setFlag(packet.FieldFIN, packet.FlagFIN)
		setFlag(packet.FieldRST, packet.FlagRST)
	}
	if r.Window >= 0 {
		q.Vector[packet.FieldWindow] = packet.Normalize(packet.FieldWindow, float64(r.Window))
	}
	if r.Filter != nil && r.Filter.Count > 0 {
		q.CountThreshold = r.Filter.Count
		// by_dst tracking maps onto summaries as windowed counting
		// along the destination-IP entry; by_src rules are handled by
		// the postprocessor's variance checks instead (§5.2), because
		// per-source counts inside one epoch are too small to track.
		if !r.Filter.TrackBySrc {
			q.TrackBy = int(packet.FieldDstIP)
		}
	}
	return q, nil
}

// minRepresentablePrefixBits is the narrowest prefix a single point in
// normalized field space can stand for. A /8 like a typical $HOME_NET
// spans 1/256 of the address axis; collapsing it to its base address
// would make the question match or miss on an artifact of where inside
// the prefix a host sits. Such broad constraints are left Irrelevant —
// destination concentration is handled by the tracked-count mechanism
// instead.
const minRepresentablePrefixBits = 16

// resolveAddress maps an address spec to a concrete IPv4 address usable
// in a question vector. Negated, wildcard, and broad-prefix specs are
// not representable.
func resolveAddress(a AddressSpec, env *Environment) (uint32, bool) {
	if a.Any || a.Negated {
		return 0, false
	}
	p := a.Prefix
	if a.Var != "" {
		if env == nil {
			return 0, false
		}
		resolved, ok := env.Lookup(a.Var)
		if !ok {
			return 0, false
		}
		p = resolved
	}
	if !p.IsValid() || !p.Addr().Is4() || p.Bits() < minRepresentablePrefixBits {
		return 0, false
	}
	return packet.AddrToU32(p.Addr()), true
}

// resolvePort maps a port spec to a single representative port. Ranges
// use their midpoint; wildcards and negations are not representable.
func resolvePort(p PortSpec) (uint16, bool) {
	if p.Any || p.Negated {
		return 0, false
	}
	if p.Ranged {
		return p.Lo + (p.Hi-p.Lo)/2, true
	}
	return p.Port, true
}

// WithVariance returns a copy of q carrying a postprocessor variance
// check on field f with threshold τ_v. It implements the paper's crafted
// equivalent rules for preprocessor-class (distributed) attacks (§5.2).
func (q *Question) WithVariance(f packet.FieldIndex, tau float64) *Question {
	out := *q
	out.Vector = append([]float64(nil), q.Vector...)
	out.Variance = &VarianceCheck{Field: f, Threshold: tau}
	return &out
}

// WithDistanceThreshold returns a copy of q with τ_d replaced; the ROC
// sweeps of §8 use this.
func (q *Question) WithDistanceThreshold(tau float64) *Question {
	out := *q
	out.Vector = append([]float64(nil), q.Vector...)
	out.DistanceThreshold = tau
	return &out
}

// WithCountThreshold returns a copy of q with τ_c replaced.
func (q *Question) WithCountThreshold(tc int) *Question {
	out := *q
	out.Vector = append([]float64(nil), q.Vector...)
	out.CountThreshold = tc
	return &out
}

// volumetricCountMin separates volumetric thresholds (flood/scan rates,
// which grow with the traffic an aggregate stands for) from semantic
// thresholds ("5 failed logins is brute force", "15 zero-window probes
// pin a server"), which are properties of the attack, not the network.
const volumetricCountMin = 20

// ScaleForVolume returns a copy of q whose count threshold, when
// volumetric, is rescaled from the library's per-1000-packet calibration
// to the given epoch volume (total packets summarized per inference
// round). This is the administrator tuning knob of §5.2: volumetric τ_c
// grows with the traffic a single aggregate stands for, while semantic
// thresholds stay fixed.
func (q *Question) ScaleForVolume(volume int) *Question {
	if volume <= 0 {
		return q
	}
	volumetric := q.CountThreshold >= volumetricCountMin
	if q.VolumetricCount != nil {
		volumetric = *q.VolumetricCount
	}
	if !volumetric {
		return q
	}
	scaled := q.CountThreshold * volume / 1000
	if scaled < 1 {
		scaled = 1
	}
	return q.WithCountThreshold(scaled)
}
