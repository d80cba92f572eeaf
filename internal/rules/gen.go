package rules

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"

	"repro/internal/packet"
)

// This file provides the seeded Snort-subset library generator of
// ISSUE 6: a deterministic synthetic rule corpus that scales the
// question library to the 10k+ rules an ISP-wide deployment carries,
// far beyond the seven hand-written attack rules. The generated rules
// stay inside the parser's dialect (flags, window, detection_filter,
// single ports, ranges, representable prefixes), so the corpus
// exercises the whole parse → translate → index → match pipeline, and
// every rule is emitted through Rule.Format — parse(gen(seed)) ==
// gen(seed) by construction, which the round-trip test and fuzz seeds
// pin.

// GenConfig parameterizes the generator.
type GenConfig struct {
	// Rules is the library size. Non-positive defaults to 10000.
	Rules int
	// Seed drives the rule mix; the same seed yields byte-identical
	// output.
	Seed int64
	// BaseSID numbers the rules BaseSID, BaseSID+1, … Non-positive
	// defaults to 3000000, clear of the built-in library's 1000001–7.
	BaseSID int
}

// withDefaults fills zero values.
func (c GenConfig) withDefaults() GenConfig {
	if c.Rules <= 0 {
		c.Rules = 10000
	}
	if c.BaseSID <= 0 {
		c.BaseSID = 3000000
	}
	return c
}

// servicePorts is the port population the service-directed families
// draw from — common attack-relevant services plus a random tail, so
// the translated questions spread across the destination-port axis and
// the index's interval slices stay selective.
var servicePorts = []uint16{
	21, 22, 23, 25, 53, 80, 110, 111, 123, 135, 137, 139, 143, 161,
	389, 443, 445, 465, 514, 587, 993, 995, 1080, 1433, 1521, 1723,
	2049, 2375, 3128, 3306, 3389, 5060, 5432, 5900, 6379, 8080, 8443,
	9200, 11211, 27017,
}

// GenerateRules returns a seeded synthetic library of cfg.Rules parsed
// rules. The mix covers the signature families a real ruleset carries:
// service-port probes, host-directed floods, source-port services,
// flag-combination scans, zero-window stalls, port ranges, and plain
// UDP floods.
func GenerateRules(cfg GenConfig) []*Rule {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]*Rule, 0, cfg.Rules)
	for i := 0; i < cfg.Rules; i++ {
		r := genRule(rng, cfg, i)
		r.Raw = r.Format()
		out = append(out, r)
	}
	return out
}

// GenerateText renders the seeded library as canonical rule-file text,
// one rule per line with a generated header comment.
func GenerateText(cfg GenConfig) string {
	cfg = cfg.withDefaults()
	var sb strings.Builder
	fmt.Fprintf(&sb, "# generated Snort-subset scale library: %d rules, seed %d\n", cfg.Rules, cfg.Seed)
	for _, r := range GenerateRules(cfg) {
		sb.WriteString(r.Raw)
		sb.WriteByte('\n')
	}
	return sb.String()
}

// genRule draws one rule. Families are weighted toward the selective,
// port- or host-pinned shapes a real ruleset is dominated by; a small
// fraction are broad flag-only rules so the candidate filter is
// exercised on non-selective signatures too.
func genRule(rng *rand.Rand, cfg GenConfig, i int) *Rule {
	r := &Rule{
		Action:    ActionAlert,
		Protocol:  ProtoTCP,
		Src:       AddressSpec{Any: true},
		SrcPort:   PortSpec{Any: true},
		Direction: "->",
		Dst:       AddressSpec{Any: true},
		DstPort:   PortSpec{Any: true},
		SID:       cfg.BaseSID + i,
		Rev:       1,
		Window:    -1,
	}
	port := func() uint16 {
		if rng.Intn(100) < 70 {
			return servicePorts[rng.Intn(len(servicePorts))]
		}
		return uint16(1024 + rng.Intn(64000))
	}

	switch pick := rng.Intn(100); {
	case pick < 35:
		// Service probe: SYN to a pinned destination port, rate-gated.
		p := port()
		r.Dst = AddressSpec{Prefix: genPrefix(rng)}
		r.DstPort = PortSpec{Port: p}
		r.Flags = &FlagSpec{Set: packet.FlagSYN, Exact: true}
		r.Filter = &DetectionFilter{Count: 5 + rng.Intn(40), Seconds: 1 + rng.Intn(60)}
		r.Msg = fmt.Sprintf("gen probe svc/%d #%d", p, i)
	case pick < 55:
		// Host-directed flood: pinned destination prefix, any port.
		r.Dst = AddressSpec{Prefix: genPrefix(rng)}
		r.Flags = &FlagSpec{Set: packet.FlagSYN, Exact: true}
		r.Filter = &DetectionFilter{Count: 10 + rng.Intn(60), Seconds: 1 + rng.Intn(10)}
		r.Msg = fmt.Sprintf("gen flood host #%d", i)
	case pick < 70:
		// Source-port service response abuse (DNS/NTP-style): UDP with
		// a pinned source port.
		r.Protocol = ProtoUDP
		p := port()
		r.SrcPort = PortSpec{Port: p}
		r.Dst = AddressSpec{Prefix: genPrefix(rng)}
		r.Filter = &DetectionFilter{Count: 8 + rng.Intn(50), Seconds: 1 + rng.Intn(30)}
		r.Msg = fmt.Sprintf("gen amp src/%d #%d", p, i)
	case pick < 80:
		// Scan family: exotic flag combinations over a port range.
		combos := []FlagSpec{
			{Set: packet.FlagFIN, Exact: true},
			{Set: 0, Exact: true}, // null scan
			{Set: packet.FlagFIN | packet.FlagPSH | packet.FlagURG, Exact: true}, // Xmas
			{Set: packet.FlagSYN | packet.FlagFIN, Exact: true},
			{Set: packet.FlagRST, Exact: true},
		}
		c := combos[rng.Intn(len(combos))]
		r.Flags = &c
		lo := port()
		hi := lo + uint16(rng.Intn(200))
		if hi < lo {
			hi = lo
		}
		r.Dst = AddressSpec{Prefix: genPrefix(rng)}
		r.DstPort = PortSpec{Ranged: true, Lo: lo, Hi: hi}
		r.Filter = &DetectionFilter{Count: 10 + rng.Intn(30), Seconds: 1 + rng.Intn(5)}
		r.Msg = fmt.Sprintf("gen scan flags/%s #%d", c.Set, i)
	case pick < 90:
		// Zero-window stall (Sockstress family) against a service.
		r.Dst = AddressSpec{Prefix: genPrefix(rng)}
		r.DstPort = PortSpec{Port: port()}
		r.Flags = &FlagSpec{Set: packet.FlagACK, Exact: true}
		r.Window = 0
		r.Filter = &DetectionFilter{Count: 5 + rng.Intn(20), Seconds: 1 + rng.Intn(10)}
		r.Msg = fmt.Sprintf("gen stall #%d", i)
	default:
		// Broad volumetric rule: flag-only or plain UDP, weakly
		// selective on purpose.
		if rng.Intn(2) == 0 {
			r.Protocol = ProtoUDP
			r.Msg = fmt.Sprintf("gen udp flood #%d", i)
		} else {
			r.Flags = &FlagSpec{Set: packet.FlagSYN, Exact: true}
			r.Msg = fmt.Sprintf("gen syn flood #%d", i)
		}
		r.Dst = AddressSpec{Prefix: genPrefix(rng)}
		r.Filter = &DetectionFilter{Count: 20 + rng.Intn(80), Seconds: 1 + rng.Intn(5)}
	}
	// A sprinkle of by_src tracking mirrors the stock library's Mirai
	// rule; everything else tracks the destination.
	if r.Filter != nil {
		r.Filter.TrackBySrc = rng.Intn(10) == 0
	}
	return r
}

// genPrefix draws a representable destination prefix (/24 or /32 inside
// 10.0.0.0/8), narrow enough that Translate keeps it in the question
// vector (minRepresentablePrefixBits).
func genPrefix(rng *rand.Rand) netip.Prefix {
	a := byte(rng.Intn(256))
	b := byte(rng.Intn(256))
	c := byte(rng.Intn(256))
	addr := netip.AddrFrom4([4]byte{10, a, b, c})
	if rng.Intn(2) == 0 {
		return netip.PrefixFrom(netip.AddrFrom4([4]byte{10, a, b, 0}), 24)
	}
	return netip.PrefixFrom(addr, 32)
}

// GenerateQuestions generates the library and translates every rule
// into a question against env, attaching per-rule τ_d scaling the same
// way the built-in library does (port-pinned rules need tighter
// thresholds than flag-only rules; see LibraryQuestion). Rules whose
// translation yields no constrained field are dropped — they can never
// match a summary.
func GenerateQuestions(cfg GenConfig, env *Environment, tcfg TranslateConfig) ([]*Question, error) {
	rs := GenerateRules(cfg)
	out := make([]*Question, 0, len(rs))
	for _, r := range rs {
		q, err := Translate(r, env, tcfg)
		if err != nil {
			return nil, fmt.Errorf("rules: gen sid %d: %w", r.SID, err)
		}
		active := len(q.ActiveFields())
		if active == 0 {
			continue
		}
		// Port- and host-pinned questions get the tight τ_d scale of
		// the built-in library's port rules; window rules the medium
		// scale; flag-only rules keep the default.
		switch {
		case q.Vector[packet.FieldSrcPort] != Irrelevant ||
			q.Vector[packet.FieldDstPort] != Irrelevant ||
			q.Vector[packet.FieldSrcIP] != Irrelevant ||
			q.Vector[packet.FieldDstIP] != Irrelevant:
			q.TauDScale = 0.002
		case q.Vector[packet.FieldWindow] != Irrelevant:
			q.TauDScale = 0.35
		}
		if q.TauDScale > 0 {
			q = q.WithDistanceThreshold(q.DistanceThreshold * q.TauDScale)
		}
		out = append(out, q)
	}
	return out, nil
}
