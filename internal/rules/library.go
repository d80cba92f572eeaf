package rules

import (
	"fmt"

	"repro/internal/packet"
)

// AttackID identifies the attacks the paper evaluates (§8).
type AttackID string

// Evaluated attacks.
const (
	AttackSYNFlood            AttackID = "syn_flood"
	AttackDistributedSYNFlood AttackID = "distributed_syn_flood"
	AttackPortScan            AttackID = "port_scan"
	AttackSSHBruteForce       AttackID = "ssh_brute_force"
	AttackSockstress          AttackID = "sockstress"
	AttackMiraiScan           AttackID = "mirai_scan"
	AttackUDPFlood            AttackID = "udp_flood"
)

// Scenario-corpus attacks (ISSUE 9): the attack families the labelled
// scenario corpus adds beyond the paper's evaluation set. They live in a
// separate library extension so deployments and tests built on the
// paper's seven-rule library keep byte-identical behaviour.
const (
	// AttackReflection is amplification/reflection DDoS: large UDP
	// service responses (DNS/NTP-shaped) converging on a victim whose
	// address was spoofed in the requests.
	AttackReflection AttackID = "reflection_ddos"
	// AttackSlowloris is the slowloris/slow-read family: many held-open
	// HTTP connections kept alive with tiny receive windows.
	AttackSlowloris AttackID = "slowloris"
	// AttackStealthScan is the inverse-flag scan family (FIN, Xmas,
	// NULL probes, and the idle-scan shape) sweeping a victim network.
	AttackStealthScan AttackID = "stealth_scan"
	// AttackExfiltration is a bulk exfiltration channel: sustained
	// large segments from a compromised host to a fixed collection
	// port. It is the final stage of the multi-stage campaign.
	AttackExfiltration AttackID = "exfiltration"
)

// AllAttacks lists the five evaluated attacks plus the Mirai case study.
var AllAttacks = []AttackID{
	AttackSYNFlood, AttackDistributedSYNFlood, AttackPortScan,
	AttackSSHBruteForce, AttackSockstress, AttackMiraiScan,
	AttackUDPFlood,
}

// libraryText holds Snort-style source rules for the evaluated attacks.
// The SSH rule follows the shape of Snort SID 19559 discussed in §5.2;
// the others correspond to the flood/scan signatures Snort ships as
// preprocessor configuration or simple flag rules.
// Count thresholds are calibrated per ≈1000 packets of epoch volume
// against the fine per-destination tracking window (where roughly half
// of an attack's packets land in destination-pure clusters at k = n/5);
// Question.ScaleForVolume rescales them for larger aggregation windows,
// the per-deployment tuning §5.2 assigns to the administrator.
var libraryText = map[AttackID]string{
	AttackSYNFlood: `alert tcp any any -> $HOME_NET any (msg:"SYN flood"; flags:S; ` +
		`detection_filter: track by_dst, count 20, seconds 2; sid:1000001; rev:1;)`,
	AttackDistributedSYNFlood: `alert tcp any any -> $HOME_NET any (msg:"Distributed SYN flood"; flags:S; ` +
		`detection_filter: track by_dst, count 20, seconds 2; sid:1000002; rev:1;)`,
	AttackPortScan: `alert tcp any any -> $HOME_NET any (msg:"Port scan"; flags:S; ` +
		`detection_filter: track by_dst, count 25, seconds 2; sid:1000003; rev:1;)`,
	// The stock Snort rule (SID 19559) tracks by_src; per-source counts
	// within one 2 s epoch are too small to track on summaries, so the
	// equivalent rule tracks the single targeted server (by_dst) and
	// the postprocessor separates distributed sources by variance.
	// count 8 is the literal per-destination threshold the raw engine
	// enforces when the feedback loop re-analyzes fetched packets; the
	// summary-side count threshold is raised above it in translation
	// (see LibraryQuestion) because cluster mass overcounts literal
	// matches.
	AttackSSHBruteForce: `alert tcp any any -> $HOME_NET 22 (msg:"SSH brute force login attempt"; flags:S; ` +
		`detection_filter: track by_dst, count 8, seconds 60; sid:1000004; rev:1;)`,
	AttackSockstress: `alert tcp any any -> $HOME_NET any (msg:"Sockstress window-0 DoS"; flags:A; window:0; ` +
		`detection_filter: track by_dst, count 10, seconds 2; sid:1000005; rev:1;)`,
	AttackMiraiScan: `alert tcp any any -> any 23 (msg:"Mirai telnet scan"; flags:S; ` +
		`detection_filter: track by_src, count 20, seconds 2; sid:1000006; rev:1;)`,
	AttackUDPFlood: `alert udp any any -> $HOME_NET any (msg:"UDP flood"; ` +
		`detection_filter: track by_dst, count 12, seconds 2; sid:1000007; rev:1;)`,
}

// scenarioText extends the library with the scenario-corpus rules
// (SIDs 1000008+, clear of the generated corpus at 3000000+). They stay
// inside the same parser dialect as `jaal-rules gen` output, and like
// the base library every count threshold is calibrated per ≈1000
// packets of epoch volume.
var scenarioText = map[AttackID]string{
	// Reflection floods arrive as service *responses*: the reflector's
	// well-known source port is the signature, the victim the tracked
	// destination. The generator mixes DNS (53) and NTP (123)
	// reflectors; the rule pins 53 and τ_d tolerance absorbs the
	// 70/65535 source-port spread of an NTP-heavy cluster.
	AttackReflection: `alert udp any 53 -> $HOME_NET any (msg:"Amplification reflection flood"; ` +
		`detection_filter: track by_dst, count 12, seconds 2; sid:1000008; rev:1;)`,
	// Slowloris holds HTTP connections open with zero-window
	// keepalives; the count is semantic (held connections per server),
	// like Sockstress, not volumetric — and sits above the benign
	// zero-window stall episodes backbone traffic contains (≤7 packets
	// per stalled receiver).
	AttackSlowloris: `alert tcp any any -> $HOME_NET 80 (msg:"Slowloris slow-read DoS"; flags:A; window:0; ` +
		`detection_filter: track by_dst, count 12, seconds 2; sid:1000009; rev:1;)`,
	// FIN and Xmas probes project onto the same question vector
	// (FIN=1, SYN=ACK=RST=0): PSH/URG are outside the 18 summarized
	// fields. NULL and idle-scan shapes are generated for evasion
	// coverage but are not nameable by this rule grammar. Like the
	// Mirai rule, the filter tracks by_src: a scan's count spreads
	// across the swept /24, so per-destination windowed counting would
	// lose it (the sweep is instead confirmed by the destination-port
	// variance postprocessor, as for the port scan).
	AttackStealthScan: `alert tcp any any -> $HOME_NET any (msg:"Stealth FIN/Xmas scan"; flags:F; ` +
		`detection_filter: track by_src, count 20, seconds 2; sid:1000010; rev:1;)`,
	// Exfiltration: sustained ACK/PSH segments to a fixed collection
	// port outside the monitored network. The count must clear the
	// occasional benign long-lived flow that happens to sit on a
	// nearby ephemeral port (heavy-tailed flow lengths reach dozens of
	// packets), hence 30 rather than a handful.
	AttackExfiltration: `alert tcp any any -> any 4444 (msg:"Bulk exfiltration channel"; flags:A; ` +
		`detection_filter: track by_dst, count 30, seconds 2; sid:1000011; rev:1;)`,
}

// LibraryRule parses and returns the built-in rule for the attack,
// consulting the base library first and the scenario extension second.
func LibraryRule(id AttackID) (*Rule, error) {
	text, ok := libraryText[id]
	if !ok {
		text, ok = scenarioText[id]
	}
	if !ok {
		return nil, fmt.Errorf("rules: no library rule for attack %q", id)
	}
	return Parse(text)
}

// LibraryQuestion translates the built-in rule for an attack into a
// question vector, attaching the postprocessor variance checks the paper
// crafts for the distributed attacks (§5.2):
//
//   - distributed SYN flood: variance of the source IP field
//   - port scan: variance of the destination port field
//   - Mirai scan: variance of the destination IP field at target ports
//     (high spread of scanned addresses, §8's case study).
//
// SSH brute force carries no variance gate: a single-source brute force
// is still an attack (Snort SID 19559 has no distributed requirement),
// and over the handful of matching centroids a small batch yields, a
// variance estimate would be statistically meaningless.
func LibraryQuestion(id AttackID, env *Environment, cfg TranslateConfig) (*Question, error) {
	r, err := LibraryRule(id)
	if err != nil {
		return nil, err
	}
	q, err := Translate(r, env, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.VarianceThreshold <= 0 {
		cfg.VarianceThreshold = DefaultTranslateConfig().VarianceThreshold
	}
	switch id {
	case AttackDistributedSYNFlood:
		q = q.WithVariance(packet.FieldSrcIP, cfg.VarianceThreshold)
	case AttackPortScan:
		q = q.WithVariance(packet.FieldDstPort, cfg.VarianceThreshold)
	case AttackMiraiScan:
		// A scan of random addresses has destination variance near the
		// uniform maximum (1/12 ≈ 0.083); concentrated traffic that
		// merely brushes the telnet ports stays far below 0.05.
		q = q.WithVariance(packet.FieldDstIP, 0.05)
	case AttackStealthScan:
		// Like the port scan: a sweep spreads over the well-known port
		// list, so high destination-port variance over the matched
		// (FIN-pure) centroids confirms a scan.
		q = q.WithVariance(packet.FieldDstPort, cfg.VarianceThreshold)
	}
	// Count-threshold semantics: flood and scan rates are volumetric
	// (they scale with the traffic an epoch aggregates); brute-force
	// and zero-window counts are per-victim semantics.
	volumetric := map[AttackID]bool{
		AttackSYNFlood: true, AttackDistributedSYNFlood: true,
		AttackPortScan: true, AttackMiraiScan: true, AttackUDPFlood: true,
		AttackSSHBruteForce: false, AttackSockstress: false,
		// Scenario extension: floods and scans scale with epoch volume;
		// held-connection and exfiltration counts are per-victim
		// semantics like brute force.
		AttackReflection: true, AttackStealthScan: true,
		AttackSlowloris: false, AttackExfiltration: false,
	}[id]
	q.VolumetricCount = &volumetric

	// Per-attack τ_d scales: the discriminating field's normalized gap
	// shrinks when averaged over the active fields (Eq. 5), so rules
	// pinning a port or the window size need much tighter thresholds
	// than flag-only flood rules. Port-pinned rules (|22−80|/65535
	// averaged over 6 fields ≈ 1.5e-4) scale by 0.002; the zero-window
	// rule (benign minimum window 8192/65535 over 6 fields ≈ 0.021)
	// scales by 0.35.
	switch id {
	case AttackSSHBruteForce:
		q.TauDScale = 0.002
		q = q.WithDistanceThreshold(q.DistanceThreshold * q.TauDScale)
		// Summary counts are cluster mass, not literal rule matches:
		// the winning dst window's clusters carry mixed members, so
		// the organic port-22 mass concentrating on the Zipf-head
		// server measures up to ≈16 per epoch against the rule's
		// literal count of 8 — enough for a summary-only match to
		// false-alert on a popular server. The summary-side threshold
		// is therefore 2.5× the rule's literal count: anything at or
		// above it is unambiguous brute-force mass, while the
		// [8, 20) band is decided by the feedback loop's raw
		// re-analysis, where the engine enforces the literal
		// per-destination count 8 on actual packets (benign windows
		// never concentrate 8 literal port-22 SYNs on one server).
		q = q.WithCountThreshold(20)
	case AttackMiraiScan:
		q.TauDScale = 0.002
		q = q.WithDistanceThreshold(q.DistanceThreshold * q.TauDScale)
	case AttackSockstress:
		q.TauDScale = 0.35
		q = q.WithDistanceThreshold(q.DistanceThreshold * q.TauDScale)
	case AttackUDPFlood:
		// The UDP question pins only the protocol entry; the TCP/UDP
		// gap |17−6|/255 over one active field is 0.043, so τ_d must
		// stay below that to exclude TCP traffic.
		q.TauDScale = 0.5
		q = q.WithDistanceThreshold(q.DistanceThreshold * q.TauDScale)
	case AttackReflection:
		// Port-pinned like Mirai/SSH (a pure-DNS reflector cluster sits
		// at source port 53 exactly), but the generator mixes in NTP
		// reflectors, so the threshold is an order looser to tolerate
		// clusters whose source-port centroid drifts toward 123.
		q.TauDScale = 0.02
		q = q.WithDistanceThreshold(q.DistanceThreshold * q.TauDScale)
	case AttackSlowloris:
		// Tighter than Sockstress's window-pinned 0.35: the port-80 pin
		// must actually exclude zero-window DoS mass at *other* ports
		// (|443−80|/65535 averaged over 7 active fields ≈ 8e-4), or the
		// two held-connection attacks collapse into one signature.
		q.TauDScale = 0.008
		q = q.WithDistanceThreshold(q.DistanceThreshold * q.TauDScale)
	case AttackExfiltration:
		// Port-pinned (fixed collection port 4444).
		q.TauDScale = 0.002
		q = q.WithDistanceThreshold(q.DistanceThreshold * q.TauDScale)
	}
	return q, nil
}

// LibraryQuestions translates the whole base library — the paper's seven
// evaluated rules only, so existing seeded workloads and goldens are
// unaffected by the scenario extension.
func LibraryQuestions(env *Environment, cfg TranslateConfig) (map[AttackID]*Question, error) {
	out := make(map[AttackID]*Question, len(libraryText))
	for id := range libraryText {
		q, err := LibraryQuestion(id, env, cfg)
		if err != nil {
			return nil, err
		}
		out[id] = q
	}
	return out, nil
}

// ScenarioLibraryQuestions translates the base library plus the
// scenario-corpus extension — the question set the accuracy scoreboard
// runs every scenario against.
func ScenarioLibraryQuestions(env *Environment, cfg TranslateConfig) (map[AttackID]*Question, error) {
	out, err := LibraryQuestions(env, cfg)
	if err != nil {
		return nil, err
	}
	for id := range scenarioText {
		q, err := LibraryQuestion(id, env, cfg)
		if err != nil {
			return nil, err
		}
		out[id] = q
	}
	return out, nil
}
