package rules

import (
	"math"
	"net/netip"
	"strings"
	"testing"

	"repro/internal/packet"
)

const sshRuleText = `alert tcp $EXTERNAL_NET any -> $HOME_NET 22 (msg:"INDICATOR-SCAN SSH brute force login attempt"; flow:to_server,established; content:"SSH-"; depth:4; detection_filter: track by_src, count 5, seconds 60; metadata:service ssh; classtype:misc-activity; sid:19559; rev:5;)`

func TestParseSSHRule(t *testing.T) {
	r, err := Parse(sshRuleText)
	if err != nil {
		t.Fatal(err)
	}
	if r.Action != ActionAlert || r.Protocol != ProtoTCP {
		t.Fatalf("action/proto = %v/%v", r.Action, r.Protocol)
	}
	if r.Src.Var != "EXTERNAL_NET" || r.Dst.Var != "HOME_NET" {
		t.Fatalf("vars = %q, %q", r.Src.Var, r.Dst.Var)
	}
	if !r.SrcPort.Any || r.DstPort.Port != 22 {
		t.Fatalf("ports = %+v -> %+v", r.SrcPort, r.DstPort)
	}
	if r.SID != 19559 || r.Rev != 5 {
		t.Fatalf("sid/rev = %d/%d", r.SID, r.Rev)
	}
	if r.Msg == "" || !strings.Contains(r.Msg, "SSH brute force") {
		t.Fatalf("msg = %q", r.Msg)
	}
	if r.Filter == nil || r.Filter.Count != 5 || r.Filter.Seconds != 60 || !r.Filter.TrackBySrc {
		t.Fatalf("filter = %+v", r.Filter)
	}
	if len(r.Content) != 1 || r.Content[0] != "SSH-" {
		t.Fatalf("content = %v", r.Content)
	}
	if r.Classtype != "misc-activity" {
		t.Fatalf("classtype = %q", r.Classtype)
	}
	if !r.RequiresCount() {
		t.Fatal("rule must require count matching")
	}
}

func TestParseHeaderVariants(t *testing.T) {
	cases := []string{
		`alert tcp any any -> 10.0.0.0/8 80 (sid:1;)`,
		`alert udp any 53 -> any any (sid:2;)`,
		`alert ip any any <> any any (sid:3;)`,
		`alert tcp !192.168.0.0/16 any -> any !22 (sid:4;)`,
		`alert tcp any 1000:2000 -> any :1024 (sid:5;)`,
		`log tcp any any -> any any (sid:6;)`,
	}
	for _, c := range cases {
		if _, err := Parse(c); err != nil {
			t.Fatalf("Parse(%q) failed: %v", c, err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`# comment`,
		`alert tcp any any -> any`,              // short header
		`frobnicate tcp any any -> any any`,     // bad action
		`alert gre any any -> any any (sid:1;)`, // bad proto
		`alert tcp any any >> any any (sid:1;)`, // bad direction
		`alert tcp any 99999 -> any any`,        // bad port
		`alert tcp any 2000:1000 -> any any`,    // inverted range
		`alert tcp 300.1.2.3 any -> any any`,    // bad address
		`alert tcp any any -> any any (sid:xyz;)`,
		`alert tcp any any -> any any (flags:Z;)`,
		`alert tcp any any -> any any (window:99999;)`,
		`alert tcp any any -> any any (detection_filter: track sideways extra;)`,
	}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Fatalf("Parse(%q) should fail", c)
		}
	}
}

func TestParseFlags(t *testing.T) {
	r, err := Parse(`alert tcp any any -> any any (flags:SA; sid:1;)`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Flags == nil || !r.Flags.Set.Has(packet.FlagSYN|packet.FlagACK) || !r.Flags.Exact {
		t.Fatalf("flags = %+v", r.Flags)
	}
	r2, err := Parse(`alert tcp any any -> any any (flags:S+; sid:2;)`)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Flags.Exact {
		t.Fatal("trailing + must clear Exact")
	}
}

func TestParseAll(t *testing.T) {
	src := `
# two rules and a comment
alert tcp any any -> any 80 (msg:"a"; sid:1;)

alert udp any any -> any 53 (msg:"b"; sid:2;)
`
	rs, err := ParseAll(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[0].SID != 1 || rs[1].SID != 2 {
		t.Fatalf("parsed %d rules", len(rs))
	}
}

func TestParseAllReportsLine(t *testing.T) {
	src := "alert tcp any any -> any 80 (sid:1;)\nbogus line here that fails\n"
	_, err := ParseAll(strings.NewReader(src))
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("got %T, want *ParseError", err)
	}
	if pe.Line != 2 {
		t.Fatalf("error line = %d, want 2", pe.Line)
	}
}

func TestPortSpecMatches(t *testing.T) {
	cases := []struct {
		spec PortSpec
		port uint16
		want bool
	}{
		{PortSpec{Any: true}, 1234, true},
		{PortSpec{Port: 22}, 22, true},
		{PortSpec{Port: 22}, 23, false},
		{PortSpec{Ranged: true, Lo: 10, Hi: 20}, 15, true},
		{PortSpec{Ranged: true, Lo: 10, Hi: 20}, 21, false},
		{PortSpec{Port: 22, Negated: true}, 22, false},
		{PortSpec{Port: 22, Negated: true}, 23, true},
	}
	for i, c := range cases {
		if got := c.spec.Matches(c.port); got != c.want {
			t.Fatalf("case %d: Matches(%d) = %v, want %v", i, c.port, got, c.want)
		}
	}
}

func testEnv() *Environment {
	env := NewEnvironment()
	env.Set("HOME_NET", netip.MustParsePrefix("10.0.0.0/8"))
	return env
}

func TestTranslateSSHRule(t *testing.T) {
	r, err := Parse(sshRuleText)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Translate(r, testEnv(), DefaultTranslateConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Vector) != packet.NumFields {
		t.Fatalf("question length %d, want %d", len(q.Vector), packet.NumFields)
	}
	// Constrained: protocol and dst port 22. The /8 $HOME_NET is too
	// broad to stand for a single point in field space and must stay
	// irrelevant (destination concentration is tracked separately).
	wantPort := packet.Normalize(packet.FieldDstPort, 22)
	if math.Abs(q.Vector[packet.FieldDstPort]-wantPort) > 1e-12 {
		t.Fatalf("dst port entry = %v, want %v", q.Vector[packet.FieldDstPort], wantPort)
	}
	if q.Vector[packet.FieldDstIP] != Irrelevant {
		t.Fatal("broad /8 $HOME_NET must stay irrelevant")
	}
	// A narrow home net resolves into the vector.
	narrow := NewEnvironment()
	narrow.Set("HOME_NET", netip.MustParsePrefix("10.1.2.0/24"))
	qn, err := Translate(r, narrow, DefaultTranslateConfig())
	if err != nil {
		t.Fatal(err)
	}
	if qn.Vector[packet.FieldDstIP] == Irrelevant {
		t.Fatal("narrow /24 $HOME_NET must be resolved")
	}
	if q.Vector[packet.FieldSrcIP] != Irrelevant {
		t.Fatal("unresolved $EXTERNAL_NET must stay irrelevant")
	}
	if q.Vector[packet.FieldSrcPort] != Irrelevant {
		t.Fatal("any source port must stay irrelevant")
	}
	if q.CountThreshold != 5 {
		t.Fatalf("count threshold = %d, want 5", q.CountThreshold)
	}
}

func TestTranslateFlags(t *testing.T) {
	r, err := Parse(`alert tcp any any -> any any (flags:S; sid:1;)`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Translate(r, nil, DefaultTranslateConfig())
	if err != nil {
		t.Fatal(err)
	}
	if q.Vector[packet.FieldSYN] != 1 {
		t.Fatalf("SYN entry = %v, want 1", q.Vector[packet.FieldSYN])
	}
	// Exact flags:S pins the other tracked flags to 0.
	if q.Vector[packet.FieldACK] != 0 || q.Vector[packet.FieldFIN] != 0 || q.Vector[packet.FieldRST] != 0 {
		t.Fatalf("exact flags must pin ACK/FIN/RST to 0: %v %v %v",
			q.Vector[packet.FieldACK], q.Vector[packet.FieldFIN], q.Vector[packet.FieldRST])
	}

	rPlus, _ := Parse(`alert tcp any any -> any any (flags:S+; sid:2;)`)
	qPlus, err := Translate(rPlus, nil, DefaultTranslateConfig())
	if err != nil {
		t.Fatal(err)
	}
	if qPlus.Vector[packet.FieldACK] != Irrelevant {
		t.Fatal("flags:S+ must leave other flags irrelevant")
	}
}

func TestTranslateWindow(t *testing.T) {
	r, _ := Parse(`alert tcp any any -> any any (flags:A; window:0; sid:1;)`)
	q, err := Translate(r, nil, DefaultTranslateConfig())
	if err != nil {
		t.Fatal(err)
	}
	if q.Vector[packet.FieldWindow] != 0 {
		t.Fatalf("window entry = %v, want 0", q.Vector[packet.FieldWindow])
	}
}

func TestQuestionDistance(t *testing.T) {
	r, _ := Parse(`alert tcp any any -> any 22 (flags:S; sid:1;)`)
	q, err := Translate(r, nil, DefaultTranslateConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A matching packet: TCP SYN to port 22.
	match := packet.Header{Protocol: packet.ProtoTCP, DstPort: 22, Flags: packet.FlagSYN}
	if d := q.Distance(match.NormalizedVector(nil)); d > 1e-9 {
		t.Fatalf("distance to matching packet = %v, want ~0", d)
	}
	// Same packet without SYN must be farther.
	miss := packet.Header{Protocol: packet.ProtoTCP, DstPort: 22, Flags: packet.FlagACK}
	if d := q.Distance(miss.NormalizedVector(nil)); d < 0.1 {
		t.Fatalf("distance to non-matching packet = %v, want ≥ 0.1", d)
	}
}

func TestQuestionDistanceNoActiveFields(t *testing.T) {
	q := &Question{Vector: make([]float64, packet.NumFields)}
	for i := range q.Vector {
		q.Vector[i] = Irrelevant
	}
	// NaN, so that no threshold admits it, +Inf included.
	if d := q.Distance(make([]float64, packet.NumFields)); !math.IsNaN(d) {
		t.Fatalf("distance of empty question = %v, want NaN", d)
	}
}

func TestQuestionWithHelpers(t *testing.T) {
	r, _ := Parse(`alert tcp any any -> any any (flags:S; sid:1;)`)
	q, _ := Translate(r, nil, DefaultTranslateConfig())
	q2 := q.WithDistanceThreshold(0.2).WithCountThreshold(99).WithVariance(packet.FieldSrcIP, 0.5)
	if q2.DistanceThreshold != 0.2 || q2.CountThreshold != 99 {
		t.Fatalf("thresholds = %v/%d", q2.DistanceThreshold, q2.CountThreshold)
	}
	if q2.Variance == nil || q2.Variance.Field != packet.FieldSrcIP {
		t.Fatalf("variance = %+v", q2.Variance)
	}
	// The original must be untouched.
	if q.DistanceThreshold == 0.2 || q.Variance != nil {
		t.Fatal("With* helpers must not mutate the receiver")
	}
}

func TestActiveFields(t *testing.T) {
	r, _ := Parse(`alert tcp any any -> any 22 (sid:1;)`)
	q, _ := Translate(r, nil, DefaultTranslateConfig())
	fields := q.ActiveFields()
	want := map[packet.FieldIndex]bool{packet.FieldProtocol: true, packet.FieldDstPort: true}
	if len(fields) != len(want) {
		t.Fatalf("active fields = %v", fields)
	}
	for _, f := range fields {
		if !want[f] {
			t.Fatalf("unexpected active field %v", f)
		}
	}
}

func TestLibraryQuestions(t *testing.T) {
	qs, err := LibraryQuestions(testEnv(), DefaultTranslateConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != len(AllAttacks) {
		t.Fatalf("library has %d questions, want %d", len(qs), len(AllAttacks))
	}
	// Distributed attacks must carry their variance directives.
	checks := map[AttackID]packet.FieldIndex{
		AttackDistributedSYNFlood: packet.FieldSrcIP,
		AttackPortScan:            packet.FieldDstPort,
		AttackMiraiScan:           packet.FieldDstIP,
	}
	for id, field := range checks {
		q := qs[id]
		if q.Variance == nil || q.Variance.Field != field {
			t.Fatalf("%s: variance check = %+v, want field %v", id, q.Variance, field)
		}
	}
	if qs[AttackSYNFlood].Variance != nil {
		t.Fatal("plain SYN flood must not carry a variance check")
	}
	if qs[AttackSSHBruteForce].Variance != nil {
		t.Fatal("SSH brute force must not gate on variance")
	}
	// Port-pinned and window-pinned rules carry tightened τ_d scales.
	if qs[AttackSSHBruteForce].TauDScale != 0.002 || qs[AttackMiraiScan].TauDScale != 0.002 {
		t.Fatal("port-pinned rules must carry TauDScale 0.002")
	}
	if qs[AttackSockstress].TauDScale != 0.35 {
		t.Fatal("sockstress must carry TauDScale 0.35")
	}
	// Tracked-count translation: by_dst rules track the dst IP field.
	for _, id := range []AttackID{AttackSYNFlood, AttackDistributedSYNFlood, AttackPortScan, AttackSockstress, AttackSSHBruteForce} {
		if qs[id].TrackBy != int(packet.FieldDstIP) {
			t.Fatalf("%s must track by dst IP", id)
		}
	}
	if qs[AttackMiraiScan].TrackBy != -1 {
		t.Fatal("mirai scan (track by_src) must not dst-track")
	}
	// Sockstress pins window to 0 with ACK set.
	ss := qs[AttackSockstress]
	if ss.Vector[packet.FieldWindow] != 0 || ss.Vector[packet.FieldACK] != 1 {
		t.Fatalf("sockstress vector window=%v ack=%v", ss.Vector[packet.FieldWindow], ss.Vector[packet.FieldACK])
	}
}

func TestLibraryRuleUnknown(t *testing.T) {
	if _, err := LibraryRule("no_such_attack"); err == nil {
		t.Fatal("expected error for unknown attack")
	}
}

func TestTranslateNilRule(t *testing.T) {
	if _, err := Translate(nil, nil, DefaultTranslateConfig()); err == nil {
		t.Fatal("expected error for nil rule")
	}
}
