package trafficgen

import (
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/packet"
	"repro/internal/rules"
	"repro/internal/summary"
)

func TestBackgroundDeterministic(t *testing.T) {
	a := NewBackground(DefaultBackgroundConfig(1))
	b := NewBackground(DefaultBackgroundConfig(1))
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("same seed must generate the same stream (packet %d)", i)
		}
	}
	c := NewBackground(DefaultBackgroundConfig(2))
	same := true
	a2 := NewBackground(DefaultBackgroundConfig(1))
	for i := 0; i < 100; i++ {
		if a2.Next() != c.Next() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds must generate different traces")
	}
}

func TestBackgroundPlausibleTCP(t *testing.T) {
	bg := NewBackground(DefaultBackgroundConfig(3))
	synSeen, ackSeen, finSeen := 0, 0, 0
	for i := 0; i < 5000; i++ {
		h := bg.Next()
		if h.Protocol != packet.ProtoTCP {
			t.Fatalf("packet %d is not TCP", i)
		}
		if h.TotalLength < 40 {
			t.Fatalf("packet %d too short: %d", i, h.TotalLength)
		}
		if h.Flags.Has(packet.FlagSYN) {
			synSeen++
		}
		if h.Flags.Has(packet.FlagACK) {
			ackSeen++
		}
		if h.Flags.Has(packet.FlagFIN) {
			finSeen++
		}
	}
	if synSeen == 0 || ackSeen == 0 || finSeen == 0 {
		t.Fatalf("flag mix unrealistic: syn=%d ack=%d fin=%d", synSeen, ackSeen, finSeen)
	}
	// ACK-carrying packets dominate in real mixes.
	if ackSeen < synSeen {
		t.Fatalf("ACKs (%d) must outnumber SYNs (%d)", ackSeen, synSeen)
	}
}

// The headline structural property: background batches have a low latent
// rank — ~90 % of spectral energy within the top ~14 of 18 singular
// values (Fig. 10 motivates r = 12).
func TestBackgroundLowLatentRank(t *testing.T) {
	bg := NewBackground(DefaultBackgroundConfig(4))
	batch := bg.Batch(1000)
	x := summary.BuildMatrix(batch)
	d, err := linalg.ComputeSVD(x)
	if err != nil {
		t.Fatal(err)
	}
	r90 := d.EnergyRank(0.90)
	if r90 > 14 {
		t.Fatalf("90%% energy needs %d singular values; expected ≤ 14 (Fig. 10)", r90)
	}
	if r90 < 2 {
		t.Fatalf("spectrum degenerate: r90 = %d", r90)
	}
}

func TestAttackGenerators(t *testing.T) {
	for _, id := range rules.AllAttacks {
		a, err := NewAttack(id, AttackConfig{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if a.ID() != id {
			t.Fatalf("generator reports %s, want %s", a.ID(), id)
		}
		wantProto := uint8(packet.ProtoTCP)
		if id == rules.AttackUDPFlood {
			wantProto = packet.ProtoUDP
		}
		for i := 0; i < 100; i++ {
			h := a.Next()
			if h.Protocol != wantProto {
				t.Fatalf("%s packet %d has protocol %d, want %d", id, i, h.Protocol, wantProto)
			}
		}
	}
	if _, err := NewAttack("bogus", AttackConfig{}); err == nil {
		t.Fatal("unknown attack must error")
	}
}

func TestSYNFloodShape(t *testing.T) {
	a, _ := NewAttack(rules.AttackSYNFlood, AttackConfig{Seed: 2, Victim: 0x0A000001})
	srcs := map[uint32]bool{}
	for i := 0; i < 500; i++ {
		h := a.Next()
		if !h.Flags.Has(packet.FlagSYN) || h.Flags.Has(packet.FlagACK) {
			t.Fatal("SYN flood packets must be pure SYN")
		}
		if h.DstIP != 0x0A000001 {
			t.Fatal("flood must target the victim")
		}
		srcs[h.SrcIP] = true
	}
	if len(srcs) != 1 {
		t.Fatalf("plain SYN flood must come from one source, saw %d", len(srcs))
	}
}

func TestDistributedSYNFloodSources(t *testing.T) {
	a, _ := NewAttack(rules.AttackDistributedSYNFlood, AttackConfig{Seed: 3})
	srcs := map[uint32]bool{}
	for i := 0; i < 2000; i++ {
		srcs[a.Next().SrcIP] = true
	}
	if len(srcs) < 150 || len(srcs) > 200 {
		t.Fatalf("distributed flood used %d sources, want ≈200", len(srcs))
	}
}

func TestPortScanSweepsManyPorts(t *testing.T) {
	a, _ := NewAttack(rules.AttackPortScan, AttackConfig{Seed: 4})
	ports := map[uint16]bool{}
	for i := 0; i < 300; i++ {
		ports[a.Next().DstPort] = true
	}
	if len(ports) < 80 {
		t.Fatalf("scan hit only %d distinct ports, want ≥ 80 (Nmap default list)", len(ports))
	}
}

func TestSSHBruteForceTargetsPort22(t *testing.T) {
	a, _ := NewAttack(rules.AttackSSHBruteForce, AttackConfig{Seed: 5})
	for i := 0; i < 200; i++ {
		if h := a.Next(); h.DstPort != 22 {
			t.Fatalf("packet %d targets port %d, want 22", i, h.DstPort)
		}
	}
}

func TestSockstressZeroWindow(t *testing.T) {
	a, _ := NewAttack(rules.AttackSockstress, AttackConfig{Seed: 6})
	zeroWin, syns := 0, 0
	for i := 0; i < 400; i++ {
		h := a.Next()
		if h.Flags.Has(packet.FlagSYN) {
			syns++
		} else if h.Window == 0 && h.Flags.Has(packet.FlagACK) {
			zeroWin++
		}
	}
	if zeroWin == 0 || syns == 0 {
		t.Fatalf("sockstress mix wrong: %d zero-window ACKs, %d SYNs", zeroWin, syns)
	}
	if zeroWin < 2*syns {
		t.Fatalf("steady state must be zero-window ACKs (%d) over SYNs (%d)", zeroWin, syns)
	}
}

func TestMiraiScanPorts(t *testing.T) {
	scan := NewMiraiScan(rand.New(rand.NewSource(7)), AttackConfig{}.withDefaults())
	p23, p2323, other := 0, 0, 0
	dsts := map[uint32]bool{}
	for i := 0; i < 1000; i++ {
		h := scan.Next()
		switch h.DstPort {
		case 23:
			p23++
		case 2323:
			p2323++
		default:
			other++
		}
		dsts[h.DstIP] = true
	}
	if other != 0 {
		t.Fatalf("Mirai scan hit %d non-telnet ports", other)
	}
	if p2323 == 0 || p23 < 5*p2323 {
		t.Fatalf("port ratio off: 23→%d, 2323→%d (want ≈10:1)", p23, p2323)
	}
	if len(dsts) < 900 {
		t.Fatalf("scan must sweep addresses broadly, saw %d distinct", len(dsts))
	}
}

func TestMiraiAddBot(t *testing.T) {
	scan := NewMiraiScan(rand.New(rand.NewSource(8)), AttackConfig{}.withDefaults())
	scan.AddBot(42)
	found := false
	for i := 0; i < 200 && !found; i++ {
		found = scan.Next().SrcIP == 42
	}
	if !found {
		t.Fatal("new bot must start scanning")
	}
}

func TestMixerCapsAttackFraction(t *testing.T) {
	bg := NewBackground(DefaultBackgroundConfig(9))
	atk, _ := NewAttack(rules.AttackDistributedSYNFlood, AttackConfig{Seed: 9})
	m := NewMixer(bg, atk, MixConfig{Seed: 9})
	pkts := m.Batch(10000)
	attack := 0
	for _, p := range pkts {
		if p.Label == LabelAttack {
			attack++
			if p.Attack != string(rules.AttackDistributedSYNFlood) {
				t.Fatalf("attack label %q wrong", p.Attack)
			}
		}
	}
	frac := float64(attack) / float64(len(pkts))
	if frac > 0.101 {
		t.Fatalf("attack fraction %.3f exceeds 10%% cap", frac)
	}
	if frac < 0.05 {
		t.Fatalf("attack fraction %.3f too low to be useful", frac)
	}
	produced, attacked := m.Stats()
	if produced != 10000 || attacked != attack {
		t.Fatalf("stats = %d/%d", produced, attacked)
	}
}

func TestMixerSockstressDefaultLower(t *testing.T) {
	bg := NewBackground(DefaultBackgroundConfig(10))
	atk, _ := NewAttack(rules.AttackSockstress, AttackConfig{Seed: 10})
	m := NewMixer(bg, atk, MixConfig{Seed: 10})
	pkts := m.Batch(5000)
	attack := 0
	for _, p := range pkts {
		if p.Label == LabelAttack {
			attack++
		}
	}
	if frac := float64(attack) / 5000; frac > 0.051 {
		t.Fatalf("sockstress fraction %.3f exceeds its stealth cap", frac)
	}
}

func TestMixerNilAttack(t *testing.T) {
	bg := NewBackground(DefaultBackgroundConfig(11))
	m := NewMixer(bg, nil, MixConfig{Seed: 11})
	for _, p := range m.Batch(100) {
		if p.Label != LabelBenign {
			t.Fatal("nil attack must produce pure background")
		}
	}
}

// backgroundNextOp draws one background packet once the live-flow table
// is full: what BenchmarkBackgroundNext times and
// TestBackgroundNextZeroAlloc holds to zero allocations (a new flow every
// dozen packets amortizes below one).
func backgroundNextOp(testing.TB) func() {
	bg := NewBackground(DefaultBackgroundConfig(1))
	bg.Next()
	return func() { bg.Next() }
}

func BenchmarkBackgroundNext(b *testing.B) {
	next := backgroundNextOp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next()
	}
}

func TestBackgroundNextZeroAlloc(t *testing.T) {
	if n := testing.AllocsPerRun(10000, backgroundNextOp(t)); n != 0 {
		t.Fatalf("Background.Next made %v allocations per packet, want 0", n)
	}
}

func TestUDPFloodShape(t *testing.T) {
	a, err := NewAttack(rules.AttackUDPFlood, AttackConfig{Seed: 12, Victim: 0x0A000001})
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[uint32]bool{}
	for i := 0; i < 1000; i++ {
		h := a.Next()
		if h.Protocol != packet.ProtoUDP || h.DstIP != 0x0A000001 {
			t.Fatal("UDP flood must send UDP at the victim")
		}
		if h.Flags != 0 || h.Seq != 0 {
			t.Fatal("UDP packets must not carry TCP fields")
		}
		srcs[h.SrcIP] = true
	}
	if len(srcs) < 150 {
		t.Fatalf("flood used %d sources, want ≈200", len(srcs))
	}
}

func TestBackgroundUDPShare(t *testing.T) {
	cfg := DefaultBackgroundConfig(13)
	cfg.UDPFraction = 0.2
	bg := NewBackground(cfg)
	udp := 0
	for i := 0; i < 5000; i++ {
		if bg.Next().Protocol == packet.ProtoUDP {
			udp++
		}
	}
	frac := float64(udp) / 5000
	if frac < 0.12 || frac > 0.28 {
		t.Fatalf("UDP share %.3f, want ≈0.20", frac)
	}
	// Default config stays TCP-only (the paper's evaluation substrate).
	bg2 := NewBackground(DefaultBackgroundConfig(13))
	for i := 0; i < 2000; i++ {
		if bg2.Next().Protocol != packet.ProtoTCP {
			t.Fatal("default background must be TCP-only")
		}
	}
}
