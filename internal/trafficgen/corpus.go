// corpus.go grows the generator set beyond the paper's §8 evaluation
// with the scenario-corpus attack families: amplification/reflection
// DDoS, slowloris/slow-read, the inverse-flag stealth-scan family, a
// bulk-exfiltration channel, the multi-stage campaign that chains them
// across epochs, and the flash-crowd false-positive trap. Each follows
// the same contract as the originals: a seeded generator whose stream
// is a pure function of its AttackConfig.
package trafficgen

import (
	"math/rand"

	"repro/internal/packet"
	"repro/internal/rules"
)

// reflectionFlood emits amplification-attack *responses*: large UDP
// datagrams from many reflector servers (DNS, and a minority of NTP)
// converging on the victim whose address the attacker spoofed in the
// requests. The observable signature is the reflectors' well-known
// source port and the datagram size; the destination port is the random
// ephemeral port the spoofed requests carried.
type reflectionFlood struct {
	rng        *rand.Rand
	cfg        AttackConfig
	reflectors []uint32
}

func (a *reflectionFlood) ID() rules.AttackID { return rules.AttackReflection }

func (a *reflectionFlood) Next() packet.Header {
	// 9:1 DNS to NTP, roughly the reflector mix of recorded carpet
	// attacks; amplified answers fill the path MTU.
	srcPort := uint16(53)
	length := uint16(1200 + a.rng.Intn(280))
	if a.rng.Intn(10) == 0 {
		srcPort = 123
		length = 468 // NTP monlist response fragments are smaller
	}
	return packet.Header{
		SrcIP:       a.reflectors[a.rng.Intn(len(a.reflectors))],
		DstIP:       a.cfg.Victim,
		Protocol:    packet.ProtoUDP,
		TTL:         uint8(48 + a.rng.Intn(16)),
		TotalLength: length,
		IPID:        uint16(a.rng.Intn(65536)),
		SrcPort:     srcPort,
		DstPort:     uint16(1024 + a.rng.Intn(64512)),
	}
}

// slowloris holds many HTTP connections to the victim open: a trickle of
// new handshakes, zero-window keepalive ACKs (the slow-read variant),
// and occasional one-line partial-header segments (classic slowloris).
// Unlike a flood it needs only a few hundred live connections, so the
// per-victim count semantics mirror Sockstress, not the volumetric
// rules.
type slowloris struct {
	rng   *rand.Rand
	cfg   AttackConfig
	conns []heldConn
	phase int
}

type heldConn struct {
	src     uint32
	srcPort uint16
	seq     uint32
}

// slowlorisMaxConns bounds the held-connection table, matching the tool
// defaults (a few hundred sockets exhaust a stock Apache worker pool).
const slowlorisMaxConns = 256

func (a *slowloris) ID() rules.AttackID { return rules.AttackSlowloris }

func (a *slowloris) Next() packet.Header {
	a.phase++
	// Open a new connection every few packets until the table is full;
	// the steady state is keepalives on held connections.
	if len(a.conns) < slowlorisMaxConns && (len(a.conns) == 0 || a.phase%5 == 0) {
		c := heldConn{
			src:     a.rng.Uint32(),
			srcPort: uint16(1024 + a.rng.Intn(64512)),
			seq:     a.rng.Uint32(),
		}
		a.conns = append(a.conns, c)
		return packet.Header{
			SrcIP:       c.src,
			DstIP:       a.cfg.Victim,
			Protocol:    packet.ProtoTCP,
			TTL:         64,
			TotalLength: 40,
			IPID:        uint16(a.rng.Intn(65536)),
			SrcPort:     c.srcPort,
			DstPort:     a.cfg.VictimPort,
			Seq:         c.seq,
			DataOffset:  5,
			Flags:       packet.FlagSYN,
			Window:      16384,
		}
	}
	c := &a.conns[a.rng.Intn(len(a.conns))]
	h := packet.Header{
		SrcIP:       c.src,
		DstIP:       a.cfg.Victim,
		Protocol:    packet.ProtoTCP,
		TTL:         64,
		TotalLength: 40,
		IPID:        uint16(a.rng.Intn(65536)),
		SrcPort:     c.srcPort,
		DstPort:     a.cfg.VictimPort,
		Seq:         c.seq,
		Ack:         a.rng.Uint32(),
		DataOffset:  5,
		Flags:       packet.FlagACK,
		Window:      0,
	}
	// One in six keepalives carries a partial header line ("X-a: b\r\n")
	// instead of a bare zero-window ACK.
	if a.rng.Intn(6) == 0 {
		h.Flags |= packet.FlagPSH
		h.TotalLength = uint16(45 + a.rng.Intn(8))
		c.seq += uint32(h.TotalLength - 40)
	}
	return h
}

// StealthVariant selects the probe shape of the inverse-flag scan
// family.
type StealthVariant string

// Stealth-scan variants (§8-style sweep of the victim /24). FIN and
// Xmas probes project onto the same question vector (PSH/URG are
// outside the 18 summarized fields) and are detectable by the flags:F
// scenario rule; NULL and idle probes are evasion shapes the rule
// grammar cannot name, generated for coverage of the undetected tail.
const (
	StealthFIN  StealthVariant = "fin"
	StealthXmas StealthVariant = "xmas"
	StealthNull StealthVariant = "null"
	StealthIdle StealthVariant = "idle"
)

// StealthScan sweeps the victim /24 with inverse-flag probes across the
// well-known port list, from a rotating set of scanners (the idle
// variant instead spoofs every probe from a single zombie host whose
// sequential IPID leak the scanner reads back).
type StealthScan struct {
	rng     *rand.Rand
	cfg     AttackConfig
	variant StealthVariant
	sources []uint32
	idx     int
	// zombieIPID is the idle variant's sequentially incrementing IP ID,
	// the side channel the scan reads.
	zombieIPID uint16
}

// NewStealthScan builds a stealth scanner of the given variant.
func NewStealthScan(rng *rand.Rand, cfg AttackConfig, variant StealthVariant) *StealthScan {
	cfg = cfg.withDefaults()
	return &StealthScan{rng: rng, cfg: cfg, variant: variant, sources: randomSources(rng, attackSources)}
}

// ID implements Attack.
func (a *StealthScan) ID() rules.AttackID { return rules.AttackStealthScan }

// Next implements Attack.
func (a *StealthScan) Next() packet.Header {
	port := nmapTopPorts[a.idx%len(nmapTopPorts)]
	a.idx++
	h := packet.Header{
		DstIP:       (a.cfg.Victim &^ 0xFF) | uint32(a.rng.Intn(256)),
		Protocol:    packet.ProtoTCP,
		TTL:         48,
		TotalLength: 40,
		IPID:        uint16(a.rng.Intn(65536)),
		DstPort:     port,
		Seq:         a.rng.Uint32(),
		DataOffset:  5,
		Window:      1024,
	}
	src := a.sources[a.rng.Intn(len(a.sources))]
	h.SrcIP = src
	h.SrcPort = uint16(33000 + src%1024)
	switch a.variant {
	case StealthXmas:
		h.Flags = packet.FlagFIN | packet.FlagPSH | packet.FlagURG
	case StealthNull:
		h.Flags = 0
	case StealthIdle:
		// Every probe appears to come from the zombie; its IP ID counts
		// up by one per packet sent, which is the whole point.
		a.zombieIPID++
		h.SrcIP = a.sources[0]
		h.SrcPort = 33000
		h.IPID = a.zombieIPID
		h.Flags = packet.FlagSYN
	default: // StealthFIN
		h.Flags = packet.FlagFIN
	}
	return h
}

// exfilCollectorIP and exfilCollectorPort are the fixed drop point of
// the exfiltration channel: a staging server outside the monitored
// network (198.51.100.20:4444, the scenario rule's pinned port).
const (
	exfilCollectorIP   = uint32(0xC6336414)
	exfilCollectorPort = uint16(4444)
)

// exfiltration is a bulk transfer from one compromised home-net host
// (the configured victim) to the fixed external collection point:
// sustained MTU-filling PSH/ACK segments on a single long-lived flow,
// the final stage of the multi-stage campaign.
type exfiltration struct {
	rng     *rand.Rand
	cfg     AttackConfig
	srcPort uint16
	seq     uint32
	phase   int
}

func (a *exfiltration) ID() rules.AttackID { return rules.AttackExfiltration }

func (a *exfiltration) Next() packet.Header {
	if a.srcPort == 0 {
		a.srcPort = uint16(1024 + a.rng.Intn(64512))
		a.seq = a.rng.Uint32()
	}
	h := packet.Header{
		SrcIP:      a.cfg.Victim,
		DstIP:      exfilCollectorIP,
		Protocol:   packet.ProtoTCP,
		TTL:        64,
		IPID:       uint16(a.rng.Intn(65536)),
		SrcPort:    a.srcPort,
		DstPort:    exfilCollectorPort,
		Seq:        a.seq,
		Ack:        a.rng.Uint32(),
		DataOffset: 5,
		Window:     29200,
	}
	if a.phase == 0 {
		h.Flags = packet.FlagSYN
		h.TotalLength = 40
		h.Ack = 0
	} else {
		h.Flags = packet.FlagACK | packet.FlagPSH
		h.TotalLength = 1500
		a.seq += uint32(h.TotalLength - 40)
	}
	a.phase++
	return h
}

// Campaign chains attack stages into one multi-stage intrusion staged
// across epochs: reconnaissance port scan, SSH brute-force infection of
// the victim, then bulk exfiltration from it. ID reports the stage the
// most recent packet belongs to, so a Mixer labels every packet with
// its own stage even across transitions.
type Campaign struct {
	stages   []Attack
	stageLen int
	idx      int
	emitted  int
}

// CampaignStages lists the stage attack IDs in order.
var CampaignStages = []rules.AttackID{
	rules.AttackPortScan, rules.AttackSSHBruteForce, rules.AttackExfiltration,
}

// NewCampaign builds the three-stage campaign; each stage emits
// stageLen packets before the next begins (the last runs unbounded).
// Stage generators draw from per-stage seeds so the campaign stream
// stays a pure function of cfg.Seed.
func NewCampaign(cfg AttackConfig, stageLen int) (*Campaign, error) {
	cfg = cfg.withDefaults()
	if stageLen < 1 {
		stageLen = 400
	}
	c := &Campaign{stageLen: stageLen}
	for i, id := range CampaignStages {
		scfg := cfg
		scfg.Seed = cfg.Seed + int64(i)*1000003
		a, err := NewAttack(id, scfg)
		if err != nil {
			return nil, err
		}
		c.stages = append(c.stages, a)
	}
	return c, nil
}

// Stage returns the zero-based index of the current stage.
func (c *Campaign) Stage() int { return c.idx }

// ID implements Attack, naming the current stage.
func (c *Campaign) ID() rules.AttackID { return c.stages[c.idx].ID() }

// Next implements Attack. The stage advances before the packet is
// drawn, so a subsequent ID call always names the stage of the packet
// just emitted (the Mixer evaluates Next then ID, left to right).
func (c *Campaign) Next() packet.Header {
	if c.idx < len(c.stages)-1 && c.emitted >= c.stageLen {
		c.idx++
		c.emitted = 0
	}
	c.emitted++
	return c.stages[c.idx].Next()
}

// FlashCrowd is the false-positive trap: a benign surge of successful
// connections from many clients to one suddenly popular home-net server
// — a news link, a game patch. The mix is dominated by established-flow
// data in both directions with only the natural share of handshake
// SYNs, which is exactly what separates a crowd from a flood; a
// detector that alerts on it is scored as a false positive. It is
// deliberately not an Attack: its packets carry no attack label.
type FlashCrowd struct {
	rng     *rand.Rand
	cfg     AttackConfig
	clients []uint32
}

// NewFlashCrowd builds the surge generator aimed at cfg.Victim.
func NewFlashCrowd(cfg AttackConfig) *FlashCrowd {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &FlashCrowd{rng: rng, cfg: cfg, clients: randomSources(rng, attackSources)}
}

// Next produces the next surge packet.
func (f *FlashCrowd) Next() packet.Header {
	h := packet.Header{
		Protocol:   packet.ProtoTCP,
		TTL:        uint8(48 + f.rng.Intn(80)),
		IPID:       uint16(f.rng.Intn(65536)),
		Seq:        f.rng.Uint32(),
		DataOffset: 5,
		Window:     uint16(8192 + f.rng.Intn(57000)),
	}
	client := f.clients[f.rng.Intn(len(f.clients))]
	clientPort := uint16(1024 + f.rng.Intn(64512))
	r := f.rng.Float64()
	switch {
	case r < 0.12: // client handshake SYN
		h.SrcIP, h.DstIP = client, f.cfg.Victim
		h.SrcPort, h.DstPort = clientPort, f.cfg.VictimPort
		h.Flags = packet.FlagSYN
		h.TotalLength = 40
	case r < 0.24: // server SYN/ACK
		h.SrcIP, h.DstIP = f.cfg.Victim, client
		h.SrcPort, h.DstPort = f.cfg.VictimPort, clientPort
		h.Flags = packet.FlagSYN | packet.FlagACK
		h.Ack = f.rng.Uint32()
		h.TotalLength = 40
	case r < 0.55: // client request data
		h.SrcIP, h.DstIP = client, f.cfg.Victim
		h.SrcPort, h.DstPort = clientPort, f.cfg.VictimPort
		h.Flags = packet.FlagACK
		if f.rng.Float64() < 0.5 {
			h.Flags |= packet.FlagPSH
		}
		h.Ack = f.rng.Uint32()
		h.TotalLength = uint16(60 + f.rng.Intn(500))
	default: // server response data, the bulk of a crowd
		h.SrcIP, h.DstIP = f.cfg.Victim, client
		h.SrcPort, h.DstPort = f.cfg.VictimPort, clientPort
		h.Flags = packet.FlagACK
		if f.rng.Float64() < 0.4 {
			h.Flags |= packet.FlagPSH
		}
		h.Ack = f.rng.Uint32()
		h.TotalLength = uint16(200 + f.rng.Intn(1200))
	}
	return h
}
