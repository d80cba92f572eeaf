// Package trafficgen synthesizes the evaluation workloads of §8: ISP
// backbone background traffic standing in for the MAWI traces, and the
// six attack generators (SYN flood, distributed SYN flood, distributed
// port scan, SSH brute force, Sockstress, and the Mirai telnet scan).
//
// The MAWI archive traces the paper replays are unlabeled captures from a
// trans-Pacific backbone link; the authors treat them as benign and
// inject labeled attack traffic on top (§8). This package reproduces
// that methodology end to end with a synthetic generator that matches
// the statistical properties Jaal's summarization depends on: a
// heavy-tailed flow-size distribution, Zipf-like popularity of
// destination services and hosts, realistic TCP flag mixes and the
// resulting low latent rank of header-field batches (Fig. 10).
package trafficgen

import (
	"math"
	"math/rand"

	"repro/internal/packet"
)

// Label marks a generated packet as background or as part of a labeled
// attack, providing the ground truth MAWI lacks.
type Label uint8

// Packet labels.
const (
	LabelBenign Label = iota
	LabelAttack
)

// LabeledPacket couples a header with its ground-truth label and the
// attack that produced it (empty for benign traffic).
type LabeledPacket struct {
	Header packet.Header
	Label  Label
	Attack string
}

// BackgroundConfig tunes the benign traffic generator.
type BackgroundConfig struct {
	// Seed selects the trace: the experiments use Seed 1 as "Trace 1"
	// and Seed 2 as "Trace 2", mirroring the two MAWI months.
	Seed int64
	// Hosts is the number of distinct client addresses in play.
	Hosts int
	// Servers is the number of distinct popular servers.
	Servers int
	// MeanFlowPackets is the mean of the (heavy-tailed) flow length
	// distribution.
	MeanFlowPackets float64
	// UDPFraction is the share of benign packets that are UDP (DNS,
	// QUIC, NTP). It defaults to 0: the paper's evaluation is TCP-only
	// (its five attacks are all TCP, §8), and a UDP share raises the
	// batch matrices' effective rank past the r = 12 operating point
	// every experiment is calibrated on. Set it explicitly for
	// mixed-protocol workloads (the UDP-flood detection tests do).
	UDPFraction float64
	// HomeFraction is the share of servers inside the monitored
	// network (10.0.0.0/8). An ISP's interesting traffic terminates at
	// its customers, so most benign destinations are in HOME_NET —
	// which is exactly what makes flood signatures a threshold
	// tradeoff rather than trivially separable.
	HomeFraction float64
}

// DefaultBackgroundConfig mirrors a busy backbone mix.
func DefaultBackgroundConfig(seed int64) BackgroundConfig {
	return BackgroundConfig{Seed: seed, Hosts: 4000, Servers: 300, MeanFlowPackets: 12, HomeFraction: 0.6}
}

// wellKnownServices weights destination ports the way backbone mixes
// skew: web dominates, then TLS, DNS-over-TCP, mail, ssh, misc.
var wellKnownServices = []struct {
	port   uint16
	weight float64
}{
	{443, 0.45}, {80, 0.25}, {8080, 0.05}, {53, 0.04}, {25, 0.04},
	{22, 0.03}, {993, 0.03}, {3306, 0.02}, {6881, 0.02}, {123, 0.02},
	{5222, 0.02}, {1935, 0.03},
}

// Background generates benign backbone traffic as a stream of flows.
//
// Besides steady flows it emits the benign-but-attack-like events real
// backbone captures contain — flash crowds of connection attempts to one
// server, stray low-rate port walkers (management probes, P2P
// discovery), bursts of SSH login retries, and zero-window stalls from
// congested receivers. These are what make the detection thresholds a
// genuine tradeoff (and FPR non-zero), exactly as in the unlabeled MAWI
// traces: "the MAWI traces might contain some malicious packets" (§8).
type Background struct {
	cfg     BackgroundConfig
	rng     *rand.Rand
	hosts   []uint32
	servers []uint32
	// zipfHost/zipfServer skew popularity.
	zipfHost   *rand.Zipf
	zipfServer *rand.Zipf

	// live flows being interleaved.
	flows []*bgFlow

	// confuser episode state: packets remaining in the current episode
	// of each kind, and the episode's fixed endpoints.
	flashLeft   int
	flashDst    uint32
	scanLeft    int
	scanSrc     uint32
	scanDst     uint32
	scanPort    uint16
	sshLeft     int
	sshSrc      uint32
	sshDst      uint32
	zeroWinLeft int
	zeroWinFlow packet.FlowKey
}

type bgFlow struct {
	key       packet.FlowKey
	remaining int
	seq, ack  uint32
	started   bool
	finishing bool
}

// NewBackground builds the generator for a config.
func NewBackground(cfg BackgroundConfig) *Background {
	if cfg.Hosts <= 0 {
		cfg.Hosts = 4000
	}
	if cfg.Servers <= 0 {
		cfg.Servers = 300
	}
	if cfg.MeanFlowPackets <= 0 {
		cfg.MeanFlowPackets = 12
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := &Background{cfg: cfg, rng: rng}
	// Client space spreads over many /8s; servers concentrate in a few
	// provider blocks, as in backbone captures.
	b.hosts = make([]uint32, cfg.Hosts)
	for i := range b.hosts {
		b.hosts[i] = rng.Uint32()
	}
	b.servers = make([]uint32, cfg.Servers)
	providerBlocks := []uint32{0x17000000, 0x68000000, 0x8D000000, 0xC7000000}
	for i := range b.servers {
		if rng.Float64() < cfg.HomeFraction {
			// Customer-hosted server inside the monitored 10/8.
			b.servers[i] = 0x0A000000 | uint32(rng.Intn(1<<24))
		} else {
			block := providerBlocks[rng.Intn(len(providerBlocks))]
			b.servers[i] = block | uint32(rng.Intn(1<<20))
		}
	}
	b.zipfHost = rand.NewZipf(rng, 1.2, 1, uint64(cfg.Hosts-1))
	b.zipfServer = rand.NewZipf(rng, 1.3, 1, uint64(cfg.Servers-1))
	return b
}

// pickService samples a destination port by service weight.
func (b *Background) pickService() uint16 {
	x := b.rng.Float64()
	acc := 0.0
	for _, s := range wellKnownServices {
		acc += s.weight
		if x < acc {
			return s.port
		}
	}
	// Tail: ephemeral-ish service ports.
	return uint16(1024 + b.rng.Intn(64512))
}

// flowLength samples a heavy-tailed (log-normal-ish) flow length ≥ 1.
func (b *Background) flowLength() int {
	mu := math.Log(b.cfg.MeanFlowPackets) - 0.5
	n := int(math.Exp(b.rng.NormFloat64()*1.0 + mu))
	if n < 1 {
		n = 1
	}
	if n > 2000 {
		n = 2000
	}
	return n
}

// newFlow opens a fresh background flow.
func (b *Background) newFlow() *bgFlow {
	src := b.hosts[b.zipfHost.Uint64()]
	dst := b.servers[b.zipfServer.Uint64()]
	return &bgFlow{
		key: packet.FlowKey{
			SrcIP:   src,
			DstIP:   dst,
			SrcPort: uint16(1024 + b.rng.Intn(64512)),
			DstPort: b.pickService(),
		},
		remaining: b.flowLength(),
		seq:       b.rng.Uint32(),
		ack:       b.rng.Uint32(),
	}
}

// targetLiveFlows is how many flows the generator interleaves at once.
const targetLiveFlows = 64

// Next produces the next benign packet. The stream interleaves dozens of
// live flows with TCP-realistic phases: SYN, established data (ACK/PSH),
// a FIN at the end — plus the attack-like benign episodes described on
// Background.
func (b *Background) Next() packet.Header {
	if h, ok := b.nextConfuser(); ok {
		return h
	}
	if b.cfg.UDPFraction > 0 && b.rng.Float64() < b.cfg.UDPFraction {
		return b.nextUDP()
	}
	for len(b.flows) < targetLiveFlows {
		b.flows = append(b.flows, b.newFlow())
	}
	i := b.rng.Intn(len(b.flows))
	f := b.flows[i]

	h := packet.Header{
		SrcIP:       f.key.SrcIP,
		DstIP:       f.key.DstIP,
		Protocol:    packet.ProtoTCP,
		TTL:         uint8(48 + b.rng.Intn(80)),
		IPID:        uint16(b.rng.Intn(65536)),
		SrcPort:     f.key.SrcPort,
		DstPort:     f.key.DstPort,
		Seq:         f.seq,
		Ack:         f.ack,
		DataOffset:  5,
		Window:      uint16(8192 + b.rng.Intn(57000)),
		TotalLength: uint16(40 + b.rng.Intn(1420)),
	}
	switch {
	case !f.started:
		h.Flags = packet.FlagSYN
		h.TotalLength = 40
		h.Ack = 0
		f.started = true
	case f.remaining <= 1:
		h.Flags = packet.FlagFIN | packet.FlagACK
		f.finishing = true
	default:
		h.Flags = packet.FlagACK
		if b.rng.Float64() < 0.3 {
			h.Flags |= packet.FlagPSH
		}
	}
	f.seq += uint32(h.TotalLength - 40)
	f.remaining--
	if f.remaining <= 0 {
		b.flows[i] = b.newFlow()
	}
	// Reverse direction sometimes, so both directions appear.
	if f.started && !f.finishing && b.rng.Float64() < 0.35 {
		h.SrcIP, h.DstIP = h.DstIP, h.SrcIP
		h.SrcPort, h.DstPort = h.DstPort, h.SrcPort
		h.Flags = packet.FlagACK
	}
	return h
}

// udpServices are the benign UDP destinations: DNS, QUIC, NTP.
var udpServices = []uint16{53, 443, 123, 53, 443}

// nextUDP emits one benign UDP datagram (request or response).
func (b *Background) nextUDP() packet.Header {
	h := packet.Header{
		SrcIP:       b.hosts[b.zipfHost.Uint64()],
		DstIP:       b.servers[b.zipfServer.Uint64()],
		Protocol:    packet.ProtoUDP,
		TTL:         uint8(48 + b.rng.Intn(80)),
		IPID:        uint16(b.rng.Intn(65536)),
		SrcPort:     uint16(1024 + b.rng.Intn(64512)),
		DstPort:     udpServices[b.rng.Intn(len(udpServices))],
		TotalLength: uint16(60 + b.rng.Intn(1200)),
	}
	if b.rng.Float64() < 0.5 { // response direction
		h.SrcIP, h.DstIP = h.DstIP, h.SrcIP
		h.SrcPort, h.DstPort = h.DstPort, h.SrcPort
	}
	return h
}

// nextConfuser maybe starts or continues a benign attack-like episode,
// returning its next packet. Roughly 6 % of the stream is episodic.
func (b *Background) nextConfuser() (packet.Header, bool) {
	// Start new episodes with small probabilities when idle.
	if b.flashLeft == 0 && b.rng.Float64() < 0.0010 {
		// Flash crowds strike anywhere (a news link, a game patch),
		// not preferentially at the already-popular servers; keeping
		// them modest and uniformly placed bounds how much benign SYN
		// mass any one destination region accumulates.
		b.flashLeft = 20 + b.rng.Intn(40)
		b.flashDst = b.servers[b.rng.Intn(len(b.servers))]
	}
	if b.scanLeft == 0 && b.rng.Float64() < 0.0007 {
		b.scanLeft = 10 + b.rng.Intn(30)
		b.scanSrc = b.hosts[b.rng.Intn(len(b.hosts))]
		b.scanDst = b.servers[b.rng.Intn(len(b.servers))]
		b.scanPort = uint16(1 + b.rng.Intn(1024))
	}
	if b.sshLeft == 0 && b.rng.Float64() < 0.0007 {
		b.sshLeft = 2 + b.rng.Intn(4) // below the brute-force count of 5
		b.sshSrc = b.hosts[b.rng.Intn(len(b.hosts))]
		b.sshDst = b.servers[b.rng.Intn(len(b.servers))]
	}
	if b.zeroWinLeft == 0 && b.rng.Float64() < 0.0015 {
		// A stalled receiver advertises zero-window a handful of times
		// before recovering or timing out.
		b.zeroWinLeft = 3 + b.rng.Intn(4)
		b.zeroWinFlow = packet.FlowKey{
			SrcIP:   b.hosts[b.rng.Intn(len(b.hosts))],
			DstIP:   b.servers[b.rng.Intn(len(b.servers))],
			SrcPort: uint16(1024 + b.rng.Intn(64512)),
			DstPort: b.pickService(),
		}
	}

	base := packet.Header{
		Protocol:    packet.ProtoTCP,
		TTL:         uint8(48 + b.rng.Intn(80)),
		IPID:        uint16(b.rng.Intn(65536)),
		Seq:         b.rng.Uint32(),
		DataOffset:  5,
		TotalLength: 40,
	}
	switch {
	case b.flashLeft > 0 && b.rng.Float64() < 0.35:
		// Flash crowd: many clients hitting one server. Real crowds
		// are mostly *successful* connections, so the packet mix is a
		// SYN followed by request/response data — the pure-SYN mass at
		// the server stays bounded, unlike a flood.
		b.flashLeft--
		base.SrcIP = b.hosts[b.rng.Intn(len(b.hosts))]
		base.DstIP = b.flashDst
		base.SrcPort = uint16(1024 + b.rng.Intn(64512))
		base.DstPort = 443
		base.Window = uint16(8192 + b.rng.Intn(57000))
		if b.rng.Float64() < 0.3 {
			base.Flags = packet.FlagSYN
		} else {
			base.Flags = packet.FlagACK
			if b.rng.Float64() < 0.5 {
				base.Flags |= packet.FlagPSH
			}
			base.Ack = b.rng.Uint32()
			base.TotalLength = uint16(60 + b.rng.Intn(600))
		}
		return base, true
	case b.scanLeft > 0 && b.rng.Float64() < 0.25:
		// Stray port walker: one source touching sequential ports.
		b.scanLeft--
		b.scanPort++
		base.SrcIP = b.scanSrc
		base.DstIP = b.scanDst
		base.SrcPort = uint16(1024 + b.rng.Intn(64512))
		base.DstPort = b.scanPort
		base.Flags = packet.FlagSYN
		base.Window = 1024
		return base, true
	case b.sshLeft > 0 && b.rng.Float64() < 0.25:
		// Legitimate SSH retry burst.
		b.sshLeft--
		base.SrcIP = b.sshSrc
		base.DstIP = b.sshDst
		base.SrcPort = uint16(1024 + b.rng.Intn(64512))
		base.DstPort = 22
		base.Flags = packet.FlagSYN
		base.Window = uint16(4096 + b.rng.Intn(16384))
		return base, true
	case b.zeroWinLeft > 0 && b.rng.Float64() < 0.30:
		// Congested receiver advertising a zero window.
		b.zeroWinLeft--
		base.SrcIP = b.zeroWinFlow.SrcIP
		base.DstIP = b.zeroWinFlow.DstIP
		base.SrcPort = b.zeroWinFlow.SrcPort
		base.DstPort = b.zeroWinFlow.DstPort
		base.Flags = packet.FlagACK
		base.Ack = b.rng.Uint32()
		base.Window = 0
		return base, true
	}
	return packet.Header{}, false
}

// Batch produces n benign packets.
func (b *Background) Batch(n int) []packet.Header {
	out := make([]packet.Header, n)
	for i := range out {
		out[i] = b.Next()
	}
	return out
}
