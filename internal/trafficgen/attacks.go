package trafficgen

import (
	"fmt"
	"math/rand"

	"repro/internal/packet"
	"repro/internal/rules"
)

// AttackConfig parameterizes an attack generator.
type AttackConfig struct {
	// Seed drives the generator.
	Seed int64
	// Victim is the target address (defaults to a host in 10/8).
	Victim uint32
	// VictimPort is the targeted service port where applicable.
	VictimPort uint16
}

// attackSources is the number of distinct attacking addresses for
// distributed attacks. The paper uses ≈200 (§8).
const attackSources = 200

func (c AttackConfig) withDefaults() AttackConfig {
	if c.Victim == 0 {
		c.Victim = 0x0A00002A // 10.0.0.42
	}
	if c.VictimPort == 0 {
		c.VictimPort = 80
	}
	return c
}

// Attack generates labeled attack packets.
type Attack interface {
	// ID identifies the attack.
	ID() rules.AttackID
	// Next produces the next attack packet.
	Next() packet.Header
}

// NewAttack constructs the named attack generator.
func NewAttack(id rules.AttackID, cfg AttackConfig) (Attack, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	switch id {
	case rules.AttackSYNFlood:
		return &synFlood{rng: rng, cfg: cfg, distributed: false}, nil
	case rules.AttackDistributedSYNFlood:
		return &synFlood{rng: rng, cfg: cfg, distributed: true, sources: randomSources(rng, attackSources)}, nil
	case rules.AttackPortScan:
		return newPortScan(rng, cfg), nil
	case rules.AttackSSHBruteForce:
		return &sshBruteForce{rng: rng, cfg: cfg, sources: randomSources(rng, attackSources)}, nil
	case rules.AttackSockstress:
		return &sockstress{rng: rng, cfg: cfg, sources: randomSources(rng, attackSources)}, nil
	case rules.AttackMiraiScan:
		return NewMiraiScan(rng, cfg), nil
	case rules.AttackUDPFlood:
		return &udpFlood{rng: rng, cfg: cfg, sources: randomSources(rng, attackSources)}, nil
	case rules.AttackReflection:
		return &reflectionFlood{rng: rng, cfg: cfg, reflectors: randomSources(rng, attackSources)}, nil
	case rules.AttackSlowloris:
		return &slowloris{rng: rng, cfg: cfg}, nil
	case rules.AttackStealthScan:
		return NewStealthScan(rng, cfg, StealthFIN), nil
	case rules.AttackExfiltration:
		return &exfiltration{rng: rng, cfg: cfg}, nil
	default:
		return nil, fmt.Errorf("trafficgen: unknown attack %q", id)
	}
}

// randomSources draws n attacker addresses spread across many subnets so
// distributed attack traffic enters the network at different gateways and
// traverses different monitors (§8).
func randomSources(rng *rand.Rand, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = rng.Uint32()
	}
	return out
}

// synFlood floods the victim with SYNs, optionally from many sources.
type synFlood struct {
	rng         *rand.Rand
	cfg         AttackConfig
	distributed bool
	sources     []uint32
}

func (a *synFlood) ID() rules.AttackID {
	if a.distributed {
		return rules.AttackDistributedSYNFlood
	}
	return rules.AttackSYNFlood
}

func (a *synFlood) Next() packet.Header {
	src := uint32(0xDEAD0001) // fixed single attacker
	if a.distributed {
		src = a.sources[a.rng.Intn(len(a.sources))]
	}
	// Flood tools (hping-style) send minimal, uniform SYNs: constant
	// TTL and window, randomized source port and sequence number.
	return packet.Header{
		SrcIP:       src,
		DstIP:       a.cfg.Victim,
		Protocol:    packet.ProtoTCP,
		TTL:         64,
		TotalLength: 40,
		IPID:        uint16(a.rng.Intn(65536)),
		SrcPort:     uint16(1024 + a.rng.Intn(64512)),
		DstPort:     a.cfg.VictimPort,
		Seq:         a.rng.Uint32(),
		DataOffset:  5,
		Flags:       packet.FlagSYN,
		Window:      512,
	}
}

// portScan sweeps Nmap's default-style well-known port list across the
// victim network from a rotating set of scanners.
type portScan struct {
	rng     *rand.Rand
	cfg     AttackConfig
	ports   []uint16
	idx     int
	sources []uint32
}

// nmapTopPorts approximates Nmap's default top-ports list: the classic
// well-known services a default scan probes (§8 uses "those defaults").
var nmapTopPorts = []uint16{
	7, 9, 13, 21, 22, 23, 25, 26, 37, 53, 79, 80, 81, 88, 106, 110, 111,
	113, 119, 135, 139, 143, 144, 179, 199, 389, 427, 443, 444, 445, 465,
	513, 514, 515, 543, 544, 548, 554, 587, 631, 646, 873, 990, 993, 995,
	1025, 1026, 1027, 1028, 1029, 1110, 1433, 1720, 1723, 1755, 1900,
	2000, 2001, 2049, 2121, 2717, 3000, 3128, 3306, 3389, 3986, 4899,
	5000, 5009, 5051, 5060, 5101, 5190, 5357, 5432, 5631, 5666, 5800,
	5900, 6000, 6001, 6646, 7070, 8000, 8008, 8009, 8080, 8081, 8443,
	8888, 9100, 9999, 10000, 32768, 49152, 49153, 49154, 49155, 49156,
	49157,
}

func newPortScan(rng *rand.Rand, cfg AttackConfig) *portScan {
	return &portScan{rng: rng, cfg: cfg, ports: nmapTopPorts, sources: randomSources(rng, attackSources)}
}

func (a *portScan) ID() rules.AttackID { return rules.AttackPortScan }

func (a *portScan) Next() packet.Header {
	port := a.ports[a.idx%len(a.ports)]
	a.idx++
	// Scan across the victim's /24.
	dst := (a.cfg.Victim &^ 0xFF) | uint32(a.rng.Intn(256))
	// Nmap SYN probes: constant TTL and window, stable source port
	// per scanning host within a run.
	src := a.sources[a.rng.Intn(len(a.sources))]
	return packet.Header{
		SrcIP:       src,
		DstIP:       dst,
		Protocol:    packet.ProtoTCP,
		TTL:         48,
		TotalLength: 40,
		IPID:        uint16(a.rng.Intn(65536)),
		SrcPort:     uint16(33000 + src%1024),
		DstPort:     port,
		Seq:         a.rng.Uint32(),
		DataOffset:  5,
		Flags:       packet.FlagSYN,
		Window:      1024,
	}
}

// sshBruteForce hammers port 22 on the victim from many sources with
// short connection attempts.
type sshBruteForce struct {
	rng     *rand.Rand
	cfg     AttackConfig
	sources []uint32
	phase   int
}

func (a *sshBruteForce) ID() rules.AttackID { return rules.AttackSSHBruteForce }

func (a *sshBruteForce) Next() packet.Header {
	// Brute-force tools reconnect from the same hosts with the same
	// client stack: constant TTL and initial window.
	h := packet.Header{
		SrcIP:       a.sources[a.rng.Intn(len(a.sources))],
		DstIP:       a.cfg.Victim,
		Protocol:    packet.ProtoTCP,
		TTL:         64,
		IPID:        uint16(a.rng.Intn(65536)),
		SrcPort:     uint16(1024 + a.rng.Intn(64512)),
		DstPort:     22,
		Seq:         a.rng.Uint32(),
		DataOffset:  5,
		Window:      16384,
		TotalLength: 40,
	}
	// Alternate SYN and short login-attempt data segments.
	if a.phase%3 == 0 {
		h.Flags = packet.FlagSYN
	} else {
		h.Flags = packet.FlagACK | packet.FlagPSH
		h.Ack = a.rng.Uint32()
		h.TotalLength = uint16(60 + a.rng.Intn(80))
	}
	a.phase++
	return h
}

// sockstress completes handshakes and then advertises a zero window,
// pinning server-side connections open (§8: "completes the TCP handshake
// and sets the TCP window size to 0").
type sockstress struct {
	rng     *rand.Rand
	cfg     AttackConfig
	sources []uint32
	phase   int
}

func (a *sockstress) ID() rules.AttackID { return rules.AttackSockstress }

func (a *sockstress) Next() packet.Header {
	// The sockstress tool maintains its connection table from fixed
	// client hosts with a uniform stack (constant TTL).
	h := packet.Header{
		SrcIP:       a.sources[a.rng.Intn(len(a.sources))],
		DstIP:       a.cfg.Victim,
		Protocol:    packet.ProtoTCP,
		TTL:         64,
		IPID:        uint16(a.rng.Intn(65536)),
		SrcPort:     uint16(1024 + a.rng.Intn(64512)),
		DstPort:     a.cfg.VictimPort,
		Seq:         a.rng.Uint32(),
		Ack:         a.rng.Uint32(),
		DataOffset:  5,
		TotalLength: 40,
	}
	// One SYN for every few zero-window ACKs: the stealthy steady state
	// is the zero-window keepalive.
	if a.phase%4 == 0 {
		h.Flags = packet.FlagSYN
		h.Window = 16384
		h.Ack = 0
	} else {
		h.Flags = packet.FlagACK
		h.Window = 0
	}
	a.phase++
	return h
}

// MiraiScan reproduces the Mirai bot's scanning behaviour: SYN probes
// aimed at telnet ports 23 and (one in ten) 2323 across random addresses,
// the signature found in the published source (scanner.c, §2).
type MiraiScan struct {
	rng *rand.Rand
	cfg AttackConfig
	// InfectedSources is the current bot population; scans originate
	// from these addresses. Starts with one patient-zero source.
	InfectedSources []uint32
}

// NewMiraiScan builds the scan generator with a single initial bot.
func NewMiraiScan(rng *rand.Rand, cfg AttackConfig) *MiraiScan {
	cfg = cfg.withDefaults()
	return &MiraiScan{rng: rng, cfg: cfg, InfectedSources: []uint32{0xC0A86401}}
}

// ID implements Attack.
func (a *MiraiScan) ID() rules.AttackID { return rules.AttackMiraiScan }

// AddBot registers a newly infected device as a scan source.
func (a *MiraiScan) AddBot(addr uint32) { a.InfectedSources = append(a.InfectedSources, addr) }

// Next implements Attack.
func (a *MiraiScan) Next() packet.Header {
	port := uint16(23)
	if a.rng.Intn(10) == 0 {
		port = 2323 // one-in-ten alternate port, per the Mirai source
	}
	dst := a.rng.Uint32() // scans the whole v4 space
	return packet.Header{
		SrcIP:       a.InfectedSources[a.rng.Intn(len(a.InfectedSources))],
		DstIP:       dst,
		Protocol:    packet.ProtoTCP,
		TTL:         64,
		TotalLength: 40,
		IPID:        uint16(a.rng.Intn(65536)),
		SrcPort:     uint16(1024 + a.rng.Intn(64512)),
		DstPort:     port,
		Seq:         dst, // Mirai sets seq = destination address (scanner.c)
		DataOffset:  5,
		Flags:       packet.FlagSYN,
		Window:      5840,
	}
}

// udpFlood blasts the victim with large UDP datagrams from many sources
// — the volumetric reflection/flood traffic ISPs scrub most often.
type udpFlood struct {
	rng     *rand.Rand
	cfg     AttackConfig
	sources []uint32
}

func (a *udpFlood) ID() rules.AttackID { return rules.AttackUDPFlood }

func (a *udpFlood) Next() packet.Header {
	return packet.Header{
		SrcIP:       a.sources[a.rng.Intn(len(a.sources))],
		DstIP:       a.cfg.Victim,
		Protocol:    packet.ProtoUDP,
		TTL:         64,
		TotalLength: 1028, // tool-typical fixed large datagram
		IPID:        uint16(a.rng.Intn(65536)),
		SrcPort:     uint16(1024 + a.rng.Intn(64512)),
		DstPort:     a.cfg.VictimPort,
	}
}
