package packet

import "fmt"

// FlowKey identifies a flow by the 4-tuple the paper uses: source and
// destination IP addresses and port numbers (§4.1). It is comparable and
// therefore usable as a map key.
type FlowKey struct {
	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16
}

// Flow returns the flow key of the packet.
func (h *Header) Flow() FlowKey {
	return FlowKey{SrcIP: h.SrcIP, DstIP: h.DstIP, SrcPort: h.SrcPort, DstPort: h.DstPort}
}

// Reverse returns the key of the opposite direction of the flow.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{SrcIP: k.DstIP, DstIP: k.SrcIP, SrcPort: k.DstPort, DstPort: k.SrcPort}
}

// FastHash returns a quick non-cryptographic 64-bit hash of the flow key,
// suitable for sharding flows across workers. Like gopacket's
// Flow.FastHash it is symmetric: a flow and its reverse hash identically,
// so both directions land on the same shard.
func (k FlowKey) FastHash() uint64 {
	a := uint64(k.SrcIP)<<16 | uint64(k.SrcPort)
	b := uint64(k.DstIP)<<16 | uint64(k.DstPort)
	// Order-independent combination keeps the hash symmetric.
	sum := a + b
	xor := a ^ b
	h := sum * 0x9e3779b97f4a7c15
	h ^= h >> 32
	h += xor * 0xc2b2ae3d27d4eb4f
	h ^= h >> 29
	h *= 0x165667b19e3779f9
	h ^= h >> 32
	return h
}

// String renders the flow as "a:pa > b:pb".
func (k FlowKey) String() string {
	return fmt.Sprintf("%s:%d > %s:%d", u32ToAddr(k.SrcIP), k.SrcPort, u32ToAddr(k.DstIP), k.DstPort)
}
