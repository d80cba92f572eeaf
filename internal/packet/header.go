// Package packet models the TCP/IP packet headers Jaal summarizes.
//
// Jaal's summarization module treats every packet as a vector of p = 18
// transport- and network-layer header fields (§4.1 of the paper). This
// package defines that field set, a compact wire format with
// gopacket-style allocation-free decoding, normalization of field values
// to [0, 1], and flow identification (4-tuple keys with fast hashing).
package packet

import (
	"fmt"
	"net/netip"
)

// NumFields is p, the number of header fields in a packet vector. The
// paper's matrices are n×18; question vectors have the same length.
const NumFields = 18

// FieldIndex identifies one of the 18 header fields of a packet vector.
type FieldIndex int

// Field indices, in the fixed order used by every matrix, summary and
// question vector in the system.
const (
	FieldSrcIP FieldIndex = iota
	FieldDstIP
	FieldProtocol
	FieldTTL
	FieldTotalLength
	FieldIPID
	FieldFragOffset
	FieldTOS
	FieldSrcPort
	FieldDstPort
	FieldSeq
	FieldAck
	FieldDataOffset
	FieldSYN
	FieldACK
	FieldFIN
	FieldRST
	FieldWindow
)

var fieldNames = [NumFields]string{
	"src_ip", "dst_ip", "protocol", "ttl", "total_length", "ip_id",
	"frag_offset", "tos", "src_port", "dst_port", "seq", "ack",
	"data_offset", "syn", "ack_flag", "fin", "rst", "window",
}

// String returns the canonical snake_case name of the field.
func (f FieldIndex) String() string {
	if f < 0 || int(f) >= NumFields {
		return fmt.Sprintf("field(%d)", int(f))
	}
	return fieldNames[f]
}

// fieldMax holds max(x) for every field, the denominator of the §4.1
// normalization x̄ = x / max(x).
var fieldMax = [NumFields]float64{
	FieldSrcIP:       float64(^uint32(0)),
	FieldDstIP:       float64(^uint32(0)),
	FieldProtocol:    255,
	FieldTTL:         255,
	FieldTotalLength: 65535,
	FieldIPID:        65535,
	FieldFragOffset:  8191, // 13-bit field
	FieldTOS:         255,
	FieldSrcPort:     65535,
	FieldDstPort:     65535,
	FieldSeq:         float64(^uint32(0)),
	FieldAck:         float64(^uint32(0)),
	FieldDataOffset:  15,
	FieldSYN:         1,
	FieldACK:         1,
	FieldFIN:         1,
	FieldRST:         1,
	FieldWindow:      65535,
}

// FieldMax returns the maximum possible raw value of field f, used as the
// normalization denominator.
func FieldMax(f FieldIndex) float64 {
	if f < 0 || int(f) >= NumFields {
		panic(fmt.Sprintf("packet: field index %d out of range", int(f)))
	}
	return fieldMax[f]
}

// Protocol numbers for the Protocol field.
const (
	ProtoTCP  = 6
	ProtoUDP  = 17
	ProtoICMP = 1
)

// TCPFlags is the 8-bit TCP flag byte.
type TCPFlags uint8

// Individual TCP flag bits.
const (
	FlagFIN TCPFlags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
	FlagECE
	FlagCWR
)

// Has reports whether all bits of mask are set.
func (f TCPFlags) Has(mask TCPFlags) bool { return f&mask == mask }

// String renders the set flags in Snort's order, e.g. "SA" for SYN+ACK.
func (f TCPFlags) String() string {
	if f == 0 {
		return "0"
	}
	var out []byte
	for _, fl := range [...]struct {
		bit TCPFlags
		ch  byte
	}{
		{FlagFIN, 'F'}, {FlagSYN, 'S'}, {FlagRST, 'R'}, {FlagPSH, 'P'},
		{FlagACK, 'A'}, {FlagURG, 'U'}, {FlagECE, 'E'}, {FlagCWR, 'C'},
	} {
		if f.Has(fl.bit) {
			out = append(out, fl.ch)
		}
	}
	return string(out)
}

// Header is the decoded network- and transport-layer header of one packet:
// exactly the information Jaal monitors buffer and summarize. The payload
// is deliberately absent — the threat model excludes payload inspection
// (§2).
type Header struct {
	SrcIP       uint32
	DstIP       uint32
	Protocol    uint8
	TTL         uint8
	TotalLength uint16
	IPID        uint16
	FragOffset  uint16 // 13-bit fragment offset, in 8-byte units
	TOS         uint8
	SrcPort     uint16
	DstPort     uint16
	Seq         uint32
	Ack         uint32
	DataOffset  uint8 // TCP header length in 32-bit words (4 bits)
	Flags       TCPFlags
	Window      uint16
}

// flag01 converts a boolean flag to its 0/1 vector entry.
func flag01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Vector writes the raw (un-normalized) 18-field representation of h into
// dst, which must have length ≥ NumFields, and returns dst[:NumFields].
// A nil dst allocates.
func (h *Header) Vector(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, NumFields)
	}
	dst = dst[:NumFields]
	dst[FieldSrcIP] = float64(h.SrcIP)
	dst[FieldDstIP] = float64(h.DstIP)
	dst[FieldProtocol] = float64(h.Protocol)
	dst[FieldTTL] = float64(h.TTL)
	dst[FieldTotalLength] = float64(h.TotalLength)
	dst[FieldIPID] = float64(h.IPID)
	dst[FieldFragOffset] = float64(h.FragOffset)
	dst[FieldTOS] = float64(h.TOS)
	dst[FieldSrcPort] = float64(h.SrcPort)
	dst[FieldDstPort] = float64(h.DstPort)
	dst[FieldSeq] = float64(h.Seq)
	dst[FieldAck] = float64(h.Ack)
	dst[FieldDataOffset] = float64(h.DataOffset)
	dst[FieldSYN] = flag01(h.Flags.Has(FlagSYN))
	dst[FieldACK] = flag01(h.Flags.Has(FlagACK))
	dst[FieldFIN] = flag01(h.Flags.Has(FlagFIN))
	dst[FieldRST] = flag01(h.Flags.Has(FlagRST))
	dst[FieldWindow] = float64(h.Window)
	return dst
}

// NormalizedVector writes the §4.1-normalized representation (every entry
// in [0, 1]) into dst and returns dst[:NumFields]. A nil dst allocates.
func (h *Header) NormalizedVector(dst []float64) []float64 {
	dst = h.Vector(dst)
	for i := range dst {
		dst[i] /= fieldMax[i]
	}
	return dst
}

// Normalize converts a raw field value to its normalized [0, 1] form.
func Normalize(f FieldIndex, raw float64) float64 { return raw / FieldMax(f) }

// Denormalize converts a normalized field value back to raw units.
func Denormalize(f FieldIndex, norm float64) float64 { return norm * FieldMax(f) }

// SrcAddr returns the source address as a netip.Addr for display.
func (h *Header) SrcAddr() netip.Addr { return u32ToAddr(h.SrcIP) }

// DstAddr returns the destination address as a netip.Addr for display.
func (h *Header) DstAddr() netip.Addr { return u32ToAddr(h.DstIP) }

func u32ToAddr(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// AddrToU32 converts a 4-byte address to its uint32 form. It returns 0 for
// non-IPv4 addresses.
func AddrToU32(a netip.Addr) uint32 {
	if !a.Is4() {
		return 0
	}
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// String renders the header as "src:port > dst:port proto flags".
func (h *Header) String() string {
	return fmt.Sprintf("%s:%d > %s:%d proto=%d flags=%s len=%d",
		h.SrcAddr(), h.SrcPort, h.DstAddr(), h.DstPort, h.Protocol, h.Flags, h.TotalLength)
}
