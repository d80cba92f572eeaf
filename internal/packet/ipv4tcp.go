package packet

import (
	"encoding/binary"
	"fmt"
)

// This file serializes Header to and from genuine IPv4+TCP wire bytes —
// the format a monitor tapping a real link would parse. The decoder is
// written gopacket DecodingLayer style: it fills the receiver in place
// and allocates nothing on the hot path.

// IPv4HeaderLen is the length of an option-less IPv4 header.
const IPv4HeaderLen = 20

// TCPHeaderLen is the length of an option-less TCP header.
const TCPHeaderLen = 20

// MarshalIPv4TCP serializes h as a real IPv4 packet carrying a TCP
// segment with the given payload, computing both checksums. The result
// is parseable by any standard tool (tcpdump, Wireshark, gopacket).
func (h *Header) MarshalIPv4TCP(payload []byte) ([]byte, error) {
	tcpLen := TCPHeaderLen + len(payload)
	totalLen := IPv4HeaderLen + tcpLen
	if totalLen > 65535 {
		return nil, fmt.Errorf("packet: payload of %d bytes overflows IPv4 total length", len(payload))
	}
	buf := make([]byte, totalLen)

	// IPv4 header.
	buf[0] = 0x45 // version 4, IHL 5
	buf[1] = h.TOS
	binary.BigEndian.PutUint16(buf[2:], uint16(totalLen))
	binary.BigEndian.PutUint16(buf[4:], h.IPID)
	binary.BigEndian.PutUint16(buf[6:], h.FragOffset&0x1fff)
	buf[8] = h.TTL
	buf[9] = ProtoTCP
	binary.BigEndian.PutUint32(buf[12:], h.SrcIP)
	binary.BigEndian.PutUint32(buf[16:], h.DstIP)
	// The checksum is never parsed back as a field: VerifyIPv4Checksum
	// checks it by summing the whole header.
	binary.BigEndian.PutUint16(buf[10:], ipChecksum(buf[:IPv4HeaderLen]))

	// TCP header.
	tcp := buf[IPv4HeaderLen:]
	binary.BigEndian.PutUint16(tcp[0:], h.SrcPort)
	binary.BigEndian.PutUint16(tcp[2:], h.DstPort)
	binary.BigEndian.PutUint32(tcp[4:], h.Seq)
	binary.BigEndian.PutUint32(tcp[8:], h.Ack)
	tcp[12] = 5 << 4 // data offset 5 words
	tcp[13] = byte(h.Flags)
	binary.BigEndian.PutUint16(tcp[14:], h.Window)
	copy(tcp[TCPHeaderLen:], payload)
	// Likewise a checksum over the whole segment, never read at a fixed
	// offset.
	binary.BigEndian.PutUint16(tcp[16:], tcpChecksum(h.SrcIP, h.DstIP, tcp))

	return buf, nil
}

// UnmarshalIPv4TCP parses real IPv4+TCP wire bytes into h, returning the
// number of bytes of the IP packet consumed and the TCP payload (a
// subslice of data; copy it if it must outlive data). Non-TCP packets,
// fragments with options, and truncated headers return an error.
func (h *Header) UnmarshalIPv4TCP(data []byte) (int, []byte, error) {
	if len(data) < IPv4HeaderLen {
		return 0, nil, fmt.Errorf("packet: %d bytes, need %d for IPv4", len(data), IPv4HeaderLen)
	}
	if version := data[0] >> 4; version != 4 {
		return 0, nil, fmt.Errorf("packet: IP version %d, want 4", version)
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < IPv4HeaderLen {
		return 0, nil, fmt.Errorf("packet: IHL %d too small", ihl)
	}
	if len(data) < ihl {
		return 0, nil, fmt.Errorf("packet: truncated IPv4 options")
	}
	totalLen := int(binary.BigEndian.Uint16(data[2:]))
	if totalLen < ihl || totalLen > len(data) {
		return 0, nil, fmt.Errorf("packet: total length %d outside [%d,%d]", totalLen, ihl, len(data))
	}
	proto := data[9]
	if proto != ProtoTCP {
		return 0, nil, fmt.Errorf("packet: protocol %d, want TCP", proto)
	}

	h.TOS = data[1]
	h.TotalLength = uint16(totalLen)
	h.IPID = binary.BigEndian.Uint16(data[4:])
	h.FragOffset = binary.BigEndian.Uint16(data[6:]) & 0x1fff
	h.TTL = data[8]
	h.Protocol = proto
	h.SrcIP = binary.BigEndian.Uint32(data[12:])
	h.DstIP = binary.BigEndian.Uint32(data[16:])

	tcp := data[ihl:totalLen]
	if len(tcp) < TCPHeaderLen {
		return 0, nil, fmt.Errorf("packet: %d bytes, need %d for TCP", len(tcp), TCPHeaderLen)
	}
	dataOff := int(tcp[12]>>4) * 4
	if dataOff < TCPHeaderLen || dataOff > len(tcp) {
		return 0, nil, fmt.Errorf("packet: TCP data offset %d invalid", dataOff)
	}
	h.SrcPort = binary.BigEndian.Uint16(tcp[0:])
	h.DstPort = binary.BigEndian.Uint16(tcp[2:])
	h.Seq = binary.BigEndian.Uint32(tcp[4:])
	h.Ack = binary.BigEndian.Uint32(tcp[8:])
	h.DataOffset = tcp[12] >> 4
	h.Flags = TCPFlags(tcp[13])
	h.Window = binary.BigEndian.Uint16(tcp[14:])

	return totalLen, tcp[dataOff:], nil
}

// ipChecksum computes the IPv4 header checksum over hdr with its
// checksum field zeroed or ignored (bytes 10–11 are skipped).
func ipChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		if i == 10 {
			continue
		}
		sum += uint32(binary.BigEndian.Uint16(hdr[i:]))
	}
	for sum > 0xffff {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// tcpChecksum computes the TCP checksum over the pseudo-header and
// segment, with the checksum field (bytes 16–17) skipped.
func tcpChecksum(srcIP, dstIP uint32, segment []byte) uint16 {
	var sum uint32
	sum += srcIP >> 16
	sum += srcIP & 0xffff
	sum += dstIP >> 16
	sum += dstIP & 0xffff
	sum += uint32(ProtoTCP)
	sum += uint32(len(segment))

	for i := 0; i+1 < len(segment); i += 2 {
		if i == 16 {
			continue
		}
		sum += uint32(binary.BigEndian.Uint16(segment[i:]))
	}
	if len(segment)%2 == 1 {
		sum += uint32(segment[len(segment)-1]) << 8
	}
	for sum > 0xffff {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// VerifyIPv4Checksum reports whether the IPv4 header checksum of raw
// wire bytes is valid.
func VerifyIPv4Checksum(data []byte) bool {
	if len(data) < IPv4HeaderLen {
		return false
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(data) < ihl {
		return false
	}
	var sum uint32
	for i := 0; i+1 < ihl; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i:]))
	}
	for sum > 0xffff {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return uint16(sum) == 0xffff
}
