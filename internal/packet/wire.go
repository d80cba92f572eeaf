package packet

import (
	"encoding/binary"
	"fmt"
)

// WireSize is the fixed size in bytes of one encoded header on the wire.
// The format packs the minimal IPv4+TCP header information Jaal needs:
//
//	offset size field
//	0      4    SrcIP
//	4      4    DstIP
//	8      1    Protocol
//	9      1    TTL
//	10     2    TotalLength
//	12     2    IPID
//	14     2    FragOffset (13 bits used)
//	16     1    TOS
//	17     2    SrcPort
//	19     2    DstPort
//	21     4    Seq
//	25     4    Ack
//	29     1    DataOffset (4 bits used)
//	30     1    Flags
//	31     2    Window
//
// All multi-byte integers are big-endian (network byte order).
const WireSize = 33

// AppendEncode appends the wire encoding of h to dst and returns the
// extended slice.
func (h *Header) AppendEncode(dst []byte) []byte {
	var buf [WireSize]byte
	binary.BigEndian.PutUint32(buf[0:], h.SrcIP)
	binary.BigEndian.PutUint32(buf[4:], h.DstIP)
	buf[8] = h.Protocol
	buf[9] = h.TTL
	binary.BigEndian.PutUint16(buf[10:], h.TotalLength)
	binary.BigEndian.PutUint16(buf[12:], h.IPID)
	binary.BigEndian.PutUint16(buf[14:], h.FragOffset&0x1fff)
	buf[16] = h.TOS
	binary.BigEndian.PutUint16(buf[17:], h.SrcPort)
	binary.BigEndian.PutUint16(buf[19:], h.DstPort)
	binary.BigEndian.PutUint32(buf[21:], h.Seq)
	binary.BigEndian.PutUint32(buf[25:], h.Ack)
	buf[29] = h.DataOffset & 0x0f
	buf[30] = byte(h.Flags)
	binary.BigEndian.PutUint16(buf[31:], h.Window)
	return append(dst, buf[:]...)
}

// Encode returns the wire encoding of h as a fresh slice.
func (h *Header) Encode() []byte { return h.AppendEncode(nil) }

// DecodeFrom parses one wire-format header from data into h, gopacket
// DecodingLayer style: the receiver is overwritten in place so hot decode
// loops allocate nothing. It returns the number of bytes consumed.
func (h *Header) DecodeFrom(data []byte) (int, error) {
	if len(data) < WireSize {
		return 0, fmt.Errorf("packet: short header: %d bytes, need %d", len(data), WireSize)
	}
	h.SrcIP = binary.BigEndian.Uint32(data[0:])
	h.DstIP = binary.BigEndian.Uint32(data[4:])
	h.Protocol = data[8]
	h.TTL = data[9]
	h.TotalLength = binary.BigEndian.Uint16(data[10:])
	h.IPID = binary.BigEndian.Uint16(data[12:])
	h.FragOffset = binary.BigEndian.Uint16(data[14:]) & 0x1fff
	h.TOS = data[16]
	h.SrcPort = binary.BigEndian.Uint16(data[17:])
	h.DstPort = binary.BigEndian.Uint16(data[19:])
	h.Seq = binary.BigEndian.Uint32(data[21:])
	h.Ack = binary.BigEndian.Uint32(data[25:])
	h.DataOffset = data[29] & 0x0f
	h.Flags = TCPFlags(data[30])
	h.Window = binary.BigEndian.Uint16(data[31:])
	return WireSize, nil
}

// EncodeBatch encodes a slice of headers back to back.
func EncodeBatch(hs []Header) []byte {
	out := make([]byte, 0, len(hs)*WireSize)
	for i := range hs {
		out = hs[i].AppendEncode(out)
	}
	return out
}

// DecodeBatch decodes a back-to-back batch of wire-format headers.
// It returns an error if data is not a whole number of headers.
func DecodeBatch(data []byte) ([]Header, error) {
	if len(data)%WireSize != 0 {
		return nil, fmt.Errorf("packet: batch of %d bytes is not a multiple of %d", len(data), WireSize)
	}
	hs := make([]Header, len(data)/WireSize)
	for i := range hs {
		if _, err := hs[i].DecodeFrom(data[i*WireSize:]); err != nil {
			return nil, err
		}
	}
	return hs, nil
}

// countSize is the size of one group's header count in EncodeBatches.
const countSize = 4

// BatchesSize returns the encoded size of n groups holding headers
// headers between them.
func BatchesSize(n, headers int) int { return n*countSize + headers*WireSize }

// EncodeBatches encodes groups of headers as one payload: a uint32
// header count per group, in order, then every group's headers back to
// back in EncodeBatch's format.
func EncodeBatches(groups [][]Header) []byte {
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	out := make([]byte, len(groups)*countSize, BatchesSize(len(groups), total))
	for i, g := range groups {
		binary.BigEndian.PutUint32(out[i*countSize:], uint32(len(g)))
	}
	for _, g := range groups {
		for i := range g {
			out = g[i].AppendEncode(out)
		}
	}
	return out
}

// DecodeBatches decodes an EncodeBatches payload of n groups. It checks
// that the counts add up to the body before allocating anything for the
// headers, so a lying count costs nothing. An empty group decodes as
// nil; the others share one backing array, each capped at its end.
func DecodeBatches(data []byte, n int) ([][]Header, error) {
	if n < 0 || len(data)/countSize < n {
		return nil, fmt.Errorf("packet: %d bytes cannot hold %d group counts", len(data), n)
	}
	body := len(data) - n*countSize
	limit := uint64(body / WireSize)
	var total uint64
	for i := 0; i < n; i++ {
		if total += uint64(binary.BigEndian.Uint32(data[i*countSize:])); total > limit {
			break
		}
	}
	if total*WireSize != uint64(body) {
		return nil, fmt.Errorf("packet: %d group counts do not match a body of %d bytes", n, body)
	}
	hs, err := DecodeBatch(data[n*countSize:])
	if err != nil {
		return nil, err
	}
	groups := make([][]Header, n)
	off := 0
	for i := range groups {
		if c := int(binary.BigEndian.Uint32(data[i*countSize:])); c > 0 {
			groups[i] = hs[off : off+c : off+c]
			off += c
		}
	}
	return groups, nil
}
