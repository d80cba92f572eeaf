package packet

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIPv4TCPRoundTrip(t *testing.T) {
	h := sampleHeader()
	payload := []byte("hello, wire")
	wire, err := h.MarshalIPv4TCP(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != IPv4HeaderLen+TCPHeaderLen+len(payload) {
		t.Fatalf("wire length %d", len(wire))
	}
	var got Header
	n, gotPayload, err := got.UnmarshalIPv4TCP(wire)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(wire) {
		t.Fatalf("consumed %d of %d", n, len(wire))
	}
	if string(gotPayload) != string(payload) {
		t.Fatalf("payload %q", gotPayload)
	}
	// Fields set by the marshaller must round trip; TotalLength and
	// DataOffset are rewritten by serialization.
	if got.SrcIP != h.SrcIP || got.DstIP != h.DstIP || got.SrcPort != h.SrcPort ||
		got.DstPort != h.DstPort || got.Seq != h.Seq || got.Ack != h.Ack ||
		got.Flags != h.Flags || got.Window != h.Window || got.TTL != h.TTL ||
		got.IPID != h.IPID || got.TOS != h.TOS {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, h)
	}
	if got.TotalLength != uint16(len(wire)) {
		t.Fatalf("total length %d, want %d", got.TotalLength, len(wire))
	}
}

func TestIPv4ChecksumValid(t *testing.T) {
	h := sampleHeader()
	wire, err := h.MarshalIPv4TCP(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyIPv4Checksum(wire) {
		t.Fatal("generated IPv4 checksum must verify")
	}
	// Corrupt a header byte: checksum must fail.
	wire[8] ^= 0xFF
	if VerifyIPv4Checksum(wire) {
		t.Fatal("corrupted header must fail checksum")
	}
}

func TestUnmarshalIPv4TCPErrors(t *testing.T) {
	h := sampleHeader()
	wire, _ := h.MarshalIPv4TCP(nil)

	cases := map[string][]byte{
		"short":        wire[:10],
		"bad version":  append([]byte{0x65}, wire[1:]...),
		"bad ihl":      append([]byte{0x41}, wire[1:]...),
		"truncated IP": wire[:IPv4HeaderLen+4],
	}
	for name, data := range cases {
		var out Header
		if _, _, err := out.UnmarshalIPv4TCP(data); err == nil {
			t.Fatalf("case %q must fail", name)
		}
	}

	// Non-TCP protocol.
	udp := append([]byte{}, wire...)
	udp[9] = ProtoUDP
	var out Header
	if _, _, err := out.UnmarshalIPv4TCP(udp); err == nil {
		t.Fatal("UDP packet must be rejected by the TCP decoder")
	}
}

func TestMarshalOversizedPayload(t *testing.T) {
	h := sampleHeader()
	if _, err := h.MarshalIPv4TCP(make([]byte, 66000)); err == nil {
		t.Fatal("oversized payload must be rejected")
	}
}

// Property: IPv4+TCP wire round-trips arbitrary headers and payloads,
// and the checksum always verifies.
func TestIPv4TCPRoundTripProperty(t *testing.T) {
	f := func(seed int64, payloadLen uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		h := Header{
			SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
			Protocol: ProtoTCP, TTL: uint8(rng.Intn(256)),
			IPID: uint16(rng.Intn(65536)), TOS: uint8(rng.Intn(256)),
			FragOffset: uint16(rng.Intn(8192)),
			SrcPort:    uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)),
			Seq: rng.Uint32(), Ack: rng.Uint32(),
			Flags: TCPFlags(rng.Intn(256)), Window: uint16(rng.Intn(65536)),
		}
		payload := make([]byte, payloadLen)
		rng.Read(payload)
		wire, err := h.MarshalIPv4TCP(payload)
		if err != nil {
			return false
		}
		if !VerifyIPv4Checksum(wire) {
			return false
		}
		var got Header
		n, gotPayload, err := got.UnmarshalIPv4TCP(wire)
		if err != nil || n != len(wire) {
			return false
		}
		if len(gotPayload) != len(payload) {
			return false
		}
		return got.SrcIP == h.SrcIP && got.DstIP == h.DstIP &&
			got.Flags == h.Flags && got.Seq == h.Seq &&
			got.FragOffset == h.FragOffset
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Fuzz-ish robustness: the decoder must never panic on arbitrary bytes.
func TestUnmarshalNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		data := make([]byte, rng.Intn(80))
		rng.Read(data)
		var h Header
		h.UnmarshalIPv4TCP(data) // must not panic; errors are fine
	}
}

func unmarshalOp(tb testing.TB) func() {
	h := sampleHeader()
	wire, _ := h.MarshalIPv4TCP([]byte("payload bytes here"))
	var out Header
	return func() {
		if _, _, err := out.UnmarshalIPv4TCP(wire); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalIPv4TCP(b *testing.B) { benchOp(b, unmarshalOp(b)) }
