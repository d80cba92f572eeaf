package packet

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func sampleHeader() Header {
	return Header{
		SrcIP:       0xC0A80101, // 192.168.1.1
		DstIP:       0x0A000002, // 10.0.0.2
		Protocol:    ProtoTCP,
		TTL:         64,
		TotalLength: 1500,
		IPID:        4321,
		FragOffset:  0,
		TOS:         0,
		SrcPort:     44231,
		DstPort:     22,
		Seq:         123456789,
		Ack:         987654321,
		DataOffset:  5,
		Flags:       FlagSYN | FlagACK,
		Window:      65535,
	}
}

func TestVectorLengthAndValues(t *testing.T) {
	h := sampleHeader()
	v := h.Vector(nil)
	if len(v) != NumFields {
		t.Fatalf("vector length %d, want %d", len(v), NumFields)
	}
	if v[FieldDstPort] != 22 {
		t.Fatalf("dst port entry = %v, want 22", v[FieldDstPort])
	}
	if v[FieldSYN] != 1 || v[FieldACK] != 1 || v[FieldFIN] != 0 || v[FieldRST] != 0 {
		t.Fatalf("flag entries wrong: syn=%v ack=%v fin=%v rst=%v",
			v[FieldSYN], v[FieldACK], v[FieldFIN], v[FieldRST])
	}
}

func TestVectorReusesDst(t *testing.T) {
	h := sampleHeader()
	buf := make([]float64, NumFields)
	v := h.Vector(buf)
	if &v[0] != &buf[0] {
		t.Fatal("Vector must reuse the provided buffer")
	}
}

func TestNormalizedVectorRange(t *testing.T) {
	h := sampleHeader()
	v := h.NormalizedVector(nil)
	for i, x := range v {
		if x < 0 || x > 1 {
			t.Fatalf("field %s = %v outside [0,1]", FieldIndex(i), x)
		}
	}
	if v[FieldWindow] != 1 {
		t.Fatalf("window 65535 must normalize to 1, got %v", v[FieldWindow])
	}
}

func TestNormalizeDenormalizeRoundTrip(t *testing.T) {
	for f := FieldIndex(0); int(f) < NumFields; f++ {
		raw := FieldMax(f) / 3
		if got := Denormalize(f, Normalize(f, raw)); got != raw {
			t.Fatalf("field %s: round trip %v != %v", f, got, raw)
		}
	}
}

func TestFieldString(t *testing.T) {
	if FieldSYN.String() != "syn" {
		t.Fatalf("FieldSYN.String() = %q", FieldSYN.String())
	}
	if FieldIndex(99).String() != "field(99)" {
		t.Fatalf("out-of-range String() = %q", FieldIndex(99).String())
	}
}

func TestTCPFlagsString(t *testing.T) {
	if got := (FlagSYN | FlagACK).String(); got != "SA" {
		t.Fatalf("flags string = %q, want SA", got)
	}
	if got := TCPFlags(0).String(); got != "0" {
		t.Fatalf("zero flags string = %q, want 0", got)
	}
}

func TestWireRoundTrip(t *testing.T) {
	h := sampleHeader()
	data := h.Encode()
	if len(data) != WireSize {
		t.Fatalf("encoded size %d, want %d", len(data), WireSize)
	}
	var got Header
	n, err := got.DecodeFrom(data)
	if err != nil {
		t.Fatal(err)
	}
	if n != WireSize {
		t.Fatalf("consumed %d bytes, want %d", n, WireSize)
	}
	if got != h {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, h)
	}
}

func TestDecodeShort(t *testing.T) {
	var h Header
	if _, err := h.DecodeFrom(make([]byte, WireSize-1)); err == nil {
		t.Fatal("expected error for short buffer")
	}
}

func TestBatchRoundTrip(t *testing.T) {
	hs := []Header{sampleHeader(), {SrcIP: 1, DstPort: 80, Flags: FlagRST}}
	data := EncodeBatch(hs)
	got, err := DecodeBatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != hs[0] || got[1] != hs[1] {
		t.Fatalf("batch round trip mismatch: %+v", got)
	}
}

func TestDecodeBatchBadLength(t *testing.T) {
	if _, err := DecodeBatch(make([]byte, WireSize+1)); err == nil {
		t.Fatal("expected error for ragged batch")
	}
}

// FuzzDecodeBatch: the raw-batch codec a monitor answers a raw-packet
// request with never panics, accepts only whole headers, and re-encodes
// what it accepted to the input — except the bits DecodeFrom masks off
// (the top 3 of FragOffset, the top nibble of DataOffset), which encoder
// and decoder both drop.
func FuzzDecodeBatch(f *testing.F) {
	f.Add(EncodeBatch([]Header{sampleHeader(), {SrcIP: 1, DstPort: 80, Flags: FlagRST}}))
	f.Add(bytes.Repeat([]byte{0xff}, 2*WireSize))
	f.Add(make([]byte, WireSize-1))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		hs, err := DecodeBatch(data)
		if err != nil {
			return
		}
		if len(data)%WireSize != 0 || len(hs) != len(data)/WireSize {
			t.Fatalf("accepted %d bytes as %d headers", len(data), len(hs))
		}
		want := bytes.Clone(data)
		for off := 0; off < len(want); off += WireSize {
			want[off+14] &= 0x1f // FragOffset: 13 bits used
			want[off+29] &= 0x0f // DataOffset: 4 bits used
		}
		if got := EncodeBatch(hs); !bytes.Equal(got, want) {
			t.Fatalf("re-encode differs from the masked input:\n got %x\nwant %x", got, want)
		}
	})
}

func TestBatchesRoundTrip(t *testing.T) {
	a, b := sampleHeader(), Header{SrcIP: 1, DstPort: 80, Flags: FlagRST}
	groups := [][]Header{{a}, nil, {b, a}}
	data := EncodeBatches(groups)
	if len(data) != BatchesSize(3, 3) {
		t.Fatalf("encoded %d bytes, BatchesSize says %d", len(data), BatchesSize(3, 3))
	}
	got, err := DecodeBatches(data, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || len(got[0]) != 1 || got[1] != nil || len(got[2]) != 2 ||
		got[0][0] != a || got[2][0] != b || got[2][1] != a {
		t.Fatalf("batches round trip mismatch: %+v", got)
	}
	if cap(got[0]) != 1 {
		t.Fatalf("group 0 has capacity %d; an append would overwrite group 2", cap(got[0]))
	}
	// A one-group payload is a count followed by an EncodeBatch body.
	if one := EncodeBatches([][]Header{{a, b}}); !bytes.Equal(one[countSize:], EncodeBatch([]Header{a, b})) {
		t.Fatal("one-group body differs from EncodeBatch")
	}
	for _, bad := range []struct {
		data []byte
		n    int
	}{
		{data[:len(data)-1], 3},        // body one byte short
		{append(data, 0), 3},           // one byte too many
		{data, 4},                      // a count too many: the body no longer adds up
		{data[:2*countSize], 3},        // not even the counts fit
		{EncodeBatches(nil), -1},       // negative group count
		{EncodeBatches(groups[:1]), 2}, // second count read from the body
	} {
		if _, err := DecodeBatches(bad.data, bad.n); err == nil {
			t.Errorf("accepted %d bytes as %d groups", len(bad.data), bad.n)
		}
	}
}

// TestDecodeBatchesLyingCountsAllocateNothing pins the bound the
// controller relies on when a monitor answers a raw request: counts that
// claim 100 000 headers (4 MB decoded) over a one-header body are
// refused before any header is allocated. The bound leaves room for the
// error and for whatever the runtime allocates meanwhile.
func TestDecodeBatchesLyingCountsAllocateNothing(t *testing.T) {
	const n = 1000
	data := make([]byte, n*countSize+WireSize)
	for i := 0; i < n; i++ {
		data[i*countSize+3] = 100
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := DecodeBatches(data, n); err == nil {
		t.Fatal("counts of 100 000 headers over one header's body must not decode")
	}
	runtime.ReadMemStats(&after)
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 64<<10 {
		t.Fatalf("refusing lying counts allocated %d bytes, want far less than the claim", delta)
	}
}

// FuzzDecodeBatches: the MsgRawBatch payload decoder never panics,
// accepts only counts that add up to its body, and re-encodes what it
// accepted to the input up to the bits DecodeFrom masks (see
// FuzzDecodeBatch).
func FuzzDecodeBatches(f *testing.F) {
	f.Add(uint8(3), EncodeBatches([][]Header{{sampleHeader()}, nil, {{SrcIP: 1, DstPort: 80, Flags: FlagRST}}}))
	f.Add(uint8(1), EncodeBatches([][]Header{nil}))
	f.Add(uint8(2), bytes.Repeat([]byte{0xff}, 2*countSize+WireSize))
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		groups, err := DecodeBatches(data, int(n))
		if err != nil {
			return
		}
		total := 0
		for _, g := range groups {
			total += len(g)
		}
		if len(groups) != int(n) || BatchesSize(int(n), total) != len(data) {
			t.Fatalf("accepted %d bytes as %d groups of %d headers", len(data), len(groups), total)
		}
		want := bytes.Clone(data)
		for off := int(n) * countSize; off < len(want); off += WireSize {
			want[off+14] &= 0x1f // FragOffset: 13 bits used
			want[off+29] &= 0x0f // DataOffset: 4 bits used
		}
		if got := EncodeBatches(groups); !bytes.Equal(got, want) {
			t.Fatalf("re-encode differs from the masked input:\n got %x\nwant %x", got, want)
		}
	})
}

func TestFlowKey(t *testing.T) {
	h := sampleHeader()
	k := h.Flow()
	if k.SrcIP != h.SrcIP || k.DstPort != h.DstPort {
		t.Fatalf("flow key %+v does not match header", k)
	}
	r := k.Reverse()
	if r.SrcIP != k.DstIP || r.SrcPort != k.DstPort {
		t.Fatalf("reverse key %+v wrong", r)
	}
	if r.Reverse() != k {
		t.Fatal("double reverse must be identity")
	}
}

func TestFastHashSymmetric(t *testing.T) {
	k := FlowKey{SrcIP: 0x01020304, DstIP: 0x05060708, SrcPort: 1234, DstPort: 80}
	if k.FastHash() != k.Reverse().FastHash() {
		t.Fatal("FastHash must be symmetric under flow reversal")
	}
}

func TestFastHashSpreads(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buckets := make(map[uint64]int)
	const nflows = 10000
	for i := 0; i < nflows; i++ {
		k := FlowKey{
			SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
			SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)),
		}
		buckets[k.FastHash()%16]++
	}
	for b, n := range buckets {
		frac := float64(n) / nflows
		if frac < 0.03 || frac > 0.10 {
			t.Fatalf("bucket %d holds %.1f%% of flows; hash is badly skewed", b, 100*frac)
		}
	}
}

func TestAddrConversions(t *testing.T) {
	h := sampleHeader()
	if h.SrcAddr().String() != "192.168.1.1" {
		t.Fatalf("src addr = %s", h.SrcAddr())
	}
	if AddrToU32(h.SrcAddr()) != h.SrcIP {
		t.Fatal("AddrToU32(SrcAddr) must round trip")
	}
}

// Property: wire encode/decode round-trips arbitrary headers.
func TestWireRoundTripProperty(t *testing.T) {
	f := func(srcIP, dstIP, seq, ack uint32, lens uint16, ipid uint16, frag uint16,
		proto, ttl, tos, doff, flags uint8, sp, dp, win uint16) bool {
		h := Header{
			SrcIP: srcIP, DstIP: dstIP, Protocol: proto, TTL: ttl,
			TotalLength: lens, IPID: ipid, FragOffset: frag & 0x1fff, TOS: tos,
			SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack,
			DataOffset: doff & 0x0f, Flags: TCPFlags(flags), Window: win,
		}
		var got Header
		if _, err := got.DecodeFrom(h.Encode()); err != nil {
			return false
		}
		return got == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: normalized vectors always land in [0,1] for arbitrary headers.
func TestNormalizedRangeProperty(t *testing.T) {
	f := func(srcIP, dstIP, seq, ack uint32, flags uint8) bool {
		h := Header{SrcIP: srcIP, DstIP: dstIP, Seq: seq, Ack: ack,
			Protocol: 255, TTL: 255, TotalLength: 65535, Flags: TCPFlags(flags),
			FragOffset: 8191, DataOffset: 15, Window: 65535,
			SrcPort: 65535, DstPort: 65535, IPID: 65535, TOS: 255}
		for _, x := range h.NormalizedVector(nil) {
			if x < 0 || x > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// decodeOp and normalizeOp, with unmarshalOp, are the per-packet codec
// steps of the monitor's ingest path. The benchmarks time them and
// TestCodecZeroAlloc holds them to zero allocations.
func decodeOp(tb testing.TB) func() {
	h := sampleHeader()
	data := h.Encode()
	var out Header
	return func() {
		if _, err := out.DecodeFrom(data); err != nil {
			tb.Fatal(err)
		}
	}
}

func normalizeOp(testing.TB) func() {
	h := sampleHeader()
	buf := make([]float64, NumFields)
	return func() { h.NormalizedVector(buf) }
}

func benchOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkHeaderDecode(b *testing.B)     { benchOp(b, decodeOp(b)) }
func BenchmarkNormalizedVector(b *testing.B) { benchOp(b, normalizeOp(b)) }

func TestCodecZeroAlloc(t *testing.T) {
	for _, c := range []struct {
		name string
		op   func(testing.TB) func()
	}{
		{"UnmarshalIPv4TCP", unmarshalOp},
		{"HeaderDecode", decodeOp},
		{"NormalizedVector", normalizeOp},
	} {
		t.Run(c.name, func(t *testing.T) {
			if n := testing.AllocsPerRun(1000, c.op(t)); n != 0 {
				t.Fatalf("%s made %v allocations per packet, want 0", c.name, n)
			}
		})
	}
}
