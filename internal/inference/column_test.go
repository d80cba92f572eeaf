package inference

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/linalg"
	"repro/internal/packet"
)

// columnOver builds a one-epoch aggregate whose destination-port field
// holds vals, row by row, and returns that field's column.
func columnOver(t testing.TB, vals []float64) *sortedColumn {
	t.Helper()
	data := make([]float64, len(vals)*packet.NumFields)
	for r, v := range vals {
		data[r*packet.NumFields+int(packet.FieldDstPort)] = v
	}
	m, err := linalg.NewMatrixFromData(len(vals), packet.NumFields, data)
	if err != nil {
		t.Fatal(err)
	}
	agg := &Aggregate{Representatives: m}
	return agg.column(packet.FieldDstPort)
}

// checkColumnOrder holds the radix-built column over vals to a
// comparison sort: rows must be the permutation slices.SortStableFunc
// by cmp.Compare puts the rows in, vals each row's value bit for bit,
// and rank the inverse of rows.
func checkColumnOrder(t testing.TB, vals []float64) {
	t.Helper()
	want := make([]int32, len(vals))
	for r := range want {
		want[r] = int32(r)
	}
	slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(vals[a], vals[b]) })
	c := columnOver(t, vals)
	if !slices.Equal(c.rows, want) {
		t.Fatalf("rows %v, want %v (values %v)", c.rows, want, vals)
	}
	if len(c.vals) != len(vals) || len(c.rank) != len(vals) {
		t.Fatalf("%d values and %d ranks for %d rows", len(c.vals), len(c.rank), len(vals))
	}
	for i, r := range c.rows {
		if math.Float64bits(c.vals[i]) != math.Float64bits(vals[r]) {
			t.Fatalf("column entry %d holds %v (%#x), row %d is %v (%#x)", i, c.vals[i], math.Float64bits(c.vals[i]), r, vals[r], math.Float64bits(vals[r]))
		}
		if c.rank[r] != int32(i) {
			t.Fatalf("rank[%d] = %d, want %d", r, c.rank[r], i)
		}
	}
}

// oddFloats are the values an order on float64 gets wrong first: NaN
// payloads with and without the sign bit, both zeros, both infinities,
// subnormals and the extremes of the normal range.
var oddFloats = []float64{
	math.NaN(),
	math.Float64frombits(0x7ff8000000000001),
	math.Float64frombits(0xfff8000000000000),
	math.Float64frombits(0x7ff0000000000001),
	math.Float64frombits(0xffffffffffffffff),
	0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff),
	math.MaxFloat64, -math.MaxFloat64,
	0x1p-1022, -0x1p-1022,
	1, -1, 0.5, 0.25,
}

// TestRadixOrder checks the column order on sizes around one radix
// digit (255, 256, 257 rows), around the largest run the sort finishes
// by insertion (23, 24, 25) and the degenerate ones, over the odd
// values, duplicates of them, values that share all but one byte (so
// the sort skips bytes), all but the lowest byte, all bytes (one key),
// and ordinary [0, 1) values.
func TestRadixOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mixes := map[string]func() float64{
		"odd":       func() float64 { return oddFloats[rng.Intn(len(oddFloats))] },
		"one-byte":  func() float64 { return math.Float64frombits(0x3fd0000000000000 | uint64(rng.Intn(256))<<24) },
		"uniform":   rng.Float64,
		"low-byte":  func() float64 { return math.Float64frombits(0xbfe5555555555500 | uint64(rng.Intn(256))) },
		"all-equal": func() float64 { return 0.3 },
		"mixed": func() float64 {
			if rng.Intn(3) == 0 {
				return oddFloats[rng.Intn(len(oddFloats))]
			}
			return float64(rng.Intn(20)) / 16
		},
	}
	for _, n := range []int{0, 1, 2, 255, 256, 257, 23, 24, 25} {
		for name, draw := range mixes {
			t.Run(fmt.Sprintf("n=%d/%s", n, name), func(t *testing.T) {
				vals := make([]float64, n)
				for r := range vals {
					vals[r] = draw()
				}
				checkColumnOrder(t, vals)
			})
		}
	}
	t.Run("every odd value", func(t *testing.T) { checkColumnOrder(t, oddFloats) })
}

// FuzzRadixOrder holds the column order to the comparison sort on
// arbitrary float64 bits, with duplicates and the odd values mixed in:
// each input byte either picks an odd value or starts eight raw bytes.
func FuzzRadixOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30})
	rng := rand.New(rand.NewSource(4))
	for range 4 {
		data := make([]byte, 512)
		rng.Read(data)
		f.Add(data)
	}
	// Around the insertion-sort cut (23, 24, 25 values): keys that all
	// tie, and keys that differ only in their lowest byte.
	for _, n := range []int{23, 24, 25} {
		f.Add(make([]byte, n))
		var low []byte
		for i := range n {
			low = append(low, 1)
			low = binary.LittleEndian.AppendUint64(low, 0x3fe0000000000000|uint64((i*37)%256))
		}
		f.Add(low)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var vals []float64
		for len(data) > 0 {
			b := data[0]
			data = data[1:]
			if b&1 == 0 || len(data) < 8 {
				vals = append(vals, oddFloats[int(b>>1)%len(oddFloats)])
				continue
			}
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		}
		checkColumnOrder(t, vals)
	})
}

// BenchmarkSortedColumns builds every field's sorted column of an
// 867-row aggregate (4335 packets into k = 867, the backbone workload's
// epoch size) in a fresh Aggregate each time: the radix sorts and the
// column fill, without the storage an Aggregator's Aggregate reuses.
func BenchmarkSortedColumns(b *testing.B) {
	agg := scaleAggregate(b, 16, 4335)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		epoch := &Aggregate{Representatives: agg.Representatives, Counts: agg.Counts, Refs: agg.Refs}
		for f := range packet.NumFields {
			epoch.column(packet.FieldIndex(f))
		}
	}
}
