package linalg

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// fuzzValues reads data as little-endian float64s, cycling, so −0,
// subnormals, infinities, NaNs and repeated values (ties) all occur;
// with fewer than eight bytes it yields small integers, which tie often.
func fuzzValues(data []byte) func(i int) float64 {
	return func(i int) float64 {
		if len(data) < 8 {
			return float64(i%7) - 3
		}
		off := i % (len(data) / 8) * 8
		return math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
	}
}

// fuzzSeeds are the byte strings both k-means fuzz targets start from:
// IEEE specials, and inexact products where a fused multiply-add would
// round differently.
func fuzzSeeds() (special, inexact []byte) {
	le := binary.LittleEndian
	for _, v := range []float64{0, math.Copysign(0, -1), 5e-324, -2.2250738585072009e-308, math.Inf(1), math.Inf(-1), math.NaN(), 1.5} {
		special = le.AppendUint64(special, math.Float64bits(v))
	}
	for _, v := range []float64{math.Pi, -math.E, math.Sqrt2, 1.0 / 3, -7.1, 0.1, 1e-3, 12345.678} {
		inexact = le.AppendUint64(inexact, math.Float64bits(v))
	}
	return special, inexact
}

// sameBits is bit equality of two float64s, except that any NaN matches
// any NaN: when two NaNs meet, IEEE 754 leaves open whose sign and
// payload the result carries, x86 takes the first operand's, and the
// compiler may swap the operands of a commutative Go operation.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// FuzzSeedRound wants every leaf's seedRound to equal a row-by-row round
// on SquaredDistance bit for bit: d2, near, every running sum and the
// returned total. p runs 1–32, n 0–1099 (every remainder of the 64-,
// 16- and 4-row blocks), and the stride may exceed n.
func FuzzSeedRound(f *testing.F) {
	special, inexact := fuzzSeeds()
	f.Add(uint8(11), uint16(1003), uint8(3), uint8(0), inexact)
	f.Add(uint8(11), uint16(1000), uint8(1), uint8(0), special)
	f.Add(uint8(17), uint16(200), uint8(9), uint8(0), []byte{1, 2, 3})
	f.Add(uint8(0), uint16(17), uint8(2), uint8(3), special)
	f.Add(uint8(31), uint16(5), uint8(7), uint8(7), special[8:40])
	f.Add(uint8(2), uint16(0), uint8(1), uint8(1), []byte{})
	f.Add(uint8(5), uint16(30), uint8(4), uint8(2), append(inexact, special...))
	// The AVX-512 leaf's 64-row blocks and their handoff to the AVX2 leaf
	// (n = 64, 127, 81, 1100 − 1): ties, NaN and ±Inf in and across it,
	// and p = 3, fewer dimension steps than the eight it takes to carry
	// the running sum over the previous block (n = 200).
	f.Add(uint8(11), uint16(64), uint8(5), uint8(0), []byte{9})
	f.Add(uint8(11), uint16(127), uint8(6), uint8(1), special)
	f.Add(uint8(2), uint16(81), uint8(3), uint8(4), append(special, inexact...))
	f.Add(uint8(17), uint16(1099), uint8(8), uint8(0), special[48:])
	f.Add(uint8(2), uint16(200), uint8(1), uint8(0), inexact)
	f.Fuzz(func(t *testing.T, pb uint8, nb uint16, c uint8, pad uint8, data []byte) {
		p, n := 1+int(pb)%32, int(nb)%1100
		stride := n + int(pad)%9
		value := fuzzValues(data)
		seed := make([]float64, p)
		for j := range seed {
			seed[j] = value(j)
		}
		xt := make([]float64, p*stride)
		for i := range xt {
			xt[i] = value(p + i)
		}
		// D² as a round leaves it: squares, their sums, and whatever
		// non-finite values the data holds.
		d2, near := make([]float64, n), make([]int, n)
		for i := range d2 {
			d2[i] = math.Abs(value(3*i + 1))
			near[i] = i % 5
		}
		total0 := math.Abs(value(2))

		wantD2, wantNear, wantSums := append([]float64(nil), d2...), append([]int(nil), near...), make([]float64, n)
		wantTotal := total0
		col := make([]float64, p)
		for i := 0; i < n; i++ {
			for j := range col {
				col[j] = xt[j*stride+i]
			}
			if s := SquaredDistance(seed, col); s < wantD2[i] {
				wantD2[i], wantNear[i] = s, int(c)
			}
			wantTotal += wantD2[i]
			wantSums[i] = wantTotal
		}

		for _, l := range leaves() {
			gotD2, gotNear, gotSums := append([]float64(nil), d2...), append([]int(nil), near...), make([]float64, n)
			for i := range gotSums {
				gotSums[i] = float64(i) // the leaf must overwrite, not add
			}
			got := l.set.seedRound(seed, xt, stride, int(c), gotNear, gotD2, gotSums, total0)
			if !sameBits(got, wantTotal) {
				t.Fatalf("%s leaf p=%d n=%d stride=%d: total %v (%#x), reference %v (%#x)",
					l.name, p, n, stride, got, math.Float64bits(got), wantTotal, math.Float64bits(wantTotal))
			}
			for i := 0; i < n; i++ {
				if !sameBits(gotD2[i], wantD2[i]) || gotNear[i] != wantNear[i] || !sameBits(gotSums[i], wantSums[i]) {
					t.Fatalf("%s leaf p=%d n=%d stride=%d: row %d has d2 %v near %d sum %v, reference %v, %d, %v",
						l.name, p, n, stride, i, gotD2[i], gotNear[i], gotSums[i], wantD2[i], wantNear[i], wantSums[i])
				}
			}
		}
	})
}

// FuzzNearest wants every leaf's nearest to equal a scan of the centres
// in index order on SquaredDistance with a strict compare, bit for bit:
// each row's distance and centre. p runs 1–32, n 0–1099 (every
// remainder of the 16-, 8- and 4-row blocks), k 1–40 (every remainder
// of the four-centre groups), and the stride may exceed n.
func FuzzNearest(f *testing.F) {
	special, inexact := fuzzSeeds()
	f.Add(uint8(11), uint16(1003), uint8(199), uint8(0), inexact)
	f.Add(uint8(11), uint16(1000), uint8(0), uint8(0), special)
	f.Add(uint8(17), uint16(200), uint8(6), uint8(0), []byte{1, 2, 3})
	f.Add(uint8(0), uint16(17), uint8(2), uint8(3), special)
	f.Add(uint8(31), uint16(5), uint8(7), uint8(7), special[8:40])
	f.Add(uint8(2), uint16(0), uint8(1), uint8(1), []byte{})
	f.Add(uint8(5), uint16(29), uint8(4), uint8(2), append(inexact, special...))
	// The AVX-512 leaf's 16-row blocks and their handoff to the AVX2 leaf
	// (n = 16, 31, 83, 1099) against k % 4 ≠ 0: ties, NaN and ±Inf.
	f.Add(uint8(11), uint16(16), uint8(4), uint8(0), []byte{7})
	f.Add(uint8(11), uint16(31), uint8(6), uint8(1), special)
	f.Add(uint8(2), uint16(83), uint8(2), uint8(5), append(special, inexact...))
	f.Add(uint8(17), uint16(1099), uint8(200), uint8(0), special[48:])
	f.Fuzz(func(t *testing.T, pb uint8, nb uint16, kb uint8, pad uint8, data []byte) {
		p, n, k := 1+int(pb)%32, int(nb)%1100, 1+int(kb)%40
		stride := n + int(pad)%9
		value := fuzzValues(data)
		cents := NewMatrix(k, p)
		for i := range cents.data {
			cents.data[i] = value(5*i + 2)
		}
		xt := make([]float64, p*stride)
		for i := range xt {
			xt[i] = value(i)
		}
		packed := make([]float64, 4*p*((k+3)/4))
		packCentres(packed, cents)

		wantAssign, wantDist := make([]int, n), make([]float64, n)
		col := make([]float64, p)
		for i := 0; i < n; i++ {
			for j := range col {
				col[j] = xt[j*stride+i]
			}
			best, arg := math.Inf(1), 0
			for c := 0; c < k; c++ {
				if d := SquaredDistance(cents.Row(c), col); d < best {
					best, arg = d, c
				}
			}
			wantAssign[i], wantDist[i] = arg, best
		}

		for _, l := range leaves() {
			gotAssign, gotDist := make([]int, n), make([]float64, n)
			for i := range gotAssign {
				gotAssign[i], gotDist[i] = -1, float64(i) // must be overwritten
			}
			l.set.nearest(packed, p, xt, stride, gotAssign, gotDist)
			for i := 0; i < n; i++ {
				if gotAssign[i] != wantAssign[i] || !sameBits(gotDist[i], wantDist[i]) {
					t.Fatalf("%s leaf p=%d n=%d k=%d stride=%d: row %d nearest %d at %v (%#x), reference %d at %v (%#x)",
						l.name, p, n, k, stride, i, gotAssign[i], gotDist[i], math.Float64bits(gotDist[i]),
						wantAssign[i], wantDist[i], math.Float64bits(wantDist[i]))
				}
			}
		}
	})
}

// TestKMeansConcurrentScratch runs KMeansInto from two goroutines at
// once, each with its own Scratch, and wants each to equal the same
// call made alone: no buffer of a call may live outside its Scratch.
// scripts/check.sh runs it under -race.
func TestKMeansConcurrentScratch(t *testing.T) {
	const n, r, k = 1000, 12, 200
	xs := []*Matrix{reducedTraffic(t, 1, n, r), reducedTraffic(t, 2, n, r)}
	type result struct {
		out           *Matrix
		assign, count []int
		obj           float64
	}
	run := func(x *Matrix, seed int64) result {
		res := result{NewMatrix(k, r), make([]int, n), make([]int, k), 0}
		var sc Scratch
		obj, _, err := KMeansInto(x, k, rand.New(rand.NewSource(seed)), KMeansConfig{}, &sc, res.out, res.assign, res.count)
		if err != nil {
			t.Error(err)
		}
		res.obj = obj
		return res
	}
	forEachLeaf(func(l leaf) {
		want := []result{run(xs[0], 1), run(xs[1], 2)}
		var got [2]result
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 3; rep++ {
					got[g] = run(xs[g], int64(g+1))
				}
			}()
		}
		wg.Wait()
		for g := range got {
			if !sameBits(got[g].obj, want[g].obj) || !Equal(got[g].out, want[g].out, 0) {
				t.Fatalf("%s leaf: goroutine %d's clustering differs from the serial one", l.name, g)
			}
			for i := range want[g].assign {
				if got[g].assign[i] != want[g].assign[i] {
					t.Fatalf("%s leaf: goroutine %d assigned row %d to %d, serially %d", l.name, g, i, got[g].assign[i], want[g].assign[i])
				}
			}
		}
	})
}

// TestKernelSetsRun logs which kernel sets the leaf tests run on this
// machine and which one init selected, so a test log shows whether the
// AVX-512 set was exercised, and wants init to have picked the widest.
func TestKernelSetsRun(t *testing.T) {
	ls := leaves()
	names := make([]string, len(ls))
	selected := ""
	for i, l := range ls {
		names[i] = l.name
		if reflect.ValueOf(l.set.nearest).Pointer() == reflect.ValueOf(kernels.nearest).Pointer() {
			selected = l.name
		}
	}
	t.Logf("kernel sets tested: %s; init selected: %s", strings.Join(names, ", "), selected)
	if selected != names[len(names)-1] {
		t.Fatalf("init selected %q, want the widest set this machine runs, %q", selected, names[len(names)-1])
	}
}
