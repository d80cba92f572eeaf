package summary

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// refAppendRepresentatives is the per-output reconstruction loop
// AppendRepresentatives replaced, kept as its oracle: each output is
// Σ_t (u_it·σ_t)·v_jt over the non-zero u_it·σ_t in ascending t, V's row
// j read contiguously, one output at a time. The product is converted
// before it is added, as the amd64 compiler always did with u*v[t], so
// that no architecture fuses it.
func refAppendRepresentatives(s *Summary, p int) []float64 {
	k, r := s.Centroids.Rows(), s.Rank
	out := make([]float64, k*p)
	us := make([]float64, r)
	for i := 0; i < k; i++ {
		ui := s.Centroids.Row(i)
		for t := range us {
			us[t] = ui[t] * s.Sigma[t]
		}
		oi := out[i*p : (i+1)*p]
		for j := range oi {
			vj := s.V.Row(j)[:r]
			var acc float64
			for t, u := range us {
				if u != 0 {
					acc += float64(u * vj[t])
				}
			}
			oi[j] = acc
		}
	}
	return out
}

// oddFactor draws a factor value: mostly ordinary, sometimes ±0, a
// subnormal, or a value whose products round.
func oddFactor(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.SmallestNonzeroFloat64 * float64(rng.Intn(1000)-500)
	case 3:
		return 0x1p-1022 * (rng.Float64() - 0.5)
	case 4:
		return 1.0 / 3 * float64(rng.Intn(7)-3)
	}
	return rng.NormFloat64()
}

// splitSummary builds a random split summary of k centroids, p fields
// and rank r, with extra unused columns in Ũ and V and values past the
// rank in Σ, which the reconstruction must ignore; zeroSigma zeroes
// some σ_t so whole u·σ columns are skipped.
func splitSummary(rng *rand.Rand, k, p, r int, zeroSigma bool) *Summary {
	u, v := linalg.NewMatrix(k, r+1), linalg.NewMatrix(p, r+2)
	for i := range k {
		for t := range r + 1 {
			u.Set(i, t, oddFactor(rng))
		}
	}
	for j := range p {
		for t := range r + 2 {
			v.Set(j, t, oddFactor(rng))
			if rng.Intn(40) == 0 {
				// 0·Inf is NaN: an infinity shows whether a zero u·σ
				// term is skipped.
				v.Set(j, t, math.Inf(1-2*rng.Intn(2)))
			}
		}
	}
	sigma := make([]float64, r+1)
	for t := range sigma {
		sigma[t] = math.Abs(oddFactor(rng)) + float64(r-t)
		if zeroSigma && rng.Intn(3) == 0 {
			sigma[t] = 0
		}
	}
	return &Summary{Kind: KindSplit, Rank: r, Centroids: u, Sigma: sigma, V: v, Counts: make([]int, k)}
}

// TestAppendRepresentativesMatchesReference holds the six-wide
// reconstruction to the per-output loop bit for bit (any NaN matching
// any NaN, as in the linalg oracles: which operand's NaN an add keeps is
// the compiler's choice), for every rank 0…p, at the header's 18 fields,
// at widths that leave each remainder of six, and past the stack
// buffers (24 fields).
func TestAppendRepresentativesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range []int{18, 1, 5, 7, 11, 12, 24} {
		for r := 0; r <= p; r++ {
			for _, zeroSigma := range []bool{false, true} {
				s := splitSummary(rng, 1+rng.Intn(30), p, r, zeroSigma)
				want := refAppendRepresentatives(s, p)
				prefix := []float64{42}
				got, err := s.AppendRepresentatives(prefix, p)
				if err != nil {
					t.Fatalf("p=%d r=%d: %v", p, r, err)
				}
				if len(got) != 1+len(want) || got[0] != 42 {
					t.Fatalf("p=%d r=%d: %d values after the prefix %v, want %d", p, r, len(got)-1, got[0], len(want))
				}
				for i, w := range want {
					if g := got[1+i]; math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
						t.Fatalf("p=%d r=%d: output %d (centroid %d, field %d) is %v (%#x), reference %v (%#x)",
							p, r, i, i/p, i%p, got[1+i], math.Float64bits(got[1+i]), w, math.Float64bits(w))
					}
				}
			}
		}
	}
}

// refReconstructRankR is the loop the combined path reconstructed
// X̄_p = U_r·Σ_r·V_rᵀ with before it shared reconstructRows, kept as its
// oracle: out (n×p, zeroed) gains (u_it·σ_t)·v_jt for every non-zero
// u_it·σ_t, t ascending in the outer loop and j in the inner one. The
// product is converted before it is added, so no architecture fuses it.
func refReconstructRankR(u *linalg.Matrix, sigma []float64, v *linalg.Matrix, r int) []float64 {
	n, p := u.Rows(), v.Rows()
	out := linalg.NewMatrix(n, p)
	for i := 0; i < n; i++ {
		ui, oi := u.Row(i), out.Row(i)
		for t := 0; t < r; t++ {
			us := ui[t] * sigma[t]
			if us == 0 {
				continue
			}
			for j := 0; j < p; j++ {
				oi[j] += float64(us * v.At(j, t))
			}
		}
	}
	return out.Data()
}

// TestReconstructRowsMatchesRankRLoop holds reconstructRows to the
// combined path's former triple loop bit for bit (any NaN matching any
// NaN): factors with zero u·σ terms, −0, subnormals, infinities and NaN,
// every rank 0…p — so r < p — at widths that are not a multiple of six
// as well as the header's 18 fields.
func TestReconstructRowsMatchesRankRLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, p := range []int{18, 1, 5, 7, 11, 13, 24} {
		for r := 0; r <= p; r++ {
			for _, zeroSigma := range []bool{false, true} {
				s := splitSummary(rng, 1+rng.Intn(30), p, r, zeroSigma)
				u := s.Centroids
				for i := range u.Data() {
					if rng.Intn(25) == 0 {
						u.Data()[i] = math.NaN()
					}
				}
				want := refReconstructRankR(u, s.Sigma, s.V, r)
				got := make([]float64, len(want))
				reconstructRows(got, u, s.Sigma, s.V, r)
				for i, w := range want {
					if g := got[i]; math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
						t.Fatalf("p=%d r=%d: output %d (row %d, field %d) is %v (%#x), reference %v (%#x)",
							p, r, i, i/p, i%p, g, math.Float64bits(g), w, math.Float64bits(w))
					}
				}
			}
		}
	}
}

// appendRepresentativesOp reconstructs a split summary at the paper's
// operating point (k = 200, p = 18, r = 12, normal values) into a slice
// with room for it: what BenchmarkAppendRepresentatives times and
// TestAppendRepresentativesZeroAlloc holds to zero allocations.
func appendRepresentativesOp(tb testing.TB) func() {
	rng := rand.New(rand.NewSource(1))
	s := splitSummary(rng, 200, 18, 12, false)
	for _, m := range []*linalg.Matrix{s.Centroids, s.V} {
		for i := range m.Data() {
			m.Data()[i] = rng.NormFloat64()
		}
	}
	dst := make([]float64, 0, 200*18)
	return func() {
		if _, err := s.AppendRepresentatives(dst, 18); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkAppendRepresentatives(b *testing.B) {
	run := appendRepresentativesOp(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func TestAppendRepresentativesZeroAlloc(t *testing.T) {
	if n := testing.AllocsPerRun(20, appendRepresentativesOp(t)); n != 0 {
		t.Fatalf("AppendRepresentatives made %v allocations per call, want 0", n)
	}
}
