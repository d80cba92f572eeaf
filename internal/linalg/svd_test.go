package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// reconstructionError returns ‖A − U·diag(S)·Vᵀ‖_F.
func reconstructionError(t *testing.T, a *Matrix, d *SVD) float64 {
	t.Helper()
	rec, err := d.Reconstruct(0)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := Sub(a, rec)
	if err != nil {
		t.Fatal(err)
	}
	return diff.FrobeniusNorm()
}

func TestSVDEmptyMatrix(t *testing.T) {
	if _, err := ComputeSVD(NewMatrix(0, 3)); err != ErrEmptyMatrix {
		t.Fatalf("got err %v, want ErrEmptyMatrix", err)
	}
}

func TestSVDIdentity(t *testing.T) {
	d, err := ComputeSVD(identity(4))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range d.S {
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("singular value %d = %v, want 1", i, s)
		}
	}
}

func TestSVDKnownDiagonal(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{3, 0}, {0, 4}, {0, 0}})
	d, err := ComputeSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.S[0]-4) > 1e-10 || math.Abs(d.S[1]-3) > 1e-10 {
		t.Fatalf("singular values %v, want [4 3]", d.S)
	}
}

func TestSVDReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 50, 18)
	d, err := ComputeSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if e := reconstructionError(t, a, d); e > 1e-9*a.FrobeniusNorm() {
		t.Fatalf("reconstruction error %v too large", e)
	}
}

func TestSVDWideMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMatrix(rng, 5, 20) // more columns than rows
	d, err := ComputeSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	if d.U.Rows() != 5 || d.V.Rows() != 20 {
		t.Fatalf("U is %dx%d, V is %dx%d", d.U.Rows(), d.U.Cols(), d.V.Rows(), d.V.Cols())
	}
	if e := reconstructionError(t, a, d); e > 1e-9*a.FrobeniusNorm() {
		t.Fatalf("reconstruction error %v too large", e)
	}
}

func TestSVDSingularValuesDescending(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 40, 10)
	d, err := ComputeSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(d.S); i++ {
		if d.S[i] > d.S[i-1]+1e-12 {
			t.Fatalf("singular values not descending: %v", d.S)
		}
	}
}

func TestSVDOrthonormalColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomMatrix(rng, 30, 8)
	d, err := ComputeSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	checkOrthonormal := func(name string, m *Matrix) {
		for j := 0; j < m.Cols(); j++ {
			for k := j; k < m.Cols(); k++ {
				dot := Dot(m.Col(j), m.Col(k))
				want := 0.0
				if j == k {
					want = 1.0
				}
				if math.Abs(dot-want) > 1e-9 {
					t.Fatalf("%s columns %d,%d: dot = %v, want %v", name, j, k, dot, want)
				}
			}
		}
	}
	checkOrthonormal("U", d.U)
	checkOrthonormal("V", d.V)
}

func TestSVDRankDeficient(t *testing.T) {
	// Third column is the sum of the first two: rank 2.
	rows := make([][]float64, 20)
	rng := rand.New(rand.NewSource(5))
	for i := range rows {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		rows[i] = []float64{a, b, a + b}
	}
	m, _ := NewMatrixFromRows(rows)
	d, err := ComputeSVD(m)
	if err != nil {
		t.Fatal(err)
	}
	// Numerical rank: singular values above max(m, n)·ε·s_max.
	cut := float64(len(rows)) * 2.220446049250313e-16 * d.S[0]
	if len(d.S) != 3 || d.S[1] <= cut || d.S[2] > cut {
		t.Fatalf("want two singular values above %g and one below (S=%v)", cut, d.S)
	}
}

func TestSVDRankZeroMatrix(t *testing.T) {
	d, err := ComputeSVD(NewMatrix(5, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range d.S {
		if s != 0 {
			t.Fatalf("zero matrix has a non-zero singular value (S=%v)", d.S)
		}
	}
}

func TestSVDEnergyRank(t *testing.T) {
	d := &SVD{S: []float64{10, 3, 1, 0.1}}
	// total = 100+9+1+0.01 = 110.01; top-1 = 100/110.01 ≈ 0.909.
	if r := d.EnergyRank(0.90); r != 1 {
		t.Fatalf("energy rank(0.90) = %d, want 1", r)
	}
	if r := d.EnergyRank(0.999); r != 3 {
		t.Fatalf("energy rank(0.999) = %d, want 3", r)
	}
	if r := (&SVD{S: []float64{0, 0}}).EnergyRank(0.9); r != 0 {
		t.Fatalf("energy rank of zero spectrum = %d, want 0", r)
	}
}

// Eckart–Young: the rank-r truncation error equals sqrt(Σ_{i≥r} s_i²).
func TestSVDEckartYoung(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomMatrix(rng, 40, 9)
	d, err := ComputeSVD(a)
	if err != nil {
		t.Fatal(err)
	}
	const r = 4
	rec, err := d.Reconstruct(r)
	if err != nil {
		t.Fatal(err)
	}
	diff, _ := Sub(a, rec)
	var tail float64
	for _, s := range d.S[r:] {
		tail += s * s
	}
	want := math.Sqrt(tail)
	if math.Abs(diff.FrobeniusNorm()-want) > 1e-8 {
		t.Fatalf("truncation error %v, want %v", diff.FrobeniusNorm(), want)
	}
}

// Property: SVD reconstructs arbitrary random matrices to machine precision
// and singular values are non-negative and sorted.
func TestSVDReconstructionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, p := 2+rng.Intn(30), 1+rng.Intn(18)
		a := randomMatrix(rng, n, p)
		d, err := ComputeSVD(a)
		if err != nil {
			return false
		}
		for i, s := range d.S {
			if s < 0 || (i > 0 && s > d.S[i-1]+1e-12) {
				return false
			}
		}
		rec, err := d.Reconstruct(0)
		if err != nil {
			return false
		}
		diff, err := Sub(a, rec)
		if err != nil {
			return false
		}
		return diff.FrobeniusNorm() <= 1e-8*(1+a.FrobeniusNorm())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the Frobenius norm equals the ℓ2 norm of the singular values.
func TestSVDNormProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomMatrix(rng, 3+rng.Intn(20), 1+rng.Intn(10))
		d, err := ComputeSVD(a)
		if err != nil {
			return false
		}
		var ss float64
		for _, s := range d.S {
			ss += s * s
		}
		return math.Abs(math.Sqrt(ss)-a.FrobeniusNorm()) < 1e-8*(1+a.FrobeniusNorm())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// svdTruncatedOp is the rank-12 truncated SVD Summarize runs on a
// 1000-packet traffic batch, into caller-held outputs with a warmed-up
// Scratch: what BenchmarkSVDTruncated times and TestSVDTruncatedZeroAlloc
// holds to zero allocations.
func svdTruncatedOp(tb testing.TB) func() {
	const r = 12
	x := trafficMatrix(4, 1000)
	ur, sr, vr := NewMatrix(x.Rows(), r), make([]float64, r), NewMatrix(x.Cols(), r)
	var sc Scratch
	svd := func() {
		sc.Reset()
		if err := TruncatedSVDInto(x, r, ur, sr, vr, &sc); err != nil {
			tb.Fatal(err)
		}
	}
	// The first call grows the slab in steps, the second into one slab
	// that holds a whole call.
	svd()
	svd()
	return svd
}

// BenchmarkSVDTruncated times svdTruncatedOp once per leaf: leaf=go is
// what a host without the vector kernels pays.
func BenchmarkSVDTruncated(b *testing.B) {
	forEachLeaf(func(l leaf) {
		b.Run("leaf="+l.name, func(b *testing.B) {
			svd := svdTruncatedOp(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				svd()
			}
		})
	})
}

func TestSVDTruncatedZeroAlloc(t *testing.T) {
	forEachLeaf(func(l leaf) {
		if n := testing.AllocsPerRun(50, svdTruncatedOp(t)); n != 0 {
			t.Fatalf("leaf=%s: TruncatedSVDInto made %v allocations per call, want 0", l.name, n)
		}
	})
}
