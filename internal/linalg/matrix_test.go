package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixZeros(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("got %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewMatrixNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative dimensions")
		}
	}()
	NewMatrix(-1, 2)
}

func TestNewMatrixFromRows(t *testing.T) {
	m, err := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v, want 6", m.At(2, 1))
	}
}

func TestNewMatrixFromRowsRagged(t *testing.T) {
	if _, err := NewMatrixFromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("expected error for ragged rows")
	}
}

func TestNewMatrixFromRowsEmpty(t *testing.T) {
	m, err := NewMatrixFromRows(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 0 {
		t.Fatalf("rows = %d, want 0", m.Rows())
	}
}

func TestNewMatrixFromData(t *testing.T) {
	m, err := NewMatrixFromData(2, 2, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v, want 3", m.At(1, 0))
	}
	if _, err := NewMatrixFromData(2, 2, []float64{1}); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestSetAt(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 1, 7.5)
	if m.At(0, 1) != 7.5 {
		t.Fatalf("At(0,1) = %v, want 7.5", m.At(0, 1))
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	m := NewMatrix(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.At(2, 0)
}

func TestRowSharesStorage(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Row(1)[2] = 9
	if m.At(1, 2) != 9 {
		t.Fatal("Row must share storage with the matrix")
	}
}

func TestColCopies(t *testing.T) {
	m, _ := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Col(1)
	if c[0] != 2 || c[1] != 4 {
		t.Fatalf("Col(1) = %v, want [2 4]", c)
	}
	c[0] = 100
	if m.At(0, 1) != 2 {
		t.Fatal("Col must return a copy")
	}
}

func TestCloneIndependent(t *testing.T) {
	m, _ := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not alias original storage")
	}
}

func TestTranspose(t *testing.T) {
	m, _ := NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.Transpose()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("transpose shape %dx%d, want 3x2", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestSub(t *testing.T) {
	a, _ := NewMatrixFromRows([][]float64{{5, 6}})
	b, _ := NewMatrixFromRows([][]float64{{1, 2}})
	got, err := Sub(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got.At(0, 0) != 4 || got.At(0, 1) != 4 {
		t.Fatalf("a−b = %v", got)
	}
	if _, err := Sub(a, NewMatrix(2, 2)); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m, _ := NewMatrixFromRows([][]float64{{3, 4}})
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("‖m‖_F = %v, want 5", got)
	}
}

func TestEqualShapes(t *testing.T) {
	if Equal(NewMatrix(1, 2), NewMatrix(2, 1), 1) {
		t.Fatal("matrices of different shape must not be Equal")
	}
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("dot = %v, want 32", got)
	}
}

func TestSquaredDistance(t *testing.T) {
	if got := SquaredDistance([]float64{0, 0}, []float64{3, 4}); got != 25 {
		t.Fatalf("d² = %v, want 25", got)
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("mean = %v, want 5", got)
	}
	if got := Variance(xs); got != 4 {
		t.Fatalf("var = %v, want 4", got)
	}
	if Variance([]float64{1}) != 0 {
		t.Fatal("variance of a single value must be 0")
	}
	if Mean(nil) != 0 {
		t.Fatal("mean of empty slice must be 0")
	}
}

func TestWeightedVariance(t *testing.T) {
	// Weighted variance with integer weights must equal the variance of
	// the expanded sample.
	values := []float64{1, 5, 9}
	weights := []float64{2, 1, 2}
	var expanded []float64
	for i, v := range values {
		for w := 0; w < int(weights[i]); w++ {
			expanded = append(expanded, v)
		}
	}
	got := WeightedVariance(values, weights)
	want := Variance(expanded)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("weighted variance = %v, want %v", got, want)
	}
}

func TestWeightedVarianceZeroWeight(t *testing.T) {
	if got := WeightedVariance([]float64{1, 100}, []float64{5, 0}); got != 0 {
		t.Fatalf("variance = %v, want 0 (only one distinct value weighted)", got)
	}
}

func TestWeightedVarianceNegativeWeightIgnored(t *testing.T) {
	got := WeightedVariance([]float64{1, 3, 100}, []float64{1, 1, -7})
	want := Variance([]float64{1, 3})
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("variance = %v, want %v", got, want)
	}
}

// Property: transpose is an involution.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMatrix(rng, 1+rng.Intn(10), 1+rng.Intn(10))
		return Equal(m.Transpose().Transpose(), m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: ‖A‖_F² == ‖Aᵀ‖_F².
func TestFrobeniusTransposeInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMatrix(rng, 1+rng.Intn(12), 1+rng.Intn(12))
		return math.Abs(m.FrobeniusNorm()-m.Transpose().FrobeniusNorm()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data() {
		m.Data()[i] = rng.NormFloat64()
	}
	return m
}
