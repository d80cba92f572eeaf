// Package linalg provides the dense linear-algebra primitives Jaal's
// summarization pipeline is built on: a row-major dense matrix, a
// singular value decomposition with truncated-SVD helpers, and k-means++
// clustering.
//
// The package is deliberately small and dependency-free, and both
// kernels are shaped by Jaal's data: matrices are tall and skinny (n
// packets by p = 18 header fields). The SVD reduces the matrix to its
// p×p triangular factor with one Householder pass and runs one-sided
// Jacobi — exact and numerically robust — on that factor, so only the
// reduction and the lift of U scale with n. k-means is k-means++ seeding,
// one mean update and one assignment, each scan exhaustive. The loops
// that scale with n run through one kernel set (kernels.go): portable Go,
// AVX2 four lanes wide, or AVX-512 eight lanes wide for the k-means scans,
// whichever is widest that the CPU and OS run. Every set reproduces the
// scalar references kept as test oracles in this package's _test.go files
// bit for bit.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty matrix. Use NewMatrix or NewMatrixFromRows to
// construct matrices with storage attached.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a rows×cols matrix of zeros.
// It panics if either dimension is negative.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative matrix dimension %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewMatrixFromRows builds a matrix from a slice of equally sized rows.
// The data is copied. It returns an error if the rows are ragged.
func NewMatrixFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return &Matrix{}, nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("linalg: ragged rows: row 0 has %d cols, row %d has %d", cols, i, len(r))
		}
		copy(m.Row(i), r)
	}
	return m, nil
}

// NewMatrixFromData wraps an existing row-major backing slice without
// copying. len(data) must equal rows*cols.
func NewMatrixFromData(rows, cols int, data []float64) (*Matrix, error) {
	if len(data) != rows*cols {
		return nil, fmt.Errorf("linalg: data length %d does not match %dx%d", len(data), rows, cols)
	}
	return &Matrix{rows: rows, cols: cols, data: data}, nil
}

// WrapMatrix is the value-typed sibling of NewMatrixFromData: it returns
// a Matrix header (no heap allocation) wrapping the given row-major
// backing slice, for callers that embed the header inside a larger
// struct to keep allocation counts down. It panics when len(data) does
// not equal rows*cols; callers control both.
func WrapMatrix(rows, cols int, data []float64) Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("linalg: data length %d does not match %dx%d", len(data), rows, cols))
	}
	return Matrix{rows: rows, cols: cols, data: data}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a slice sharing the matrix's storage.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("linalg: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: col %d out of range for %dx%d matrix", j, m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Data returns the underlying row-major backing slice. Mutating it mutates
// the matrix.
func (m *Matrix) Data() []float64 { return m.data }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Transpose returns a newly allocated transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	transposeInto(t.data, m)
	return t
}

// Sub returns a − b. It returns an error on dimension mismatch.
func Sub(a, b *Matrix) (*Matrix, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return nil, fmt.Errorf("linalg: dimension mismatch %dx%d − %dx%d", a.rows, a.cols, b.rows, b.cols)
	}
	out := NewMatrix(a.rows, a.cols)
	for i := range a.data {
		out.data[i] = a.data[i] - b.data[i]
	}
	return out, nil
}

// FrobeniusNorm returns the Frobenius norm of m: sqrt(Σ m_ij²).
func (m *Matrix) FrobeniusNorm() float64 {
	var ss float64
	for _, v := range m.data {
		ss += float64(v * v)
	}
	return math.Sqrt(ss)
}

// Equal reports whether a and b have identical shape and all elements are
// within tol of each other.
func Equal(a, b *Matrix, tol float64) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Matrix) String() string {
	const maxShow = 8
	s := fmt.Sprintf("Matrix(%dx%d)", m.rows, m.cols)
	if m.rows > maxShow || m.cols > maxShow {
		return s
	}
	s += "["
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}

// ErrEmptyMatrix is returned by decompositions handed a matrix with no rows
// or no columns.
var ErrEmptyMatrix = errors.New("linalg: empty matrix")

// Dot returns the dot product of equal-length vectors a and b.
// It panics when the lengths differ; callers control both inputs.
// Four partial sums break the floating-point add dependency chain (the
// SVD's Householder pass is made of long dot products): the value is
// correct to rounding, not the left-to-right sum. Every product is
// rounded before it is added, on every architecture, as the SVD's
// vector kernels do.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: dot of length %d and %d", len(a), len(b)))
	}
	var s0, s1, s2, s3 float64
	for len(a) >= 4 && len(b) >= 4 {
		s0 += float64(a[0] * b[0])
		s1 += float64(a[1] * b[1])
		s2 += float64(a[2] * b[2])
		s3 += float64(a[3] * b[3])
		a, b = a[4:], b[4:]
	}
	for i, x := range a {
		s0 += float64(x * b[i])
	}
	return (s0 + s1) + (s2 + s3)
}

// SquaredDistance returns the squared Euclidean distance between a and b.
func SquaredDistance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: distance of length %d and %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		// Unfused on every architecture, like the k-means kernels.
		s += float64(d * d)
	}
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	mu := Mean(xs)
	var s float64
	for _, v := range xs {
		d := v - mu
		s += float64(d * d)
	}
	return s / float64(len(xs))
}

// WeightedVariance returns the population variance of values where value i
// appears weights[i] times. It returns 0 when the total weight is < 2.
// Negative weights are treated as 0.
func WeightedVariance(values []float64, weights []float64) float64 {
	if len(values) != len(weights) {
		panic(fmt.Sprintf("linalg: %d values with %d weights", len(values), len(weights)))
	}
	var tot, mean float64
	for i, v := range values {
		w := weights[i]
		if w <= 0 {
			continue
		}
		tot += w
		mean += float64(w * v)
	}
	if tot < 2 {
		return 0
	}
	mean /= tot
	var s float64
	for i, v := range values {
		w := weights[i]
		if w <= 0 {
			continue
		}
		d := v - mean
		s += float64(w * d * d)
	}
	return s / tot
}
