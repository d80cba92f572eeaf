package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// scalarSVDInto is svdInto as it was before the kernel sets: the
// Householder pass column by column through Dot and axpy, and the lift
// as two scalar loops. The only edit is the float64 conversion of the
// lift's products, which keeps arm64 from fusing them (on amd64 it
// compiles to the same instructions). Every kernel set must reproduce it
// bit for bit (TestSVDLeavesMatchScalar, FuzzSVDLeaves).
func scalarSVDInto(a *Matrix, r int, u *Matrix, s []float64, v *Matrix, sc *Scratch) {
	n, p := a.Rows(), a.Cols()

	// Householder QR on a transposed working copy: row j of wt is column
	// j of A, so reflector j — stored in place, scaled to a leading 1 as
	// LAPACK does — and the column tails it is applied to are contiguous.
	wt := sc.Matrix(p, n)
	for i := 0; i < n; i++ {
		for j, x := range a.data[i*p : (i+1)*p] {
			wt.data[j*n+i] = x
		}
	}
	tau := sc.Floats(p)   // H_j = I − tau[j]·h_j·h_jᵀ; zero where column j was already null
	rt := sc.Matrix(p, p) // Rᵀ: row k is column k of R
	for j := 0; j < p; j++ {
		h := wt.data[j*n+j : (j+1)*n]
		norm := math.Sqrt(Dot(h, h))
		if norm == 0 {
			continue
		}
		alpha := -math.Copysign(norm, h[0]) // R[j][j]; the sign avoids cancellation in h[0]−alpha
		h0 := h[0] - alpha
		tau[j] = -h0 / alpha
		inv := 1 / h0
		for i := range h {
			h[i] *= inv
		}
		h[0] = 1
		rt.data[j*p+j] = alpha
		for k := j + 1; k < p; k++ {
			col := wt.data[k*n+j : (k+1)*n]
			axpy(-tau[j]*Dot(h, col), h, col)
		}
	}
	for k := 1; k < p; k++ {
		copy(rt.data[k*p:k*p+k], wt.data[k*n:k*n+k])
	}

	vt := sc.Matrix(p, p) // Vᵀ: row j is column j of the rotation accumulator
	for i := 0; i < p; i++ {
		vt.data[i*p+i] = 1
	}

	// Convergence threshold on the normalized off-diagonal inner products.
	const eps = 1e-12
	for sweep := 0; sweep < jacobiMaxSweeps; sweep++ {
		converged := true
		for j := 0; j < p-1; j++ {
			for k := j + 1; k < p; k++ {
				cj := rt.data[j*p : (j+1)*p]
				ck := rt.data[k*p : (k+1)*p]
				// Gram entries for the (j,k) column pair.
				var ajj, akk, ajk float64
				for i, x := range cj {
					y := ck[i]
					ajj += x * x
					akk += y * y
					ajk += x * y
				}
				if ajj == 0 || akk == 0 {
					continue
				}
				if math.Abs(ajk) <= eps*math.Sqrt(ajj*akk) {
					continue
				}
				converged = false
				// Jacobi rotation annihilating the (j,k) Gram entry.
				zeta := (akk - ajj) / (2 * ajk)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				sn := c * t
				rotate(cj, ck, c, sn)
				rotate(vt.data[j*p:(j+1)*p], vt.data[k*p:(k+1)*p], c, sn)
			}
		}
		if converged {
			break
		}
	}

	// Column norms of the rotated R are the singular values. Order them
	// descending with a stable insertion sort (p ≤ 18 in practice):
	// stable sorts yield a unique permutation, so this matches the
	// sort.SliceStable ordering the decomposition historically used.
	ord := sc.Ints(p)
	nrm := sc.Floats(p)
	for j := 0; j < p; j++ {
		col := rt.data[j*p : (j+1)*p]
		nrm[j] = math.Sqrt(Dot(col, col))
		ord[j] = j
	}
	for i := 1; i < p; i++ {
		o := ord[i]
		key := nrm[o]
		j := i
		for j > 0 && nrm[ord[j-1]] < key {
			ord[j] = ord[j-1]
			j--
		}
		ord[j] = o
	}

	// u starts as [Ũ_r; 0]: the normalized leading columns of the rotated
	// R on top of n−p zero rows. A zero singular value leaves a zero
	// column, which the reflectors keep zero.
	for i := range u.data {
		u.data[i] = 0
	}
	for out := 0; out < r; out++ {
		j := ord[out]
		s[out] = nrm[j]
		if nrm[j] > 0 {
			inv := 1 / nrm[j]
			for i, x := range rt.data[j*p : (j+1)*p] {
				u.data[i*r+out] = x * inv
			}
		}
		for i, x := range vt.data[j*p : (j+1)*p] {
			v.data[i*r+out] = x
		}
	}
	// Q = H_0·H_1⋯H_{p−1}, so the lift applies the reflectors last to
	// first. Reflector j acts on rows j..n−1; per reflector one pass
	// forms h_jᵀ·U, a second subtracts the rank-one update.
	hu := sc.Floats(r)
	for j := p - 1; j >= 0; j-- {
		if tau[j] == 0 {
			continue
		}
		h := wt.data[j*n+j : (j+1)*n]
		rows := u.data[j*r:]
		for c := range hu {
			hu[c] = 0
		}
		for i, hi := range h {
			for c, y := range rows[i*r : (i+1)*r] {
				hu[c] += float64(hi * y)
			}
		}
		for c := range hu {
			hu[c] *= tau[j]
		}
		for i, hi := range h {
			row := rows[i*r : (i+1)*r]
			for c, w := range hu {
				row[c] -= float64(hi * w)
			}
		}
	}
}

// identity returns the n×n identity matrix.
func identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// refSVDInto is the decomposition this package shipped before the
// QR-then-Jacobi kernel: one-sided Jacobi run directly on an n×p working
// copy of a, every rotation walking all n rows. svdInto must agree with
// it to rounding (TestSVDMatchesJacobiReference).
func refSVDInto(a *Matrix, r int, u *Matrix, s []float64, v *Matrix) {
	n, p := a.Rows(), a.Cols()
	w := a.Clone()
	vAcc := identity(p)
	rotateColumns := func(m *Matrix, j, k int, c, s float64) {
		for i := 0; i < m.rows; i++ {
			cj, ck := m.data[i*p+j], m.data[i*p+k]
			m.data[i*p+j] = c*cj - s*ck
			m.data[i*p+k] = s*cj + c*ck
		}
	}
	const eps = 1e-12
	for sweep := 0; sweep < jacobiMaxSweeps; sweep++ {
		converged := true
		for j := 0; j < p-1; j++ {
			for k := j + 1; k < p; k++ {
				var ajj, akk, ajk float64
				for i := 0; i < n; i++ {
					cj, ck := w.data[i*p+j], w.data[i*p+k]
					ajj += cj * cj
					akk += ck * ck
					ajk += cj * ck
				}
				if ajj == 0 || akk == 0 {
					continue
				}
				if math.Abs(ajk) <= eps*math.Sqrt(ajj*akk) {
					continue
				}
				converged = false
				zeta := (akk - ajj) / (2 * ajk)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				sn := c * t
				rotateColumns(w, j, k, c, sn)
				rotateColumns(vAcc, j, k, c, sn)
			}
		}
		if converged {
			break
		}
	}
	ord := make([]int, p)
	nrm := make([]float64, p)
	for j := 0; j < p; j++ {
		var ss float64
		for i := 0; i < n; i++ {
			ss += w.data[i*p+j] * w.data[i*p+j]
		}
		nrm[j] = math.Sqrt(ss)
		ord[j] = j
	}
	for i := 1; i < p; i++ {
		o := ord[i]
		j := i
		for j > 0 && nrm[ord[j-1]] < nrm[o] {
			ord[j] = ord[j-1]
			j--
		}
		ord[j] = o
	}
	for out := 0; out < r; out++ {
		j := ord[out]
		s[out] = nrm[j]
		for i := 0; i < n; i++ {
			if nrm[j] > 0 {
				u.data[i*r+out] = w.data[i*p+j] / nrm[j]
			} else {
				u.data[i*r+out] = 0
			}
		}
		for i := 0; i < p; i++ {
			v.data[i*r+out] = vAcc.data[i*p+j]
		}
	}
}

// rankR multiplies U·diag(S)·Vᵀ of a truncated decomposition.
func rankR(u *Matrix, s []float64, v *Matrix) *Matrix {
	d := &SVD{U: u, S: s, V: v}
	m, _ := d.Reconstruct(0)
	return m
}

// columnsAgree reports the largest element-wise difference between column
// j of a and of b after aligning their signs on the largest element of a's.
func columnsAgree(a, b *Matrix, j int) float64 {
	big := 0
	for i := 0; i < a.Rows(); i++ {
		if math.Abs(a.At(i, j)) > math.Abs(a.At(big, j)) {
			big = i
		}
	}
	sign := 1.0
	if a.At(big, j)*b.At(big, j) < 0 {
		sign = -1
	}
	var worst float64
	for i := 0; i < a.Rows(); i++ {
		worst = math.Max(worst, math.Abs(a.At(i, j)-sign*b.At(i, j)))
	}
	return worst
}

func TestSVDMatchesJacobiReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// Well-separated singular values: the comparison of individual
	// singular vectors below is only meaningful away from repeated ones.
	graded := func(n, p int) *Matrix {
		m := randomMatrix(rng, n, p)
		for i := 0; i < n; i++ {
			for j := 0; j < p; j++ {
				m.data[i*p+j] *= math.Pow(0.7, float64(j))
			}
		}
		return m
	}
	cases := []struct {
		name string
		a    *Matrix
		r    int
	}{
		{"random 1000x18 r=12", graded(1000, 18), 12},
		{"random 1000x18 full", graded(1000, 18), 18},
		{"random 40x7 r=3", graded(40, 7), 3},
		{"random 201x18 r=12", graded(201, 18), 12},
		{"n = p", graded(18, 18), 18},
		{"single column", graded(30, 1), 1},
		{"traffic 1000x18 r=12", trafficMatrix(1, 1000), 12},
		{"traffic 1000x18 full", trafficMatrix(2, 1000), 18},
		{"traffic 600x18 r=12", trafficMatrix(3, 600), 12},
		{"constant and zero columns", withColumns(withColumns(graded(300, 10), 0.25, 1, 4), 0, 6), 10},
		{"duplicate rows", withDuplicates(graded(200, 8), 5), 8},
		{"all rows identical", withDuplicates(graded(100, 6), 1), 6},
		{"all zero", NewMatrix(50, 4), 4},
	}
	const tol = 1e-10
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, p, r := tc.a.Rows(), tc.a.Cols(), tc.r
			wantU, wantS, wantV := NewMatrix(n, r), make([]float64, r), NewMatrix(p, r)
			refSVDInto(tc.a, r, wantU, wantS, wantV)
			gotU, gotS, gotV := NewMatrix(n, r), make([]float64, r), NewMatrix(p, r)
			// Outputs arrive dirty; the kernel must overwrite all of them.
			for i := range gotU.data {
				gotU.data[i] = 7
			}
			input := tc.a.Clone()
			if err := TruncatedSVDInto(tc.a, r, gotU, gotS, gotV, new(Scratch)); err != nil {
				t.Fatal(err)
			}
			if !Equal(input, tc.a, 0) {
				t.Fatal("decomposition modified its input")
			}

			scale := math.Max(wantS[0], 1)
			for j := range wantS {
				if math.Abs(gotS[j]-wantS[j]) > tol*scale {
					t.Fatalf("σ_%d = %v, reference %v", j, gotS[j], wantS[j])
				}
				// A column whose σ is lost in σ_1's rounding spans a null
				// space neither kernel defines: it is held to the
				// orthonormality and reconstruction checks below only.
				if wantS[j] <= 1e-9*wantS[0] {
					continue
				}
				if d := columnsAgree(wantV, gotV, j); d > tol {
					t.Fatalf("V column %d differs from the reference by %v", j, d)
				}
				if d := columnsAgree(wantU, gotU, j); d > tol {
					t.Fatalf("U column %d differs from the reference by %v", j, d)
				}
				// No sign flip: the same column, not its negative.
				if Dot(wantV.Col(j), gotV.Col(j)) < 0 || Dot(wantU.Col(j), gotU.Col(j)) < 0 {
					t.Fatalf("column %d came out with the opposite sign", j)
				}
			}

			for j := 0; j < r; j++ {
				uj := gotU.Col(j)
				if gotS[j] == 0 {
					if Dot(uj, uj) != 0 {
						t.Fatalf("σ_%d is exactly zero but U column %d is not", j, j)
					}
					continue
				}
				for k := j; k < r; k++ {
					if gotS[k] == 0 {
						continue
					}
					want := 0.0
					if j == k {
						want = 1
					}
					if d := math.Abs(Dot(uj, gotU.Col(k)) - want); d > tol {
						t.Fatalf("U columns %d,%d: UᵀU is off by %v", j, k, d)
					}
				}
			}

			diff, err := Sub(rankR(gotU, gotS, gotV), rankR(wantU, wantS, wantV))
			if err != nil {
				t.Fatal(err)
			}
			if e := diff.FrobeniusNorm(); e > tol*scale {
				t.Fatalf("rank-%d reconstructions differ by %v", r, e)
			}
		})
	}
}

// checkSVDLeaves decomposes a to rank r with scalarSVDInto and then,
// once per leaf with kernels set to it, with TruncatedSVDInto, and wants
// U, Σ and V equal bit for bit.
func checkSVDLeaves(t *testing.T, a *Matrix, r int) {
	t.Helper()
	n, p := a.Rows(), a.Cols()
	wantU, wantS, wantV := NewMatrix(n, r), make([]float64, r), NewMatrix(p, r)
	scalarSVDInto(a, r, wantU, wantS, wantV, new(Scratch))
	forEachLeaf(func(l leaf) {
		gotU, gotS, gotV := NewMatrix(n, r), make([]float64, r), NewMatrix(p, r)
		for i := range gotU.data {
			gotU.data[i] = 7 // the decomposition must overwrite U
		}
		if err := TruncatedSVDInto(a, r, gotU, gotS, gotV, new(Scratch)); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name      string
			got, want []float64
		}{{"U", gotU.data, wantU.data}, {"Σ", gotS, wantS}, {"V", gotV.data, wantV.data}} {
			for i, w := range c.want {
				if !sameBits(c.got[i], w) {
					t.Fatalf("%s leaf %dx%d r=%d: %s element %d is %v (%#x), scalar %v (%#x)",
						l.name, n, p, r, c.name, i, c.got[i], math.Float64bits(c.got[i]), w, math.Float64bits(w))
				}
			}
		}
	})
}

// svdFills are the inputs TestSVDLeavesMatchScalar decomposes besides
// plain random ones: zero and extremely scaled columns, which send the
// Householder norms to 0 and ±Inf, and rows holding NaN or ±Inf.
var svdFills = []struct {
	name string
	fill func(m *Matrix)
}{
	{"random", func(*Matrix) {}},
	{"zero and scaled columns", func(m *Matrix) {
		for i := 0; i < m.rows; i++ {
			for j := 0; j < m.cols; j++ {
				switch j % 4 {
				case 1:
					m.data[i*m.cols+j] = 0
				case 2:
					m.data[i*m.cols+j] *= 1e300
				case 3:
					m.data[i*m.cols+j] *= 1e-300
				}
			}
		}
	}},
	{"non-finite rows", func(m *Matrix) {
		for r, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			if i := (r + 1) * m.rows / 4; i < m.rows {
				for j := r % 2; j < m.cols; j += 2 {
					m.data[i*m.cols+j] = v
				}
			}
		}
	}},
}

// TestSVDLeavesMatchScalar holds every leaf to scalarSVDInto bit for bit
// on row counts around the kernels' four- and sixteen-row steps, every
// width up to the raw header's 18 and every rank: all ranks on random
// input, the smallest, a middle and the full rank on the other fills.
func TestSVDLeavesMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{18, 19, 21, 999, 1000, 1003} {
		for p := 1; p <= 18; p++ {
			for fi, f := range svdFills {
				a := randomMatrix(rng, n, p)
				f.fill(a)
				for r := 1; r <= p; r++ {
					if fi > 0 && r != 1 && r != (p+1)/2 && r != p {
						continue
					}
					checkSVDLeaves(t, a, r)
				}
			}
		}
	}
}

// FuzzSVDLeaves holds every leaf to scalarSVDInto bit for bit on the
// fuzzer's bytes read as matrix entries (so −0, subnormals, huge values,
// infinities and NaNs occur), n from p to 1099, p 1–18 and every rank.
func FuzzSVDLeaves(f *testing.F) {
	special, inexact := fuzzSeeds()
	f.Add(uint16(1000), uint8(17), uint8(11), inexact)
	f.Add(uint16(1003), uint8(11), uint8(4), append(inexact, special...))
	f.Add(uint16(21), uint8(5), uint8(0), special)
	f.Add(uint16(19), uint8(0), uint8(0), []byte{1, 2, 3})
	f.Add(uint16(0), uint8(7), uint8(6), []byte{})
	f.Fuzz(func(t *testing.T, nb uint16, pb, rb uint8, data []byte) {
		p := 1 + int(pb)%18
		n := p + int(nb)%(1100-p)
		r := 1 + int(rb)%p
		value := fuzzValues(data)
		a := NewMatrix(n, p)
		for i := range a.data {
			a.data[i] = value(i)
		}
		checkSVDLeaves(t, a, r)
	})
}
