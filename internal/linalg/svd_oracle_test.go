package linalg

import (
	"math"
	"math/rand"
	"testing"
)

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
