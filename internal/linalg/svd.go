package linalg

import (
	"fmt"
	"math"
)

// SVD holds a thin singular value decomposition A = U·diag(S)·Vᵀ of an
// n×p matrix with n ≥ 1, p ≥ 1. U is n×m, S has length m and V is p×m,
// where m = min(n, p). Singular values are sorted in descending order.
type SVD struct {
	// U holds the left singular vectors, one per column.
	U *Matrix
	// S holds the singular values in descending order.
	S []float64
	// V holds the right singular vectors, one per column.
	V *Matrix
}

// jacobiMaxSweeps bounds the number of one-sided Jacobi sweeps. 30 sweeps
// are far beyond what an 18-column matrix needs to converge to machine
// precision; the bound only guards against pathological inputs.
const jacobiMaxSweeps = 30

// ComputeSVD computes a thin SVD of a: a Householder QR reduction to the
// p×p triangular factor followed by one-sided Jacobi on that factor (see
// svdInto). The decomposition is exact (no iteration towards an
// implicitly shifted eigenproblem) and unconditionally stable, and the
// only work that scales with the row count is the O(n·p²) reduction and
// the lift of U — ideal for Jaal's n×18 batch matrices.
//
// Matrices with more columns than rows are handled by decomposing the
// transpose and swapping U and V.
func ComputeSVD(a *Matrix) (*SVD, error) {
	if a.Rows() == 0 || a.Cols() == 0 {
		return nil, ErrEmptyMatrix
	}
	if a.Cols() > a.Rows() {
		svdT, err := ComputeSVD(a.Transpose())
		if err != nil {
			return nil, err
		}
		return &SVD{U: svdT.V, S: svdT.S, V: svdT.U}, nil
	}
	n, p := a.Rows(), a.Cols()
	u := NewMatrix(n, p)
	s := make([]float64, p)
	v := NewMatrix(p, p)
	sc := GetScratch()
	svdInto(a, p, u, s, v, sc)
	PutScratch(sc)
	return &SVD{U: u, S: s, V: v}, nil
}

// svdInto decomposes a (which must satisfy rows ≥ cols) and writes the
// leading r factors into u (n×r), s (length r) and v (p×r). All
// intermediates come from sc, so the only heap traffic is whatever the
// caller chose for the outputs.
//
// It runs in three steps. One Householder pass factors A = Q·R with R
// the p×p upper-triangular factor. One-sided Jacobi then orthogonalizes
// the columns of R by plane rotations: at convergence R·V = Ũ·diag(S),
// with V the accumulated rotations. Since RᵀR = AᵀA, every rotation
// angle is the one Jacobi on A itself would have chosen — S and V are
// those of A — but each rotation touches p-long columns instead of
// n-long ones. Finally U = Q·Ũ is lifted by applying the reflectors to
// the n×r block [Ũ_r; 0], which keeps U orthonormal to rounding even
// where A·V·Σ⁻¹ would not (small singular values). The two loops that
// scale with n, applying a reflector to the trailing columns and to the
// lifted block, are the reflect and lift leaves of the kernel set.
// scalarSVDInto in svd_oracle_test.go is this decomposition with scalar
// loops, and every set reproduces it bit for bit.
func svdInto(a *Matrix, r int, u *Matrix, s []float64, v *Matrix, sc *Scratch) {
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
		if j+1 < p {
			kernels.reflect(h, -tau[j], wt.data[(j+1)*n+j:], n, p-j-1)
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
	for j := p - 1; j >= 0; j-- {
		if tau[j] == 0 {
			continue
		}
		kernels.lift(wt.data[j*n+j:(j+1)*n], tau[j], u.data[j*r:], r, r)
	}
}

// axpy adds alpha·x to y in place.
func axpy(alpha float64, x, y []float64) {
	y = y[:len(x)]
	for i, xv := range x {
		y[i] += float64(alpha * xv)
	}
}

// rotate applies the Givens rotation [c −s; s c] to the vector pair
// (a, b) in place: the (j,k) column rotation of one-sided Jacobi, on
// columns stored contiguously.
func rotate(a, b []float64, c, s float64) {
	b = b[:len(a)]
	for i, x := range a {
		y := b[i]
		a[i] = c*x - s*y
		b[i] = s*x + c*y
	}
}

// TruncatedSVDInto computes the leading-r factors of the thin SVD of a
// directly into caller-provided storage — ur (n×r), sr (length r), vr
// (p×r) — using sc for every intermediate. It is the zero-allocation
// path behind batch summarization: the caller typically hands in slab-
// backed outputs and a pooled Scratch, so the decomposition itself does
// not touch the heap. Requires 1 ≤ r ≤ min(n, p); matrices with more
// columns than rows fall back to the allocating transpose path.
func TruncatedSVDInto(a *Matrix, r int, ur *Matrix, sr []float64, vr *Matrix, sc *Scratch) error {
	if a.Rows() == 0 || a.Cols() == 0 {
		return ErrEmptyMatrix
	}
	n, p := a.Rows(), a.Cols()
	m := n
	if p < m {
		m = p
	}
	if r < 1 || r > m {
		return fmt.Errorf("linalg: truncation rank %d out of range [1,%d]", r, m)
	}
	if ur.rows != n || ur.cols != r || vr.rows != p || vr.cols != r || len(sr) != r {
		return fmt.Errorf("linalg: truncated SVD outputs %dx%d/%d/%dx%d do not fit %dx%d rank %d",
			ur.rows, ur.cols, len(sr), vr.rows, vr.cols, n, p, r)
	}
	if p > n {
		d, err := ComputeSVD(a)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			copy(ur.Row(i), d.U.Row(i)[:r])
		}
		for i := 0; i < p; i++ {
			copy(vr.Row(i), d.V.Row(i)[:r])
		}
		copy(sr, d.S[:r])
		return nil
	}
	svdInto(a, r, ur, sr, vr, sc)
	return nil
}

// EnergyRank returns the smallest r such that the top-r singular values
// retain at least frac of the total squared singular-value mass
// (Σ_{i<r} s_i² ≥ frac · Σ s_i²). The paper uses frac = 0.90 to argue the
// latent rank of packet-header batches is ≈ 12–16 of 18 (§4.2, Fig. 10).
func (d *SVD) EnergyRank(frac float64) int {
	var total float64
	for _, sv := range d.S {
		total += sv * sv
	}
	if total == 0 {
		return 0
	}
	var acc float64
	for i, sv := range d.S {
		acc += sv * sv
		if acc >= frac*total {
			return i + 1
		}
	}
	return len(d.S)
}

// Reconstruct multiplies U·diag(S)·Vᵀ back into a dense matrix, optionally
// after truncation to rank r (r ≤ 0 means full rank). It is the rank-r
// approximation X̄_p of §4.2, optimal in Frobenius norm by Eckart–Young.
func (d *SVD) Reconstruct(r int) (*Matrix, error) {
	m := len(d.S)
	if r <= 0 || r > m {
		r = m
	}
	n := d.U.Rows()
	p := d.V.Rows()
	out := NewMatrix(n, p)
	for i := 0; i < n; i++ {
		oi := out.Row(i)
		for t := 0; t < r; t++ {
			uis := d.U.data[i*d.U.cols+t] * d.S[t]
			if uis == 0 {
				continue
			}
			for j := 0; j < p; j++ {
				oi[j] += uis * d.V.data[j*d.V.cols+t]
			}
		}
	}
	return out, nil
}
