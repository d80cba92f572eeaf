package linalg

import "math"

// kernelSet is one implementation of the loops of summarization whose
// cost grows with the row count: the two k-means scans and the SVD's
// Householder pass and lift. The portable set is goKernels; the
// package's init swaps in a vector set when the CPU has one. Every set
// gives each output element the same IEEE operations in the same order
// as the portable one — lanes only interleave independent outputs — so
// all sets agree bit for bit (FuzzSeedRound, FuzzNearest,
// FuzzSVDLeaves), and none may fuse a multiply into an add.
type kernelSet struct {
	// seedRound runs one k-means++ round for a new seed c against the
	// len(d2) columns of xt (len(seed) rows of stride values): where a
	// column's squared distance to seed is strictly below d2[i] it
	// replaces d2[i] and near[i] becomes c, so a NaN never replaces and
	// never is replaced. sums[i] becomes total + d2[0] + … + d2[i],
	// added in row order, and the last sum is returned.
	seedRound func(seed, xt []float64, stride, c int, near []int, d2, sums []float64, total float64) float64
	// nearest sets dist[i] to the smallest squared distance from column
	// i of xt to a centre of packed and assign[i] to that centre — the
	// lowest index on ties, 0 with dist +Inf when no distance is below
	// +Inf. packed holds the centres four to a group, p values each,
	// interleaved (packCentres); NaN padding never wins.
	nearest func(packed []float64, p int, xt []float64, stride int, assign []int, dist []float64)
	// reflect applies the reflector I − τ·h·hᵀ, given ntau = −τ, to the
	// m columns cols[q·stride:][:len(h)], q < m: each gets
	// axpy(ntau·Dot(h, col), h, col).
	reflect func(h []float64, ntau float64, cols []float64, stride, m int)
	// lift applies I − τ·h·hᵀ to the first m columns of the len(h)×r
	// row-major block rows: w_c = (Σᵢ h[i]·rows[i·r+c])·τ, the sum in row
	// order from +0, then rows[i·r+c] −= h[i]·w_c.
	lift func(h []float64, tau float64, rows []float64, r, m int)
}

// goKernels is the portable kernel set: plain loops with every product
// converted to float64 before it is added, which forbids the compiler
// from fusing the two (it would on arm64, and round differently).
var goKernels = kernelSet{goSeedRound, goNearest, goReflect, goLift}

// kernels is the set every scan and decomposition runs.
var kernels = goKernels

// goBlock is how many rows goNearest measures at a time: one stack
// buffer of distances, filled by columnSums.
const goBlock = 256

// goSeedRound measures the seed into sums, then one pass folds each
// distance into d2 and near and overwrites it with the running sum.
func goSeedRound(seed, xt []float64, stride, c int, near []int, d2, sums []float64, total float64) float64 {
	sums, near = sums[:len(d2)], near[:len(d2)]
	columnSums(seed, 1, len(seed), xt, stride, sums)
	for i, s := range sums {
		if s < d2[i] {
			d2[i], near[i] = s, c
		}
		total += d2[i]
		sums[i] = total
	}
	return total
}

func goNearest(packed []float64, p int, xt []float64, stride int, assign []int, dist []float64) {
	var buf [goBlock]float64
	k := len(packed) / p
	for b := 0; b < len(dist); b += goBlock {
		best, arg := dist[b:min(b+goBlock, len(dist))], assign[b:min(b+goBlock, len(dist))]
		for i := range best {
			best[i], arg[i] = math.Inf(1), 0
		}
		for c := 0; c < k; c++ {
			d := buf[:len(best)]
			columnSums(packed[c/4*4*p+c%4:], 4, p, xt[b:], stride, d)
			for i, v := range d {
				if v < best[i] {
					best[i], arg[i] = v, c
				}
			}
		}
	}
}

// columnSums sets out[i] to the squared distance from the point
// a[0], a[step], …, a[(p−1)·step] to column i of xt: the terms added in
// order onto +0, each product rounded. It walks xt two rows at a time,
// adding both terms to out[i] in order before storing it, so every
// column's sum is its own chain and the CPU overlaps them.
func columnSums(a []float64, step, p int, xt []float64, stride int, out []float64) {
	for i := range out {
		out[i] = 0
	}
	j := 0
	for ; j+2 <= p; j += 2 {
		a0, a1 := a[j*step], a[(j+1)*step]
		c0 := xt[j*stride : j*stride+len(out)]
		c1 := xt[(j+1)*stride : (j+1)*stride+len(out)]
		c1, out := c1[:len(c0)], out[:len(c0)]
		for i, v := range c0 {
			d0, d1 := a0-v, a1-c1[i]
			out[i] = out[i] + float64(d0*d0) + float64(d1*d1)
		}
	}
	if j < p {
		av := a[j*step]
		col := xt[j*stride : j*stride+len(out)]
		out := out[:len(col)]
		for i, v := range col {
			d := av - v
			out[i] += float64(d * d)
		}
	}
}

func goReflect(h []float64, ntau float64, cols []float64, stride, m int) {
	for q := 0; q < m; q++ {
		col := cols[q*stride : q*stride+len(h)]
		axpy(ntau*Dot(h, col), h, col)
	}
}

// goLift takes the columns four at a time, each w_c a chain in a
// register, then one at a time.
func goLift(h []float64, tau float64, rows []float64, r, m int) {
	c := 0
	for ; c+4 <= m; c += 4 {
		var w0, w1, w2, w3 float64
		for i, hi := range h {
			y := rows[i*r+c : i*r+c+4]
			w0 += float64(hi * y[0])
			w1 += float64(hi * y[1])
			w2 += float64(hi * y[2])
			w3 += float64(hi * y[3])
		}
		w0, w1, w2, w3 = w0*tau, w1*tau, w2*tau, w3*tau
		for i, hi := range h {
			y := rows[i*r+c : i*r+c+4]
			y[0] -= float64(hi * w0)
			y[1] -= float64(hi * w1)
			y[2] -= float64(hi * w2)
			y[3] -= float64(hi * w3)
		}
	}
	for ; c < m; c++ {
		var w float64
		for i, hi := range h {
			w += float64(hi * rows[i*r+c])
		}
		w *= tau
		for i, hi := range h {
			rows[i*r+c] -= float64(hi * w)
		}
	}
}

// packCentres writes the rows of cents into packed (length
// 4·p·⌈k/4⌉) four to a group: value j of centre 4g+q goes to
// packed[(g·p+j)·4+q]. The slots past the last centre hold NaN, whose
// distance to any row is NaN and never below a running minimum.
func packCentres(packed []float64, cents *Matrix) {
	p := cents.cols
	for c := 0; c < cents.rows; c++ {
		g, q := c/4, c%4
		for j, v := range cents.data[c*p : (c+1)*p] {
			packed[(g*p+j)*4+q] = v
		}
	}
	for c := cents.rows; c < len(packed)/p; c++ {
		g, q := c/4, c%4
		for j := 0; j < p; j++ {
			packed[(g*p+j)*4+q] = math.NaN()
		}
	}
}
