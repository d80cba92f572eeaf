package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// KMeansResult holds the output of a k-means clustering run.
type KMeansResult struct {
	// Centroids is a k×p matrix whose rows are the cluster centroids —
	// the representative packets R of §4.3.
	Centroids *Matrix
	// Assignments maps each input row to the index of its centroid —
	// the assignment matrix B of Eq. (4) in index form.
	Assignments []int
	// Counts holds the membership count of each cluster — the metadata
	// vector c appended to the summary.
	Counts []int
	// Inertia is the k-means objective: the sum of squared distances
	// from each row to its assigned centroid (the squared Frobenius
	// residual of Eq. 4).
	Inertia float64
}

// KMeansConfig has no knobs: k-means is one fixed sequence of steps
// (see KMeansInto). The type stays, empty, only because KMeansInto's
// signature carries it and the benchmark harness passes it.
type KMeansConfig struct{}

// KMeans clusters the rows of x into k clusters using k-means++ seeding
// (Arthur & Vassilvitskii 2007), one mean update and one assignment (see
// KMeansInto). The seeding gives an O(log k)-competitive solution in
// expectation — the property §4.3 relies on.
//
// rng provides all randomness so callers can make runs reproducible.
// If k ≥ rows, every row becomes its own centroid.
func KMeans(x *Matrix, k int, rng *rand.Rand) (*KMeansResult, error) {
	if x.Rows() == 0 || x.Cols() == 0 {
		return nil, ErrEmptyMatrix
	}
	if k < 1 {
		return nil, fmt.Errorf("linalg: k must be ≥ 1, got %d", k)
	}
	if rng == nil {
		return nil, fmt.Errorf("linalg: nil rng")
	}
	n, p := x.Rows(), x.Cols()
	if k > n {
		k = n
	}
	res := &KMeansResult{
		Centroids:   NewMatrix(k, p),
		Assignments: make([]int, n),
		Counts:      make([]int, k),
	}
	sc := GetScratch()
	inertia, _, err := KMeansInto(x, k, rng, KMeansConfig{}, sc, res.Centroids, res.Assignments, res.Counts)
	PutScratch(sc)
	if err != nil {
		return nil, err
	}
	res.Inertia = inertia
	return res, nil
}

// KMeansInto is the allocation-free core of KMeans: it clusters the rows
// of x into k ≤ x.Rows() clusters, writing the centroids into out (k×p),
// the per-row assignments into assign (length n) and the cluster sizes
// into counts (length k). Every intermediate — the seeds, the per-row
// best distances and a column-major copy of x — comes from sc, which is
// carved (never Reset) so the caller may share one Scratch across the
// whole summarization of a batch. cfg is ignored. It returns the final
// objective value and the number of mean updates: 1, or 0 when k = n.
//
// The steps are k-means++ seeding, one mean update and one assignment
// against the means. The scans are exhaustive: seeding measures every
// new seed, and the assignment every mean, against all rows of the
// column-major copy (lowest centre index on ties), through the selected
// kernels' seedRound and nearest leaves. The result, non-finite inputs
// included, is bit for bit that of the row-by-row reference in
// kmeans_oracle_test.go. Seeding records each row's nearest seed as it
// maintains the D² vector, so the assignment the mean update reads is
// that table. All of it is sequential on rng and on the calling
// goroutine.
func KMeansInto(x *Matrix, k int, rng *rand.Rand, cfg KMeansConfig, sc *Scratch, out *Matrix, assign []int, counts []int) (inertia float64, iters int, err error) {
	if x.Rows() == 0 || x.Cols() == 0 {
		return 0, 0, ErrEmptyMatrix
	}
	if k < 1 {
		return 0, 0, fmt.Errorf("linalg: k must be ≥ 1, got %d", k)
	}
	if rng == nil {
		return 0, 0, fmt.Errorf("linalg: nil rng")
	}
	n, p := x.Rows(), x.Cols()
	if k > n {
		return 0, 0, fmt.Errorf("linalg: k = %d exceeds %d rows", k, n)
	}
	if out.rows != k || out.cols != p || len(assign) != n || len(counts) != k {
		return 0, 0, fmt.Errorf("linalg: k-means outputs %dx%d/%d/%d do not fit %dx%d k=%d",
			out.rows, out.cols, len(assign), len(counts), n, p, k)
	}

	if k == n {
		// Degenerate case: each row is its own representative.
		copy(out.data, x.data)
		for i := 0; i < n; i++ {
			assign[i] = i
			counts[i] = 1
		}
		return 0, 0, nil
	}

	seeds := sc.Matrix(k, p)
	dist := sc.Floats(n)
	sums := sc.Floats(n)
	xt := sc.Floats(p * n)
	transposeInto(xt, x)
	packed := sc.Floats(4 * p * ((k + 3) / 4))

	// Seeding leaves the assignment to the seeds in assign/dist, except
	// for a row whose distance to the first seed is NaN: D² keeps that
	// NaN, where a scan from +Inf moves on to the next centre. The
	// objective is then NaN, and only a full pass reproduces the scan.
	seedPlusPlus(x, xt, seeds, rng, assign, dist, sums)
	if math.IsNaN(tally(assign, dist, counts)) {
		assignRows(xt, seeds, packed, assign, dist)
		tally(assign, dist, counts)
	}

	// Mean update.
	clear(out.data)
	for i, c := range assign {
		m := out.Row(c)
		for j, v := range x.Row(i) {
			m[j] += v
		}
	}
	far := -1
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			// Re-seed an empty cluster with the point farthest from its
			// seed, the standard Lloyd repair step.
			if far < 0 {
				far = farthestRow(x, seeds, assign)
			}
			copy(out.Row(c), x.Row(far))
			continue
		}
		inv := 1 / float64(counts[c])
		m := out.Row(c)
		for j := range m {
			m[j] *= inv
		}
	}

	// Assignment against the means.
	assignRows(xt, out, packed, assign, dist)
	return tally(assign, dist, counts), 1, nil
}

// tally reduces one assignment step: the cluster sizes and the objective,
// summed in row order.
func tally(assign []int, dist []float64, counts []int) float64 {
	for c := range counts {
		counts[c] = 0
	}
	var obj float64
	for i, c := range assign {
		counts[c]++
		obj += dist[i]
	}
	return obj
}

// farthestRow returns the first row farthest from the centre of cents it
// is assigned to. The distances are measured afresh rather than read from
// an assignment step's dist, which holds +Inf for a row whose every
// distance is NaN.
func farthestRow(x, cents *Matrix, assign []int) int {
	far, farD := 0, -1.0
	for i, c := range assign {
		if d := SquaredDistance(x.Row(i), cents.Row(c)); d > farD {
			far, farD = i, d
		}
	}
	return far
}

// assignRows runs one assignment step: assign[i] becomes the
// centre of cents nearest to row i (lowest index on ties) and dist[i]
// the squared distance to it. xt is the rows column-major; packed
// (length 4·p·⌈k/4⌉) receives the centres in the nearest leaf's layout.
func assignRows(xt []float64, cents *Matrix, packed []float64, assign []int, dist []float64) {
	packCentres(packed, cents)
	kernels.nearest(packed, cents.cols, xt, len(dist), assign, dist)
}

// seedPlusPlus picks k initial centroids with the k-means++ D² weighting:
// the first uniformly at random, each subsequent one with probability
// proportional to its squared distance to the nearest centroid so far.
// The centroids are written into cur (k×p); xt is x column-major. d2
// (length n) is the D² vector and near (length n) records which seed
// each entry of d2 was measured to — the lowest index on ties, because
// only a strictly smaller distance replaces it.
//
// The first seed's distances are measured row by row, so a NaN one
// enters d2 as it does in the reference (and stays: no comparison
// replaces it). Each later round is one seedRound pass, which folds the
// new seed's distances into d2 and near and leaves the running sums of
// d2 in row order in sums: the last is the next round's D² total, and
// the draw is a search in them, which lands on the row a linear
// accumulation would have stopped at because the sums never decrease (a
// NaN total makes both pick the last row). Seeding is strictly
// sequential: every draw consumes rng in a fixed order, which is what
// keeps same-seed runs reproducible (§4.3).
func seedPlusPlus(x *Matrix, xt []float64, cur *Matrix, rng *rand.Rand, near []int, d2, sums []float64) {
	n, p := x.rows, x.cols
	k := cur.rows
	near, d2, sums = near[:n], d2[:n], sums[:n]
	first := rng.Intn(n)
	copy(cur.data[:p], x.data[first*p:(first+1)*p])
	var total float64
	for i := range d2 {
		d2[i] = SquaredDistance(x.data[i*p:(i+1)*p], cur.data[:p])
		near[i] = 0
		total += d2[i]
		sums[i] = total
	}
	for c := 1; c < k; c++ {
		var pick int
		if total <= 0 {
			// All points coincide with existing centroids; fall back to
			// uniform choice.
			pick = rng.Intn(n)
		} else {
			target := rng.Float64() * total
			// First row whose running sum reaches target; the last row
			// when rounding leaves target above every sum.
			pick = min(sort.SearchFloat64s(sums, target), n-1)
		}
		seed := cur.data[c*p : (c+1)*p]
		copy(seed, x.data[pick*p:(pick+1)*p])
		total = kernels.seedRound(seed, xt, n, c, near, d2, sums, 0)
	}
}

// transposeInto writes m column-major into dst (length m.rows·m.cols).
func transposeInto(dst []float64, m *Matrix) {
	for i := 0; i < m.rows; i++ {
		for j, v := range m.data[i*m.cols : (i+1)*m.cols] {
			dst[j*m.rows+i] = v
		}
	}
}
