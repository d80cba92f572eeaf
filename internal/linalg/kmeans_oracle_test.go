package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/packet"
	"repro/internal/trafficgen"
)

// refKMeansInto is the exhaustive k-means this package shipped before the
// pruned kernel: k-means++ seeding that measures every row against every
// new seed, and Lloyd assignment steps that scan every centre for every
// row. KMeansInto must reproduce it bit for bit — assignments, counts,
// centroids, objective, iteration count and the draws taken from rng —
// which TestKMeansMatchesExhaustiveReference checks with ==. It also
// reports how many empty clusters the update step had to repair, so the
// tests can tell that a case reached that branch.
func refKMeansInto(x *Matrix, k int, rng *rand.Rand, cfg KMeansConfig, out *Matrix, assign []int, counts []int) (inertia float64, iters, repairs int) {
	n, p := x.Rows(), x.Cols()
	cfg = cfg.withDefaults()
	if k == n {
		copy(out.data, x.data)
		for i := 0; i < n; i++ {
			assign[i] = i
			counts[i] = 1
		}
		return 0, 0, 0
	}

	cur := NewMatrix(k, p)
	refSeedPlusPlus(x, cur, rng)
	next := NewMatrix(k, p)
	dist := make([]float64, n)
	prevObj := math.Inf(1)
	var obj float64

	for ; iters < cfg.MaxIterations; iters++ {
		obj = refAssignRows(x, cur, assign, dist, counts)
		for i := range next.data {
			next.data[i] = 0
		}
		for i := 0; i < n; i++ {
			nr := next.Row(assign[i])
			for j, v := range x.Row(i) {
				nr[j] += v
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				repairs++
				far, farD := 0, -1.0
				for i := 0; i < n; i++ {
					d := SquaredDistance(x.Row(i), cur.Row(assign[i]))
					if d > farD {
						far, farD = i, d
					}
				}
				copy(next.Row(c), x.Row(far))
				continue
			}
			inv := 1 / float64(counts[c])
			nr := next.Row(c)
			for j := range nr {
				nr[j] *= inv
			}
		}
		cur, next = next, cur

		if prevObj-obj <= cfg.Tolerance*math.Max(prevObj, 1) {
			iters++
			break
		}
		prevObj = obj
	}

	obj = refAssignRows(x, cur, assign, dist, counts)
	copy(out.data, cur.data)
	return obj, iters, repairs
}

func refAssignRows(x, cents *Matrix, assign []int, dist []float64, counts []int) float64 {
	for i := 0; i < x.Rows(); i++ {
		row := x.Row(i)
		best, bestD := 0, math.Inf(1)
		for c := 0; c < cents.Rows(); c++ {
			if d := SquaredDistance(row, cents.Row(c)); d < bestD {
				best, bestD = c, d
			}
		}
		assign[i] = best
		dist[i] = bestD
	}
	for c := range counts {
		counts[c] = 0
	}
	var obj float64
	for i := range assign {
		counts[assign[i]]++
		obj += dist[i]
	}
	return obj
}

func refSeedPlusPlus(x, cur *Matrix, rng *rand.Rand) {
	n := x.Rows()
	k := cur.Rows()
	copy(cur.Row(0), x.Row(rng.Intn(n)))
	d2 := make([]float64, n)
	for i := 0; i < n; i++ {
		d2[i] = SquaredDistance(x.Row(i), cur.Row(0))
	}
	for c := 1; c < k; c++ {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(n)
		} else {
			target := rng.Float64() * total
			acc := 0.0
			pick = n - 1
			for i, d := range d2 {
				acc += d
				if acc >= target {
					pick = i
					break
				}
			}
		}
		copy(cur.Row(c), x.Row(pick))
		for i := 0; i < n; i++ {
			if d := SquaredDistance(x.Row(i), cur.Row(c)); d < d2[i] {
				d2[i] = d
			}
		}
	}
}

// trafficMatrix normalizes one generated background batch into the n×18
// matrix the summarizer decomposes.
func trafficMatrix(seed int64, n int) *Matrix {
	hs := trafficgen.NewBackground(trafficgen.DefaultBackgroundConfig(seed)).Batch(n)
	x := NewMatrix(n, packet.NumFields)
	for i := range hs {
		hs[i].NormalizedVector(x.Row(i))
	}
	return x
}

// reducedTraffic is what the split encoding clusters: the rows of U_r of
// a traffic batch.
func reducedTraffic(t *testing.T, seed int64, n, r int) *Matrix {
	t.Helper()
	x := trafficMatrix(seed, n)
	ur, vr := NewMatrix(n, r), NewMatrix(x.Cols(), r)
	if err := TruncatedSVDInto(x, r, ur, make([]float64, r), vr, new(Scratch)); err != nil {
		t.Fatal(err)
	}
	return ur
}

// withColumns overwrites columns of m: constant columns make it rank
// deficient, zero columns are what an unused header field looks like.
func withColumns(m *Matrix, value float64, cols ...int) *Matrix {
	for i := 0; i < m.Rows(); i++ {
		for _, j := range cols {
			m.Set(i, j, value)
		}
	}
	return m
}

// withDuplicates makes every row of m a copy of one of its first distinct
// rows.
func withDuplicates(m *Matrix, distinct int) *Matrix {
	for i := distinct; i < m.Rows(); i++ {
		copy(m.Row(i), m.Row(i%distinct))
	}
	return m
}

func TestKMeansMatchesExhaustiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		name string
		x    *Matrix
		k    int
		cfg  KMeansConfig
		// repairs says the case must reach the empty-cluster repair.
		repairs bool
	}{
		{name: "random 300x6 k=20", x: randomMatrix(rng, 300, 6), k: 20},
		{name: "random 1000x12 k=200", x: randomMatrix(rng, 1000, 12), k: 200},
		{name: "random 64x3 k=63", x: randomMatrix(rng, 64, 3), k: 63},
		{name: "random 50x1 k=7", x: randomMatrix(rng, 50, 1), k: 7},
		{name: "random k=1", x: randomMatrix(rng, 40, 5), k: 1},
		{name: "traffic 1000x18 k=200", x: trafficMatrix(1, 1000), k: 200},
		{name: "traffic 600x18 k=120", x: trafficMatrix(2, 600), k: 120},
		{name: "traffic U_r 1000x12 k=200", x: reducedTraffic(t, 3, 1000, 12), k: 200},
		{name: "traffic U_r 1000x12 k=500", x: reducedTraffic(t, 4, 1000, 12), k: 500},
		{name: "constant and zero columns", x: withColumns(withColumns(randomMatrix(rng, 400, 8), 0.25, 1, 4), 0, 6), k: 40},
		{name: "duplicate rows", x: withDuplicates(randomMatrix(rng, 300, 5), 25), k: 60, repairs: true},
		{name: "all rows identical", x: withDuplicates(randomMatrix(rng, 120, 4), 1), k: 9, repairs: true},
		{name: "n = p", x: randomMatrix(rng, 18, 18), k: 5},
		{name: "k = n = 200", x: randomMatrix(rng, 200, 12), k: 200},
		{name: "n = 201, k = 200", x: randomMatrix(rng, 201, 12), k: 200},
		{name: "one iteration allowed", x: randomMatrix(rng, 200, 4), k: 10, cfg: KMeansConfig{MaxIterations: 1}},
		{name: "tight tolerance", x: trafficMatrix(5, 500), k: 50, cfg: KMeansConfig{MaxIterations: 8, Tolerance: 1e-12}},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				n, p := tc.x.Rows(), tc.x.Cols()
				wantRng := rand.New(rand.NewSource(seed))
				wantOut, wantAssign, wantCounts := NewMatrix(tc.k, p), make([]int, n), make([]int, tc.k)
				wantObj, wantIters, repairs := refKMeansInto(tc.x, tc.k, wantRng, tc.cfg, wantOut, wantAssign, wantCounts)
				if tc.repairs && repairs == 0 {
					t.Fatal("case was meant to reach the empty-cluster repair and did not")
				}

				gotRng := rand.New(rand.NewSource(seed))
				gotOut, gotAssign, gotCounts := NewMatrix(tc.k, p), make([]int, n), make([]int, tc.k)
				// Outputs arrive dirty in production (arena slabs are
				// zeroed, but nothing promises it): the kernel must not
				// read them.
				for i := range gotAssign {
					gotAssign[i] = -7
				}
				gotObj, gotIters, err := KMeansInto(tc.x, tc.k, gotRng, tc.cfg, new(Scratch), gotOut, gotAssign, gotCounts)
				if err != nil {
					t.Fatal(err)
				}

				if gotObj != wantObj || gotIters != wantIters {
					t.Fatalf("objective %v after %d iterations, reference %v after %d", gotObj, gotIters, wantObj, wantIters)
				}
				for i := range wantAssign {
					if gotAssign[i] != wantAssign[i] {
						t.Fatalf("row %d assigned to %d, reference %d", i, gotAssign[i], wantAssign[i])
					}
				}
				for c := range wantCounts {
					if gotCounts[c] != wantCounts[c] {
						t.Fatalf("cluster %d has %d rows, reference %d", c, gotCounts[c], wantCounts[c])
					}
				}
				for i, w := range wantOut.data {
					if gotOut.data[i] != w {
						t.Fatalf("centroid element %d is %v, reference %v", i, gotOut.data[i], w)
					}
				}
				for draw := 0; draw < 4; draw++ {
					if g, w := gotRng.Int63(), wantRng.Int63(); g != w {
						t.Fatalf("rng diverged: draw %d after the call is %d, reference %d", draw, g, w)
					}
				}
			})
		}
	}
}

// TestKMeansDefaultStopsAfterOneIteration pins the behaviour the comment
// at KMeansInto's stop test describes.
func TestKMeansDefaultStopsAfterOneIteration(t *testing.T) {
	for _, x := range []*Matrix{randomMatrix(rand.New(rand.NewSource(1)), 500, 8), trafficMatrix(1, 1000)} {
		res, err := KMeans(x, 50, rand.New(rand.NewSource(1)), KMeansConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != 1 {
			t.Fatalf("default config ran %d Lloyd iterations, want 1", res.Iterations)
		}
	}
}

// TestDistanceHelpersMatchSquaredDistance checks the four-at-a-time
// helpers value for value, including the lengths that leave a remainder.
func TestDistanceHelpersMatchSquaredDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, rows := range []int{1, 3, 4, 5, 8, 11} {
		for _, p := range []int{1, 2, 12, 18} {
			m := randomMatrix(rng, rows, p)
			a := randomMatrix(rng, 1, p).Row(0)
			out := make([]float64, rows)
			distancesToRows(a, m.data, out)
			for c := range out {
				if want := SquaredDistance(a, m.Row(c)); out[c] != want {
					t.Fatalf("distancesToRows %dx%d: row %d is %v, want %v", rows, p, c, out[c], want)
				}
			}
			idx := rng.Perm(rows)
			distancesToSome(a, m.data, idx, out)
			for j, i := range idx {
				if want := SquaredDistance(a, m.Row(i)); out[j] != want {
					t.Fatalf("distancesToSome %dx%d: entry %d (row %d) is %v, want %v", rows, p, j, i, out[j], want)
				}
			}
		}
	}
}
