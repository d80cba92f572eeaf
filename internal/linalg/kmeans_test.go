package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// threeBlobs builds an easily separable dataset of three tight clusters.
func threeBlobs(rng *rand.Rand, perCluster int) (*Matrix, [][]float64) {
	centers := [][]float64{{0, 0}, {10, 10}, {-10, 10}}
	m := NewMatrix(3*perCluster, 2)
	for c, center := range centers {
		for i := 0; i < perCluster; i++ {
			row := m.Row(c*perCluster + i)
			row[0] = center[0] + rng.NormFloat64()*0.1
			row[1] = center[1] + rng.NormFloat64()*0.1
		}
	}
	return m, centers
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, centers := threeBlobs(rng, 40)
	res, err := KMeans(x, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Every true center must be within 0.5 of some learned centroid.
	for _, c := range centers {
		best := math.Inf(1)
		for i := 0; i < 3; i++ {
			if d := SquaredDistance(c, res.Centroids.Row(i)); d < best {
				best = d
			}
		}
		if best > 0.25 {
			t.Fatalf("no centroid near true center %v (d²=%v)", c, best)
		}
	}
	// All cluster sizes must be equal.
	for i, n := range res.Counts {
		if n != 40 {
			t.Fatalf("cluster %d has %d members, want 40", i, n)
		}
	}
}

func TestKMeansCountsSumToRows(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randomMatrix(rng, 100, 4)
	res, err := KMeans(x, 7, rng)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range res.Counts {
		total += c
	}
	if total != 100 {
		t.Fatalf("counts sum to %d, want 100", total)
	}
	if len(res.Assignments) != 100 {
		t.Fatalf("got %d assignments, want 100", len(res.Assignments))
	}
	for i, a := range res.Assignments {
		if a < 0 || a >= 7 {
			t.Fatalf("assignment[%d] = %d out of range", i, a)
		}
	}
}

func TestKMeansKGreaterOrEqualN(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randomMatrix(rng, 5, 3)
	res, err := KMeans(x, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Centroids.Rows() != 5 {
		t.Fatalf("got %d centroids, want 5 (one per row)", res.Centroids.Rows())
	}
	for i, a := range res.Assignments {
		if a != i {
			t.Fatalf("assignment[%d] = %d, want %d", i, a, i)
		}
	}
	if res.Inertia != 0 {
		t.Fatalf("inertia = %v, want 0", res.Inertia)
	}
}

func TestKMeansInvalidArgs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randomMatrix(rng, 10, 2)
	if _, err := KMeans(x, 0, rng); err == nil {
		t.Fatal("expected error for k=0")
	}
	if _, err := KMeans(NewMatrix(0, 2), 1, rng); err != ErrEmptyMatrix {
		t.Fatalf("got %v, want ErrEmptyMatrix", err)
	}
	if _, err := KMeans(x, 2, nil); err == nil {
		t.Fatal("expected error for nil rng")
	}
}

func TestKMeansDeterministicWithSeed(t *testing.T) {
	x := randomMatrix(rand.New(rand.NewSource(5)), 200, 6)
	run := func() *KMeansResult {
		res, err := KMeans(x, 8, rand.New(rand.NewSource(42)))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !Equal(a.Centroids, b.Centroids, 0) {
		t.Fatal("same seed must produce identical centroids")
	}
	if a.Inertia != b.Inertia {
		t.Fatal("same seed must produce identical inertia")
	}
}

func TestKMeansIdenticalPoints(t *testing.T) {
	x := NewMatrix(20, 3)
	for i := 0; i < 20; i++ {
		row := x.Row(i)
		row[0], row[1], row[2] = 1, 2, 3
	}
	rng := rand.New(rand.NewSource(6))
	res, err := KMeans(x, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia > 1e-20 {
		t.Fatalf("inertia = %v, want ~0 for identical points", res.Inertia)
	}
}

func TestKMeansSingleCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randomMatrix(rng, 50, 2)
	res, err := KMeans(x, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	// The single centroid must be the column mean.
	for j := 0; j < 2; j++ {
		if math.Abs(res.Centroids.At(0, j)-Mean(x.Col(j))) > 1e-9 {
			t.Fatalf("centroid %v is not the mean", res.Centroids.Row(0))
		}
	}
}

// Property: inertia never exceeds the inertia of the trivial 1-cluster
// solution, and centroid count/assignment invariants hold.
func TestKMeansInertiaProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(60)
		p := 1 + rng.Intn(6)
		k := 1 + rng.Intn(8)
		x := randomMatrix(rng, n, p)
		res, err := KMeans(x, k, rng)
		if err != nil {
			return false
		}
		one, err := KMeans(x, 1, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		if res.Inertia > one.Inertia+1e-9 {
			return false
		}
		sum := 0
		for _, c := range res.Counts {
			sum += c
		}
		return sum == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: every point is assigned to its nearest returned centroid.
func TestKMeansNearestAssignmentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(40)
		x := randomMatrix(rng, n, 3)
		k := 2 + rng.Intn(5)
		res, err := KMeans(x, k, rng)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			di := SquaredDistance(x.Row(i), res.Centroids.Row(res.Assignments[i]))
			for c := 0; c < res.Centroids.Rows(); c++ {
				if SquaredDistance(x.Row(i), res.Centroids.Row(c)) < di-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Non-finite rows must come back as a well-formed clustering; that it is
// the reference's is TestKMeansMatchesExhaustiveReference's business.
func TestKMeansNonFiniteInput(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		x := randomMatrix(rand.New(rand.NewSource(8)), 120, 4)
		x.Set(7, 2, bad)
		x.Set(90, 0, bad)
		res, err := KMeans(x, 10, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, c := range res.Counts {
			total += c
		}
		if total != 120 {
			t.Fatalf("input with %v: counts sum to %d, want 120", bad, total)
		}
		for i, a := range res.Assignments {
			if a < 0 || a >= 10 {
				t.Fatalf("input with %v: assignment[%d] = %d out of range", bad, i, a)
			}
		}
	}
}

// kmeansSplitOp clusters what Summarize clusters under the split
// encoding, U_r of a 1000-packet batch (1000×12), into k = 200 with a
// warmed-up Scratch, on whichever kernel set is selected: what
// BenchmarkKMeansSplit times and TestKMeansSplitZeroAlloc holds to zero
// allocations.
func kmeansSplitOp(tb testing.TB) func() {
	const n, r, k = 1000, 12, 200
	x := reducedTraffic(tb, 1, n, r)
	out, assign, counts := NewMatrix(k, r), make([]int, n), make([]int, k)
	var sc Scratch
	rng := rand.New(rand.NewSource(1))
	run := func() {
		sc.Reset()
		if _, _, err := KMeansInto(x, k, rng, KMeansConfig{}, &sc, out, assign, counts); err != nil {
			tb.Fatal(err)
		}
	}
	// The first call grows the slab in steps, the second into one slab
	// that holds a whole call.
	run()
	run()
	return run
}

// BenchmarkKMeansSplit times kmeansSplitOp once per leaf: leaf=go is
// what a host without the vector kernel pays.
func BenchmarkKMeansSplit(b *testing.B) {
	forEachLeaf(func(l leaf) {
		b.Run("leaf="+l.name, func(b *testing.B) {
			run := kmeansSplitOp(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	})
}

func TestKMeansSplitZeroAlloc(t *testing.T) {
	forEachLeaf(func(l leaf) {
		if n := testing.AllocsPerRun(20, kmeansSplitOp(t)); n != 0 {
			t.Fatalf("leaf=%s: KMeansInto made %v allocations per call, want 0", l.name, n)
		}
	})
}
