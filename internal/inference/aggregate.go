// Package inference implements Jaal's centralized analysis and inference
// module (§5): aggregation of per-monitor summaries into a global view,
// the similarity estimator of Algorithm 1, the variance postprocessor of
// Algorithm 2, and the two-threshold feedback loop of §5.3.
package inference

import (
	"fmt"
	"sync"

	"repro/internal/linalg"
	"repro/internal/packet"
	"repro/internal/radix"
	"repro/internal/rules"
	"repro/internal/summary"
)

// CentroidRef identifies one row of an aggregated summary back to its
// originating monitor, epoch and centroid index. The feedback loop uses
// refs to ask the right monitor for the raw packets behind an uncertain
// centroid.
type CentroidRef struct {
	MonitorID int
	Epoch     uint64
	Centroid  int
}

// Aggregate is S^a: the global view assembled from all monitors'
// summaries for one inference round (§5.1). Representatives is the tall
// matrix X̃_a (at most M·k rows); Counts is c_a; Refs maps each row back
// to its origin. An Aggregate must not be copied after first use: it
// carries the once-guards of its sorted columns.
type Aggregate struct {
	Representatives *linalg.Matrix
	Counts          []int
	Refs            []CentroidRef
	// TotalPackets is the number of raw packets the aggregate stands
	// for: Σ counts.
	TotalPackets int
	// Elements is the total communication cost, in float64 elements, of
	// the summaries that were aggregated.
	Elements int

	// cols are the per-field sorted views of Representatives, each built
	// on first use (column).
	cols [packet.NumFields]sortedColumn
}

// sortedColumn is one field of the aggregate in ascending value order,
// ties in row order: vals[i] is the value of row rows[i], and rank[r] is
// row r's position, so rows[rank[r]] == r. The order is cmp.Compare's on
// the value, then the row's: NaNs first and tied, −0 tied with +0. A
// row window is a value interval of it, and a tracked question's matched
// rows, listed by rank, come out in that same (value, row) order.
type sortedColumn struct {
	once sync.Once
	vals []float64
	rows []int32
	rank []int32
	// keys and idx hold the radix sort's keys and indices, twice the
	// row count each (the second halves are its scratch); rows is the
	// front of idx. An Aggregator's reused Aggregate keeps all five
	// slices' storage from one round to the next.
	keys []uint64
	idx  []int32
}

// column returns field f's sorted view, building it on the first call of
// the epoch with one radix sort, in the storage the column kept from an
// earlier round when it is large enough. The question index, which asks
// for its fields in parallel, and every question's row window read the
// same slices, from any number of goroutines.
func (a *Aggregate) column(f packet.FieldIndex) *sortedColumn {
	c := &a.cols[f]
	c.once.Do(func() {
		n := a.Rows()
		if n == 0 {
			c.vals, c.rows, c.rank = c.vals[:0], c.rows[:0], c.rank[:0]
			return
		}
		data, stride := a.Representatives.Data(), a.Representatives.Cols()
		c.keys, c.idx = carve(c.keys, 2*n), carve(c.idx, 2*n)
		for r := range n {
			c.keys[r], c.idx[r] = radix.Key(data[r*stride+int(f)]), int32(r)
		}
		c.rows = radix.Sort(c.keys[:n], c.keys[n:], c.idx[:n], c.idx[n:])
		c.vals, c.rank = carve(c.vals, n), carve(c.rank, n)
		for i, r := range c.rows {
			c.vals[i], c.rank[r] = data[int(r)*stride+int(f)], int32(i)
		}
	})
	return c
}

// carve returns s at length n, in s's own storage when it holds n.
// Whatever it held is left in place: the caller overwrites all of it.
func carve[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// window returns the rows of the narrowest per-field window of a
// question with the given pins and per-field budget b: on some pinned
// field f, the rows whose value v has |q_f − v| ≤ b, the very term
// Question.Distance adds. |q − v| is q − v below q and v − q above it,
// and both are monotone in v, so each end of a field's window is one
// binary search. After the first field, a field only has to prove it
// beats the best window so far: from its lower end lo, the window is
// strictly shorter than best exactly when the row at lo+len(best)−1 lies
// above it, and only then is the upper end searched, below that row. Of
// equally short windows the first field's wins; once a window is empty,
// no later column is read. NaN values and a NaN budget select nothing.
func (a *Aggregate) window(pins []rules.Pin, b float64) []int32 {
	var best []int32
	for i, p := range pins {
		if i > 0 && len(best) == 0 {
			break
		}
		c := a.column(p.Field)
		lo := firstWithin(c.vals, p.V, b)
		end := len(c.vals)
		if i > 0 {
			last := lo + len(best) - 1
			if last < end && !(c.vals[last]-p.V > b) {
				continue
			}
			end = min(last, end)
		}
		hi := firstBeyond(c.vals, lo, end, p.V, b)
		best = c.rows[lo:hi]
	}
	return best
}

// firstWithin returns the first j with v − vals[j] ≤ b, or len(vals):
// sort.Search over that predicate, probing the same midpoints, without
// a closure call per probe. The predicate is false for NaN, which the
// column puts first.
func firstWithin(vals []float64, v, b float64) int {
	i, j := 0, len(vals)
	for i < j {
		h := int(uint(i+j) >> 1)
		if !(v-vals[h] <= b) {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// firstBeyond returns the first j in [lo, end) with vals[j] − v > b, or
// end: lo plus sort.Search over vals[lo:end], probing the same
// midpoints.
func firstBeyond(vals []float64, lo, end int, v, b float64) int {
	i, j := lo, end
	for i < j {
		h := int(uint(i+j) >> 1)
		if !(vals[h]-v > b) {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// Rows returns the number of representative packets in the aggregate.
func (a *Aggregate) Rows() int {
	if a.Representatives == nil {
		return 0
	}
	return a.Representatives.Rows()
}

// Aggregator accumulates summaries for one round into one row-major slab
// of representatives. Reset readies it for the next round and keeps its
// storage — the slab, the counts and refs, and the matrix and sorted
// columns of the Aggregate Build returns — so a controller that keeps one
// Aggregator across epochs aggregates without allocating once its
// buffers have grown to the round's size. An Aggregator must not be
// copied after first use.
type Aggregator struct {
	slab   []float64
	counts []int
	refs   []CentroidRef
	elems  int

	// agg is what Build returns, reps its matrix header.
	agg  Aggregate
	reps linalg.Matrix
}

// Reset empties the aggregator for a new round. The Aggregate the last
// Build returned must not be used after it.
func (g *Aggregator) Reset() {
	g.slab, g.counts, g.refs, g.elems = g.slab[:0], g.counts[:0], g.refs[:0], 0
}

// Add appends one monitor summary. Split summaries are reconstructed
// into full-width representatives (§5.1) in place in the slab.
func (g *Aggregator) Add(s *summary.Summary) error {
	slab, err := s.AppendRepresentatives(g.slab, packet.NumFields)
	if err != nil {
		return fmt.Errorf("inference: aggregate: %w", err)
	}
	k := (len(slab) - len(g.slab)) / packet.NumFields
	if len(s.Counts) != k {
		return fmt.Errorf("inference: %d counts for %d representatives", len(s.Counts), k)
	}
	g.slab = slab
	g.counts = append(g.counts, s.Counts...)
	for i := 0; i < k; i++ {
		g.refs = append(g.refs, CentroidRef{MonitorID: s.MonitorID, Epoch: s.Epoch, Centroid: i})
	}
	g.elems += s.Elements()
	return nil
}

// Build finalizes the round into an Aggregate. An empty aggregator yields
// an Aggregate with zero rows. The Aggregate is the aggregator's own: it
// reads the aggregator's slab, counts and refs, and it is valid until the
// next Reset or Build.
func (g *Aggregator) Build() *Aggregate {
	g.reps = linalg.WrapMatrix(len(g.counts), packet.NumFields, g.slab)
	a := &g.agg
	a.Representatives, a.Counts, a.Refs = &g.reps, g.counts, g.refs
	a.TotalPackets, a.Elements = 0, g.elems
	for _, c := range g.counts {
		a.TotalPackets += c
	}
	for f := range a.cols {
		a.cols[f].once = sync.Once{}
	}
	return a
}

// AggregateSummaries is a convenience that aggregates a slice of
// summaries in one call, into storage of its own.
func AggregateSummaries(ss []*summary.Summary) (*Aggregate, error) {
	rows := 0
	for _, s := range ss {
		rows += len(s.Counts)
	}
	g := &Aggregator{
		slab:   make([]float64, 0, rows*packet.NumFields),
		counts: make([]int, 0, rows),
		refs:   make([]CentroidRef, 0, rows),
	}
	for _, s := range ss {
		if err := g.Add(s); err != nil {
			return nil, err
		}
	}
	return g.Build(), nil
}
