// Package inference implements Jaal's centralized analysis and inference
// module (§5): aggregation of per-monitor summaries into a global view,
// the similarity estimator of Algorithm 1, the variance postprocessor of
// Algorithm 2, and the two-threshold feedback loop of §5.3.
package inference

import (
	"fmt"
	"sort"
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
}

// column returns field f's sorted view, building it on the first call of
// the epoch with one radix sort. The question index, which asks for its
// fields in parallel, and every question's row window read the same
// slices, from any number of goroutines.
func (a *Aggregate) column(f packet.FieldIndex) *sortedColumn {
	c := &a.cols[f]
	c.once.Do(func() {
		n := a.Rows()
		if n == 0 {
			return
		}
		data, stride := a.Representatives.Data(), a.Representatives.Cols()
		keys, idx := make([]uint64, 2*n), make([]int32, 2*n)
		for r := range n {
			keys[r], idx[r] = radix.Key(data[r*stride+int(f)]), int32(r)
		}
		c.rows = radix.Sort(keys[:n], keys[n:], idx[:n], idx[n:])
		c.vals, c.rank = make([]float64, n), make([]int32, n)
		for i, r := range c.rows {
			c.vals[i], c.rank[r] = data[int(r)*stride+int(f)], int32(i)
		}
	})
	return c
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
		// False for NaN, which the column puts first.
		lo := sort.Search(len(c.vals), func(j int) bool { return p.V-c.vals[j] <= b })
		end := len(c.vals)
		if i > 0 {
			last := lo + len(best) - 1
			if last < end && !(c.vals[last]-p.V > b) {
				continue
			}
			end = min(last, end)
		}
		hi := lo + sort.Search(end-lo, func(j int) bool { return c.vals[lo+j]-p.V > b })
		best = c.rows[lo:hi]
	}
	return best
}

// Rows returns the number of representative packets in the aggregate.
func (a *Aggregate) Rows() int {
	if a.Representatives == nil {
		return 0
	}
	return a.Representatives.Rows()
}

// Aggregator accumulates summaries for one round into one row-major slab
// of representatives.
type Aggregator struct {
	slab   []float64
	counts []int
	refs   []CentroidRef
	elems  int
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
// an Aggregate with zero rows.
func (g *Aggregator) Build() (*Aggregate, error) {
	reps, err := linalg.NewMatrixFromData(len(g.counts), packet.NumFields, g.slab)
	if err != nil {
		return nil, err
	}
	agg := &Aggregate{Representatives: reps, Counts: g.counts, Refs: g.refs, Elements: g.elems}
	for _, c := range g.counts {
		agg.TotalPackets += c
	}
	return agg, nil
}

// AggregateSummaries is a convenience that aggregates a slice of
// summaries in one call.
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
	return g.Build()
}
