// Package summary implements Jaal's in-network packet summarization (§4).
//
// A monitor buffers packet headers until it holds a batch of n packets,
// organizes them as an n×p matrix X of normalized header fields, reduces
// the fields mode with a truncated SVD (rank r), reduces the packets mode
// with k-means++ clustering (k centroids), and ships the result — the
// packet summary — to the central inference engine.
//
// Two equivalent encodings exist with different sizes (§4.3):
//
//   - a combined summary S1 clusters the rank-reduced matrix X̄_p directly
//     and carries k centroids of p fields plus a membership-count vector:
//     k·(p+1) elements;
//   - a split summary S2 clusters the left singular vectors U_r and carries
//     the k reduced centroids, Σ_r, V_r and the counts:
//     r·(k+p+1)+k elements.
//
// Summarize picks whichever is smaller for the configured (r, k, p).
package summary

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/linalg"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/trace"
)

// Summarization observability: the latency and batch-size profile of
// the SVD+k-means pipeline, the encoding split (Fig. 11's S1-vs-S2
// choice observed live), the elements shipped (the unit of §8's
// communication accounting) and the arena's reuse behaviour. All
// write-only side channels — none of these feed back into the
// computation, so same-seed runs are identical with collection on or
// off.
var (
	hSummarize = obs.NewHistogram("jaal_summarize_seconds",
		"wall time of one batch summarization (SVD + k-means)", obs.DurationBuckets())
	hBatchPackets = obs.NewHistogram("jaal_summarize_batch_packets",
		"packets per summarized batch", obs.ExpBuckets(16, 2, 12))
	cCombined = obs.NewCounter("jaal_summary_encodings_total{kind=\"combined\"}",
		"summaries produced by encoding kind")
	cSplit = obs.NewCounter("jaal_summary_encodings_total{kind=\"split\"}",
		"summaries produced by encoding kind")
	cElements = obs.NewCounter("jaal_summary_elements_total",
		"total summary elements produced (4 wire bytes each)")
	cArenaTakes = obs.NewCounter("jaal_summary_arena_takes_total",
		"summaries carved from arena slabs")
	cArenaChunks = obs.NewCounter("jaal_summary_arena_chunk_allocs_total",
		"fresh arena slab allocations (takes/chunks ≈ reuse factor)")
)

// Kind discriminates the two summary encodings.
type Kind uint8

// Summary kinds.
const (
	// KindCombined is S1: k full-width centroids plus counts.
	KindCombined Kind = 1
	// KindSplit is S2: k reduced centroids, Σ_r·V_rᵀ factors plus counts.
	KindSplit Kind = 2
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindCombined:
		return "combined"
	case KindSplit:
		return "split"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Config holds the summarization design parameters of §4.
type Config struct {
	// BatchSize is n, the number of packets per summarized batch.
	BatchSize int
	// Rank is r, the retained SVD rank (1 ≤ r ≤ p). The paper finds
	// r = 12 the best accuracy/cost tradeoff (Fig. 5, Fig. 10).
	Rank int
	// Centroids is k, the number of representative packets. The paper
	// finds k = n/5 (e.g. 200 for n = 1000) near-saturating (Fig. 4).
	Centroids int
	// MinBatch is n_min: a monitor asked for a summary with fewer than
	// MinBatch buffered packets declines, because SVD and clustering
	// degrade on tiny batches (§5.1).
	MinBatch int
	// Seed seeds the deterministic RNG used by k-means++ so summaries
	// are reproducible.
	Seed int64
}

// DefaultConfig returns the operating point the paper converges on:
// n = 1000, r = 12, k = 200, n_min = 600.
func DefaultConfig() Config {
	return Config{BatchSize: 1000, Rank: 12, Centroids: 200, MinBatch: 600, Seed: 1}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.BatchSize < 1:
		return fmt.Errorf("summary: batch size %d < 1", c.BatchSize)
	case c.Rank < 1 || c.Rank > packet.NumFields:
		return fmt.Errorf("summary: rank %d outside [1,%d]", c.Rank, packet.NumFields)
	case c.Centroids < 1:
		return fmt.Errorf("summary: centroids %d < 1", c.Centroids)
	case c.MinBatch < 0 || c.MinBatch > c.BatchSize:
		return fmt.Errorf("summary: min batch %d outside [0,%d]", c.MinBatch, c.BatchSize)
	}
	return nil
}

// CombinedSize returns the element count of an S1 summary: k(p+1).
func CombinedSize(k, p int) int { return k * (p + 1) }

// SplitSize returns the element count of an S2 summary: r(k+p+1)+k.
func SplitSize(r, k, p int) int { return r*(k+p+1) + k }

// PreferSplit reports whether the split encoding is strictly smaller for
// the given parameters, i.e. r(k+p+1)+k < k(p+1) (§4.3).
func PreferSplit(r, k, p int) bool { return SplitSize(r, k, p) < CombinedSize(k, p) }

// Summary is one monitor's packet summary for one batch.
//
// For KindCombined, Centroids is the k×p matrix X̃_p of representative
// packets in normalized field space. For KindSplit, Centroids is the k×r
// matrix Ũ_r of clustered left singular vectors, and Sigma/V carry the
// factors needed to reconstruct representatives at the controller.
type Summary struct {
	Kind Kind
	// MonitorID identifies the producing monitor.
	MonitorID int
	// Epoch is the summarization epoch this batch belongs to.
	Epoch uint64
	// BatchSize is the number of packets summarized (n).
	BatchSize int
	// Rank is the retained SVD rank (r).
	Rank int

	// Centroids is k×p (combined) or k×r (split).
	Centroids *linalg.Matrix
	// Counts[i] is the number of packets assigned to centroid i.
	Counts []int
	// Sigma holds the r retained singular values (split only).
	Sigma []float64
	// V is the p×r right-singular-vector matrix (split only).
	V *linalg.Matrix

	// Assignments maps each packet in the batch to its centroid. It is
	// monitor-local state — never transmitted — and backs the
	// centroid→raw-packets table used by the feedback loop (§7).
	Assignments []int

	// centroidStore and vStore back Centroids and V when the summarizer
	// inlines the matrix headers into the Summary itself instead of
	// allocating them separately — part of keeping a batch summarization
	// at ~zero heap allocations. Summaries built elsewhere (e.g. the
	// codec) leave them unused.
	centroidStore, vStore linalg.Matrix
}

// K returns the number of centroids in the summary.
func (s *Summary) K() int { return s.Centroids.Rows() }

// Elements returns the number of elements the summary transmits, the
// communication-cost unit used throughout §8. On the wire each element
// is a float32 (see codec.go), so bytes = 4 × Elements().
func (s *Summary) Elements() int {
	switch s.Kind {
	case KindCombined:
		return CombinedSize(s.K(), s.Centroids.Cols())
	case KindSplit:
		return SplitSize(s.Rank, s.K(), s.V.Rows())
	default:
		return 0
	}
}

// Representatives returns the k×p matrix of representative packets in
// normalized field space, reconstructing Ũ_r·Σ_r·V_rᵀ for split summaries
// (§5.1). Combined summaries return their centroids directly.
func (s *Summary) Representatives() (*linalg.Matrix, error) {
	switch s.Kind {
	case KindCombined:
		return s.Centroids, nil
	case KindSplit:
		if s.V == nil {
			return nil, errors.New("summary: split summary without V")
		}
		p := s.V.Rows()
		data, err := s.AppendRepresentatives(nil, p)
		if err != nil {
			return nil, err
		}
		return linalg.NewMatrixFromData(s.Centroids.Rows(), p, data)
	default:
		return nil, fmt.Errorf("summary: unknown kind %v", s.Kind)
	}
}

// AppendRepresentatives appends the summary's representatives to dst,
// row-major and p values to a row, and returns the extended slice: the
// centroids of a combined summary, Ũ_r·Σ_r·V_rᵀ of a split one (§5.1). A
// summary that is not p fields wide, or whose factors do not fit its
// rank, is an error and leaves dst as it was.
func (s *Summary) AppendRepresentatives(dst []float64, p int) ([]float64, error) {
	if s.Centroids == nil {
		return dst, errors.New("summary: no centroids")
	}
	k := s.Centroids.Rows()
	switch s.Kind {
	case KindCombined:
		if s.Centroids.Cols() != p {
			return dst, fmt.Errorf("summary: centroids are %d fields wide, want %d", s.Centroids.Cols(), p)
		}
		return append(dst, s.Centroids.Data()[:k*p]...), nil
	case KindSplit:
		r := s.Rank
		if s.V == nil || s.V.Rows() != p {
			return dst, fmt.Errorf("summary: V is not %d fields wide", p)
		}
		if r < 0 || s.Centroids.Cols() < r || len(s.Sigma) < r || s.V.Cols() < r {
			return dst, fmt.Errorf("summary: split factors narrower than rank %d", r)
		}
		at := len(dst)
		dst = slices.Grow(dst, k*p)[:at+k*p]
		reconstructRows(dst[at:], s.Centroids, s.Sigma, s.V, r)
		return dst, nil
	default:
		return dst, fmt.Errorf("summary: unknown kind %v", s.Kind)
	}
}

// reconstructRows writes U_r·diag(σ_r)·V_rᵀ to out, row-major: u.Rows()
// rows of v.Rows() values, from the first r columns of u and v and the
// first r singular values. Each output is Σ_t (u_it·σ_t)·v_jt over the
// non-zero u_it·σ_t in ascending t, every product rounded before it is
// added. A row's outputs are formed six at a time (reconstruct) from
// V_rᵀ regrouped six outputs to an entry; at the paper's 18 fields it
// and the u·σ terms live on the stack.
func reconstructRows(out []float64, u *linalg.Matrix, sigma []float64, v *linalg.Matrix, r int) {
	p := v.Rows()
	var vtBuf [packet.NumFields / 6 * packet.NumFields][6]float64
	var usBuf [packet.NumFields]float64
	vt6, us := vtBuf[:], usBuf[:]
	if p/6*r > len(vt6) || r > len(us) {
		vt6, us = make([][6]float64, p/6*r), make([]float64, r)
	}
	vt6, us = vt6[:p/6*r], us[:r]
	for j := 0; j < p/6*6; j++ {
		for t, x := range v.Row(j)[:r] {
			vt6[j/6*r+t][j%6] = x
		}
	}
	for i := 0; i < u.Rows(); i++ {
		ui := u.Row(i)[:r]
		for t := range us {
			us[t] = ui[t] * sigma[t]
		}
		reconstruct(out[i*p:(i+1)*p], us, vt6, v)
	}
}

// reconstruct writes one row of the reconstruction to out: out[j] is
// Σ_t us[t]·v_jt over the non-zero us[t] in ascending t, every product
// rounded before it is added. Outputs are formed six at a time, each in
// its own register, from vt6, where group g's entry t holds v_jt for
// j = 6g … 6g+5; the outputs past a multiple of six read v's rows.
func reconstruct(out, us []float64, vt6 [][6]float64, v *linalg.Matrix) {
	r := len(us)
	j := 0
	for ; j+6 <= len(out); j += 6 {
		w := vt6[j/6*r:][:r]
		var a0, a1, a2, a3, a4, a5 float64
		for t, u := range us {
			if u == 0 {
				continue
			}
			x := &w[t]
			a0 += float64(u * x[0])
			a1 += float64(u * x[1])
			a2 += float64(u * x[2])
			a3 += float64(u * x[3])
			a4 += float64(u * x[4])
			a5 += float64(u * x[5])
		}
		*(*[6]float64)(out[j:]) = [6]float64{a0, a1, a2, a3, a4, a5}
	}
	for ; j < len(out); j++ {
		vj := v.Row(j)[:r]
		var acc float64
		for t, u := range us {
			if u != 0 {
				acc += float64(u * vj[t])
			}
		}
		out[j] = acc
	}
}

// ErrBatchTooSmall is returned when a batch has fewer than MinBatch
// packets (§5.1: summaries over tiny batches hurt accuracy).
var ErrBatchTooSmall = errors.New("summary: batch smaller than configured minimum")

// Summarizer turns batches of packet headers into summaries. It is the
// per-monitor summarization process of §7: it owns a reusable RNG and
// scratch state, so one Summarizer must not be shared across goroutines.
type Summarizer struct {
	cfg Config
	rng *rand.Rand
	mem arena
	// sc holds every intermediate of a summarization (the batch matrix,
	// the SVD's working state, the k-means buffers) and is reset at the
	// start of each one. It warms up to 72 000 floats at the paper's
	// operating point and then allocates nothing; being the summarizer's
	// own, it survives the garbage collections that empty a sync.Pool.
	sc linalg.Scratch
}

// arenaBatch is how many summaries' worth of retained storage one arena
// chunk holds. Batching the slab allocations amortizes the per-summary
// heap traffic to ~3/arenaBatch allocations; a chunk is garbage once
// every summary carved from it has expired (retention is two epochs),
// so the memory overhead per monitor stays bounded by a few batches.
const arenaBatch = 8

// arena batch-allocates the retained outputs of summaries — the float
// slab (centroids, Σ, V), the int slab (counts, assignments) and the
// Summary struct itself. Unlike linalg.Scratch it is never reset:
// carved memory is owned by the summaries handed to callers, and chunks
// are simply abandoned to the garbage collector once exhausted.
type arena struct {
	floats []float64
	ints   []int
	sums   []Summary
}

// take carves one summary's retained storage: nf float64s, ni ints and
// a zeroed Summary.
func (a *arena) take(nf, ni int) ([]float64, []int, *Summary) {
	cArenaTakes.Inc()
	if len(a.floats) < nf {
		cArenaChunks.Inc()
		a.floats = make([]float64, arenaBatch*nf)
	}
	fs := a.floats[:nf:nf]
	a.floats = a.floats[nf:]
	if len(a.ints) < ni {
		a.ints = make([]int, arenaBatch*ni)
	}
	is := a.ints[:ni:ni]
	a.ints = a.ints[ni:]
	if len(a.sums) == 0 {
		a.sums = make([]Summary, arenaBatch)
	}
	s := &a.sums[0]
	a.sums = a.sums[1:]
	return fs, is, s
}

// NewSummarizer validates cfg and returns a ready Summarizer.
func NewSummarizer(cfg Config) (*Summarizer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Summarizer{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Config returns the summarizer's configuration.
func (s *Summarizer) Config() Config { return s.cfg }

// BuildMatrix assembles the normalized n×p batch matrix X̄ of §4.1 from
// headers.
func BuildMatrix(headers []packet.Header) *linalg.Matrix {
	m := linalg.NewMatrix(len(headers), packet.NumFields)
	for i := range headers {
		headers[i].NormalizedVector(m.Row(i))
	}
	return m
}

// Summarize produces the summary of one batch, picking the smaller of the
// combined and split encodings. The monitor/epoch labels are stamped into
// the result. It returns ErrBatchTooSmall when len(headers) < MinBatch.
//
// The whole computation runs on reused storage: intermediates (the batch
// matrix, SVD working state, k-means buffers) live in the summarizer's
// linalg.Scratch, and the retained outputs are carved from its arena, so
// steady-state summarization performs well under one heap allocation per
// batch (BenchmarkSummarizeBatch times it, TestSummarizeSteadyStateFootprint
// holds it). It runs on the calling goroutine alone, and summaries are
// reproducible by seed.
func (s *Summarizer) Summarize(headers []packet.Header, monitorID int, epoch uint64) (*Summary, error) {
	n := len(headers)
	if n < s.cfg.MinBatch || n == 0 {
		return nil, fmt.Errorf("%w: %d < %d", ErrBatchTooSmall, n, s.cfg.MinBatch)
	}
	// One instrumentation point feeds both the aggregate histogram and,
	// when tracing, the monitor's staged summarize span (keyed by the
	// batch sequence number so the controller's timeline can tie it to
	// the capture window and raw fetches of the same batch).
	defer trace.StartMonitorSpan(hSummarize, trace.StageSummarize, monitorID, epoch).End()
	hBatchPackets.Observe(float64(n))
	sc := &s.sc
	sc.Reset()

	p := packet.NumFields
	x := sc.Matrix(n, p)
	for i := range headers {
		headers[i].NormalizedVector(x.Row(i))
	}

	r := s.cfg.Rank
	k := s.cfg.Centroids
	if k > n {
		k = n
	}

	if PreferSplit(r, k, p) {
		// Split: cluster the rows of U_r (packets in reduced space).
		// Retained storage — the k×r centroids, Σ_r, the p×r V and the
		// counts/assignments — comes from the arena as two slabs.
		slabF, slabI, sum := s.mem.take(k*r+r+p*r, k+n)
		sigma := slabF[k*r : k*r+r]
		sum.centroidStore = linalg.WrapMatrix(k, r, slabF[:k*r])
		sum.vStore = linalg.WrapMatrix(p, r, slabF[k*r+r:])
		counts, assign := slabI[:k:k], slabI[k:]

		ur := sc.Matrix(n, r)
		if err := linalg.TruncatedSVDInto(x, r, ur, sigma, &sum.vStore, sc); err != nil {
			return nil, fmt.Errorf("summary: svd: %w", err)
		}
		if _, _, err := linalg.KMeansInto(ur, k, s.rng, linalg.KMeansConfig{}, sc, &sum.centroidStore, assign, counts); err != nil {
			return nil, fmt.Errorf("summary: kmeans: %w", err)
		}
		sum.Kind = KindSplit
		sum.MonitorID = monitorID
		sum.Epoch = epoch
		sum.BatchSize = n
		sum.Rank = r
		sum.Centroids = &sum.centroidStore
		sum.Counts = counts
		sum.Sigma = sigma
		sum.V = &sum.vStore
		sum.Assignments = assign
		cSplit.Inc()
		cElements.Add(int64(sum.Elements()))
		return sum, nil
	}

	// Combined: reconstruct X̄_p = U_r·Σ_r·V_rᵀ, then cluster it. Only
	// the k×p centroids and the counts/assignments are retained; the
	// factors and the reconstruction are scratch intermediates.
	slabF, slabI, sum := s.mem.take(k*p, k+n)
	sum.centroidStore = linalg.WrapMatrix(k, p, slabF)
	counts, assign := slabI[:k:k], slabI[k:]

	ur := sc.Matrix(n, r)
	sr := sc.Floats(r)
	vr := sc.Matrix(p, r)
	if err := linalg.TruncatedSVDInto(x, r, ur, sr, vr, sc); err != nil {
		return nil, fmt.Errorf("summary: svd: %w", err)
	}
	xp := sc.Matrix(n, p)
	reconstructRows(xp.Data(), ur, sr, vr, r)
	if _, _, err := linalg.KMeansInto(xp, k, s.rng, linalg.KMeansConfig{}, sc, &sum.centroidStore, assign, counts); err != nil {
		return nil, fmt.Errorf("summary: kmeans: %w", err)
	}
	sum.Kind = KindCombined
	sum.MonitorID = monitorID
	sum.Epoch = epoch
	sum.BatchSize = n
	sum.Rank = r
	sum.Centroids = &sum.centroidStore
	sum.Counts = counts
	sum.Assignments = assign
	cCombined.Inc()
	cElements.Add(int64(sum.Elements()))
	return sum, nil
}

// ApproximationError returns ‖X̄ − R·Bᵀ‖_F / ‖X̄‖_F: the relative error of
// representing each packet of the batch by its centroid (Eq. 4). It is a
// diagnostic used by tests and the compression experiments.
func ApproximationError(headers []packet.Header, s *Summary) (float64, error) {
	x := BuildMatrix(headers)
	reps, err := s.Representatives()
	if err != nil {
		return 0, err
	}
	if len(s.Assignments) != x.Rows() {
		return 0, fmt.Errorf("summary: %d assignments for %d packets", len(s.Assignments), x.Rows())
	}
	var num float64
	for i := 0; i < x.Rows(); i++ {
		num += linalg.SquaredDistance(x.Row(i), reps.Row(s.Assignments[i]))
	}
	den := x.FrobeniusNorm()
	if den == 0 {
		return 0, nil
	}
	return math.Sqrt(num) / den, nil
}
