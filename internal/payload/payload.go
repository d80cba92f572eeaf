// Package payload implements the paper's §10 payload extension: "one
// approach to detect the presence and/or count of certain keywords
// (e.g., a specific malicious website, or the term '.exe' ...) is to
// construct a term frequency matrix using a batch of packets ... This
// matrix can then be treated the same way as the headers-only batch."
//
// A Vocabulary fixes the keyword dimensions; each packet payload becomes
// a term-frequency vector; batches of vectors form a matrix that goes
// through the same truncated-SVD + k-means++ summarization as header
// batches, and keyword rules are matched against the centroids exactly
// like question vectors.
package payload

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/linalg"
)

// Vocabulary is the ordered list of monitored keywords. Its length is
// the p of the term-frequency matrix.
type Vocabulary struct {
	terms []string
	index map[string]int
}

// NewVocabulary builds a vocabulary from keywords; duplicates collapse.
func NewVocabulary(terms []string) (*Vocabulary, error) {
	if len(terms) == 0 {
		return nil, fmt.Errorf("payload: empty vocabulary")
	}
	v := &Vocabulary{index: make(map[string]int)}
	for _, t := range terms {
		t = strings.ToLower(strings.TrimSpace(t))
		if t == "" {
			return nil, fmt.Errorf("payload: empty term")
		}
		if _, dup := v.index[t]; dup {
			continue
		}
		v.index[t] = len(v.terms)
		v.terms = append(v.terms, t)
	}
	return v, nil
}

// DefaultVocabulary monitors the indicators the paper's discussion
// names plus common exfiltration/dropper markers.
func DefaultVocabulary() *Vocabulary {
	v, err := NewVocabulary([]string{
		".exe", ".dll", ".scr", "cmd.exe", "powershell", "/bin/sh",
		"wget ", "curl ", "base64", "eval(", "union select", "<script",
		"../..", "passwd", "authorization:", "x-forwarded-for",
	})
	if err != nil {
		panic(err) // fixed list cannot fail
	}
	return v
}

// Size returns the number of vocabulary dimensions.
func (v *Vocabulary) Size() int { return len(v.terms) }

// Terms returns the ordered terms (shared storage; do not mutate).
func (v *Vocabulary) Terms() []string { return v.terms }

// Index returns the dimension of a term.
func (v *Vocabulary) Index(term string) (int, bool) {
	i, ok := v.index[strings.ToLower(term)]
	return i, ok
}

// Vectorize converts one payload into its term-frequency vector,
// normalized to [0, 1] per term by a cap of maxCount occurrences (the
// analogue of §4.1's max-value normalization). A nil dst allocates.
func (v *Vocabulary) Vectorize(data []byte, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, v.Size())
	}
	dst = dst[:v.Size()]
	for i := range dst {
		dst[i] = 0
	}
	if len(data) == 0 {
		return dst
	}
	const maxCount = 8
	lower := strings.ToLower(string(data))
	for i, t := range v.terms {
		c := strings.Count(lower, t)
		if c > maxCount {
			c = maxCount
		}
		dst[i] = float64(c) / maxCount
	}
	return dst
}

// BuildMatrix assembles the n×p term-frequency matrix for a batch of
// payloads.
func (v *Vocabulary) BuildMatrix(payloads [][]byte) *linalg.Matrix {
	m := linalg.NewMatrix(len(payloads), v.Size())
	for i, p := range payloads {
		v.Vectorize(p, m.Row(i))
	}
	return m
}

// Summary is a payload-batch summary: centroid term profiles plus
// membership counts, the payload analogue of a header summary.
type Summary struct {
	Vocabulary *Vocabulary
	Centroids  *linalg.Matrix
	Counts     []int
}

// Summarize reduces a payload batch exactly like a header batch:
// truncated SVD to rank r, then k-means++ into k centroids.
func Summarize(v *Vocabulary, payloads [][]byte, r, k int, rng *rand.Rand) (*Summary, error) {
	if len(payloads) == 0 {
		return nil, fmt.Errorf("payload: empty batch")
	}
	if r < 1 || r > v.Size() {
		return nil, fmt.Errorf("payload: rank %d outside [1,%d]", r, v.Size())
	}
	x := v.BuildMatrix(payloads)
	d, err := linalg.ComputeSVD(x)
	if err != nil {
		return nil, err
	}
	rec, err := d.Reconstruct(r)
	if err != nil {
		return nil, err
	}
	res, err := linalg.KMeans(rec, k, rng)
	if err != nil {
		return nil, err
	}
	return &Summary{Vocabulary: v, Centroids: res.Centroids, Counts: res.Counts}, nil
}

// KeywordRule matches summaries whose centroids show a keyword at or
// above a frequency, backed by at least MinPackets packets.
type KeywordRule struct {
	Term string
	// MinFrequency is the normalized per-packet frequency threshold.
	MinFrequency float64
	// MinPackets is the τ_c analogue.
	MinPackets int
}

// Match evaluates the rule against a summary, returning the estimated
// number of packets carrying the keyword and whether the rule fired.
func (r KeywordRule) Match(s *Summary) (int, bool, error) {
	idx, ok := s.Vocabulary.Index(r.Term)
	if !ok {
		return 0, false, fmt.Errorf("payload: term %q not in vocabulary", r.Term)
	}
	count := 0
	for i := 0; i < s.Centroids.Rows(); i++ {
		if s.Centroids.At(i, idx) >= r.MinFrequency {
			count += s.Counts[i]
		}
	}
	return count, count >= r.MinPackets, nil
}
