package sketch

import (
	"fmt"
	"slices"
)

// Config arms the ingest sketch pass. The zero value is disabled;
// DefaultConfig returns the armed operating point.
type Config struct {
	// Enabled puts the sketch pass on the ingest path. Off means the
	// monitor behaves byte-identically to a sketchless build.
	Enabled bool
	// ShedWatermark is the per-epoch admitted-packet budget: once this
	// many packets have been admitted to the batch slab in the current
	// epoch, further mice packets are shed/subsampled. 0 means never
	// shed (sketch + digest only).
	ShedWatermark int
}

// The sketch pass runs at one sizing everywhere.
const (
	// epsilon/delta size the count-min sketches (width ⌈e/ε⌉, depth
	// ⌈ln 1/δ⌉): 544×5, ~21 KB per dimension.
	epsilon = 0.005
	delta   = 0.01
	// heavyDivisor classifies a packet as heavy-hitter traffic when the
	// count-min estimate of its destination or source reaches
	// offered/heavyDivisor (≥ 2 % of epoch traffic). Heavy packets are
	// exempt from the mice watermark (shed only past the hard ceiling).
	heavyDivisor = 50
	// hardLimitFactor sets the epoch's hard admission ceiling at
	// hardLimitFactor × ShedWatermark kept packets. Past the ceiling
	// everything is shed, heavy or not: backbone mixes are Zipf enough
	// that heavy traffic alone can swamp the slab, and a bounded slab is
	// the whole point of the watermark.
	hardLimitFactor = 2
	// miceKeep subsamples mice flows above the watermark: 1 in miceKeep
	// mice packets is still admitted so background structure survives
	// in the summaries.
	miceKeep = 8
	// topKSize is the number of heavy hitters tracked per dimension for
	// the digest (at most digestMaxHitters).
	topKSize = 8
	// minTotal is the observed-packet floor before heavy classification
	// activates; below it every packet is mice for shedding purposes
	// (but the watermark is rarely hit that early).
	minTotal = 256
)

// DefaultConfig returns the armed default operating point with the
// given watermark.
func DefaultConfig(watermark int) Config {
	return Config{Enabled: true, ShedWatermark: watermark}
}

// topK tracks the heaviest keys seen so far with bounded memory: a
// fixed-capacity unordered list updated in place, O(K) per touch and
// zero allocations after construction.
type topK struct {
	entries []HeavyHitter // len = used, cap = K
}

// listGuard is the slack, in entries, allocated behind a list: two
// cache lines. touch walks a list front to back per heavy packet and the
// hardware prefetches past the walk's end; without slack that is the
// next same-sized array — in a process with several monitors the next
// monitor's list, which its own thread writes per packet, so the two
// cores trade the line (+27 ns/pkt there, +8 here; one line halves it).
const listGuard = 8

func newTopK(k int) topK { return topK{entries: make([]HeavyHitter, 0, k+listGuard)[:0:k]} }

// touch records the current estimate for key, inserting or displacing
// the lightest entry when the list is full.
func (t *topK) touch(key uint32, est uint64) {
	minIdx := -1
	var minCount uint64 = ^uint64(0)
	for i := range t.entries {
		e := &t.entries[i]
		if e.Key == key {
			if est > e.Count {
				e.Count = est
			}
			return
		}
		if e.Count < minCount {
			minCount = e.Count
			minIdx = i
		}
	}
	if len(t.entries) < cap(t.entries) {
		t.entries = append(t.entries, HeavyHitter{Key: key, Count: est})
		return
	}
	if minIdx >= 0 && est > minCount {
		t.entries[minIdx] = HeavyHitter{Key: key, Count: est}
	}
}

func (t *topK) reset() { t.entries = t.entries[:0] }

// sorted returns a fresh copy in digest order (HeavyHitter.compare).
func (t *topK) sorted() []HeavyHitter {
	out := slices.Clone(t.entries)
	slices.SortFunc(out, HeavyHitter.compare)
	return out
}

// Ingest is the per-monitor sketch pass: it observes every offered
// packet, maintains the epoch sketches, and decides keep/shed under the
// watermark. Not safe for concurrent use; the monitor calls it under
// its ingest lock. Observe is zero-alloc.
type Ingest struct {
	// watermark is Config.ShedWatermark.
	watermark uint64
	dst       *CountMin
	src       *CountMin
	flows     *HLL

	offered  uint64
	shed     uint64
	kept     uint64
	miceTick uint64
	// threshold is offered/heavyDivisor, kept by counting: heavyTick is
	// the packets since it last rose.
	threshold, heavyTick uint64

	topDst topK
	topSrc topK
}

// NewIngest builds the sketch pass. Returns nil (and no error) when the
// config is disabled; a negative watermark is an error either way.
func NewIngest(cfg Config) (*Ingest, error) {
	if cfg.ShedWatermark < 0 {
		return nil, fmt.Errorf("sketch: negative shed watermark %d", cfg.ShedWatermark)
	}
	if !cfg.Enabled {
		return nil, nil
	}
	dst, err := NewCountMin(epsilon, delta)
	if err != nil {
		return nil, err
	}
	src, err := NewCountMin(epsilon, delta)
	if err != nil {
		return nil, err
	}
	return &Ingest{
		watermark: uint64(cfg.ShedWatermark), dst: dst, src: src, flows: NewHLL(),
		topDst: newTopK(topKSize), topSrc: newTopK(topKSize),
	}, nil
}

// Observe sketches one offered packet and reports whether the monitor
// should admit it to the batch slab. Below the watermark everything is
// admitted; between the watermark and the hard ceiling
// (hardLimitFactor × watermark) only heavy-hitter traffic (destination
// or source estimate ≥ offered/heavyDivisor) and a deterministic
// 1-in-miceKeep mice subsample survive; past the ceiling everything is
// shed, so the slab's epoch volume is bounded at any offered load.
func (g *Ingest) Observe(srcIP, dstIP uint32, flowHash uint64) bool {
	g.offered++
	if g.heavyTick++; g.heavyTick == heavyDivisor {
		g.heavyTick = 0
		g.threshold++
	}
	estDst := g.dst.Add(uint64(dstIP), 1)
	estSrc := g.src.Add(uint64(srcIP), 1)
	g.flows.Add(flowHash)

	threshold := g.threshold
	if threshold > 0 {
		if estDst >= threshold {
			g.topDst.touch(dstIP, estDst)
		}
		if estSrc >= threshold {
			g.topSrc.touch(srcIP, estSrc)
		}
	}

	keep := true
	if g.watermark > 0 && g.kept >= g.watermark {
		if g.kept >= hardLimitFactor*g.watermark {
			keep = false
		} else {
			heavy := g.offered >= minTotal && threshold > 0 &&
				(estDst >= threshold || estSrc >= threshold)
			if !heavy {
				g.miceTick++
				keep = g.miceTick%miceKeep == 0
			}
		}
	}
	if keep {
		g.kept++
	} else {
		g.shed++
	}
	return keep
}

// Digest snapshots the epoch's sketch state into a wire-ready digest.
// Called once per epoch at summary-collection time; the copies it makes
// are off the per-packet path.
func (g *Ingest) Digest(monitorID int, epoch uint64) *Digest {
	flows := NewHLL()
	flows.Merge(g.flows)
	return &Digest{
		MonitorID: monitorID,
		Epoch:     epoch,
		Offered:   g.offered,
		Shed:      g.shed,
		Kept:      g.kept,
		Flows:     flows,
		TopDst:    g.topDst.sorted(),
		TopSrc:    g.topSrc.sorted(),
	}
}

// Reset clears all epoch state (sketches, counters, heavy-hitter lists)
// for the next epoch without reallocating.
func (g *Ingest) Reset() {
	g.dst.Reset()
	g.src.Reset()
	g.flows.Reset()
	g.offered, g.shed, g.kept, g.miceTick = 0, 0, 0, 0
	g.threshold, g.heavyTick = 0, 0
	g.topDst.reset()
	g.topSrc.reset()
}
