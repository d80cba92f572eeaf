package sketch

import (
	"fmt"
	"slices"
)

// Config sizes and arms the ingest sketch pass. The zero value is
// disabled; DefaultConfig returns the armed operating point.
type Config struct {
	// Enabled puts the sketch pass on the ingest path. Off means the
	// monitor behaves byte-identically to a sketchless build.
	Enabled bool
	// Epsilon/Delta size the count-min sketches (width ⌈e/ε⌉, depth
	// ⌈ln 1/δ⌉). Zero selects the defaults (ε=0.005, δ=0.01: 544×5,
	// ~21 KB per dimension).
	Epsilon float64
	Delta   float64
	// ShedWatermark is the per-epoch admitted-packet budget: once this
	// many packets have been admitted to the batch slab in the current
	// epoch, further mice packets are shed/subsampled. 0 means never
	// shed (sketch + digest only).
	ShedWatermark int
	// HeavyDivisor classifies a packet as heavy-hitter traffic when the
	// count-min estimate of its destination or source reaches
	// offered/HeavyDivisor. Heavy packets are exempt from the mice
	// watermark (shed only past the hard ceiling). Default 50 (≥ 2 % of
	// epoch traffic).
	HeavyDivisor int
	// HardLimitFactor sets the epoch's hard admission ceiling at
	// HardLimitFactor × ShedWatermark kept packets. Past the ceiling
	// everything is shed, heavy or not: backbone mixes are Zipf enough
	// that heavy traffic alone can swamp the slab, and a bounded slab is
	// the whole point of the watermark. Default 2; set it large to make
	// heavy traffic effectively exempt at any load.
	HardLimitFactor int
	// MiceKeep subsamples mice flows above the watermark: 1 in MiceKeep
	// mice packets is still admitted so background structure survives
	// in the summaries. 0 sheds all mice above the watermark. Default 8.
	MiceKeep int
	// TopK is the number of heavy hitters tracked per dimension for the
	// digest. Default 8, max 255.
	TopK int
	// MinTotal is the observed-packet floor before heavy classification
	// activates; below it every packet is mice for shedding purposes
	// (but the watermark is rarely hit that early). Default 256.
	MinTotal int
}

// DefaultConfig returns the armed default operating point with the
// given watermark.
func DefaultConfig(watermark int) Config {
	return Config{Enabled: true, ShedWatermark: watermark}
}

func (c Config) withDefaults() Config {
	if c.Epsilon == 0 {
		c.Epsilon = 0.005
	}
	if c.Delta == 0 {
		c.Delta = 0.01
	}
	if c.HeavyDivisor == 0 {
		c.HeavyDivisor = 50
	}
	if c.HardLimitFactor == 0 {
		c.HardLimitFactor = 2
	}
	if c.MiceKeep == 0 {
		c.MiceKeep = 8
	}
	if c.TopK == 0 {
		c.TopK = 8
	}
	if c.TopK > digestMaxHitters {
		c.TopK = digestMaxHitters
	}
	if c.MinTotal == 0 {
		c.MinTotal = 256
	}
	return c
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
	cfg   Config
	dst   *CountMin
	src   *CountMin
	flows *HLL

	offered  uint64
	shed     uint64
	kept     uint64
	miceTick uint64
	// threshold is offered/HeavyDivisor, kept by counting: heavyTick is
	// the packets since it last rose.
	threshold, heavyTick uint64

	topDst topK
	topSrc topK
}

// NewIngest builds the sketch pass. Returns nil (and no error) when the
// config is disabled.
func NewIngest(cfg Config) (*Ingest, error) {
	if !cfg.Enabled {
		return nil, nil
	}
	cfg = cfg.withDefaults()
	if cfg.ShedWatermark < 0 {
		return nil, fmt.Errorf("sketch: negative shed watermark %d", cfg.ShedWatermark)
	}
	dst, err := NewCountMin(cfg.Epsilon, cfg.Delta)
	if err != nil {
		return nil, err
	}
	src, err := NewCountMin(cfg.Epsilon, cfg.Delta)
	if err != nil {
		return nil, err
	}
	return &Ingest{
		cfg: cfg, dst: dst, src: src, flows: NewHLL(),
		topDst: newTopK(cfg.TopK), topSrc: newTopK(cfg.TopK),
	}, nil
}

// Observe sketches one offered packet and reports whether the monitor
// should admit it to the batch slab. Below the watermark everything is
// admitted; between the watermark and the hard ceiling
// (HardLimitFactor × watermark) only heavy-hitter traffic (destination
// or source estimate ≥ offered/HeavyDivisor) and a deterministic
// 1-in-MiceKeep mice subsample survive; past the ceiling everything is
// shed, so the slab's epoch volume is bounded at any offered load.
func (g *Ingest) Observe(srcIP, dstIP uint32, flowHash uint64) bool {
	g.offered++
	if g.heavyTick++; g.heavyTick == uint64(g.cfg.HeavyDivisor) {
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
	if g.cfg.ShedWatermark > 0 && g.kept >= uint64(g.cfg.ShedWatermark) {
		if g.kept >= uint64(g.cfg.HardLimitFactor)*uint64(g.cfg.ShedWatermark) {
			keep = false
		} else {
			heavy := g.offered >= uint64(g.cfg.MinTotal) && threshold > 0 &&
				(estDst >= threshold || estSrc >= threshold)
			if !heavy {
				g.miceTick++
				keep = g.cfg.MiceKeep > 0 && g.miceTick%uint64(g.cfg.MiceKeep) == 0
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
