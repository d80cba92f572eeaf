package sketch

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// refCountMin is the count-min sketch as it was before the one-walk
// pass: Add and Estimate each walk the rows, every row hash folds all
// eight key bytes, and the bucket is a hardware %. The production
// sketch must agree with it on every counter and every estimate.
type refCountMin struct {
	width, depth int
	counts       []uint64
	total        uint64
}

func newRefCountMin(width, depth int) *refCountMin {
	return &refCountMin{width: width, depth: depth, counts: make([]uint64, width*depth)}
}

func (c *refCountMin) hash(row int, key uint64) int {
	h := uint64(fnvOffset64)
	for _, v := range [2]uint64{uint64(row), key} {
		for shift := 56; shift >= 0; shift -= 8 {
			h ^= (v >> uint(shift)) & 0xff
			h *= fnvPrime64
		}
	}
	return int(h % uint64(c.width))
}

func (c *refCountMin) Add(key, delta uint64) {
	for row := 0; row < c.depth; row++ {
		c.counts[row*c.width+c.hash(row, key)] += delta
	}
	c.total += delta
}

func (c *refCountMin) Estimate(key uint64) uint64 {
	min := uint64(math.MaxUint64)
	for row := 0; row < c.depth; row++ {
		if v := c.counts[row*c.width+c.hash(row, key)]; v < min {
			min = v
		}
	}
	return min
}

func (c *refCountMin) Reset() {
	clear(c.counts)
	c.total = 0
}

// sameCounters fails unless the production sketch holds exactly the
// reference's state.
func sameCounters(t *testing.T, what string, got *CountMin, want *refCountMin) {
	t.Helper()
	if got.total != want.total {
		t.Fatalf("%s: total = %d, reference %d", what, got.total, want.total)
	}
	for i, v := range want.counts {
		if got.counts[i] != v {
			t.Fatalf("%s: counter [%d][%d] = %d, reference %d", what, i/want.width, i%want.width, got.counts[i], v)
		}
	}
}

// refIngest is Observe as it was: Add, Add, then a second walk per
// sketch for the estimates, and the heavy threshold by division. The
// HLL, the top-K lists and the digest are the production ones (this PR
// does not touch them).
type refIngest struct {
	watermark                     uint64
	dst, src                      *refCountMin
	flows                         *HLL
	offered, shed, kept, miceTick uint64
	topDst, topSrc                topK
}

func newRefIngest(cfg Config, like *Ingest) *refIngest {
	return &refIngest{
		watermark: uint64(cfg.ShedWatermark),
		dst:       newRefCountMin(like.dst.width, like.dst.Depth()),
		src:       newRefCountMin(like.src.width, like.src.Depth()),
		flows:     NewHLL(),
		topDst:    newTopK(topKSize), topSrc: newTopK(topKSize),
	}
}

func (g *refIngest) Observe(srcIP, dstIP uint32, flowHash uint64) bool {
	g.offered++
	g.dst.Add(uint64(dstIP), 1)
	g.src.Add(uint64(srcIP), 1)
	g.flows.Add(flowHash)

	estDst := g.dst.Estimate(uint64(dstIP))
	estSrc := g.src.Estimate(uint64(srcIP))
	threshold := g.offered / heavyDivisor
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

func (g *refIngest) Digest(monitorID int, epoch uint64) *Digest {
	return &Digest{
		MonitorID: monitorID, Epoch: epoch,
		Offered: g.offered, Shed: g.shed, Kept: g.kept,
		Flows:  g.flows,
		TopDst: g.topDst.sorted(), TopSrc: g.topSrc.sorted(),
	}
}

func (g *refIngest) Reset() {
	g.dst.Reset()
	g.src.Reset()
	g.flows.Reset()
	g.offered, g.shed, g.kept, g.miceTick = 0, 0, 0, 0
	g.topDst.reset()
	g.topSrc.reset()
}

// packetStream yields (src, dst, flow) triples.
type packetStream func(i int) (src, dst uint32, flow uint64)

// testStreams are the three traffic shapes the oracle runs: uniform
// addresses, a Zipf destination mix (the backbone's), and the overload
// workload's shape — a fifth of the packets to one victim from spoofed
// random sources over a Zipf background.
func testStreams(seed int64) map[string]packetStream {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, 1<<20)
	const victim = 0x0A00002A
	return map[string]packetStream{
		"uniform": func(int) (uint32, uint32, uint64) {
			return rng.Uint32(), rng.Uint32(), rng.Uint64()
		},
		"zipf": func(int) (uint32, uint32, uint64) {
			return 0xC0A80000 + uint32(zipf.Uint64()), 0x0A000000 + uint32(zipf.Uint64()), zipf.Uint64()
		},
		"overload": func(i int) (uint32, uint32, uint64) {
			if i%5 == 0 {
				return rng.Uint32(), victim, rng.Uint64()
			}
			return 0xC0A80000 + uint32(zipf.Uint64()), 0x0A000000 + uint32(zipf.Uint64()), zipf.Uint64()
		},
	}
}

// TestCountMinMatchesOracle drives the production sketch and the
// reference with the same keys — IPv4-sized ones that take the four-byte
// fold and wider ones that take the eight-byte fold — and demands the
// same returned estimate after every Add and the same counters at the
// end of each epoch.
func TestCountMinMatchesOracle(t *testing.T) {
	widths := []int{1, 2, 3, 7, 544, 545, 65537, 1 << 20}
	depths := []int{1, 5, 300}
	for _, width := range widths {
		for _, depth := range depths {
			if width*depth > 1<<23 {
				continue // 300 rows of the two widest tables: gigabytes
			}
			t.Run(fmt.Sprintf("%dx%d", width, depth), func(t *testing.T) {
				cm := newCountMinDims(width, depth)
				ref := newRefCountMin(width, depth)
				rng := rand.New(rand.NewSource(int64(width)*1000 + int64(depth)))
				zipf := rand.NewZipf(rng, 1.2, 1, 1<<20)
				adds := 20000
				if depth > 5 {
					adds = 2000
				}
				for epoch := 0; epoch < 2; epoch++ {
					for i := 0; i < adds; i++ {
						var key uint64
						switch i % 4 {
						case 0:
							key = uint64(rng.Uint32())
						case 1:
							key = zipf.Uint64()
						case 2:
							key = rng.Uint64() | 1<<32 // never below 2³²
						case 3:
							key = 1<<32 + zipf.Uint64()<<24
						}
						delta := uint64(1 + i%3)
						got := cm.Add(key, delta)
						ref.Add(key, delta)
						want := ref.Estimate(key)
						if got != want {
							t.Fatalf("epoch %d add %d key %#x: Add returned %d, reference estimate %d", epoch, i, key, got, want)
						}
						if got := cm.Estimate(key); got != want {
							t.Fatalf("epoch %d add %d key %#x: Estimate = %d, reference %d", epoch, i, key, got, want)
						}
					}
					sameCounters(t, fmt.Sprintf("epoch %d", epoch), cm, ref)
					cm.Reset()
					ref.Reset()
					sameCounters(t, "after Reset", cm, ref)
				}
			})
		}
	}
}

// TestModMatchesRemainder pins the multiply-based remainder against %
// at the edges of the 64-bit range and a million random hashes per
// width, table-sized widths and widths no table could have.
func TestModMatchesRemainder(t *testing.T) {
	for _, width := range []int{1, 2, 3, 7, 544, 545, 1000, 65537, 1 << 20, 1<<32 - 1, 1<<32 + 1, 1 << 62, math.MaxInt64} {
		w := uint64(width)
		cm := &CountMin{width: width, recip: math.MaxUint64 / w}
		if width <= 1<<20 {
			cm = newCountMinDims(width, 1)
		}
		check := func(h uint64) {
			if got := cm.mod(h); got != h%w {
				t.Fatalf("width %d: mod(%#x) = %d, %% gives %d", width, h, got, h%w)
			}
		}
		for _, h := range []uint64{0, 1, w - 1, w, w + 1, 1<<32 - 1, 1 << 32, 1<<32 + 1, 1 << 63, 1<<63 - 1, math.MaxUint64 - 1, math.MaxUint64} {
			check(h)
		}
		// Multiples of the width and their neighbours are where an
		// inexact reciprocal would round the wrong way.
		for _, q := range []uint64{1, 1 << 31, math.MaxUint64 / w} {
			check(q * w)
			check(q*w - 1)
			check(q*w + (w - 1))
		}
		rng := rand.New(rand.NewSource(int64(width)))
		for i := 0; i < 1_000_000; i++ {
			check(rng.Uint64())
		}
	}
}

// TestIngestMatchesOracle runs the whole pass against the two-walk
// reference: every keep/shed verdict, the accounting, both count-min
// tables and the digest bytes, over two epochs. Watermark 625 against
// 150 000 offered packets crosses all three admission bands.
func TestIngestMatchesOracle(t *testing.T) {
	const perEpoch = 150000
	for _, name := range []string{"uniform", "zipf", "overload"} {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig(625)
			g, err := NewIngest(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefIngest(cfg, g)
			next := testStreams(17)[name]
			for epoch := uint64(0); epoch < 2; epoch++ {
				bands := [3]bool{}
				for i := 0; i < perEpoch; i++ {
					switch {
					case g.kept < 625:
						bands[0] = true
					case g.kept < 1250:
						bands[1] = true
					default:
						bands[2] = true
					}
					src, dst, flow := next(i)
					got, want := g.Observe(src, dst, flow), ref.Observe(src, dst, flow)
					if got != want {
						t.Fatalf("epoch %d packet %d (%#x→%#x): keep = %v, reference %v", epoch, i, src, dst, got, want)
					}
				}
				if bands != [3]bool{true, true, true} {
					t.Fatalf("epoch %d visited bands %v, want all three", epoch, bands)
				}
				if g.offered != ref.offered || g.shed != ref.shed || g.kept != ref.kept {
					t.Fatalf("epoch %d accounting %d/%d/%d, reference %d/%d/%d", epoch,
						g.offered, g.shed, g.kept, ref.offered, ref.shed, ref.kept)
				}
				sameCounters(t, "dst", g.dst, ref.dst)
				sameCounters(t, "src", g.src, ref.src)
				got := g.Digest(1, epoch).AppendWire(nil)
				want := ref.Digest(1, epoch).AppendWire(nil)
				if !bytes.Equal(got, want) {
					t.Fatalf("epoch %d digest bytes differ from the reference's", epoch)
				}
				g.Reset()
				ref.Reset()
			}
		})
	}
}

// TestHeavyThresholdMatchesDivision pins the counted heavy threshold
// against offered/heavyDivisor after every packet, across a Reset.
func TestHeavyThresholdMatchesDivision(t *testing.T) {
	g, err := NewIngest(DefaultConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 2; epoch++ {
		for i := 0; i < 3*heavyDivisor+7; i++ {
			g.Observe(uint32(i), 1, uint64(i))
			if want := g.offered / heavyDivisor; g.threshold != want {
				t.Fatalf("packet %d: threshold = %d, offered/divisor = %d", i, g.threshold, want)
			}
		}
		g.Reset()
		if g.threshold != 0 {
			t.Fatalf("Reset left threshold %d", g.threshold)
		}
	}
}

// overloadStep returns the step that feeds g packet i of seed's overload
// stream (1<<16 packets, repeated), resetting g every 150 000 packets the
// way an epoch close does.
func overloadStep(g *Ingest, seed int64) func(i int) {
	const n = 1 << 16
	next := testStreams(seed)["overload"]
	src, dst, flow := make([]uint32, n), make([]uint32, n), make([]uint64, n)
	for i := range src {
		src[i], dst[i], flow[i] = next(i)
	}
	return func(i int) {
		if i%150000 == 0 {
			g.Reset()
		}
		g.Observe(src[i%n], dst[i%n], flow[i%n])
	}
}

// observeOp is the pass on overload-shaped traffic with the deployment
// benchmark's watermark: almost every packet is past the hard ceiling,
// so this is the two count-min walks, the HLL update and the verdict.
func observeOp(tb testing.TB) func(i int) {
	g, err := NewIngest(DefaultConfig(625))
	if err != nil {
		tb.Fatal(err)
	}
	return overloadStep(g, 1)
}

// twoMonitorsOp is observeOp for two passes in one process, each behind
// its own lock, the way two in-process monitors hold them. The passes are
// built back to back, so the allocator puts their small arrays side by
// side; the structs are kept apart by a run of pointer-carrying objects,
// as the deployment benchmark keeps them. It returns the step monitor m
// takes for packet i.
func twoMonitorsOp(tb testing.TB) func(m, i int) {
	var (
		gs    [2]*Ingest
		steps [2]func(int)
		mus   [2]struct {
			sync.Mutex
			_ [120]byte
		}
		keepApart [][]*byte
	)
	for m := range gs {
		for words := 1; words <= 64; words++ {
			for i := 0; i < 16; i++ {
				keepApart = append(keepApart, make([]*byte, words))
			}
		}
		g, err := NewIngest(DefaultConfig(625))
		if err != nil {
			tb.Fatal(err)
		}
		gs[m] = g
	}
	tb.Cleanup(func() { runtime.KeepAlive(keepApart) })
	for m, g := range gs {
		steps[m] = overloadStep(g, int64(m+1))
	}
	return func(m, i int) {
		mus[m].Lock()
		steps[m](i)
		mus[m].Unlock()
	}
}

func BenchmarkObserve(b *testing.B) { benchStep(b, observeOp(b)) }

// BenchmarkObserveTwoMonitors runs twoMonitorsOp with each monitor fed by
// its own goroutine. ns/op is the slower goroutine's time per packet:
// with listGuard at 0 it reads about a third higher.
func BenchmarkObserveTwoMonitors(b *testing.B) {
	step := twoMonitorsOp(b)
	b.ResetTimer()
	var wg sync.WaitGroup
	for m := 0; m < 2; m++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				step(m, i)
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
}

func TestIngestObserveZeroAlloc(t *testing.T) {
	if n := allocsPerStep(observeOp(t)); n != 0 {
		t.Fatalf("Ingest.Observe allocates %v times per packet, want 0", n)
	}
	two := twoMonitorsOp(t)
	if n := allocsPerStep(func(i int) { two(0, i); two(1, i) }); n != 0 {
		t.Fatalf("two monitors' Ingest.Observe allocate %v times per packet pair, want 0", n)
	}
}
