package linalg

func init() {
	switch {
	case !hasAVX2():
	case hasAVX512():
		kernels = avx512Kernels
	default:
		kernels = avx2Kernels
	}
}

// avx2Kernels runs each leaf's bulk through an AVX2 kernel four lanes
// wide and the remainder (rows past a multiple of four, columns past a
// multiple of four) through the portable leaf, so every output element
// still gets the portable leaf's arithmetic.
var avx2Kernels = kernelSet{avx2SeedRound, avx2Nearest, avx2Reflect, avx2Lift}

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (CPUID leaves 1 and 7, XGETBV).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves SSE and AVX state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// avx512Kernels runs the two k-means scans eight lanes wide, in blocks
// of 64 (seedRound) and 16 (nearest) rows, and hands the rows past the
// last block to the AVX2 leaf, which goes on from the running total;
// the SVD leaves stay AVX2. Eight lanes change no rounding: a lane is
// still one row's own chain of SquaredDistance's operations.
var avx512Kernels = kernelSet{avx512SeedRound, avx512Nearest, avx2Reflect, avx2Lift}

// hasAVX512 reports whether avx512Usable holds for this CPU and OS. It
// may only be asked once hasAVX2 holds, which proves CPUID leaf 7 and
// XGETBV exist.
func hasAVX512() bool {
	_, ebx7, _, _ := cpuid(7, 0)
	xcr0, _ := xgetbv()
	return avx512Usable(ebx7, xcr0)
}

// avx512Usable reports whether the AVX-512 kernels may run, given
// CPUID.(EAX=7,ECX=0):EBX and the low half of XCR0: the CPU has
// AVX512F (all the kernels use), and the OS saves the SSE, AVX, opmask,
// ZMM_Hi256 and Hi16_ZMM state (XCR0 bits 1, 2, 5, 6 and 7). A CPU with
// AVX-512 under an OS that does not save the ZMM and opmask registers
// gets the AVX2 set.
func avx512Usable(ebx7, xcr0 uint32) bool {
	const avx512f = 1 << 16
	const state = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	return ebx7&avx512f != 0 && xcr0&state == state
}

func avx2SeedRound(seed, xt []float64, stride, c int, near []int, d2, sums []float64, total float64) float64 {
	m := len(d2) &^ 3
	if len(seed) == 0 {
		m = 0
	}
	if m > 0 {
		// The kernel touches near, sums and xt[j*stride+i] for
		// j < len(seed), i < m without bounds checks; these are the
		// extremes.
		_, _, _ = near[m-1], sums[m-1], xt[(len(seed)-1)*stride+m-1]
		total = seedRoundAVX2(seed, xt, stride, c, near, d2[:m], sums, total)
	}
	if m < len(d2) {
		total = goSeedRound(seed, xt[m:], stride, c, near[m:], d2[m:], sums[m:], total)
	}
	return total
}

func avx2Nearest(packed []float64, p int, xt []float64, stride int, assign []int, dist []float64) {
	m := len(dist) &^ 3
	groups := 0
	if p > 0 {
		groups = len(packed) / (4 * p)
	}
	if groups == 0 {
		m = 0
	}
	if m > 0 {
		_, _ = assign[m-1], xt[(p-1)*stride+m-1]
		nearestAVX2(packed[:groups*4*p], p, xt, stride, assign, dist[:m])
	}
	if m < len(dist) {
		goNearest(packed, p, xt[m:], stride, assign[m:], dist[m:])
	}
}

func avx512SeedRound(seed, xt []float64, stride, c int, near []int, d2, sums []float64, total float64) float64 {
	m := len(d2) &^ 63
	if len(seed) == 0 {
		m = 0
	}
	if m > 0 {
		_, _, _ = near[m-1], sums[m-1], xt[(len(seed)-1)*stride+m-1]
		total = seedRoundAVX512(seed, xt, stride, c, near, d2[:m], sums, total)
	}
	if m < len(d2) {
		total = avx2SeedRound(seed, xt[m:], stride, c, near[m:], d2[m:], sums[m:], total)
	}
	return total
}

func avx512Nearest(packed []float64, p int, xt []float64, stride int, assign []int, dist []float64) {
	m := len(dist) &^ 15
	groups := 0
	if p > 0 {
		groups = len(packed) / (4 * p)
	}
	if groups == 0 {
		m = 0
	}
	if m > 0 {
		_, _ = assign[m-1], xt[(p-1)*stride+m-1]
		nearestAVX512(packed[:groups*4*p], p, xt, stride, assign, dist[:m])
	}
	if m < len(dist) {
		avx2Nearest(packed, p, xt[m:], stride, assign[m:], dist[m:])
	}
}

func avx2Reflect(h []float64, ntau float64, cols []float64, stride, m int) {
	if len(h) == 0 || m == 0 {
		return
	}
	_ = cols[(m-1)*stride+len(h)-1]
	reflectAVX2(h, ntau, cols, stride, m)
}

func avx2Lift(h []float64, tau float64, rows []float64, r, m int) {
	v := m &^ 3
	if len(h) == 0 {
		v = 0
	}
	if v > 0 {
		_ = rows[(len(h)-1)*r+v-1]
		liftAVX2(h, tau, rows, r, v)
	}
	if v < m {
		goLift(h, tau, rows[v:], r, m-v)
	}
}

// seedRoundAVX2 is seedRound for len(d2) a multiple of four and
// len(seed) ≥ 1: sixteen, then four rows at a time, each lane adding
// its column's terms onto +0 in seed order, folding the sum into d2 and
// near with an ordered strict compare, then extending the running sum
// lane by lane with scalar adds.
//
//go:noescape
func seedRoundAVX2(seed, xt []float64, stride, c int, near []int, d2, sums []float64, total float64) float64

// nearestAVX2 is nearest for len(dist) a multiple of four and at least
// one group in packed: eight, then four rows at a time against four
// centres at a time, with each row's running minimum and its centre kept
// in registers across all groups.
//
//go:noescape
func nearestAVX2(packed []float64, p int, xt []float64, stride int, assign []int, dist []float64)

// seedRoundAVX512 is seedRound for len(d2) a multiple of 64 and
// len(seed) ≥ 1: sixty-four rows at a time, the running total over one
// block extended inside the next block's distance loop.
//
//go:noescape
func seedRoundAVX512(seed, xt []float64, stride, c int, near []int, d2, sums []float64, total float64) float64

// nearestAVX512 is nearest for len(dist) a multiple of 16 and at least
// one group in packed: sixteen rows at a time against four centres at a
// time, the running minimum and its centre kept in registers across all
// groups.
//
//go:noescape
func nearestAVX512(packed []float64, p int, xt []float64, stride int, assign []int, dist []float64)

// reflectAVX2 is reflect for len(h) ≥ 1 and m ≥ 1: four columns at a
// time, then one. Lane q of a column's dot accumulator holds Dot's s_q,
// so the column's dot is Dot's value; the tail past a multiple of four
// goes into s_0.
//
//go:noescape
func reflectAVX2(h []float64, ntau float64, cols []float64, stride, m int)

// liftAVX2 is lift on the first m columns, m a multiple of four and
// len(h) ≥ 1: twelve, then four columns at a time, one lane per column.
//
//go:noescape
func liftAVX2(h []float64, tau float64, rows []float64, r, m int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
