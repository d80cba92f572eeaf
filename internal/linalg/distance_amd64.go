package linalg

func init() {
	if hasAVX2() {
		columnDistances = avx2ColumnDistances
	}
}

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

// avx2ColumnDistances is columnDistances with the lanes in groups of
// four measured by columnDistancesAVX2; the last len(out)%4 lanes go
// through goColumnDistances.
func avx2ColumnDistances(a, xt []float64, stride int, out []float64) {
	m := len(out) &^ 3
	if len(a) == 0 {
		m = 0
	}
	if m > 0 {
		// The kernel reads xt[j*stride+i] for j < len(a), i < m without
		// bounds checks; these two are its extremes.
		_, _ = xt[m-1], xt[(len(a)-1)*stride+m-1]
		columnDistancesAVX2(a, xt, stride, out[:m])
	}
	if m < len(out) {
		goColumnDistances(a, xt[m:], stride, out[m:])
	}
}

// columnDistancesAVX2 sets out[i] to the squared distance from a to
// column i of xt for len(out) a multiple of four and len(a) ≥ 1. Each
// 64-bit lane adds its column's terms in index order onto +0 with a
// separate subtract, multiply and add (never a fused multiply-add), which
// is goColumnDistances's arithmetic, operation for operation.
//
//go:noescape
func columnDistancesAVX2(a, xt []float64, stride int, out []float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
