package linalg

import "testing"

// vectorLeaves lists the amd64 vector sets this CPU and OS can run:
// avx2, and avx512 on top of it.
func vectorLeaves() []leaf {
	var ls []leaf
	if hasAVX2() {
		ls = append(ls, leaf{"avx2", avx2Kernels})
		if hasAVX512() {
			ls = append(ls, leaf{"avx512", avx512Kernels})
		}
	}
	return ls
}

// TestAVX512Usable holds the AVX-512 gate to its two inputs: the CPU
// must have AVX512F, and the OS must save every register state the
// kernels touch, or the host gets the AVX2 set.
func TestAVX512Usable(t *testing.T) {
	const (
		f      = 1 << 16
		avx2   = 1 << 5
		full   = 0xe7 // x87, SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM
		avx    = 0x07 // x87, SSE, AVX
		noMask = full &^ (1 << 5)
		noHi16 = full &^ (1 << 7)
		noZMM  = full &^ (1 << 6)
		noSSE  = full &^ (1 << 1)
	)
	for _, tc := range []struct {
		name       string
		ebx7, xcr0 uint32
		wantAVX512 bool
	}{
		{"AVX512F with full OS state", f | avx2, full, true},
		{"AVX512F, extra XCR0 bits", f | avx2, full | 1<<9, true},
		{"AVX2 only", avx2, full, false},
		{"AVX-512 in CPUID, OS saves no ZMM or opmask state", f | avx2, avx, false},
		{"opmask state not saved", f | avx2, noMask, false},
		{"ZMM_Hi256 not saved", f | avx2, noZMM, false},
		{"Hi16_ZMM not saved", f | avx2, noHi16, false},
		{"SSE state not saved", f | avx2, noSSE, false},
		{"nothing", 0, 0, false},
	} {
		if got := avx512Usable(tc.ebx7, tc.xcr0); got != tc.wantAVX512 {
			t.Errorf("%s: avx512Usable(%#x, %#x) = %v, want %v", tc.name, tc.ebx7, tc.xcr0, got, tc.wantAVX512)
		}
	}
}
