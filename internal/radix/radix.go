// Package radix orders float64 values with a stable least-significant-
// digit radix sort: the one sort behind the aggregate's per-field
// columns and the question index's per-field pins.
package radix

import "math"

// Key maps v to a uint64 whose unsigned order is cmp.Compare's order on
// float64: every NaN maps to 0, below −Inf, so all NaNs tie, and −0
// ties +0. Flipping the sign bit of a non-negative value, and every bit
// of a negative one, turns IEEE-754's sign-magnitude order into
// unsigned order.
func Key(v float64) uint64 {
	switch {
	case v != v:
		return 0
	case v == 0:
		return 1 << 63
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// Sort orders idx by keys, ascending, with a stable 8-bit LSD radix
// sort: entries with equal keys keep their input order. tk and ti are
// scratch as long as keys. A pass whose byte is the same in every key is
// skipped. It returns the sorted indices, which are either idx or ti;
// keys, tk and the other index slice are left clobbered.
func Sort(keys, tk []uint64, idx, ti []int32) []int32 {
	if len(keys) == 0 {
		return idx
	}
	var counts [8][256]int32
	for _, k := range keys {
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	for p := range counts {
		c, shift := &counts[p], 8*p
		if int(c[byte(keys[0]>>shift)]) == len(keys) {
			continue
		}
		var sum int32
		for b, n := range c {
			c[b], sum = sum, sum+n
		}
		for i, k := range keys {
			b := byte(k >> shift)
			tk[c[b]], ti[c[b]] = k, idx[i]
			c[b]++
		}
		keys, tk = tk, keys
		idx, ti = ti, idx
	}
	return idx
}
