// Package radix orders float64 values with a stable most-significant-
// digit radix sort: the one sort behind the aggregate's per-field
// columns and the question index's per-field pins.
package radix

import (
	"math"
	"math/bits"
)

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

// insertionMax is the largest run Sort finishes by insertion sort
// instead of distributing it by another digit.
const insertionMax = 24

// Sort orders idx by keys, ascending, and stably: entries with equal
// keys keep their input order. It is a most-significant-digit radix
// sort on 8-bit digits: a run is distributed by the eight bits that
// start at the highest bit in which its keys differ (bits every key of
// the run shares cost nothing), each bucket is then sorted the same way,
// and a run of at most insertionMax keys is finished by insertion sort.
// tk and ti are scratch as long as keys. It returns idx, sorted; keys is
// left sorted with it, tk and ti clobbered.
func Sort(keys, tk []uint64, idx, ti []int32) []int32 {
	sortRun(keys, tk[:len(keys)], idx[:len(keys)], ti[:len(keys)])
	return idx
}

// sortRun sorts one run of Sort in place, through tk and ti. The
// highest bit in which the run's keys differ is the highest bit of
// min ^ max, so the keys agree above the digit and order by it, and
// every key's digit lies between min's and max's: only those buckets
// are visited.
func sortRun(keys, tk []uint64, idx, ti []int32) {
	if len(keys) <= insertionMax {
		insertion(keys, idx)
		return
	}
	lo, hi := keys[0], keys[0]
	for _, k := range keys[1:] {
		lo, hi = min(lo, k), max(hi, k)
	}
	if lo == hi {
		return // all keys tie: the input order is the stable one
	}
	shift := max(0, 63-bits.LeadingZeros64(lo^hi)-7)
	first, last := int(byte(lo>>shift)), int(byte(hi>>shift))
	// next[b] counts bucket b's keys, then points at its first free
	// slot, and ends at its end.
	var next [256]int32
	for _, k := range keys {
		next[byte(k>>shift)]++
	}
	var sum int32
	for b := first; b <= last; b++ {
		next[b], sum = sum, sum+next[b]
	}
	for i, k := range keys {
		b := byte(k >> shift)
		tk[next[b]], ti[next[b]] = k, idx[i]
		next[b]++
	}
	copy(keys, tk)
	copy(idx, ti)
	var start int32
	for _, end := range next[first : last+1] {
		if end-start > 1 {
			sortRun(keys[start:end], tk[start:end], idx[start:end], ti[start:end])
		}
		start = end
	}
}

// insertion sorts a short run in place; a key moves only past strictly
// larger ones, so ties keep their order.
func insertion(keys []uint64, idx []int32) {
	idx = idx[:len(keys)]
	for i := 1; i < len(keys); i++ {
		k, x := keys[i], idx[i]
		j := i
		for ; j > 0 && keys[j-1] > k; j-- {
			keys[j], idx[j] = keys[j-1], idx[j-1]
		}
		keys[j], idx[j] = k, x
	}
}
