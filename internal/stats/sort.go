package stats

import (
	"math"
	"slices"
	"sync"
)

// radixCutoff is the length below which SortFloat64s hands the slice to
// slices.Sort: under it, the radix sort's eight passes over 256 byte
// counts cost more than the comparisons they save.
// BenchmarkSortFloat64s puts the crossover between 512 and 1,000
// values for exponential and uniform samples, and near 256 for
// integer-valued ones.
const radixCutoff = 768

// SortFloat64s sorts s in ascending order, NaNs first: the order
// slices.Sort gives, and like it, it leaves values that compare equal
// (-0 and +0, NaNs) in no particular order. From radixCutoff values up
// it is a least-significant-digit radix sort, one byte of the value's
// bit pattern per pass, that skips every pass in which all values share
// the byte, so integer-valued samples do not pay for their zero low
// mantissa bytes. It ping-pongs between s and a scratch slice kept in a
// pool, so back-to-back sorts (a report's) reuse one buffer.
func SortFloat64s(s []float64) {
	if len(s) < radixCutoff {
		slices.Sort(s)
		return
	}
	buf, _ := scratchPool.Get().(*[]float64)
	if buf == nil {
		buf = new([]float64)
	}
	*buf = radixSort(s, *buf)
	scratchPool.Put(buf)
}

// scratchPool holds SortFloat64s's scratch slice, a *[]float64, between
// calls.
var scratchPool sync.Pool

// radixSort is SortFloat64s without the small-n cutoff, sorting through
// the given scratch slice. It writes every word of scratch it reads, so
// what an earlier sort left there does not matter, and returns the
// scratch, grown when it was shorter than s, for the next call.
func radixSort(s, scratch []float64) []float64 {
	// One pass moves the NaNs to the front and counts each key byte of
	// the rest.
	var count [8][256]int
	nan := 0
	for i, v := range s {
		if v != v {
			s[i], s[nan] = s[nan], v
			nan++
			continue
		}
		k := sortKey(v)
		count[0][byte(k)]++
		count[1][byte(k>>8)]++
		count[2][byte(k>>16)]++
		count[3][byte(k>>24)]++
		count[4][byte(k>>32)]++
		count[5][byte(k>>40)]++
		count[6][byte(k>>48)]++
		count[7][byte(k>>56)]++
	}
	s = s[nan:]
	n := len(s)
	if n == 0 {
		return scratch
	}
	src, dst := s, []float64(nil)
	for p := range count {
		shift := 8 * uint(p)
		next := &count[p]
		if next[byte(sortKey(src[0])>>shift)] == n {
			continue // one bucket: the pass would not move anything
		}
		if dst == nil {
			if cap(scratch) < n {
				scratch = make([]float64, n)
			}
			dst = scratch[:n]
		}
		off := 0
		for b, c := range next {
			next[b] = off
			off += c
		}
		for _, v := range src {
			b := byte(sortKey(v) >> shift)
			dst[next[b]] = v
			next[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
	return scratch
}

// sortKey maps a non-NaN float64 to a uint64 that orders like it: the
// sign bit is set for non-negative values, and every bit is flipped for
// negative ones.
func sortKey(v float64) uint64 {
	b := math.Float64bits(v)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}
