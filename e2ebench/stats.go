package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile before
// the percentile is trusted: with fewer, one slow operation moves it.
const minBeyond = 10

// dist is a sorted sample set.
type dist []float64

func newDist(samples []float64) dist {
	d := slices.Clone(samples)
	slices.Sort(d)
	return d
}

// rank is the 1-based nearest-rank position of the p-th percentile
// (0 < p <= 100) among n samples. The epsilon keeps float error from
// pushing an exact product such as 99.9% of 10000 one rank up.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return max(1, min(r, n))
}

// beyond is how many of n samples lie strictly past the p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// tailOK reports whether the p-th percentile of n samples has at least
// minBeyond samples beyond it.
func tailOK(n int, p float64) bool { return beyond(n, p) >= minBeyond }

// pct is the nearest-rank p-th percentile, 0 for an empty set.
func (d dist) pct(p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	return d[rank(len(d), p)-1]
}

// median of a small set of repeated measurements (set-up times).
func median(v []float64) float64 { return newDist(v).pct(50) }

// ms and us convert a duration to fractional milli- and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is num/den, 0 when den is 0 (the layer did no such work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
