// Package stats provides the small statistical toolkit the analyses need:
// empirical CDFs and quantiles, log-binned histograms, daily time series
// over the measurement window, and the monthly-median cubic-spline
// smoothing the paper applies in Figure 7.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// CDF is an empirical cumulative distribution over float64 samples.
type CDF struct {
	sorted []float64
}

// NewCDF copies and sorts the samples.
func NewCDF(samples []float64) *CDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	SortFloat64s(s)
	return &CDF{sorted: s}
}

// SortedCDF wraps samples that are already sorted in ascending order,
// without copying them; the caller must not modify them afterwards.
func SortedCDF(sorted []float64) *CDF { return &CDF{sorted: sorted} }

// Len returns the sample count.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns P(X <= x), in [0,1]. An empty CDF returns 0.
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.sorted, x)
	// SearchFloat64s returns the first index with sorted[i] >= x; advance
	// over equal values to make the CDF right-continuous (<= semantics).
	for i < len(c.sorted) && c.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(c.sorted))
}

// Quantile returns the q-quantile (0 <= q <= 1) using the nearest-rank
// method. An empty CDF returns NaN.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	rank := int(math.Ceil(q*float64(len(c.sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return c.sorted[rank]
}

// Mean returns the arithmetic mean of the samples.
func (c *CDF) Mean() float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range c.sorted {
		sum += v
	}
	return sum / float64(len(c.sorted))
}

// Median returns the 0.5-quantile.
func (c *CDF) Median() float64 { return c.Quantile(0.5) }

// Min and Max return the extreme samples.
func (c *CDF) Min() float64 { return c.Quantile(0) }

// Max returns the largest sample.
func (c *CDF) Max() float64 { return c.Quantile(1) }

// Points samples the CDF at n log-spaced x positions between the smallest
// positive sample and the maximum; used to print figure series.
func (c *CDF) Points(n int) []Point {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	lo := math.NaN()
	for _, v := range c.sorted {
		if v > 0 {
			lo = v
			break
		}
	}
	hi := c.Max()
	if math.IsNaN(lo) || hi <= lo {
		return []Point{{X: hi, Y: 1}}
	}
	out := make([]Point, 0, n)
	logLo, logHi := math.Log(lo), math.Log(hi)
	for i := 0; i < n; i++ {
		x := math.Exp(logLo + (logHi-logLo)*float64(i)/float64(n-1))
		out = append(out, Point{X: x, Y: c.At(x)})
	}
	return out
}

// Point is an (x, y) sample of a curve.
type Point struct{ X, Y float64 }

// LogHistogram counts values into decade bins: (0,1], (1,10], (10,100]...
// plus an exact bin for n == lowest. The paper's Figure 6 uses bins n=1,
// 1<n<=10, 10<n<=100, ...
type LogHistogram struct {
	// Counts[0] is the exact-1 bin; Counts[k] for k>=1 covers
	// (10^(k-1), 10^k].
	Counts []int
}

// NewLogHistogram builds the histogram from positive integer-valued data.
func NewLogHistogram(values []int) *LogHistogram {
	h := &LogHistogram{}
	for _, v := range values {
		h.Add(v)
	}
	return h
}

// Add counts one value. Non-positive values are ignored.
func (h *LogHistogram) Add(v int) {
	if v <= 0 {
		return
	}
	bin := 0
	if v > 1 {
		bin = 1 + int(math.Floor(math.Log10(float64(v)-0.5)))
		if bin < 1 {
			bin = 1
		}
	}
	for len(h.Counts) <= bin {
		h.Counts = append(h.Counts, 0)
	}
	h.Counts[bin]++
}

// BinLabel names bin k in the paper's style.
func (h *LogHistogram) BinLabel(k int) string {
	if k == 0 {
		return "n=1"
	}
	if k == 1 {
		return "1<n<=10"
	}
	return fmt.Sprintf("1e%d<n<=1e%d", k-1, k)
}

// Daily is a time series with one float64 value per day of the
// measurement window.
type Daily struct {
	Values []float64
}

// NewDaily allocates a zeroed series of n days.
func NewDaily(n int) *Daily { return &Daily{Values: make([]float64, n)} }

// Add accumulates v on the given day index; out-of-window days are
// dropped.
func (d *Daily) Add(day int, v float64) {
	if day < 0 || day >= len(d.Values) {
		return
	}
	d.Values[day] += v
}

// Mean returns the average daily value.
func (d *Daily) Mean() float64 {
	if len(d.Values) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range d.Values {
		sum += v
	}
	return sum / float64(len(d.Values))
}

// Max returns the maximum daily value and its day index.
func (d *Daily) Max() (float64, int) {
	best, at := math.Inf(-1), -1
	for i, v := range d.Values {
		if v > best {
			best, at = v, i
		}
	}
	return best, at
}

// MonthlyMedianSpline reproduces the paper's Figure 7 smoothing: take the
// median value of each ~30-day month, then interpolate a natural cubic
// spline through the (month-midpoint, median) knots, evaluated per day.
func (d *Daily) MonthlyMedianSpline() []float64 {
	const monthLen = 30
	n := len(d.Values)
	if n == 0 {
		return nil
	}
	var xs, ys []float64
	for start := 0; start < n; start += monthLen {
		end := start + monthLen
		if end > n {
			end = n
		}
		month := make([]float64, end-start)
		copy(month, d.Values[start:end])
		SortFloat64s(month)
		med := month[len(month)/2]
		xs = append(xs, float64(start+(end-start)/2))
		ys = append(ys, med)
	}
	spline := NewCubicSpline(xs, ys)
	out := make([]float64, n)
	for i := range out {
		out[i] = spline.Eval(float64(i))
	}
	return out
}

// CubicSpline is a natural cubic spline through strictly increasing knots.
type CubicSpline struct {
	xs, ys, m []float64 // m: second derivatives at knots
}

// NewCubicSpline fits a natural cubic spline. With fewer than two knots
// evaluation returns the single knot's y (or 0 with none). xs must be
// strictly increasing.
func NewCubicSpline(xs, ys []float64) *CubicSpline {
	s := &CubicSpline{xs: xs, ys: ys}
	n := len(xs)
	if n < 3 {
		s.m = make([]float64, n)
		return s
	}
	// Solve the tridiagonal system for natural boundary conditions.
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	r := make([]float64, n)
	b[0], b[n-1] = 1, 1
	for i := 1; i < n-1; i++ {
		hPrev := xs[i] - xs[i-1]
		hNext := xs[i+1] - xs[i]
		a[i] = hPrev
		b[i] = 2 * (hPrev + hNext)
		c[i] = hNext
		r[i] = 6 * ((ys[i+1]-ys[i])/hNext - (ys[i]-ys[i-1])/hPrev)
	}
	// Thomas algorithm.
	for i := 1; i < n; i++ {
		w := a[i] / b[i-1]
		b[i] -= w * c[i-1]
		r[i] -= w * r[i-1]
	}
	m := make([]float64, n)
	m[n-1] = r[n-1] / b[n-1]
	for i := n - 2; i >= 0; i-- {
		m[i] = (r[i] - c[i]*m[i+1]) / b[i]
	}
	s.m = m
	return s
}

// Eval evaluates the spline, extrapolating linearly outside the knots.
func (s *CubicSpline) Eval(x float64) float64 {
	n := len(s.xs)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return s.ys[0]
	}
	if x <= s.xs[0] {
		// Linear extrapolation using the first segment's end slope.
		return s.ys[0] + s.slopeAt(0)*(x-s.xs[0])
	}
	if x >= s.xs[n-1] {
		return s.ys[n-1] + s.slopeAt(n-2)*(x-s.xs[n-1])
	}
	i := sort.SearchFloat64s(s.xs, x) - 1
	if i < 0 {
		i = 0
	}
	h := s.xs[i+1] - s.xs[i]
	t := (s.xs[i+1] - x) / h
	u := (x - s.xs[i]) / h
	return t*s.ys[i] + u*s.ys[i+1] +
		((t*t*t-t)*s.m[i]+(u*u*u-u)*s.m[i+1])*h*h/6
}

func (s *CubicSpline) slopeAt(seg int) float64 {
	h := s.xs[seg+1] - s.xs[seg]
	return (s.ys[seg+1]-s.ys[seg])/h - h/6*(2*s.m[seg]+s.m[seg+1])
}

// Normalize scales samples into [0,1] with a log transform:
// norm(x) = log1p(x) / log1p(max). The paper normalizes per-data-set attack
// intensities onto [0,1] (Table 9); a log transform keeps the heavy tail
// from collapsing the bulk to ~0.
func Normalize(samples []float64) []float64 {
	var max float64
	for _, v := range samples {
		if v > max {
			max = v
		}
	}
	out := make([]float64, len(samples))
	if max <= 0 {
		return out
	}
	den := math.Log1p(max)
	for i, v := range samples {
		if v < 0 {
			v = 0
		}
		out[i] = math.Log1p(v) / den
	}
	return out
}

// Percentile computes the p-th percentile (0-100) of samples without
// mutating them.
func Percentile(samples []float64, p float64) float64 {
	return NewCDF(samples).Quantile(p / 100)
}
