package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3, 10})
	if c.Len() != 5 {
		t.Fatalf("Len = %d", c.Len())
	}
	cases := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.2}, {2, 0.6}, {3, 0.8}, {9.99, 0.8}, {10, 1}, {11, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); math.Abs(got-cse.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
	if got := c.Median(); got != 2 {
		t.Errorf("Median = %v", got)
	}
	if got := c.Mean(); math.Abs(got-3.6) > 1e-12 {
		t.Errorf("Mean = %v", got)
	}
	if c.Min() != 1 || c.Max() != 10 {
		t.Errorf("Min/Max = %v/%v", c.Min(), c.Max())
	}
}

// TestSortedCDF checks that wrapping a sorted slice answers like NewCDF
// over the same samples and shares the slice instead of copying it.
func TestSortedCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	v := make([]float64, 500)
	for i := range v {
		v[i] = math.Floor(rng.ExpFloat64() * 10)
	}
	want := NewCDF(v)
	sort.Float64s(v)
	got := SortedCDF(v)
	if got.Len() != want.Len() || got.Mean() != want.Mean() {
		t.Fatalf("Len/Mean = %d/%v, NewCDF %d/%v", got.Len(), got.Mean(), want.Len(), want.Mean())
	}
	for x := -1.0; x < 80; x += 0.5 {
		if got.At(x) != want.At(x) {
			t.Fatalf("At(%v) = %v, NewCDF %v", x, got.At(x), want.At(x))
		}
	}
	for q := 0.0; q <= 1; q += 0.01 {
		if got.Quantile(q) != want.Quantile(q) {
			t.Fatalf("Quantile(%v) = %v, NewCDF %v", q, got.Quantile(q), want.Quantile(q))
		}
	}
	if &got.sorted[0] != &v[0] {
		t.Error("SortedCDF copied its input")
	}
	if c := SortedCDF(nil); c.Len() != 0 || c.At(1) != 0 || !math.IsNaN(c.Median()) {
		t.Error("empty SortedCDF")
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.At(5) != 0 {
		t.Error("empty CDF At != 0")
	}
	if !math.IsNaN(c.Quantile(0.5)) {
		t.Error("empty CDF quantile not NaN")
	}
	if !math.IsNaN(c.Mean()) {
		t.Error("empty CDF mean not NaN")
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		c := NewCDF(vals)
		xs := append([]float64(nil), vals...)
		sort.Float64s(xs)
		prev := 0.0
		for _, x := range xs {
			y := c.At(x)
			if y < prev || y < 0 || y > 1 {
				return false
			}
			prev = y
		}
		return c.At(xs[len(xs)-1]) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40})
	if got := c.Quantile(0.25); got != 10 {
		t.Errorf("Q(0.25) = %v", got)
	}
	if got := c.Quantile(0.26); got != 20 {
		t.Errorf("Q(0.26) = %v", got)
	}
	if got := c.Quantile(1); got != 40 {
		t.Errorf("Q(1) = %v", got)
	}
	if got := c.Quantile(0); got != 10 {
		t.Errorf("Q(0) = %v", got)
	}
}

func TestQuantileAtInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = rng.ExpFloat64() * 100
	}
	c := NewCDF(vals)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.99} {
		x := c.Quantile(q)
		if got := c.At(x); got < q-1e-9 {
			t.Errorf("At(Quantile(%v)) = %v < %v", q, got, q)
		}
	}
}

func TestLogHistogram(t *testing.T) {
	h := NewLogHistogram([]int{1, 1, 2, 10, 11, 100, 101, 1000, 5000, 0, -3})
	// bins: n=1 ->2 ; (1,10] -> {2,10} =2 ; (10,100] -> {11,100} =2 ;
	// (100,1000] -> {101,1000} =2 ; (1000,10000] -> {5000} =1
	want := []int{2, 2, 2, 2, 1}
	if len(h.Counts) != len(want) {
		t.Fatalf("Counts = %v", h.Counts)
	}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Errorf("bin %d (%s) = %d, want %d", i, h.BinLabel(i), h.Counts[i], w)
		}
	}
	if h.BinLabel(0) != "n=1" || h.BinLabel(1) != "1<n<=10" {
		t.Errorf("labels: %q %q", h.BinLabel(0), h.BinLabel(1))
	}
}

func TestLogHistogramBoundaries(t *testing.T) {
	// Powers of ten land in the bin they close.
	h := &LogHistogram{}
	h.Add(10)
	h.Add(100)
	h.Add(1000)
	if h.Counts[1] != 1 || h.Counts[2] != 1 || h.Counts[3] != 1 {
		t.Errorf("Counts = %v", h.Counts)
	}
}

func TestDaily(t *testing.T) {
	d := NewDaily(10)
	d.Add(0, 5)
	d.Add(0, 3)
	d.Add(9, 2)
	d.Add(10, 100) // out of window: dropped
	d.Add(-1, 100)
	if d.Values[0] != 8 || d.Values[9] != 2 {
		t.Errorf("Values = %v", d.Values)
	}
	if got := d.Mean(); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("Mean = %v", got)
	}
	max, at := d.Max()
	if max != 8 || at != 0 {
		t.Errorf("Max = %v @ %d", max, at)
	}
}

func TestCubicSplineInterpolatesKnots(t *testing.T) {
	xs := []float64{0, 10, 20, 30}
	ys := []float64{1, 5, 2, 8}
	s := NewCubicSpline(xs, ys)
	for i := range xs {
		if got := s.Eval(xs[i]); math.Abs(got-ys[i]) > 1e-9 {
			t.Errorf("Eval(%v) = %v, want %v", xs[i], got, ys[i])
		}
	}
}

func TestCubicSplineSmoothBetweenKnots(t *testing.T) {
	// A spline through samples of a line must reproduce the line.
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{0, 2, 4, 6, 8}
	s := NewCubicSpline(xs, ys)
	for x := -1.0; x <= 5; x += 0.25 {
		if got := s.Eval(x); math.Abs(got-2*x) > 1e-9 {
			t.Errorf("Eval(%v) = %v, want %v", x, got, 2*x)
		}
	}
}

func TestCubicSplineDegenerate(t *testing.T) {
	if got := NewCubicSpline(nil, nil).Eval(5); got != 0 {
		t.Errorf("empty spline = %v", got)
	}
	if got := NewCubicSpline([]float64{1}, []float64{7}).Eval(99); got != 7 {
		t.Errorf("single-knot spline = %v", got)
	}
	two := NewCubicSpline([]float64{0, 10}, []float64{0, 10})
	if got := two.Eval(5); math.Abs(got-5) > 1e-9 {
		t.Errorf("two-knot spline = %v", got)
	}
}

func TestMonthlyMedianSpline(t *testing.T) {
	d := NewDaily(90)
	for i := range d.Values {
		d.Values[i] = 100
	}
	sm := d.MonthlyMedianSpline()
	if len(sm) != 90 {
		t.Fatalf("len = %d", len(sm))
	}
	for i, v := range sm {
		if math.Abs(v-100) > 1e-6 {
			t.Fatalf("smoothed[%d] = %v, want 100", i, v)
		}
	}
}
