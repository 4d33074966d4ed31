package stats

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// checkSortFloat64s sorts copies of in with SortFloat64s, with
// radixSort (so short inputs reach the radix passes too) through the
// shared scratch, and with slices.Sort, and fails unless the first two
// agree with slices.Sort element by element under cmp.Compare (so NaNs
// sit at the same positions) and hold exactly the input's bit patterns.
// Callers pass one scratch to back-to-back checks, so whatever an
// earlier sort left in it must not leak into a later result.
func checkSortFloat64s(t *testing.T, in []float64, scratch *[]float64) {
	t.Helper()
	want := slices.Clone(in)
	slices.Sort(want)
	for _, sort := range []struct {
		name string
		fn   func([]float64)
	}{
		{"SortFloat64s", SortFloat64s},
		{"radixSort", func(s []float64) { *scratch = radixSort(s, *scratch) }},
	} {
		got := slices.Clone(in)
		sort.fn(got)
		for i := range want {
			if cmp.Compare(got[i], want[i]) != 0 {
				t.Fatalf("%s, n=%d: [%d] = %v, slices.Sort has %v", sort.name, len(in), i, got[i], want[i])
			}
		}
		if !slices.Equal(bitsSorted(got), bitsSorted(in)) {
			t.Fatalf("%s, n=%d: result is not a permutation of the input", sort.name, len(in))
		}
	}
}

func bitsSorted(s []float64) []uint64 {
	b := make([]uint64, len(s))
	for i, v := range s {
		b[i] = math.Float64bits(v)
	}
	slices.Sort(b)
	return b
}

// floatSamples draws n values of one of the kinds the analyses sort.
func floatSamples(kind string, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	s := make([]float64, n)
	for i := range s {
		switch kind {
		case "integer":
			s[i] = math.Floor(rng.ExpFloat64() * 3600)
		case "exponential":
			s[i] = rng.ExpFloat64() * 100
		case "uniform":
			s[i] = rng.Float64()
		}
	}
	return s
}

func TestSortFloat64s(t *testing.T) {
	special := []float64{
		math.NaN(), math.Copysign(math.NaN(), -1), math.Float64frombits(0x7ff0000000000001),
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff),
		math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.5, -2.5, 1e300, -1e-300,
	}
	mixed := func(n int) []float64 {
		rng := rand.New(rand.NewSource(int64(n)))
		s := make([]float64, n)
		for i := range s {
			switch rng.Intn(4) {
			case 0:
				s[i] = special[rng.Intn(len(special))]
			case 1:
				s[i] = -rng.ExpFloat64()
			default:
				s[i] = rng.NormFloat64() * 1e3
			}
		}
		return s
	}
	lengths := []int{0, 1, 2, radixCutoff - 1, radixCutoff, radixCutoff + 1, 1000, 70_000}
	cases := map[string]func(n int) []float64{
		"special": mixed,
		"integer": func(n int) []float64 { return floatSamples("integer", n, 2) },
		"exp":     func(n int) []float64 { return floatSamples("exponential", n, 3) },
		"uniform": func(n int) []float64 { return floatSamples("uniform", n, 4) },
		"negative": func(n int) []float64 {
			s := floatSamples("exponential", n, 5)
			for i := range s {
				s[i] -= 100
			}
			return s
		},
		"dups": func(n int) []float64 {
			rng := rand.New(rand.NewSource(int64(n)))
			s := make([]float64, n)
			for i := range s {
				s[i] = float64(rng.Intn(3)) - 1
			}
			return s
		},
		"sorted": func(n int) []float64 {
			s := floatSamples("exponential", n, 6)
			slices.Sort(s)
			return s
		},
		"reversed": func(n int) []float64 {
			s := floatSamples("exponential", n, 7)
			slices.Sort(s)
			slices.Reverse(s)
			return s
		},
		"allNaN": func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = math.NaN()
			}
			return s
		},
		"oneValue": func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				s[i] = 86400
			}
			return s
		},
	}
	// Every case sorts through one scratch, which the longest inputs
	// grow and later shorter ones find full of stale values.
	var scratch []float64
	for name, gen := range cases {
		for _, n := range lengths {
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
				checkSortFloat64s(t, gen(n), &scratch)
			})
		}
	}
}

// TestSortFloat64sConcurrent sorts from several goroutines at once, so
// that the race detector sees them share the scratch pool.
func TestSortFloat64sConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 8 {
				in := floatSamples("exponential", radixCutoff+1000*g+i, int64(g*8+i))
				got := slices.Clone(in)
				SortFloat64s(got)
				slices.Sort(in)
				if !slices.Equal(got, in) {
					t.Errorf("goroutine %d, sort %d: result differs from slices.Sort", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzSortFloat64s reads the input as little-endian float64 bit
// patterns and repeats them, each time with its low bytes perturbed,
// up to a length from the input's first two bytes, so that short inputs
// reach lengths above the radix cutoff. It checks that sample, then its
// last two thirds through the same scratch.
func FuzzSortFloat64s(f *testing.F) {
	seed := func(vs ...float64) []byte {
		b := []byte{0, 4}
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	// seedN lays out n values of fn, unperturbed: samples above the
	// cutoff that keep their integer values and repeats.
	seedN := func(n int, fn func(i int) float64) []byte {
		b := binary.LittleEndian.AppendUint16(nil, uint16(n))
		for i := range n {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(fn(i)))
		}
		return b
	}
	f.Add(seed(math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)))
	f.Add(seed(3600, 86400, 60, 1))
	f.Add(seed(-1.5, 2.25, math.SmallestNonzeroFloat64, -math.MaxFloat64))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	// Per-site attack counts: small integers, 92 distinct values.
	f.Add(seedN(1024, func(i int) float64 { return float64(1 + i*i%92) }))
	// Durations in whole seconds, most of them one of three values.
	f.Add(seedN(900, func(i int) float64 { return []float64{60, 3600, 86400, float64(i)}[min(i%7, 3)] }))
	// One value repeated.
	f.Add(seedN(800, func(int) float64 { return 7 }))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(binary.LittleEndian.Uint16(data)) % 5000
		var words []uint64
		for b := data[2:]; len(b) >= 8; b = b[8:] {
			words = append(words, binary.LittleEndian.Uint64(b))
		}
		if len(words) == 0 {
			return
		}
		s := make([]float64, n)
		for i := range s {
			w := words[i%len(words)]
			if round := i / len(words); round > 0 {
				w ^= uint64(round) * 0x9e3779b9 & 0xffff
			}
			s[i] = math.Float64frombits(w)
		}
		var scratch []float64
		checkSortFloat64s(t, s, &scratch)
		checkSortFloat64s(t, s[n/3:], &scratch)
	})
}

// BenchmarkSortFloat64s times the radix sort, without SortFloat64s's
// small-n cutoff, against slices.Sort (pdq) on the three sample kinds
// the report sorts: integer-valued durations, exponential intensities
// and uniform [0,1) normalized intensities. Where the two sides cross
// sets radixCutoff. Each op copies the unsorted input into the slice it
// sorts, on both sides alike; the radix side reuses one scratch, as
// SortFloat64s does.
func BenchmarkSortFloat64s(b *testing.B) {
	for _, kind := range []string{"integer", "exponential", "uniform"} {
		for _, n := range []int{64, 256, 512, 1_000, 10_000, 100_000} {
			in := floatSamples(kind, n, 1)
			work := make([]float64, n)
			var scratch []float64
			for _, side := range []struct {
				name string
				sort func([]float64)
			}{
				{"pdq", slices.Sort[[]float64]},
				{"radix", func(s []float64) { scratch = radixSort(s, scratch) }},
			} {
				b.Run(fmt.Sprintf("%s/n=%d/%s", kind, n, side.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						copy(work, in)
						side.sort(work)
					}
				})
			}
		}
	}
}
