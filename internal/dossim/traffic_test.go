package dossim

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"doscope/internal/attack"
)

// TestTimeOrderMatchesStableSort checks timeOrder, on both of its
// paths, against a stable sort of the packets by timestamp: equal
// timestamps must keep slice order.
func TestTimeOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inWindow := func() int64 { return attack.WindowStart + rng.Int63n(50) }
	for _, tc := range []struct {
		name string
		n    int
		ts   func() int64
	}{
		{"empty", 0, inWindow},
		{"one", 1, inWindow},
		{"in-window", 5000, inWindow},
		{"wide-span", 5000, func() int64 {
			if rng.Intn(10) == 0 {
				return []int64{math.MinInt64, math.MaxInt64}[rng.Intn(2)]
			}
			return inWindow()
		}},
	} {
		pkts := make([]synthPacket, tc.n)
		for i := range pkts {
			pkts[i].ts = tc.ts()
		}
		want := make([]uint64, tc.n)
		for i := range want {
			want[i] = uint64(i)
		}
		slices.SortStableFunc(want, func(a, b uint64) int { return cmp.Compare(pkts[a].ts, pkts[b].ts) })
		if got := timeOrder(pkts); !slices.Equal(got, want) {
			t.Errorf("%s: timeOrder differs from the stable sort", tc.name)
		}
	}
}
