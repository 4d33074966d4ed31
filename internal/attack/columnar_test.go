package attack

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"doscope/internal/netx"
)

// TestTailPermMatchesStableSort checks tailPerm, the fullOrd and seal
// built on it, and sortRows on a shuffled subset of rows (a probe
// drain's input) against a stable sort by (start, target) of the rows
// in physical order: both sort paths (packed keys, and cmpRows for long
// tails or a start span too wide to pack) must order equal keys by
// row. Starts and targets come from small
// pools so most tail rows tie with others.
func TestTailPermMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inWindow := make([]int64, 6)
	for i := range inWindow {
		inWindow[i] = WindowStart + int64(i)*86400 + rng.Int63n(3600)
	}
	// Out-of-window starts collapse into the edge shards. Near ones
	// still pack; the extremes make the span overflow int64.
	near := []int64{WindowStart - 86400, WindowEnd + 7*86400}
	far := []int64{math.MinInt64, -1, 0, WindowStart - 86400, WindowEnd + 7*86400, math.MaxInt64}
	targets := []netx.Addr{netx.AddrFrom4(10, 0, 0, 1), netx.AddrFrom4(10, 0, 0, 2), netx.AddrFrom4(192, 0, 2, 7)}

	stableOrder := func(sh *shard, lo, hi int) []int32 {
		rows := make([]int32, hi-lo)
		for i := range rows {
			rows[i] = int32(lo + i)
		}
		slices.SortStableFunc(rows, sh.cmpRows)
		return rows
	}
	for _, tc := range []struct {
		name       string
		body, tail int
		out        []int64 // out-of-window starts
		outP       float64 // share of tail starts drawn from out
	}{
		{"short", 40, 200, nil, 0},
		{"short-empty-body", 0, 300, nil, 0},
		{"short-near-edge", 100, 200, near, 0.2},
		{"short-far-edge", 100, 200, far, 0.2},
		{"long", 300, 5000, nil, 0},
		{"long-far-edge", 300, 5000, far, 0.1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sh := &shard{}
			add := func(n int, out []int64, outP float64) {
				sh.grow(n, 0)
				for range n {
					e := Event{Target: targets[rng.Intn(len(targets))], Start: inWindow[rng.Intn(len(inWindow))]}
					if rng.Float64() < outP {
						e.Start = out[rng.Intn(len(out))]
					}
					sh.appendRow(&e)
				}
			}
			add(tc.body, nil, 0)
			sh.seal()
			add(tc.tail, tc.out, tc.outP)

			if got, want := sh.tailPerm(), stableOrder(sh, sh.sealed, sh.rows()); !slices.Equal(got, want) {
				t.Fatalf("tailPerm differs from the stable sort at %d of %d rows", permDiff(got, want), len(want))
			}
			want := stableOrder(sh, 0, sh.rows())
			orOrder := func(ord []int32) []int32 {
				if ord == nil {
					return identity(sh.rows())
				}
				return ord
			}
			if got := orOrder(sh.fullOrd()); !slices.Equal(got, want) {
				t.Fatalf("fullOrd differs from the stable sort at %d of %d rows", permDiff(got, want), len(want))
			}
			sh.seal()
			if got := orOrder(sh.ord); !slices.Equal(got, want) {
				t.Fatalf("sealed ord differs from the stable sort at %d of %d rows", permDiff(got, want), len(want))
			}

			// A probe drain sorts a scattered subset of rows that
			// arrives in another order.
			var sub []int32
			for r := range sh.rows() {
				if rng.Intn(3) == 0 {
					sub = append(sub, int32(r))
				}
			}
			want = slices.Clone(sub)
			slices.SortStableFunc(want, sh.cmpRows)
			rng.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
			if sh.sortRows(sub); !slices.Equal(sub, want) {
				t.Fatalf("sortRows of a subset differs from the stable sort at %d of %d rows", permDiff(sub, want), len(want))
			}
		})
	}
}

func permDiff(a, b []int32) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
