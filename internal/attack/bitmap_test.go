package attack

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"doscope/internal/netx"
)

// TestContainerConversion drives one container across the array→bitset
// boundary and checks membership and cardinality in both forms.
func TestContainerConversion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := tgtGen.Add(1)
	c := &container{gen: g}
	want := make(map[uint16]bool)
	for len(want) < arrContainerMax+500 {
		v := uint16(rng.Intn(1 << 16))
		want[v] = true
		c.add(v)
		c.add(v) // duplicate inserts must be no-ops
	}
	if c.bits == nil {
		t.Fatalf("container with %d entries did not convert to bitset form", len(want))
	}
	if c.n != len(want) {
		t.Fatalf("cardinality = %d, want %d", c.n, len(want))
	}
	for v := 0; v < 1<<16; v++ {
		if c.contains(uint16(v)) != want[uint16(v)] {
			t.Fatalf("contains(%d) = %v, want %v", v, !want[uint16(v)], want[uint16(v)])
		}
	}
}

// TestContainerCOW checks the generation fence: mutating a container
// under a new generation path-copies instead of writing published data.
func TestContainerCOW(t *testing.T) {
	g1 := tgtGen.Add(1)
	tb := &targetBitmap{gen: g1}
	tb.add(g1, netx.Addr(0x0a000001))
	tb.add(g1, netx.Addr(0x0a000002))

	g2 := tgtGen.Add(1)
	tb2 := tb.mut(g2)
	tb2.add(g2, netx.Addr(0x0a000003))
	tb2.add(g2, netx.Addr(0x0b000001))

	if tb.card() != 2 || tb.contains(netx.Addr(0x0a000003)) {
		t.Fatal("mutation under a new generation leaked into the old bitmap")
	}
	if tb2.card() != 4 || !tb2.contains(netx.Addr(0x0a000001)) {
		t.Fatal("path-copied bitmap lost or missed entries")
	}

	// Same-generation mutation is in place: no copies pile up.
	tb2.add(g2, netx.Addr(0x0a000004))
	if tb2.card() != 5 {
		t.Fatalf("in-place add: card = %d, want 5", tb2.card())
	}
}

// TestUnionOracle compares unionCard and unionBlocks against map-based
// brute force over randomized bitmap sets, including the dense case
// that forces bitset containers into the merge.
func TestUnionOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		nBms := 1 + rng.Intn(4)
		bms := make([]*targetBitmap, 0, nBms)
		all := make(map[netx.Addr]struct{})
		for b := 0; b < nBms; b++ {
			g := tgtGen.Add(1)
			tb := &targetBitmap{gen: g}
			n := rng.Intn(3000)
			if trial%5 == 0 {
				n = 6000 // force at least one bitset container
			}
			for i := 0; i < n; i++ {
				// Few high keys, so bitmaps overlap and containers fill.
				a := netx.Addr(uint32(rng.Intn(3))<<16 | uint32(rng.Intn(1<<14)))
				tb.add(g, a)
				all[a] = struct{}{}
			}
			bms = append(bms, tb)
		}
		bms = append(bms, nil) // nil entries must be ignored
		if got := unionCard(bms); got != len(all) {
			t.Fatalf("trial %d: unionCard = %d, want %d", trial, got, len(all))
		}
		for _, maskBits := range []int{0, 4, 8, 14, 16, 18, 22, 24, 29, 32} {
			blocks := make(map[netx.Addr]struct{})
			for a := range all {
				blocks[a.Mask(maskBits)] = struct{}{}
			}
			want := len(blocks)
			if maskBits == 0 && len(all) == 0 {
				want = 0
			}
			if got := unionBlocks(bms, maskBits); got != want {
				t.Fatalf("trial %d: unionBlocks(%d) = %d, want %d", trial, maskBits, got, want)
			}
		}
	}
}

// distinctOracle computes the expected distinct-target answers by brute
// force over a flat event slice under an optional filter.
func distinctOracle(evs []Event, match func(*Event) bool) (targets map[netx.Addr]struct{}, byDay []map[netx.Addr]struct{}) {
	targets = make(map[netx.Addr]struct{})
	byDay = make([]map[netx.Addr]struct{}, WindowDays)
	for i := range evs {
		e := &evs[i]
		if match != nil && !match(e) {
			continue
		}
		targets[e.Target] = struct{}{}
		if d := e.Day(); d >= 0 && d < WindowDays {
			if byDay[d] == nil {
				byDay[d] = make(map[netx.Addr]struct{})
			}
			byDay[d][e.Target] = struct{}{}
		}
	}
	return targets, byDay
}

// TestDistinctTerminalsOracle checks every distinct-target terminal —
// bitmap-served and scan-fallback — against brute force, over a store
// with unsealed pending tails and out-of-window rows.
func TestDistinctTerminalsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	evs := randomEvents(rng, 4000)
	st := NewStore(evs[:3800])
	st.Seal()
	for _, e := range evs[3800:] { // leave pending tails in place
		st.Add(e)
	}

	wantAll, wantByDay := distinctOracle(evs, nil)
	if got := st.Query().CountDistinctTargets(); got != len(wantAll) {
		t.Fatalf("CountDistinctTargets = %d, want %d", got, len(wantAll))
	}
	if got := st.Query().CountDistinctTargets(); got != len(wantAll) {
		t.Fatalf("CountDistinctTargets = %d, want %d", got, len(wantAll))
	}
	for _, maskBits := range []int{8, 16, 24, 27, 32} {
		blocks := make(map[netx.Addr]struct{})
		for a := range wantAll {
			blocks[a.Mask(maskBits)] = struct{}{}
		}
		if got := st.Query().CountDistinctBlocks(maskBits); got != len(blocks) {
			t.Fatalf("CountDistinctBlocks(%d) = %d, want %d", maskBits, got, len(blocks))
		}
	}
	gotByDay := st.Query().CountDistinctTargetsByDay()
	wantDaily := make([]int, WindowDays)
	for d, set := range wantByDay {
		wantDaily[d] = len(set)
	}
	if !reflect.DeepEqual(gotByDay, wantDaily) {
		t.Fatal("CountDistinctTargetsByDay disagrees with brute force")
	}

	// Day-filtered bitmap path.
	q := st.Query().Days(5, 60)
	wantWin, _ := distinctOracle(evs, func(e *Event) bool { d := e.Day(); return d >= 5 && d <= 60 })
	if got := q.CountDistinctTargets(); got != len(wantWin) {
		t.Fatalf("day-filtered CountDistinctTargets = %d, want %d", got, len(wantWin))
	}

	// Out-of-window day ranges must fall back to the scan and still agree.
	qOut := st.Query().Days(-30, 10)
	wantOut, _ := distinctOracle(evs, func(e *Event) bool {
		return e.Start >= WindowStart-30*86400 && e.Start < WindowStart+11*86400
	})
	if got := qOut.CountDistinctTargets(); got != len(wantOut) {
		t.Fatalf("straddling CountDistinctTargets = %d, want %d", got, len(wantOut))
	}

	// Filtered fallbacks: source, vector, predicate, prefix.
	wantTel, telByDay := distinctOracle(evs, func(e *Event) bool { return e.Source == SourceTelescope })
	if got := st.Query().Source(SourceTelescope).CountDistinctTargets(); got != len(wantTel) {
		t.Fatalf("source-filtered CountDistinctTargets = %d, want %d", got, len(wantTel))
	}
	telDaily := make([]int, WindowDays)
	for d, set := range telByDay {
		telDaily[d] = len(set)
	}
	if got := st.Query().Source(SourceTelescope).CountDistinctTargetsByDay(); !reflect.DeepEqual(got, telDaily) {
		t.Fatal("source-filtered CountDistinctTargetsByDay disagrees with brute force")
	}
	pred := func(e *Event) bool { return e.Packets%3 == 0 }
	wantPred, _ := distinctOracle(evs, pred)
	if got := st.Query().Where(pred).CountDistinctTargets(); got != len(wantPred) {
		t.Fatalf("predicate CountDistinctTargets = %d, want %d", got, len(wantPred))
	}
	prefix := evs[0].Target.Mask(16)
	wantPfx, _ := distinctOracle(evs, func(e *Event) bool { return e.Target.Mask(16) == prefix })
	if got := st.Query().TargetPrefix(prefix, 16).CountDistinctTargets(); got != len(wantPfx) {
		t.Fatalf("prefix CountDistinctTargets = %d, want %d", got, len(wantPfx))
	}

	// Empty day range.
	if got := st.Query().Days(10, 5).CountDistinctTargets(); got != 0 {
		t.Fatalf("empty-range CountDistinctTargets = %d, want 0", got)
	}
}

// TestTargetBitmapAdoption drives the watermark protocol for the bitmap
// index: reader build + registration, writer adoption on the next
// mutation, delta maintenance through live ingest, and immutability of
// the snapshot an old view holds.
func TestTargetBitmapAdoption(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	evs := randomEvents(rng, 3000)
	st := NewStore(evs[:2000])
	st.Seal()

	oldView := st.view()
	want0, _ := distinctOracle(evs[:2000], nil)
	if got := st.Query().CountDistinctTargets(); got != len(want0) {
		t.Fatalf("pre-adoption CountDistinctTargets = %d, want %d", got, len(want0))
	}
	base := st.rebuilds.Load() // counts the one bitmap build

	// Live ingest adopts the registered build and maintains it by seal
	// deltas: no further from-scratch builds.
	for _, e := range evs[2000:] {
		st.Add(e)
	}
	st.Seal()
	wantAll, _ := distinctOracle(evs, nil)
	if got := st.Query().CountDistinctTargets(); got != len(wantAll) {
		t.Fatalf("post-ingest CountDistinctTargets = %d, want %d", got, len(wantAll))
	}
	if got := st.rebuilds.Load(); got != base {
		t.Fatalf("live ingest triggered %d extra from-scratch builds", got-base)
	}

	// The old view must still answer from its own snapshot.
	oldBms, ok := (&Query{source: -1}).collectBitmaps([]*view{oldView})
	if !ok {
		t.Fatal("collectBitmaps refused an unfiltered query")
	}
	if got := unionCard(oldBms); got != len(want0) {
		t.Fatalf("old view's bitmap answer moved to %d after ingest, want %d", got, len(want0))
	}
}

// FuzzBitmapOps decodes the input into inserts into up to four target
// bitmaps and checks container add/contains/orInto, cardinality,
// unionCard and unionBlocks against map sets. Each 5-byte record is
// (op, key, low hi, low lo, run): op&3 picks single insert, run insert
// (run*32 consecutive lows, enough to cross arrContainerMax into bitset
// form), probe or snapshot; op>>2&3 picks the bitmap; key%4 is the high
// 16 bits, few enough that bitmaps share keys. A snapshot moves the
// bitmap to a fresh generation, and the snapshot must not change after.
func FuzzBitmapOps(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 4, 0, 0, 1, 0, 8, 1, 0xff, 0xff, 0})
	f.Add([]byte{1, 2, 0, 0, 140, 5, 2, 0, 10, 10, 3, 2, 0, 0, 0, 1, 2, 0x80, 0, 200})
	f.Add([]byte{1, 1, 0xf0, 0, 255, 3, 1, 0, 0, 0, 9, 1, 0x10, 0, 60, 2, 1, 0xf0, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		type snapshot struct {
			tb   *targetBitmap
			want map[netx.Addr]struct{}
		}
		var (
			bms   [4]*targetBitmap
			gens  [4]uint64
			want  [4]map[netx.Addr]struct{}
			snaps []snapshot
		)
		for i := range bms {
			gens[i] = tgtGen.Add(1)
			bms[i] = &targetBitmap{gen: gens[i]}
			want[i] = make(map[netx.Addr]struct{})
		}
		var probes []netx.Addr
		for ; len(data) >= 5; data = data[5:] {
			op, b := data[0]&3, data[0]>>2&3
			a := netx.Addr(uint32(data[1]%4)<<16 | uint32(data[2])<<8 | uint32(data[3]))
			switch op {
			case 0:
				bms[b].add(gens[b], a)
				want[b][a] = struct{}{}
			case 1:
				for k := 0; k < int(data[4])*32 && uint16(a)+uint16(k) >= uint16(a); k++ {
					v := a + netx.Addr(k)
					bms[b].add(gens[b], v)
					want[b][v] = struct{}{}
				}
			case 2:
				probes = append(probes, a)
			case 3:
				snaps = append(snaps, snapshot{bms[b], maps.Clone(want[b])})
				gens[b] = tgtGen.Add(1)
				bms[b] = bms[b].mut(gens[b])
			}
		}
		check := func(name string, tb *targetBitmap, set map[netx.Addr]struct{}) {
			if tb.card() != len(set) {
				t.Fatalf("%s: card = %d, want %d", name, tb.card(), len(set))
			}
			for a := range set {
				if !tb.contains(a) {
					t.Fatalf("%s: contains(%v) = false after add", name, a)
				}
			}
			for _, a := range probes {
				if _, in := set[a]; tb.contains(a) != in {
					t.Fatalf("%s: contains(%v) = %v, want %v", name, a, !in, in)
				}
			}
			for i, c := range tb.cts {
				if i > 0 && tb.keys[i-1] >= tb.keys[i] {
					t.Fatalf("%s: keys not ascending: %v", name, tb.keys)
				}
				var got, exp [1024]uint64
				c.orInto(&got)
				n := 0
				for a := range set {
					if uint16(a>>16) == tb.keys[i] {
						exp[uint16(a)>>6] |= 1 << (uint16(a) & 63)
						n++
					}
				}
				if got != exp || c.n != n {
					t.Fatalf("%s: container %d holds %d, want %d, or orInto differs", name, tb.keys[i], c.n, n)
				}
			}
		}
		all := make(map[netx.Addr]struct{})
		for i, tb := range bms {
			check(fmt.Sprintf("bitmap %d", i), tb, want[i])
			maps.Copy(all, want[i])
		}
		for i, s := range snaps {
			check(fmt.Sprintf("snapshot %d", i), s.tb, s.want)
		}
		if got := unionCard(bms[:]); got != len(all) {
			t.Fatalf("unionCard = %d, want %d", got, len(all))
		}
		for _, maskBits := range []int{0, 8, 14, 16, 17, 20, 24, 27, 32} {
			blocks := make(map[netx.Addr]struct{})
			for a := range all {
				blocks[a.Mask(maskBits)] = struct{}{}
			}
			if got := unionBlocks(bms[:], maskBits); got != len(blocks) {
				t.Fatalf("unionBlocks(%d) = %d, want %d", maskBits, got, len(blocks))
			}
		}
	})
}
