package attack

import (
	"math/rand"
	"reflect"
	"testing"

	"doscope/internal/netx"
)

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

// TestDistinctTerminalsOracle checks every distinct-target terminal
// against brute force, over a store with unsealed pending tails and
// out-of-window rows.
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

	// Day-filtered scan.
	q := st.Query().Days(5, 60)
	wantWin, _ := distinctOracle(evs, func(e *Event) bool { d := e.Day(); return d >= 5 && d <= 60 })
	if got := q.CountDistinctTargets(); got != len(wantWin) {
		t.Fatalf("day-filtered CountDistinctTargets = %d, want %d", got, len(wantWin))
	}

	// Out-of-window day ranges must still agree.
	qOut := st.Query().Days(-30, 10)
	wantOut, _ := distinctOracle(evs, func(e *Event) bool {
		return e.Start >= WindowStart-30*86400 && e.Start < WindowStart+11*86400
	})
	if got := qOut.CountDistinctTargets(); got != len(wantOut) {
		t.Fatalf("straddling CountDistinctTargets = %d, want %d", got, len(wantOut))
	}

	// Filtered scans: source, predicate, prefix.
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
