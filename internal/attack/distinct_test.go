package attack

import (
	"math/rand"
	"testing"

	"doscope/internal/netx"
)

// distinctOracle counts the distinct targets of a flat event slice under
// an optional filter, by brute force.
func distinctOracle(evs []Event, match func(*Event) bool) int {
	targets := make(map[netx.Addr]struct{})
	for i := range evs {
		if match == nil || match(&evs[i]) {
			targets[evs[i].Target] = struct{}{}
		}
	}
	return len(targets)
}

// TestDistinctTerminalsOracle checks CountDistinctTargets against brute
// force, over a store with unsealed pending tails and out-of-window
// rows. Prefix queries of /8 or longer run on by-target permutation
// probes, everything else on scans; both must agree with the oracle.
func TestDistinctTerminalsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	evs := randomEvents(rng, 4000)
	st := NewStore(evs[:3800])
	st.Seal()
	for _, e := range evs[3800:] { // leave pending tails in place
		st.Add(e)
	}

	wantAll := distinctOracle(evs, nil)
	for i := 0; i < 2; i++ { // a call leaves nothing that moves the next answer
		if got := st.Query().CountDistinctTargets(); got != wantAll {
			t.Fatalf("CountDistinctTargets = %d, want %d", got, wantAll)
		}
	}

	prefix := evs[0].Target.Mask(16)
	inPrefix := func(e *Event) bool { return e.Target.Mask(16) == prefix }
	inDays := func(e *Event) bool { d := e.Day(); return d >= 5 && d <= 60 }
	for _, tc := range []struct {
		name  string
		build func(q *Query) *Query
		match func(*Event) bool
	}{
		{"day-filtered", func(q *Query) *Query { return q.Days(5, 60) }, inDays},
		{"straddling", func(q *Query) *Query { return q.Days(-30, 10) }, func(e *Event) bool {
			return e.Start >= WindowStart-30*86400 && e.Start < WindowStart+11*86400
		}},
		{"source-filtered", func(q *Query) *Query { return q.Source(SourceTelescope) },
			func(e *Event) bool { return e.Source == SourceTelescope }},
		{"prefix", func(q *Query) *Query { return q.TargetPrefix(prefix, 16) }, inPrefix},
		{"prefix+day-range", func(q *Query) *Query { return q.TargetPrefix(prefix, 16).Days(5, 60) },
			func(e *Event) bool { return inPrefix(e) && inDays(e) }},
		{"empty-range", func(q *Query) *Query { return q.Days(10, 5) }, func(*Event) bool { return false }},
	} {
		want := distinctOracle(evs, tc.match)
		if got := tc.build(st.Query()).CountDistinctTargets(); got != want {
			t.Fatalf("%s CountDistinctTargets = %d, want %d", tc.name, got, want)
		}
	}
}
