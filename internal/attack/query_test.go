package attack

import (
	"bytes"
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"doscope/internal/netx"
)

// randomEvents builds n valid events spread across (and slightly outside)
// the measurement window, over both sources and all vectors.
func randomEvents(rng *rand.Rand, n int) []Event {
	events := make([]Event, n)
	for i := range events {
		e := Event{
			Target:  netx.AddrFrom4(203, byte(rng.Intn(4)), byte(rng.Intn(8)), byte(rng.Intn(32))),
			Start:   WindowStart + rng.Int63n((WindowDays+20)*86400) - 10*86400,
			Packets: rng.Uint64() % 1e9,
			Bytes:   rng.Uint64() % 1e12,
		}
		if rng.Intn(2) == 0 {
			e.Source = SourceTelescope
			e.Vector = Vector(rng.Intn(4))
			e.MaxPPS = rng.Float64() * 1e4
			for j := 0; j < rng.Intn(4); j++ {
				e.Ports = append(e.Ports, uint16(rng.Intn(65536)))
			}
		} else {
			e.Source = SourceHoneypot
			e.Vector = VectorNTP + Vector(rng.Intn(8))
			e.AvgRPS = rng.Float64() * 1e4
		}
		e.End = e.Start + rng.Int63n(86400)
		events[i] = e
	}
	return events
}

// oracleFilter is the naive full-scan the Query API must agree with.
func oracleFilter(evs []Event, match func(*Event) bool) []Event {
	var out []Event
	for i := range evs {
		if match(&evs[i]) {
			out = append(out, evs[i])
		}
	}
	return out
}

// groupByTarget groups a query's events per target, each group in Iter
// order, as stable copies: the per-target shape the oracles compare.
func groupByTarget(q *Query) map[netx.Addr][]*Event {
	out := make(map[netx.Addr][]*Event)
	for e := range q.Iter() {
		out[e.Target] = append(out[e.Target], e.Clone())
	}
	return out
}

type queryCase struct {
	name   string
	build  func(q *Query) *Query
	oracle func(*Event) bool
}

func queryCases() []queryCase {
	prefix := netx.AddrFrom4(203, 1, 0, 0)
	target := netx.AddrFrom4(203, 0, 2, 5)
	return []queryCase{
		{"all", func(q *Query) *Query { return q }, func(*Event) bool { return true }},
		{"source", func(q *Query) *Query { return q.Source(SourceHoneypot) },
			func(e *Event) bool { return e.Source == SourceHoneypot }},
		{"vectors", func(q *Query) *Query { return q.Vectors(VectorTCP, VectorNTP) },
			func(e *Event) bool { return e.Vector == VectorTCP || e.Vector == VectorNTP }},
		{"days", func(q *Query) *Query { return q.Days(10, 400) },
			func(e *Event) bool { d := e.Day(); return d >= 10 && d <= 400 }},
		{"days-out-of-window", func(q *Query) *Query { return q.Days(-20, 5) },
			func(e *Event) bool { d := e.Day(); return d >= -20 && d <= 5 }},
		{"days-empty", func(q *Query) *Query { return q.Days(9, 3) },
			func(*Event) bool { return false }},
		{"prefix", func(q *Query) *Query { return q.TargetPrefix(prefix, 16) },
			func(e *Event) bool { return e.Target.Mask(16) == prefix.Mask(16) }},
		{"target", func(q *Query) *Query { return q.Target(target) },
			func(e *Event) bool { return e.Target == target }},
		{"combined", func(q *Query) *Query {
			return q.Source(SourceTelescope).Vectors(VectorTCP, VectorUDP).Days(0, 600).TargetPrefix(prefix, 18)
		}, func(e *Event) bool {
			d := e.Day()
			return e.Source == SourceTelescope &&
				(e.Vector == VectorTCP || e.Vector == VectorUDP) &&
				d >= 0 && d <= 600 && e.Target.Mask(18) == prefix.Mask(18)
		}},
	}
}

// TestQueryAgainstOracle checks every terminal against a naive full scan
// over the ingested events, stably sorted by (start, target): arrival
// order breaks ties, as it does in the store. On one store IterByStart's
// order is Iter's, so it must match the oracle in order too.
func TestQueryAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	evs := randomEvents(rng, 4000)
	s := NewStore(evs)
	slices.SortStableFunc(evs, cmpStartTarget)

	for _, tc := range queryCases() {
		t.Run(tc.name, func(t *testing.T) {
			want := oracleFilter(evs, tc.oracle)

			if got := tc.build(s.Query()).Events(); !reflect.DeepEqual(got, want) {
				t.Fatalf("Events: got %d events, want %d (first mismatch around %v)", len(got), len(want), firstDiff(got, want))
			}
			var byStart []Event
			for e := range tc.build(s.Query()).IterByStart() {
				byStart = append(byStart, *e)
			}
			if !reflect.DeepEqual(byStart, want) {
				t.Fatalf("IterByStart: got %d events, want %d (first mismatch around %v)", len(byStart), len(want), firstDiff(byStart, want))
			}
			if got := tc.build(s.Query()).Count(); got != len(want) {
				t.Errorf("Count = %d, want %d", got, len(want))
			}

			var wantVec [NumVectors]int
			for i := range want {
				wantVec[want[i].Vector]++
			}
			if got := tc.build(s.Query()).CountByVector(); got != wantVec {
				t.Errorf("CountByVector = %v, want %v", got, wantVec)
			}

			wantDay := make([]int, WindowDays)
			for i := range want {
				if d := want[i].Day(); d >= 0 && d < WindowDays {
					wantDay[d]++
				}
			}
			if got := tc.build(s.Query()).CountByDay(); !reflect.DeepEqual(got, wantDay) {
				t.Errorf("CountByDay mismatch")
			}

			wantTargets := make(map[netx.Addr]struct{})
			for i := range want {
				wantTargets[want[i].Target] = struct{}{}
			}
			if got := tc.build(s.Query()).CountDistinctTargets(); got != len(wantTargets) {
				t.Errorf("CountDistinctTargets = %d, want %d", got, len(wantTargets))
			}
		})
	}
}

// cmpStartTarget orders events by the store's (start, target) sort key.
func cmpStartTarget(x, y Event) int {
	return cmp.Or(cmp.Compare(x.Start, y.Start), cmp.Compare(x.Target, y.Target))
}

func firstDiff(got, want []Event) string {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(got[i], want[i]) {
			return got[i].Target.String()
		}
	}
	return "length"
}

// TestQueryMultiStore checks store-major Iter order and the merged
// IterByStart order across two stores.
func TestQueryMultiStore(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	all := randomEvents(rng, 2000)
	var telEvs, hpEvs []Event
	for _, e := range all {
		if e.Source == SourceTelescope {
			telEvs = append(telEvs, e)
		} else {
			hpEvs = append(hpEvs, e)
		}
	}
	tel, hp := NewStore(telEvs), NewStore(hpEvs)

	// Iter: telescope events (sorted), then honeypot events (sorted).
	want := append(append([]Event(nil), tel.Events()...), hp.Events()...)
	if got := QueryStores(tel, hp).Events(); !reflect.DeepEqual(got, want) {
		t.Fatal("multi-store Iter is not store-major")
	}

	// IterByStart: the stable by-start merge the fusion join consumes.
	merged := append([]Event(nil), want...)
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].Start < merged[j].Start })
	var got []Event
	for e := range QueryStores(tel, hp).IterByStart() {
		got = append(got, *e)
	}
	if !reflect.DeepEqual(got, merged) {
		t.Fatal("IterByStart does not match the stable by-start sort")
	}

	// Filters apply on the merged stream too.
	var wantN int
	for i := range merged {
		if merged[i].Vector == VectorNTP {
			wantN++
		}
	}
	n := 0
	for range QueryStores(tel, hp).Vectors(VectorNTP).IterByStart() {
		n++
	}
	if n != wantN {
		t.Fatalf("filtered IterByStart = %d events, want %d", n, wantN)
	}

	// A /16 prefix runs IterByStart on by-target probe tasks. Over two
	// live stores whose sealed bodies interleave with unsealed tails in
	// several shards, with equal starts across the stores and equal
	// (start, target) keys inside each (body and tail rows alike), it
	// must equal the stable by-start merge of each store's
	// (start, target, arrival)-ordered events.
	evs := randomEvents(rng, 1600)
	for i := 800; i < 1600; i += 2 {
		evs[i].Start = evs[i-800].Start
	}
	for i := 1; i < 1600; i += 5 {
		evs[i].Start, evs[i].Target = evs[i-1].Start, evs[i-1].Target
	}
	for i := 600; i < 1600; i += 3 {
		if i%800 >= 600 { // a tail row keyed like a body row
			evs[i].Start, evs[i].Target = evs[i-300].Start, evs[i-300].Target
		}
	}
	live := func(evs []Event) *Store {
		st := NewStore(evs[:600])
		st.Seal()
		for _, e := range evs[600:] {
			st.Add(e)
		}
		tails := 0
		for _, sh := range st.view().shards {
			if sh.tail() > 0 {
				tails++
			}
		}
		if st.pendingRows() == 0 || tails < 2 {
			t.Fatalf("fixture left %d pending rows in %d shards, want tails in several shards", st.pendingRows(), tails)
		}
		return st
	}
	a, b := live(evs[:800]), live(evs[800:])
	prefix := netx.AddrFrom4(203, 1, 0, 0)
	var wantPrefix []Event
	for _, part := range [][]Event{evs[:800], evs[800:]} {
		sorted := slices.Clone(part)
		slices.SortStableFunc(sorted, cmpStartTarget)
		wantPrefix = append(wantPrefix, oracleFilter(sorted, func(e *Event) bool { return e.Target.Mask(16) == prefix })...)
	}
	slices.SortStableFunc(wantPrefix, func(x, y Event) int { return cmp.Compare(x.Start, y.Start) })
	var gotPrefix []Event
	for e := range QueryStores(a, b).TargetPrefix(prefix, 16).IterByStart() {
		gotPrefix = append(gotPrefix, *e)
	}
	if len(wantPrefix) == 0 || !reflect.DeepEqual(gotPrefix, wantPrefix) {
		t.Fatalf("/16 IterByStart over live stores: got %d events, want %d (first mismatch around %v)",
			len(gotPrefix), len(wantPrefix), firstDiff(gotPrefix, wantPrefix))
	}
}

// TestQueryAfterAdd checks that Add invalidates the lazy indexes.
func TestQueryAfterAdd(t *testing.T) {
	s := NewStore(sampleEvents())
	if n := s.Query().Vectors(VectorNTP).Count(); n != 1 {
		t.Fatalf("NTP count = %d", n)
	}
	s.Add(Event{Source: SourceHoneypot, Vector: VectorNTP,
		Target: netx.MustParseAddr("203.0.113.8"),
		Start:  WindowStart + 50, End: WindowStart + 60})
	if n := s.Query().Vectors(VectorNTP).Count(); n != 2 {
		t.Fatalf("NTP count after Add = %d", n)
	}
	if n := s.Query().Target(netx.MustParseAddr("203.0.113.8")).Count(); n != 1 {
		t.Fatalf("target count after Add = %d", n)
	}
	if len(s.Events()) != 4 {
		t.Fatal("Events() not refreshed after Add")
	}
}

// TestRoundTripChainProperty drives events through CSV, back into a
// store, through a DOSEVT02 segment, and back again; every leg must
// preserve the sorted event sequence exactly.
func TestRoundTripChainProperty(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore(randomEvents(rng, int(n)%256))
		want := s.Events()

		var csvBuf bytes.Buffer
		if err := s.WriteCSV(&csvBuf); err != nil {
			return false
		}
		fromCSV, err := ReadCSV(&csvBuf)
		if err != nil {
			return false
		}
		var segBuf bytes.Buffer
		if err := fromCSV.WriteSegment(&segBuf); err != nil {
			return false
		}
		fromSeg, err := OpenSegment(segBuf.Bytes())
		if err != nil {
			return false
		}
		got := fromSeg.Events()
		if len(want) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
