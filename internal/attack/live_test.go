package attack

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"doscope/internal/netx"
)

// sortedOracle returns the events in the store's global (Start, Target)
// order: a stable sort of the arrival sequence, which is exactly what
// sealing preserves.
func sortedOracle(evs []Event) []Event {
	out := append([]Event(nil), evs...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Target < out[j].Target
	})
	return out
}

// checkLiveOracle runs the query-case matrix against a store mid-ingest
// (pending tails and all) and compares every terminal with the naive
// slice oracle.
func checkLiveOracle(t *testing.T, st *Store, oracle []Event, full bool) {
	t.Helper()
	sorted := sortedOracle(oracle)
	for _, tc := range queryCases() {
		want := oracleFilter(sorted, tc.oracle)
		// Counting terminals first: they must answer from the index +
		// pending-tail scan without sealing anything.
		if got := tc.build(st.Query()).Count(); got != len(want) {
			t.Fatalf("%s: Count = %d, want %d (pending %d)", tc.name, got, len(want), st.pendingRows())
		}
		var wantVec [NumVectors]int
		for i := range want {
			wantVec[want[i].Vector]++
		}
		if got := tc.build(st.Query()).CountByVector(); got != wantVec {
			t.Fatalf("%s: CountByVector = %v, want %v", tc.name, got, wantVec)
		}
		wantDay := make([]int, WindowDays)
		for i := range want {
			if d := want[i].Day(); d >= 0 && d < WindowDays {
				wantDay[d]++
			}
		}
		if got := tc.build(st.Query()).CountByDay(); !reflect.DeepEqual(got, wantDay) {
			t.Fatalf("%s: CountByDay mismatch", tc.name)
		}
		if !full {
			continue
		}
		if got := tc.build(st.Query()).Events(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Events: got %d events, want %d (first diff %s)",
				tc.name, len(got), len(want), firstDiff(got, want))
		}
	}
	wantTargets := make(map[netx.Addr]struct{})
	for i := range oracle {
		wantTargets[oracle[i].Target] = struct{}{}
	}
	if got := st.Query().CountDistinctTargets(); got != len(wantTargets) {
		t.Fatalf("CountDistinctTargets = %d, want %d", got, len(wantTargets))
	}
}

// assertIndexesMatchRebuild compares the store's delta-maintained
// indexes against a from-scratch rebuild over the same events.
func assertIndexesMatchRebuild(t *testing.T, st *Store, oracle []Event) {
	t.Helper()
	fresh := NewStore(oracle)
	st.Seal()
	fresh.Seal()
	sv, fv := st.view(), fresh.view()
	if got, want := sv.counts.get(sv, countsIdx), fv.counts.get(fv, countsIdx); !reflect.DeepEqual(got, want) {
		t.Fatalf("delta-maintained count index diverged from a from-scratch rebuild:\n%+v\nvs\n%+v",
			got.out, want.out)
	}
	// The by-target permutations must each be a valid (target, start,
	// row) sort of exactly the sealed rows...
	for si, sh := range sv.shards {
		p := sv.perms.get(sv, permsIdx).perm[si]
		if len(p) != sh.sealed {
			t.Fatalf("shard %d: by-target permutation covers %d rows, sealed %d", si, len(p), sh.sealed)
		}
		for k := 1; k < len(p); k++ {
			if sh.cmpRowsTgt(p[k-1], p[k]) >= 0 {
				t.Fatalf("shard %d: by-target permutation out of order at %d", si, k)
			}
		}
	}
	// ...and resolve every address to the same events a rebuilt store
	// resolves it to.
	addrs := make(map[netx.Addr]struct{})
	for i := range oracle {
		addrs[oracle[i].Target] = struct{}{}
	}
	for addr := range addrs {
		got := st.Query().Target(addr).Events()
		want := fresh.Query().Target(addr).Events()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("by-target index[%v] resolves %d events, rebuild %d", addr, len(got), len(want))
		}
	}
}

// TestLiveIngestOracle is the live-ingest interleaving property test:
// alternating Add and AddBatch with counting, iterating, grouping and
// folding terminals between mutations, against a naive slice oracle —
// including ingest into a segment-backed (frozen) store — and asserting
// at the end that the incrementally maintained indexes match a
// from-scratch rebuild exactly.
func TestLiveIngestOracle(t *testing.T) {
	for _, fromSegment := range []bool{false, true} {
		name := "empty-store"
		if fromSegment {
			name = "segment-backed"
		}
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				var st *Store
				var oracle []Event
				if fromSegment {
					base := randomEvents(rng, 600)
					heap := NewStore(base)
					oracle = heap.Events()
					seg, err := OpenSegment(segmentBytes(t, heap))
					if err != nil {
						t.Fatal(err)
					}
					st = seg
					// Warm the indexes so the rest of the run maintains
					// them purely by deltas.
					st.Query().Count()
					st.Query().Target(oracle[0].Target).Count()
				} else {
					st = &Store{}
				}
				for round := 0; round < 6; round++ {
					if rng.Intn(2) == 0 {
						batch := randomEvents(rng, rng.Intn(200))
						st.AddBatch(batch)
						oracle = append(oracle, batch...)
					} else {
						singles := randomEvents(rng, rng.Intn(120))
						for i := range singles {
							st.Add(singles[i])
						}
						oracle = append(oracle, singles...)
					}
					// Full terminal matrix every other round keeps the
					// test fast while still interleaving seals (Iter)
					// with pending-tail counting paths.
					checkLiveOracle(t, st, oracle, round%2 == 1)
				}
				assertIndexesMatchRebuild(t, st, oracle)
			}
		})
	}
}

// TestLiveIngestNoRebuilds is the rebuild-counter assertion: the lazy
// indexes are built from scratch at most once per store lifetime — by
// the first reader that needs them — after which the writer adopts them
// and live ingest maintains them purely by seal deltas, with zero
// further rebuilds and zero full re-sorts (the incremental store has no
// full-sort path at all).
func TestLiveIngestNoRebuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	st := NewStore(randomEvents(rng, 2000))
	st.Seal() // seal everything so the first reads build real indexes

	if n := st.Query().Count(); n != 2000 {
		t.Fatalf("Count = %d", n)
	}
	if got := st.rebuilds.Load(); got != 1 {
		t.Fatalf("first Count built %d indexes, want 1", got)
	}
	target := st.Events()[0].Target
	st.Query().Target(target).Count()
	if got := st.rebuilds.Load(); got != 2 {
		t.Fatalf("target query raised rebuilds to %d, want 2", got)
	}

	// rowRef stability: remember which events the index resolves now.
	tq := st.Query().Target(target)
	var refs []rowRef
	ex := tq.compile(cmRows)
	for ti := range ex.tasks {
		si := ex.tasks[ti].si
		ex.drainTask(ti, true, func(_ *shard, i int) bool {
			refs = append(refs, rowRef{int32(si), int32(i)})
			return true
		})
	}
	wantEvents := make([]Event, len(refs))
	for i, ref := range refs {
		st.view().shards[ref.shard].view(int(ref.row), &wantEvents[i])
	}

	// Live ingest: thousands of Adds force many automatic seals, plus
	// explicit AddBatch seals. The first mutation adopts the
	// reader-built indexes; seal deltas maintain them from then on.
	extra := randomEvents(rng, 3000)
	for i := range extra[:1500] {
		st.Add(extra[i])
	}
	st.AddBatch(extra[1500:])
	st.Seal()

	if st.pendingRows() != 0 {
		t.Fatalf("Seal left %d pending rows", st.pendingRows())
	}
	if n := st.Query().Count(); n != 5000 {
		t.Fatalf("post-seal Count = %d, want 5000", n)
	}
	if got := st.rebuilds.Load(); got != 2 {
		t.Fatalf("live ingest triggered %d from-scratch index rebuilds; deltas should have maintained both indexes", got-2)
	}

	// The pre-ingest references must still resolve to the same events:
	// sealing rewrites order indexes, never rows.
	for i, ref := range refs {
		var got Event
		st.view().shards[ref.shard].view(int(ref.row), &got)
		if !reflect.DeepEqual(got, wantEvents[i]) {
			t.Fatalf("rowRef %d resolved to a different event after live ingest", i)
		}
	}

	// And the delta-maintained per-day counts must agree with a full
	// recount of everything ingested.
	wantDay := make([]int, WindowDays)
	for _, e := range st.Events() {
		if d := e.Day(); d >= 0 && d < WindowDays {
			wantDay[d]++
		}
	}
	if got := st.Query().CountByDay(); !reflect.DeepEqual(got, wantDay) {
		t.Fatal("post-seal CountByDay disagrees with a full recount")
	}
	if got := st.rebuilds.Load(); got != 2 {
		t.Fatalf("query traffic after seal triggered rebuilds (%d)", got-2)
	}
}

// adoptableIndex is one adoptable derived index as the adoption tests
// drive it: the lookup a reader's first query performs, and a query
// answered from that index alone, checked against a from-scratch store.
type adoptableIndex struct {
	name  string
	build func(v *view)
	pub   func(v *view) bool // the view carries the writer's copy
	check func(t *testing.T, st, fresh *Store, target netx.Addr)
}

var adoptableIndexes = []adoptableIndex{
	{
		name:  "counts",
		build: func(v *view) { v.counts.get(v, countsIdx) },
		pub:   func(v *view) bool { return v.counts.pub != nil },
		check: func(t *testing.T, st, fresh *Store, _ netx.Addr) {
			if got, want := st.Query().CountByVector(), fresh.Query().CountByVector(); got != want {
				t.Fatalf("CountByVector = %v, want %v", got, want)
			}
		},
	},
	{
		name:  "perms",
		build: func(v *view) { v.perms.get(v, permsIdx) },
		pub:   func(v *view) bool { return v.perms.pub != nil },
		check: func(t *testing.T, st, fresh *Store, target netx.Addr) {
			if got, want := st.Query().Target(target).Events(), fresh.Query().Target(target).Events(); !reflect.DeepEqual(got, want) {
				t.Fatalf("target query resolves %d events, want %d", len(got), len(want))
			}
		},
	},
}

// TestStaleLazyBuildIsAdopted: a lazy index built against a view that
// further ingest has already superseded must still be adopted — the
// writer catches it up from the build's sealed watermarks — so a busy
// writer can never starve adoption into rebuild-per-view behavior.
func TestStaleLazyBuildIsAdopted(t *testing.T) {
	for _, ix := range adoptableIndexes {
		t.Run(ix.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(83))
			evs := randomEvents(rng, 3000)
			st := NewStore(evs[:1000])
			st.Seal()
			stale := st.view()

			// Ingest moves on before any reader finishes a build: the
			// store publishes new views (with new sealed rows) that carry
			// no lazy results.
			st.AddBatch(evs[1000:2000])
			st.Seal()

			// Now a reader completes its build against the STALE view.
			ix.build(stale)
			if got := st.rebuilds.Load(); got != 1 {
				t.Fatalf("stale-view build counted %d rebuilds, want 1", got)
			}

			// The next mutation must adopt the build, delta it up to the
			// current sealed rows, and maintain it from then on.
			st.AddBatch(evs[2000:])
			st.Seal()
			if !ix.pub(st.view()) {
				t.Fatal("the view published after the mutation does not carry the adopted index")
			}
			ix.check(t, st, NewStore(evs), evs[2500].Target)
			if got := st.rebuilds.Load(); got != 1 {
				t.Fatalf("adoption failed: query traffic after ingest rebuilt the index (%d rebuilds, want 1)", got)
			}
			assertIndexesMatchRebuild(t, st, evs)
		})
	}
}

// TestLazyCatchUpAcrossViews: a view published after a registered
// build (but before any writer adoption) must catch up from that build
// by watermark deltas — correct results, no extra from-scratch rebuild
// — even though its own sealed rows have moved past the build's.
func TestLazyCatchUpAcrossViews(t *testing.T) {
	for _, ix := range adoptableIndexes {
		t.Run(ix.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(89))
			evs := randomEvents(rng, 2400)
			st := NewStore(evs[:1200])
			st.Seal()
			v1 := st.view()
			// More ingest publishes newer views; nothing is registered
			// yet, so the writer has nothing to adopt.
			st.AddBatch(evs[1200:])
			st.Seal()
			if v1 == st.view() {
				t.Fatal("ingest did not publish a new view")
			}

			// The old view's build registers first...
			ix.build(v1)
			if got := st.rebuilds.Load(); got != 1 {
				t.Fatalf("v1 build counted %d rebuilds, want 1", got)
			}
			// ...and the newer view extends it instead of rebuilding.
			fresh := NewStore(evs)
			fresh.Seal()
			ix.check(t, st, fresh, evs[1800].Target)
			if ix.pub(st.view()) {
				t.Fatal("the writer adopted without a mutation")
			}
			if got := st.rebuilds.Load(); got != 1 {
				t.Fatalf("newer view rebuilt instead of catching up (%d rebuilds, want 1)", got)
			}
		})
	}
}

// TestCatchUpDuringAdoption: the registration outlives the adopting
// mutation until that mutation publishes, so a reader of a view
// published before adoption catches up while the writer is mid-drain
// instead of rebuilding from scratch.
func TestCatchUpDuringAdoption(t *testing.T) {
	for _, ix := range adoptableIndexes {
		t.Run(ix.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(101))
			evs := randomEvents(rng, 2400)
			st := NewStore(evs[:1200])
			st.Seal()
			v1 := st.view()
			st.AddBatch(evs[1200:])
			st.Seal()
			v2 := st.view()
			ix.build(v1) // registers a build v2 is at or after

			// The adopting mutation, stopped before it publishes.
			st.mu.Lock()
			if !st.beginWrite() {
				t.Fatal("the mutation adopted nothing")
			}
			ix.build(v2)
			st.publish()
			st.mu.Unlock()

			if got := st.rebuilds.Load(); got != 1 {
				t.Fatalf("a view read mid-adoption rebuilt the index (%d rebuilds, want 1)", got)
			}
			fresh := NewStore(evs)
			fresh.Seal()
			ix.check(t, st, fresh, evs[1800].Target)
		})
	}
}

// TestAddBatchMatchesAdds checks that the batch path is observably
// identical to event-at-a-time ingest, and that it seals eagerly.
func TestAddBatchMatchesAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	evs := randomEvents(rng, 700)
	batch := &Store{}
	batch.AddBatch(evs)
	single := &Store{}
	for i := range evs {
		single.Add(evs[i])
	}
	if !reflect.DeepEqual(batch.Events(), single.Events()) {
		t.Fatal("AddBatch and Add produced different stores")
	}
	if batch.Version() != uint64(len(evs)) {
		t.Fatalf("Version after AddBatch = %d, want %d", batch.Version(), len(evs))
	}
	fresh := &Store{}
	fresh.AddBatch(evs)
	for si := range fresh.shards {
		if tl := fresh.shards[si].tail(); tl >= sealTailMax {
			t.Fatalf("shard %d kept a %d-row tail after AddBatch; threshold is %d", si, tl, sealTailMax)
		}
	}
	fresh.AddBatch(nil)
	if fresh.Version() != uint64(len(evs)) {
		t.Fatal("empty AddBatch bumped the version")
	}
}

// TestEventsDefensiveCopy: the deprecated shim must hand out a private
// slice — mutating it cannot corrupt later reads.
func TestEventsDefensiveCopy(t *testing.T) {
	s := NewStore(sampleEvents())
	evs := s.Events()
	want := append([]Event(nil), evs...)
	for i := range evs {
		evs[i] = Event{Target: netx.MustParseAddr("255.255.255.255")}
	}
	if !reflect.DeepEqual(s.Events(), want) {
		t.Fatal("mutating the Events() result corrupted the store's later reads")
	}
}

// TestBinaryPortClamp: port lists longer than a byte can count must
// round-trip in full through DOSEVT02 and CSV, without disturbing the
// record that follows.
func TestBinaryPortClamp(t *testing.T) {
	big := Event{
		Source: SourceTelescope, Vector: VectorTCP,
		Target: netx.MustParseAddr("203.0.113.7"),
		Start:  WindowStart + 100, End: WindowStart + 400,
		Packets: 500, Bytes: 20000, MaxPPS: 12.5,
	}
	for p := 0; p < 300; p++ {
		big.Ports = append(big.Ports, uint16(p+1))
	}
	follow := Event{
		Source: SourceHoneypot, Vector: VectorNTP,
		Target: netx.MustParseAddr("203.0.113.9"),
		Start:  WindowStart + 500, End: WindowStart + 900,
		Packets: 10, Bytes: 100, AvgRPS: 2,
		Ports: []uint16{123},
	}
	s := NewStore([]Event{big, follow})

	// DOSEVT02: lossless.
	from02, err := OpenSegment(segmentBytes(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if evs := from02.Events(); !reflect.DeepEqual(evs[0].Ports, big.Ports) {
		t.Fatalf("DOSEVT02 ports = %d entries, want %d", len(evs[0].Ports), len(big.Ports))
	} else if !reflect.DeepEqual(evs[1].Ports, follow.Ports) {
		t.Fatal("DOSEVT02 misread the record following the oversized one")
	}

	// CSV: lossless.
	var csvBuf bytes.Buffer
	if err := s.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	fromCSV, err := ReadCSV(&csvBuf)
	if err != nil {
		t.Fatal(err)
	}
	if evs := fromCSV.Events(); !reflect.DeepEqual(evs[0].Ports, big.Ports) {
		t.Fatalf("CSV ports = %d entries, want %d", len(evs[0].Ports), len(big.Ports))
	} else if !reflect.DeepEqual(evs[1].Ports, follow.Ports) {
		t.Fatal("CSV misread the record following the oversized one")
	}
}

// TestReadCSVPortTokens: trailing and doubled separators must be
// skipped, real garbage still rejected.
func TestReadCSVPortTokens(t *testing.T) {
	row := func(ports string) string {
		return "source,vector,target,start,end,packets,bytes,max_pps,avg_rps,ports\n" +
			`telescope,TCP,203.0.113.1,1425168100,1425168200,10,100,1,0,"` + ports + `"` + "\n"
	}
	cases := []struct {
		ports string
		want  []uint16
	}{
		{"80", []uint16{80}},
		{"80;", []uint16{80}},
		{"80;;443", []uint16{80, 443}},
		{";", nil},
		{";;", nil},
		{";8080", []uint16{8080}},
	}
	for _, c := range cases {
		s, err := ReadCSV(strings.NewReader(row(c.ports)))
		if err != nil {
			t.Errorf("ports %q: %v", c.ports, err)
			continue
		}
		got := s.Events()[0].Ports
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ports %q parsed as %v, want %v", c.ports, got, c.want)
		}
	}
	if _, err := ReadCSV(strings.NewReader(row("80;x"))); err == nil {
		t.Error("non-numeric port token accepted")
	}
	if _, err := ReadCSV(strings.NewReader(row("80;70000"))); err == nil {
		t.Error("out-of-range port token accepted")
	}
}

// TestSegmentAddThenCountImmediately: a segment-backed store that takes
// an Add before ANY other query must still count the pending row on the
// index fast path — the thawed shard's per-(source, vector) counts are
// not authoritative until countRows runs, so the pending-tail scan must
// not prune on them.
func TestSegmentAddThenCountImmediately(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	heap := NewStore(randomEvents(rng, 400))
	seg, err := OpenSegment(segmentBytes(t, heap))
	if err != nil {
		t.Fatal(err)
	}
	want := heap.Query().Vectors(VectorQOTD).Count()
	seg.Add(Event{
		Source: SourceHoneypot, Vector: VectorQOTD,
		Target: netx.MustParseAddr("198.18.0.1"),
		Start:  WindowStart + 42, End: WindowStart + 90,
	})
	if got := seg.Query().Vectors(VectorQOTD).Count(); got != want+1 {
		t.Fatalf("Count = %d, want %d (pending row on a thawed, uncounted shard was dropped)", got, want+1)
	}
}
