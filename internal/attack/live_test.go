package attack

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
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
// the first reader that needs them — after which every later view
// catches up from the newest build by seal deltas, with zero further
// rebuilds and zero full re-sorts (the incremental store has no
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
		ex.drainTask(ti, func(_ *shard, i int) bool {
			refs = append(refs, rowRef{int32(si), int32(i)})
			return true
		})
	}
	wantEvents := make([]Event, len(refs))
	for i, ref := range refs {
		st.view().shards[ref.shard].view(int(ref.row), &wantEvents[i])
	}

	// Live ingest: thousands of Adds force many automatic seals, plus
	// explicit AddBatch seals. The next reader catches the newest builds
	// up by the rows sealed since.
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

// derivedKind is one derived index as the catch-up tests drive it: the
// lookup a reader's first query performs, and a query answered from
// that index alone, checked against a from-scratch store.
type derivedKind struct {
	name  string
	build func(v *view)
	check func(t *testing.T, st, fresh *Store, target netx.Addr)
}

var derivedKinds = []derivedKind{
	{
		name:  "counts",
		build: func(v *view) { v.counts.get(v, countsIdx) },
		check: func(t *testing.T, st, fresh *Store, _ netx.Addr) {
			if got, want := st.Query().CountByVector(), fresh.Query().CountByVector(); got != want {
				t.Fatalf("CountByVector = %v, want %v", got, want)
			}
		},
	},
	{
		name:  "perms",
		build: func(v *view) { v.perms.get(v, permsIdx) },
		check: func(t *testing.T, st, fresh *Store, target netx.Addr) {
			if got, want := st.Query().Target(target).Events(), fresh.Query().Target(target).Events(); !reflect.DeepEqual(got, want) {
				t.Fatalf("target query resolves %d events, want %d", len(got), len(want))
			}
		},
	},
}

// TestStaleBuildIsCaughtUp: a lazy index built against a view that
// further ingest has already superseded still serves every later view —
// each catches up from the build's sealed watermarks — so a busy writer
// can never starve readers into rebuild-per-view behavior.
func TestStaleBuildIsCaughtUp(t *testing.T) {
	for _, ix := range derivedKinds {
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

			// Views published after more ingest catch up from the build.
			st.AddBatch(evs[2000:])
			st.Seal()
			ix.check(t, st, NewStore(evs), evs[2500].Target)
			if got := st.rebuilds.Load(); got != 1 {
				t.Fatalf("catch-up failed: query traffic after ingest rebuilt the index (%d rebuilds, want 1)", got)
			}
			assertIndexesMatchRebuild(t, st, evs)
		})
	}
}

// TestLazyCatchUpAcrossViews: a view published after a build of an
// older view must catch up from that build by watermark deltas —
// correct results, no extra from-scratch rebuild — even though its own
// sealed rows have moved past the build's. A reader mid-write is such a
// view: the writer publishes without touching the build.
func TestLazyCatchUpAcrossViews(t *testing.T) {
	for _, ix := range derivedKinds {
		t.Run(ix.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(89))
			evs := randomEvents(rng, 2400)
			st := NewStore(evs[:1200])
			st.Seal()
			v1 := st.view()
			// More ingest publishes newer views before any reader
			// builds.
			st.AddBatch(evs[1200:])
			st.Seal()
			if v1 == st.view() {
				t.Fatal("ingest did not publish a new view")
			}

			// The old view builds first...
			ix.build(v1)
			if got := st.rebuilds.Load(); got != 1 {
				t.Fatalf("v1 build counted %d rebuilds, want 1", got)
			}
			// ...and the newer view extends it instead of rebuilding.
			fresh := NewStore(evs)
			fresh.Seal()
			ix.check(t, st, fresh, evs[1800].Target)
			if got := st.rebuilds.Load(); got != 1 {
				t.Fatalf("newer view rebuilt instead of catching up (%d rebuilds, want 1)", got)
			}
		})
	}
}

// spareCapacityViews builds a one-shard store whose newest permutation
// build holds spare capacity, plus two later views that would both
// extend it by appending: every batch's targets sort after the rows
// sealed before the newest build. It returns that build and the views.
func spareCapacityViews(t *testing.T) (st *Store, newest *builtIndex[targetPerms], v3, v4 *view) {
	t.Helper()
	batch := func(n int, target uint32) []Event {
		evs := make([]Event, n)
		for i := range evs {
			evs[i] = Event{
				Source: SourceTelescope, Vector: VectorTCP,
				Target: netx.Addr(target + uint32(i)),
				Start:  WindowStart + int64(i), End: WindowStart + int64(i) + 60,
			}
		}
		return evs
	}
	st = &Store{}
	sealed := func(evs []Event) *view {
		st.AddBatch(evs)
		st.Seal()
		return st.view()
	}
	v1 := sealed(batch(sealTailMax, 1000))
	v1.perms.get(v1, permsIdx) // the from-scratch build: exact capacity
	v2 := sealed(batch(10, 2000))
	v2.perms.get(v2, permsIdx) // a catch-up by append: spare capacity
	newest = st.perms.Load()
	if p := newest.x.perm[0]; cap(p) == len(p) {
		t.Fatalf("the newest build has no spare capacity (len %d)", len(p))
	}
	// v3 appends rows targeting 4000.., v4 appends rows targeting 3000..
	// ahead of them, so both write the newest build's spare capacity
	// with different rows.
	v3 = sealed(batch(10, 4000))
	v4 = sealed(batch(10, 3000))
	return st, newest, v3, v4
}

// assertPermsMatchRebuild compares a view's by-target permutations with
// a from-scratch build over the same view.
func assertPermsMatchRebuild(t *testing.T, name string, v *view) {
	t.Helper()
	want := permsIdx.fresh()
	permsIdx.extendFrom(want, &[numShards]int32{}, v.shards)
	if got := v.perms.get(v, permsIdx); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: by-target permutations diverged from a from-scratch build", name)
	}
}

// TestCatchUpOwnsSpareCapacity: two views that catch up from the same
// build with spare capacity must not append into one backing array. The
// store's newest build is reset between the two catch-ups so both
// extend the same build; the second must leave the first's rows alone.
func TestCatchUpOwnsSpareCapacity(t *testing.T) {
	st, newest, v3, v4 := spareCapacityViews(t)
	v3.perms.get(v3, permsIdx)
	st.perms.Store(newest)
	v4.perms.get(v4, permsIdx)
	assertPermsMatchRebuild(t, "v3", v3)
	assertPermsMatchRebuild(t, "v4", v4)
	if got := st.rebuilds.Load(); got != 1 {
		t.Fatalf("%d from-scratch builds, want 1", got)
	}
	assertIndexesMatchRebuild(t, st, st.Events())
}

// TestConcurrentCatchUp is the goroutine variant of
// TestCatchUpOwnsSpareCapacity for the race detector: two readers catch
// up from one build with spare capacity at the same time.
func TestConcurrentCatchUp(t *testing.T) {
	for round := 0; round < 10; round++ {
		_, _, v3, v4 := spareCapacityViews(t)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for _, v := range []*view{v3, v4} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				v.perms.get(v, permsIdx)
			}()
		}
		close(start)
		wg.Wait()
		assertPermsMatchRebuild(t, "v3", v3)
		assertPermsMatchRebuild(t, "v4", v4)
	}
}

// TestWriteOnlyStoreBuildsNoIndex: the derived indexes are a read-side
// cache, so a store that is only ever written builds none of them.
func TestWriteOnlyStoreBuildsNoIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	st := &Store{}
	for round := 0; round < 50; round++ {
		st.AddBatch(randomEvents(rng, 100))
		if round%5 == 0 {
			st.Seal()
		}
	}
	st.Seal()
	if got := st.rebuilds.Load(); got != 0 {
		t.Fatalf("a write-only store counted %d index builds", got)
	}
	if st.counts.Load() != nil || st.perms.Load() != nil {
		t.Fatal("a write-only store holds a derived index build")
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
// index fast path — the count index covers sealed rows only, so the
// pending-tail scan must not prune the thawed shard on it.
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
		t.Fatalf("Count = %d, want %d (pending row on a thawed shard was dropped)", got, want+1)
	}
}
