package attack

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"doscope/internal/netx"
)

// setExecOrder installs a task-claim permutation for runTasks: seed -1
// restores natural order, 0 reverses, anything else shuffles under that
// seed. Callers must restore with defer resetExecOrder().
func setExecOrder(seed int64) {
	if seed < 0 {
		execOrder = nil
		return
	}
	execOrder = func(n int) []int {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		if seed == 0 {
			slices.Reverse(p)
		} else {
			rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
		}
		return p
	}
}

func resetExecOrder() { execOrder = nil }

func hashEvent(h interface{ Write([]byte) (int, error) }, e *Event) {
	fmt.Fprintf(h, "%d|%d|%d|%d|%d|%d|%d|%g|%g|%v;",
		e.Source, e.Vector, uint32(e.Target), e.Start, e.End, e.Packets, e.Bytes, e.MaxPPS, e.AvgRPS, e.Ports)
}

// fingerprint executes every local terminal of the query the factory
// builds and serializes the results into one comparable string. Queries
// are single-use, so each terminal gets a fresh one.
func fingerprint(t *testing.T, qf func() *Query) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "count=%d;", qf().Count())
	fmt.Fprintf(&b, "vec=%v;", qf().CountByVector())
	fmt.Fprintf(&b, "day=%v;", qf().CountByDay())
	fmt.Fprintf(&b, "dt=%d;", qf().CountDistinctTargets())

	h := fnv.New64a()
	for e := range qf().Iter() {
		hashEvent(h, e)
	}
	fmt.Fprintf(&b, "iter=%x;", h.Sum64())

	h = fnv.New64a()
	for e := range qf().IterByStart() {
		hashEvent(h, e)
	}
	fmt.Fprintf(&b, "bystart=%x;", h.Sum64())

	var seg bytes.Buffer
	if err := qf().Collect().WriteSegment(&seg); err != nil {
		t.Fatalf("Collect().WriteSegment: %v", err)
	}
	h = fnv.New64a()
	h.Write(seg.Bytes())
	fmt.Fprintf(&b, "collect=%x;", h.Sum64())
	return b.String()
}

// fedFingerprint does the same over the federated terminals, read
// strictly (every backend must answer).
func fedFingerprint(t *testing.T, ff func() *FedQuery) string {
	t.Helper()
	var b strings.Builder
	n, err := strict(ff().Count())
	if err != nil {
		t.Fatalf("fed Count: %v", err)
	}
	fmt.Fprintf(&b, "count=%d;", n)
	vec, err := strict(ff().CountByVector())
	if err != nil {
		t.Fatalf("fed CountByVector: %v", err)
	}
	fmt.Fprintf(&b, "vec=%v;", vec)
	day, err := strict(ff().CountByDay())
	if err != nil {
		t.Fatalf("fed CountByDay: %v", err)
	}
	fmt.Fprintf(&b, "day=%v;", day)
	it, statuses, closer, _ := ff().Iter()
	if err := StatusErr(statuses); err != nil {
		t.Fatalf("fed Iter: %v", err)
	}
	h := fnv.New64a()
	for e := range it {
		hashEvent(h, e)
	}
	closer.Close()
	fmt.Fprintf(&b, "iter=%x;", h.Sum64())
	return b.String()
}

// TestExecutorDeterminism is the executor's core property: every
// terminal returns byte-identical results for any worker count
// (GOMAXPROCS) and any task completion order, over live stores (pending
// tails included), segment-backed stores, multi-store queries, and
// federated backends. The race CI job additionally runs this under
// -cpu 1,2,4.
func TestExecutorDeterminism(t *testing.T) {
	defer resetExecOrder()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(7))
	evs := randomEvents(rng, 3000)
	live := NewStore(evs[:2500])
	live.Seal()
	for _, e := range evs[2500:2900] {
		live.Add(e) // leaves pending tails
	}
	second := NewStore(evs[2900:])
	second.Seal()

	var seg bytes.Buffer
	if err := live.WriteSegment(&seg); err != nil {
		t.Fatalf("WriteSegment: %v", err)
	}
	segst, err := OpenSegment(seg.Bytes())
	if err != nil {
		t.Fatalf("OpenSegment: %v", err)
	}

	prefix := evs[0].Target.Mask(16)
	shapes := []struct {
		name  string
		build func() *Query
	}{
		{"unfiltered-live", func() *Query { return live.Query() }},
		{"days-scan-live", func() *Query { return live.Query().Days(5, 100).TargetPrefix(prefix, 4) }},
		{"prefix-live", func() *Query { return live.Query().TargetPrefix(prefix, 16) }},
		{"unfiltered-segment", func() *Query { return segst.Query() }},
		{"multi-store", func() *Query { return QueryStores(live, second) }},
	}
	variants := []struct {
		workers int
		seed    int64 // exec-order seed; -1 = natural
	}{
		{1, -1}, {2, 0}, {4, 1}, {8, 2}, {3, 3},
	}
	for _, shape := range shapes {
		setExecOrder(-1)
		runtime.GOMAXPROCS(1)
		want := fingerprint(t, shape.build)
		for _, v := range variants[1:] {
			setExecOrder(v.seed)
			runtime.GOMAXPROCS(v.workers)
			got := fingerprint(t, shape.build)
			if got != want {
				t.Fatalf("%s: GOMAXPROCS=%d order-seed=%d diverged:\n got %s\nwant %s",
					shape.name, v.workers, v.seed, got, want)
			}
		}
	}

	// Federated terminals over local Queryable backends.
	setExecOrder(-1)
	fedWant := fedFingerprint(t, func() *FedQuery { return QueryBackends(live, second).Days(0, WindowDays-1) })
	for _, seed := range []int64{0, 1, 2} {
		setExecOrder(seed)
		if got := fedFingerprint(t, func() *FedQuery { return QueryBackends(live, second).Days(0, WindowDays-1) }); got != fedWant {
			t.Fatalf("federated: order-seed=%d diverged:\n got %s\nwant %s", seed, got, fedWant)
		}
	}
}

// TestExecStats checks the index-vs-scan execution counters: probe
// tasks for index-served counts and for prefix queries of /8 or longer
// (a prefix-filtered CountDistinctTargets among them), scan tasks for
// shorter prefixes and for unfiltered or source-filtered
// CountDistinctTargets.
func TestExecStats(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	st := NewStore(randomEvents(rng, 1000))
	st.Seal()

	before := st.ExecStats()
	st.Query().Count() // index-answerable → whole-view probe task
	after := st.ExecStats()
	if after.ProbeTasks == before.ProbeTasks {
		t.Fatal("index-served Count did not record a probe task")
	}

	before = after
	st.Query().TargetPrefix(netx.AddrFrom4(203, 0, 0, 0), 4).Count()
	after = st.ExecStats()
	if after.ScanTasks == before.ScanTasks || after.ProbeTasks != before.ProbeTasks {
		t.Fatal("a Count with a prefix shorter than /8 did not run on scan tasks alone")
	}

	before = after
	st.Query().TargetPrefix(netx.AddrFrom4(203, 0, 0, 0), 16).Count()
	after = st.ExecStats()
	if after.ProbeTasks == before.ProbeTasks {
		t.Fatal("prefix Count did not record probe tasks")
	}

	for _, distinct := range []struct {
		name  string
		run   func()
		probe bool
	}{
		{"CountDistinctTargets", func() { st.Query().CountDistinctTargets() }, false},
		{"source-filtered CountDistinctTargets", func() { st.Query().Source(SourceTelescope).CountDistinctTargets() }, false},
		{"prefix-filtered CountDistinctTargets", func() {
			st.Query().TargetPrefix(netx.AddrFrom4(203, 0, 0, 0), 16).CountDistinctTargets()
		}, true},
	} {
		before = after
		distinct.run()
		after = st.ExecStats()
		scans, probes := after.ScanTasks-before.ScanTasks, after.ProbeTasks-before.ProbeTasks
		if distinct.probe && (probes == 0 || scans != 0) {
			t.Fatalf("%s recorded %d scan and %d probe tasks, want probes only", distinct.name, scans, probes)
		}
		if !distinct.probe && (scans == 0 || probes != 0) {
			t.Fatalf("%s recorded %d scan and %d probe tasks, want scans only", distinct.name, scans, probes)
		}
	}
	if after.BitmapTasks != 0 || after.BitmapHits != 0 || after.BitmapMisses != 0 {
		t.Fatalf("bitmap counters = %+v, want zero", after)
	}
}

// pairTally counts a store's events by (source, vector) and records the
// shards holding each pair, by one Iter pass.
func pairTally(st *Store) (n [NumSources][NumVectors]int, shards [NumSources][NumVectors]map[int]bool) {
	for e := range st.Query().Iter() {
		src, vec := int(e.Source), int(e.Vector)
		if src >= NumSources || vec >= NumVectors {
			continue
		}
		n[src][vec]++
		if shards[src][vec] == nil {
			shards[src][vec] = make(map[int]bool)
		}
		shards[src][vec][shardOf(e.Start)] = true
	}
	return n, shards
}

// TestShardPruning checks that source/vector-filtered scans prune: for
// every (source, vector) pair, a /0-prefix count (scan tasks, never the
// count index's answer) agrees with a brute-force tally and runs exactly
// one scan task per shard holding the pair — over sealed and pending
// heap rows, a segment-opened store, and a segment store thawed by an
// append. With an out-of-range key present pruning is off, so only the
// count is checked.
func TestShardPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	evs := randomEvents(rng, 2000)
	sealed := NewStore(evs)
	sealed.Seal()
	pending := NewStore(evs[:1500])
	pending.Seal()
	for _, e := range evs[1500:] {
		pending.Add(e)
	}
	if pending.pendingRows() == 0 {
		t.Fatal("fixture left no pending rows")
	}
	segst, err := OpenSegment(segmentBytes(t, sealed))
	if err != nil {
		t.Fatal(err)
	}
	thawed, err := OpenSegment(segmentBytes(t, pending))
	if err != nil {
		t.Fatal(err)
	}
	thawed.Add(Event{Source: SourceHoneypot, Vector: VectorQOTD,
		Target: netx.AddrFrom4(198, 18, 0, 1), Start: WindowStart + 42, End: WindowStart + 90})
	unindexed := NewStore(evs)
	unindexed.Add(Event{Source: SourceTelescope, Vector: Vector(40),
		Target: netx.AddrFrom4(198, 18, 0, 2), Start: WindowStart + 86400})
	unindexed.Seal()

	for _, c := range []struct {
		name  string
		st    *Store
		prune bool
	}{
		{"sealed-heap", sealed, true},
		{"pending-heap", pending, true},
		{"segment", segst, true},
		{"thawed-segment", thawed, true},
		{"unindexed", unindexed, false},
	} {
		want, holding := pairTally(c.st)
		for src := Source(0); int(src) < NumSources; src++ {
			for vec := Vector(0); int(vec) < NumVectors; vec++ {
				before := c.st.ExecStats().ScanTasks
				got := c.st.Query().Source(src).Vectors(vec).TargetPrefix(0, 0).Count()
				scans := c.st.ExecStats().ScanTasks - before
				if got != want[src][vec] {
					t.Fatalf("%s: (%v, %v) counted %d, want %d", c.name, src, vec, got, want[src][vec])
				}
				if c.prune && scans != uint64(len(holding[src][vec])) {
					t.Fatalf("%s: (%v, %v) ran %d scan tasks, want %d (the shards holding the pair)",
						c.name, src, vec, scans, len(holding[src][vec]))
				}
			}
		}
	}
}

// TestStoreContextCancelled: a local store's context methods refuse a
// done context before running a single executor task, on an
// index-answered plan and on a /4-prefix plan that compiles to scans,
// while Count over the same plan is unaffected.
func TestStoreContextCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	st := NewStore(randomEvents(rng, 1000))
	st.Seal()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name string
		plan Plan
		scan bool
	}{
		{"count-index", PlanAll(), false},
		{"prefix-scan", st.Query().TargetPrefix(netx.AddrFrom4(203, 0, 0, 0), 4).Plan(), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.plan.Query(st).Count()
			before := st.ExecStats()
			for _, call := range []struct {
				name string
				run  func() error
			}{
				{"PlanCountContext", func() error { _, err := st.PlanCountContext(ctx, tc.plan); return err }},
				{"PlanCountByVectorContext", func() error { _, err := st.PlanCountByVectorContext(ctx, tc.plan); return err }},
				{"PlanCountByDayContext", func() error { _, err := st.PlanCountByDayContext(ctx, tc.plan); return err }},
				{"PlanStoreContext", func() error { _, _, err := st.PlanStoreContext(ctx, tc.plan); return err }},
			} {
				if err := call.run(); !errors.Is(err, context.Canceled) {
					t.Errorf("%s under a cancelled context: err = %v, want context.Canceled", call.name, err)
				}
			}
			if after := st.ExecStats(); after != before {
				t.Errorf("cancelled calls ran executor tasks: %+v -> %+v", before, after)
			}
			if got := tc.plan.Query(st).Count(); got != want {
				t.Errorf("Count = %d after the cancelled calls, want %d", got, want)
			}
			after := st.ExecStats()
			if scans := after.ScanTasks - before.ScanTasks; (scans > 0) != tc.scan {
				t.Errorf("Count ran %d scan tasks; want scans: %v", scans, tc.scan)
			}
		})
	}
}

// TestRunTasksStopsOnCancel: once ctx is done no task is claimed. A
// task may start after the cancellation only if its worker claimed it
// before, so at most one per worker other than the canceller does, and
// runTasks reports the cancellation.
func TestRunTasksStopsOnCancel(t *testing.T) {
	const n = 1000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran, late atomic.Int64
	err := runTasks(ctx, n, func(int) {
		if ctx.Err() != nil {
			late.Add(1)
		}
		if ran.Add(1) == 1 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("runTasks = %v, want context.Canceled", err)
	}
	if got, most := late.Load(), int64(runtime.GOMAXPROCS(0)-1); got > most {
		t.Errorf("%d tasks started after the cancellation, want at most %d", got, most)
	}
	if err := runTasks(context.Background(), n, func(int) { ran.Add(1) }); err != nil {
		t.Errorf("runTasks under context.Background() = %v", err)
	}
}
