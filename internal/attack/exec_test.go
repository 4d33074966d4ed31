package attack

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
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
	fmt.Fprintf(&b, "db24=%d;", qf().CountDistinctBlocks(24))
	fmt.Fprintf(&b, "dtd=%v;", qf().CountDistinctTargetsByDay())

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

	groups := qf().GroupByTarget()
	keys := make([]netx.Addr, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	h = fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%d:", uint32(k))
		for _, e := range groups[k] {
			hashEvent(h, e)
		}
	}
	fmt.Fprintf(&b, "group=%x;", h.Sum64())

	// Fold with a non-commutative, non-associative-under-reorder merge:
	// any change in event order within a task or partial order across
	// tasks changes the result.
	folded := Fold(qf(), func() uint64 { return 1469598103934665603 },
		func(acc uint64, e *Event) uint64 {
			return acc*1099511628211 + uint64(uint32(e.Target)) + uint64(e.Start)
		},
		func(a, b uint64) uint64 { return a*37 + b })
	fmt.Fprintf(&b, "fold=%x;", folded)

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
// terminal returns byte-identical results for any worker count and any
// task completion order, over live stores (pending tails included),
// segment-backed stores, multi-store queries, and federated backends.
// The race CI job additionally runs this under -cpu 1,2,4, varying
// GOMAXPROCS for the default worker count.
func TestExecutorDeterminism(t *testing.T) {
	defer resetExecOrder()
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
	pred := func(e *Event) bool { return e.Packets%2 == 0 }
	shapes := []struct {
		name  string
		build func(w int) *Query
	}{
		{"unfiltered-live", func(w int) *Query { return live.Query().Workers(w) }},
		{"days-pred-live", func(w int) *Query { return live.Query().Days(5, 100).Where(pred).Workers(w) }},
		{"prefix-live", func(w int) *Query { return live.Query().TargetPrefix(prefix, 16).Workers(w) }},
		{"unfiltered-segment", func(w int) *Query { return segst.Query().Workers(w) }},
		{"multi-store", func(w int) *Query { return QueryStores(live, second).Workers(w) }},
	}
	variants := []struct {
		workers int
		seed    int64 // exec-order seed; -1 = natural
	}{
		{1, -1}, {2, 0}, {4, 1}, {8, 2}, {3, 3},
	}
	for _, shape := range shapes {
		setExecOrder(-1)
		want := fingerprint(t, func() *Query { return shape.build(1) })
		for _, v := range variants[1:] {
			setExecOrder(v.seed)
			got := fingerprint(t, func() *Query { return shape.build(v.workers) })
			if got != want {
				t.Fatalf("%s: workers=%d order-seed=%d diverged:\n got %s\nwant %s",
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
// tasks for index-served counts and prefix queries, scan tasks for
// predicate queries, bitmap hits and misses for the distinct terminals.
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
	st.Query().Where(func(e *Event) bool { return true }).Count()
	after = st.ExecStats()
	if after.ScanTasks == before.ScanTasks {
		t.Fatal("predicate Count did not record scan tasks")
	}

	before = after
	st.Query().TargetPrefix(netx.AddrFrom4(203, 0, 0, 0), 16).Count()
	after = st.ExecStats()
	if after.ProbeTasks == before.ProbeTasks {
		t.Fatal("prefix Count did not record probe tasks")
	}

	before = after
	st.Query().CountDistinctTargets()
	after = st.ExecStats()
	if after.BitmapTasks == before.BitmapTasks || after.BitmapHits == before.BitmapHits {
		t.Fatal("UniqueTargets did not record bitmap tasks/hits")
	}

	before = after
	st.Query().Source(SourceTelescope).CountDistinctTargets()
	after = st.ExecStats()
	if after.BitmapMisses == before.BitmapMisses {
		t.Fatal("filtered distinct count did not record a bitmap miss")
	}
}
