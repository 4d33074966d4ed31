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
	shapes := []struct {
		name  string
		build func(w int) *Query
	}{
		{"unfiltered-live", func(w int) *Query { return live.Query().Workers(w) }},
		{"days-scan-live", func(w int) *Query { return live.Query().Days(5, 100).TargetPrefix(prefix, 4).Workers(w) }},
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
