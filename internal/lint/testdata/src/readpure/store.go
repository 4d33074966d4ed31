// Corpus for the readpurity analyzer. The package is named attack on
// purpose — the analyzer only engages there — and reproduces the real
// store's shape: a published-view pointer, a writer mutex, loader
// methods (Store.view, Query.views), mutators, and query terminals.
package attack

import (
	"sync"
	"sync/atomic"
)

type view struct {
	length int
}

var emptyView view

type Event struct {
	Start int64
	Ports []uint16
}

type shard struct{ start []int64 }

// indexKind mirrors the derived-index protocol: a generic kind whose
// writer side (adopt, sealRows, publish) mutates the store's copy.
type indexKind[I any] struct {
	extend func(x *I, lo, hi int)
}

type countsIndex struct{ n int }

var countsIdx = &indexKind[countsIndex]{
	extend: func(c *countsIndex, lo, hi int) { c.n += hi - lo },
}

// adopt promotes a registered build into writer-maintained state.
func (k *indexKind[I]) adopt(s *Store) bool { return s != nil }

// lookup is the read side of the protocol: pure.
func (k *indexKind[I]) lookup(v *view) int { return v.length }

func (sh *shard) appendRow(e *Event) { sh.start = append(sh.start, e.Start) }

type Store struct {
	mu     sync.Mutex
	pub    atomic.Pointer[view]
	shards []shard
}

// view is the blessed loader: the only reader of Store.pub.
func (s *Store) view() *view {
	if v := s.pub.Load(); v != nil {
		return v
	}
	return &emptyView
}

// publish is the blessed writer of Store.pub.
func (s *Store) publish() {
	prev := s.pub.Load()
	nv := &view{}
	if prev != nil {
		nv.length = prev.length
	}
	s.pub.Store(nv)
}

// Add is a mutator: locking here is fine, it is not a read path.
func (s *Store) Add(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.shards) == 0 {
		s.shards = make([]shard, 1)
	}
	s.shards[0].appendRow(&e)
	s.publish()
}

// NewStore is a constructor: reachability stops at *Store returns.
func NewStore(events []Event) *Store {
	s := &Store{}
	for _, e := range events {
		s.Add(e)
	}
	return s
}

// ---- the MPSC ingest front (PR 9 shape) ----

type pendingBatch struct{ events []Event }

// enqueue, drainAll, Flush, and Close are writer-side: the drainer's
// publication path. The analyzer treats them as mutators, so locking
// and publishing inside them is fine — and reaching them from a read
// path is flagged.
func (s *Store) enqueue(events []Event) *pendingBatch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &pendingBatch{events: events}
}

func (s *Store) drainAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.shards) == 0 {
		s.shards = make([]shard, 1)
	}
	s.publish()
}

func (s *Store) Flush() { s.drainAll() }

func (s *Store) Close() error {
	s.Flush()
	return nil
}

// AddBatch routes through the queue: mutator calling mutators, clean.
func (s *Store) AddBatch(events []Event) {
	s.enqueue(events)
	s.drainAll()
}

type Query struct{ stores []*Store }

func (s *Store) Query() *Query { return &Query{stores: []*Store{s}} }

// views is the multi-store loader; its per-store loop is the one
// blessed loader loop.
func (q *Query) views() []*view {
	out := make([]*view, 0, len(q.stores))
	for _, st := range q.stores {
		out = append(out, st.view())
	}
	return out
}

// ---- clean read paths ----

// Count loads once and fans out to pure helpers.
func (q *Query) Count() int {
	n := 0
	for _, v := range q.views() {
		n += countView(v)
	}
	return n
}

func countView(v *view) int { return v.length }

// Len is one load per execution.
func (s *Store) Len() int { return s.view().length }

// Collect crosses a constructor boundary: the fresh store is private
// and may be mutated/locked by its builder.
func (q *Query) Collect() *Store {
	n := 0
	for _, v := range q.views() {
		n += v.length
	}
	return NewStore(make([]Event, 0, n))
}

// ---- violations ----

// badLocked takes the writer mutex on a read path.
func (s *Store) badLocked() int {
	s.mu.Lock()         // want `touches a sync mutex`
	defer s.mu.Unlock() // want `touches a sync mutex`
	return s.view().length
}

// badMutates calls a mutator from a read path.
func (s *Store) badMutates() int {
	n := s.view().length
	s.Add(Event{}) // want `calls the mutator Add`
	return n
}

// badDouble loads the published view twice in one execution.
func (s *Store) badDouble() int {
	a := s.view().length
	b := s.view().length // want `more than once per execution`
	return a + b
}

// badLoop reloads a loop-invariant receiver's view every iteration.
func (s *Store) badLoop(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		total += s.view().length // want `inside a loop`
	}
	return total
}

// Tally is a read path whose helper mutates two hops down.
func (q *Query) Tally() int {
	total := 0
	for _, v := range q.views() {
		total += tallyHelper(q.stores[0], v.length)
	}
	return total
}

func tallyHelper(s *Store, n int) int {
	s.publish() // want `calls the mutator publish`
	return n
}

// badFlushes forces a drain (a publication) from a read path.
func (s *Store) badFlushes() int {
	s.Flush() // want `calls the mutator Flush`
	return s.view().length
}

// badDrains reaches the drainer's publication path from a read path,
// one hop down.
func (q *Query) badDrains() int {
	n := 0
	for _, v := range q.views() {
		n += drainHelper(q.stores[0], v.length)
	}
	return n
}

func drainHelper(s *Store, n int) int {
	s.drainAll() // want `calls the mutator drainAll`
	return n
}

// badEnqueues: even the enqueue half (no publication of its own) is
// writer-side — it can block on backpressure until a drain publishes.
func (s *Store) badEnqueues() int {
	s.enqueue(nil) // want `calls the mutator enqueue`
	return s.view().length
}

// badAdopts reaches the derived-index adoption path from a read path:
// adopting makes the writer's copy the one later seals extend.
func (s *Store) badAdopts() int {
	v := s.view()
	countsIdx.adopt(s) // want `calls the mutator adopt`
	return countsIdx.lookup(v)
}

// badPub reads the published pointer outside view/publish.
func (s *Store) badPub() int {
	if v := s.pub.Load(); v != nil { // want `accesses Store.pub directly`
		return v.length
	}
	return 0
}

// ---- the per-shard executor (PR 10 shape) ----

// Seal is a mutator in the real store: it compacts a shard under the
// writer lock and republishes.
func (s *Store) Seal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.publish()
}

// runTasks mirrors the executor's worker pool: a pure fan-out helper
// that hands each task index to run.
func runTasks(workers, n int, run func(ti int)) {
	if workers <= 0 {
		workers = 1
	}
	for ti := 0; ti < n; ti++ {
		run(ti)
	}
}

// ExecCount is the clean executor shape: one views() load before the
// fan-out, worker bodies touching only the snapshot they were handed.
func (q *Query) ExecCount() int {
	vs := q.views()
	parts := make([]int, len(vs))
	runTasks(0, len(vs), func(ti int) {
		parts[ti] = countView(vs[ti])
	})
	n := 0
	for _, p := range parts {
		n += p
	}
	return n
}

// badWorkerSeals: a worker body calling a mutator is still the read
// path mutating — func literals attribute to the enclosing terminal.
func (q *Query) badWorkerSeals() int {
	vs := q.views()
	parts := make([]int, len(vs))
	runTasks(0, len(vs), func(ti int) {
		q.stores[0].Seal() // want `calls the mutator Seal`
		parts[ti] = countView(vs[ti])
	})
	return len(parts)
}

// badWorkerLocks takes the writer mutex inside a worker body.
func (q *Query) badWorkerLocks() int {
	vs := q.views()
	parts := make([]int, len(vs))
	runTasks(0, len(vs), func(ti int) {
		q.stores[0].mu.Lock() // want `touches a sync mutex`
		parts[ti] = countView(vs[ti])
		q.stores[0].mu.Unlock() // want `touches a sync mutex`
	})
	return len(parts)
}

// badWorkerPub peeks at the published pointer from a worker body.
func (q *Query) badWorkerPub() int {
	vs := q.views()
	n := 0
	runTasks(0, len(vs), func(ti int) {
		if v := q.stores[0].pub.Load(); v != nil { // want `accesses Store.pub directly`
			n += v.length
		}
	})
	return n
}

// badWorkerReload: the terminal loaded its snapshot before the
// fan-out; a worker loading again can observe a newer publication and
// split the execution across two snapshots.
func (q *Query) badWorkerReload() int {
	vs := q.views()
	n := 0
	runTasks(0, len(vs), func(ti int) {
		n += len(q.views()) // want `more than once per execution`
	})
	return len(vs) + n
}

// suppressed shows the escape hatch for a justified exception.
func (s *Store) suppressed() int {
	a := s.view().length
	//dosvet:ignore readpurity deliberate second load in a stats probe
	b := s.view().length
	return a + b
}
