package attack

import (
	"iter"

	"doscope/internal/netx"
)

// Query is a composable filter over one or more stores. Builder methods
// narrow the selection and return the receiver for chaining; terminal
// operations (Iter, IterByStart, Count, CountByVector, CountByDay,
// CountDistinctTargets, Events, Collect, and the package-level Fold)
// execute it, pushing filters down to shard and index pruning instead of
// full scans. Plan compiles the filters (minus Where predicates) to a
// portable form that federation ships to remote sites; QueryBackends
// runs the same shapes across any mix of local and remote backends.
//
// Execution is columnar: the source, vector, day, and target-prefix
// filters are tested against the hot shard columns (~14 bytes per event)
// and only matching rows are materialized into Event views.
//
// Every terminal is a lock-free read: it loads each store's published
// view once when it starts and runs entirely against that immutable
// snapshot, so terminals never block — or are blocked by — a concurrent
// writer, and never mutate store state. Counting terminals answer
// sealed rows from the incrementally maintained indexes and the small
// pending tails by linear scan; terminals that need sorted order
// (Iter, IterByStart, Fold) merge the pending tails on the fly instead
// of sealing.
//
// A Query value is single-use (build a fresh one per execution), and
// two terminals on the same Query may observe different snapshots if a
// writer published between them; each terminal is individually
// consistent.
type Query struct {
	stores     []*Store
	source     int8   // -1 = any
	vecMask    uint32 // 0 = all
	dayLo      int
	dayHi      int
	startLo    int64 // [startLo, startHi): the day range as timestamps
	startHi    int64
	hasDays    bool
	prefix     netx.Addr
	prefixBits int
	hasPrefix  bool
	pred       func(*Event) bool
	workers    int // executor parallelism bound; 0 = GOMAXPROCS
}

// Query starts a query over this store.
func (s *Store) Query() *Query { return QueryStores(s) }

// QueryStores starts a query spanning several stores (e.g. the telescope
// and honeypot data sets). Iter visits stores in argument order;
// IterByStart merges them by start time.
func QueryStores(stores ...*Store) *Query {
	return &Query{stores: stores, source: -1}
}

// views snapshots the published view of every store, in store order.
// Nil stores yield nil entries; empty stores yield the empty view.
func (q *Query) views() []*view {
	vs := make([]*view, len(q.stores))
	for i, st := range q.stores {
		if st != nil {
			vs[i] = st.view()
		}
	}
	return vs
}

// Source keeps only events observed by the given sensor.
func (q *Query) Source(src Source) *Query { q.source = int8(src); return q }

// Vectors keeps only events with one of the given attack vectors.
func (q *Query) Vectors(vs ...Vector) *Query {
	for _, v := range vs {
		q.vecMask |= 1 << v
	}
	return q
}

// Days keeps only events whose start day index lies in [lo, hi]
// (inclusive). Out-of-window events have negative or >= WindowDays day
// indexes and are excluded by any in-window range.
func (q *Query) Days(lo, hi int) *Query {
	q.hasDays, q.dayLo, q.dayHi = true, lo, hi
	// Precompute the range as start timestamps: DayOf is a floor
	// division, so d in [lo, hi] is exactly start in [lo*86400,
	// (hi+1)*86400) relative to the window — two compares per row on
	// the hot path instead of a division.
	q.startLo = WindowStart + int64(lo)*86400
	q.startHi = WindowStart + int64(hi+1)*86400
	return q
}

// Target keeps only events aimed at exactly this address (served from the
// by-target permutations).
func (q *Query) Target(a netx.Addr) *Query { return q.TargetPrefix(a, 32) }

// TargetPrefix keeps only events whose target falls inside a/bits.
func (q *Query) TargetPrefix(a netx.Addr, bits int) *Query {
	q.hasPrefix, q.prefixBits, q.prefix = true, bits, a.Mask(bits)
	return q
}

// Where adds an arbitrary predicate (composed with any previous one).
// Predicate-filtered queries cannot use the count indexes, and force
// candidate rows to be materialized before the predicate runs.
func (q *Query) Where(pred func(*Event) bool) *Query {
	if prev := q.pred; prev != nil {
		q.pred = func(e *Event) bool { return prev(e) && pred(e) }
	} else {
		q.pred = pred
	}
	return q
}

// matchKey applies the columnar filters to row i's hot columns: the
// packed source|vector key, target address, and start timestamp. This is
// the fast path every scan takes before touching the payload columns;
// each column is loaded only if a filter actually reads it, so e.g. a
// vector-only query streams just the 2-byte key column.
func (q *Query) matchKey(sh *shard, i int) bool {
	if q.source >= 0 || q.vecMask != 0 {
		key := sh.key[i]
		if q.source >= 0 && key>>8 != uint16(q.source) {
			return false
		}
		if q.vecMask != 0 {
			if vec := key & 0xff; vec >= 32 || q.vecMask&(1<<vec) == 0 {
				return false
			}
		}
	}
	if q.hasPrefix && sh.target[i].Mask(q.prefixBits) != q.prefix {
		return false
	}
	if q.hasDays {
		if s := sh.start[i]; s < q.startLo || s >= q.startHi {
			return false
		}
	}
	return true
}

func clampDay(d int) int {
	if d < 0 {
		return 0
	}
	if d >= WindowDays {
		return WindowDays - 1
	}
	return d
}

// shardRange returns the inclusive shard index range that can contain
// matching events given the day filter; lo > hi means no shard can.
func (q *Query) shardRange() (lo, hi int) {
	if !q.hasDays {
		return 0, numShards - 1
	}
	if q.dayLo > q.dayHi {
		return 1, 0
	}
	return clampDay(q.dayLo) / shardDays, clampDay(q.dayHi) / shardDays
}

// mayMatch prunes shard si of the view using its (source, vector)
// counts — the shard's own when the writer maintains them, or the
// view's once-per-view tallies for uncounted (segment-opened, never
// written) shards, so pruning survives the move to non-mutating reads.
func (q *Query) mayMatch(v *view, si int) bool {
	sh := v.shards[si]
	if sh.rows() == 0 {
		return false
	}
	if q.source < 0 && q.vecMask == 0 {
		return true
	}
	counts, unindexed := &sh.counts, sh.unindexed
	if !sh.counted {
		t := v.tallies.get(v, talliesIdx)
		counts, unindexed = &t[si].counts, t[si].unindexed
	}
	if unindexed > 0 {
		return true
	}
	for src := 0; src < 2; src++ {
		if q.source >= 0 && int(q.source) != src {
			continue
		}
		for vec := 0; vec < NumVectors; vec++ {
			if q.vecMask != 0 && q.vecMask&(1<<vec) == 0 {
				continue
			}
			if counts[src][vec] > 0 {
				return true
			}
		}
	}
	return false
}

// scanShard walks one shard snapshot, in (Start, Target) order when
// ordered (merging any pending tail on the fly) and physical order
// otherwise. The predicate-free case keeps the pure columnar loops:
// only the hot columns are read, nothing is materialized.
func (q *Query) scanShard(sh *shard, scratch *Event, ordered bool, fn func(sh *shard, i int) bool) bool {
	if q.pred == nil {
		if ordered && sh.tail() > 0 {
			c := newMergeCursor(sh)
			for i := c.next(); i >= 0; i = c.next() {
				if q.matchKey(sh, i) && !fn(sh, i) {
					return false
				}
			}
			return true
		}
		ord := sh.ord
		if !ordered {
			ord = nil // physical order covers body and tail alike
		}
		if ord == nil {
			for i, n := 0, sh.rows(); i < n; i++ {
				if q.matchKey(sh, i) && !fn(sh, i) {
					return false
				}
			}
			return true
		}
		for _, p := range ord {
			if i := int(p); q.matchKey(sh, i) && !fn(sh, i) {
				return false
			}
		}
		return true
	}
	visit := func(i int) bool {
		if !q.matchKey(sh, i) {
			return true
		}
		sh.view(i, scratch)
		if !q.pred(scratch) {
			return true
		}
		return fn(sh, i)
	}
	if ordered && sh.tail() > 0 {
		c := newMergeCursor(sh)
		for i := c.next(); i >= 0; i = c.next() {
			if !visit(i) {
				return false
			}
		}
		return true
	}
	ord := sh.ord
	if !ordered {
		ord = nil
	}
	if ord == nil {
		for i, n := 0, sh.rows(); i < n; i++ {
			if !visit(i) {
				return false
			}
		}
		return true
	}
	for _, p := range ord {
		if !visit(int(p)) {
			return false
		}
	}
	return true
}

// forEachPendingRow visits every pending-tail row matching the columnar
// filters. The count fast paths answer sealed rows from the
// incrementally maintained indexes and use this to fold in the (at most
// sealTailMax per shard) rows not yet sealed. Callers guarantee the
// query has no predicate.
func (q *Query) forEachPendingRow(v *view, fn func(sh *shard, i int)) {
	lo, hi := q.shardRange()
	for si := lo; si <= hi && si < len(v.shards); si++ {
		sh := v.shards[si]
		if sh.sealed == sh.rows() {
			continue
		}
		if !q.mayMatch(v, si) {
			continue
		}
		for i, n := sh.sealed, sh.rows(); i < n; i++ {
			if q.matchKey(sh, i) {
				fn(sh, i)
			}
		}
	}
}

// Iter yields matching events store by store, each in (Start, Target)
// order. The yielded *Event is a per-iteration scratch view materialized
// from the shard columns: it is valid until the next yield (and its Ports
// slice aliases store-owned memory, valid as long as the store is).
// Callers that retain events across iterations must copy them
// (Event.Clone), or use Events for retained results.
func (q *Query) Iter() iter.Seq[*Event] {
	return func(yield func(*Event) bool) {
		ex := q.compile(cmRows)
		var scratch Event
		for ti := range ex.tasks {
			ok := ex.drainTask(ti, true, &scratch, func(sh *shard, i int) bool {
				if q.pred == nil {
					sh.view(i, &scratch)
				}
				return yield(&scratch)
			})
			if !ok {
				return
			}
		}
	}
}

// IterByStart yields matching events from all stores merged by start
// time (ties favor the earlier store, then per-store order), the order
// the fusion pipeline consumes for daily stamping. Shard alignment makes
// this a per-day-range k-way merge over the start columns instead of a
// global sort; rows are materialized only after they win the merge, and
// pending tails join the merge on the fly. The yielded *Event is
// scratch, valid until the next yield.
func (q *Query) IterByStart() iter.Seq[*Event] {
	return func(yield func(*Event) bool) {
		lo, hi := q.shardRange()
		views := q.views()
		var scratch Event
		cursors := make([]mergeCursor, len(views))
		for si := lo; si <= hi; si++ {
			for k, v := range views {
				cursors[k] = mergeCursor{}
				if v == nil || si >= len(v.shards) {
					continue
				}
				if q.mayMatch(v, si) {
					cursors[k] = newMergeCursor(v.shards[si])
				}
			}
			for {
				best, bestRow := -1, -1
				var bestStart int64
				for k := range cursors {
					c := &cursors[k]
					if c.sh == nil {
						continue
					}
					row := c.peek()
					if row < 0 {
						continue
					}
					if s := c.sh.start[row]; best < 0 || s < bestStart {
						best, bestRow, bestStart = k, row, s
					}
				}
				if best < 0 {
					break
				}
				c := &cursors[best]
				c.advance()
				if !q.matchKey(c.sh, bestRow) {
					continue
				}
				c.sh.view(bestRow, &scratch)
				if q.pred != nil && !q.pred(&scratch) {
					continue
				}
				if !yield(&scratch) {
					return
				}
			}
		}
	}
}

// Events materializes the matching events (copies) in Iter order.
func (q *Query) Events() []Event {
	var out []Event
	for e := range q.Iter() {
		out = append(out, *e)
	}
	return out
}

// Count returns the number of matching events. Queries filtering only on
// source, vector, and day range are answered from the per-day count index
// plus a linear scan of the pending tails, without sealing or re-sorting
// anything; prefix queries (down to /8) from the by-target permutations.
// Everything else compiles to per-shard columnar scan tasks over the hot
// columns, fanned out across the worker pool, that materialize no events
// (unless a predicate forces it).
func (q *Query) Count() int {
	return q.execCounts(cmTotal).n
}

// countViaIndex answers a source/vector/day-only count over the SEALED
// rows from the per-day index (the caller adds pending-tail rows via
// forEachPendingRow). When perVec is non-nil it additionally accumulates
// per-vector totals. ok is false when the index cannot answer exactly
// (events with out-of-range enum values, or a day filter straddling the
// window edge while out-of-window events exist).
func (q *Query) countViaIndex(c *countsIndex, perVec *[NumVectors]int) (n int, ok bool) {
	if c.unindexed > 0 {
		return 0, false
	}
	includeOut := true
	dlo, dhi := 0, WindowDays-1
	if q.hasDays {
		if q.dayLo > q.dayHi {
			return 0, true
		}
		if q.dayLo < 0 || q.dayHi >= WindowDays {
			// The index does not resolve which side of the window an
			// out-of-window event falls on.
			if c.outTotal > 0 {
				return 0, false
			}
		}
		includeOut = false
		dlo, dhi = clampDay(q.dayLo), clampDay(q.dayHi)
		if q.dayHi < 0 || q.dayLo >= WindowDays {
			return 0, true
		}
	}
	for src := 0; src < 2; src++ {
		if q.source >= 0 && int(q.source) != src {
			continue
		}
		for v := 0; v < NumVectors; v++ {
			if q.vecMask != 0 && q.vecMask&(1<<v) == 0 {
				continue
			}
			sum := 0
			for d := dlo; d <= dhi; d++ {
				sum += int(c.day[d][src][v])
			}
			if includeOut {
				sum += int(c.out[src][v])
			}
			n += sum
			if perVec != nil {
				perVec[v] += sum
			}
		}
	}
	return n, true
}

// CountByVector returns matching event counts per attack vector, answered
// from the count index plus a pending-tail scan when the query has no
// prefix or predicate filter, and from per-shard key-column scan tasks
// otherwise. Events with out-of-range vector values are not counted.
func (q *Query) CountByVector() [NumVectors]int {
	return q.execCounts(cmVector).vec
}

// CountByDay returns matching in-window event counts per start day
// (length WindowDays), answered from the count index plus a pending-tail
// scan when the query has no prefix or predicate filter, and from
// per-shard start-column scan tasks otherwise.
func (q *Query) CountByDay() []int {
	return q.execCounts(cmDay).day
}

// Fold runs a parallel aggregation over the matching events: one task per
// shard index (spanning that shard in every store, store-major), fanned
// out over up to GOMAXPROCS goroutines. Within a task events arrive in
// Iter order; partials are merged in ascending shard order, so the result
// is deterministic for any GOMAXPROCS as long as acc is order-independent
// across shards or merge is associative in shard order.
//
// Fold snapshots every store's published view once, up front: all tasks
// see the same consistent data regardless of concurrent ingest, and no
// seal or index build runs on its account.
//
// The *Event passed to acc is a per-task scratch view, valid only for the
// duration of that acc call; accumulators that retain events must copy
// them.
//
// Because every store shards by day-of-window, a task sees all events of
// its day range across all stores: per-day aggregations (daily counts,
// per-day dedup sets) are safe to keep in the partial.
func Fold[T any](q *Query, init func() T, acc func(T, *Event) T, merge func(T, T) T) T {
	lo, hi := q.shardRange()
	views := q.views()
	var tasks []int
	for si := lo; si <= hi; si++ {
		for _, v := range views {
			if v == nil || si >= len(v.shards) {
				continue
			}
			if q.mayMatch(v, si) {
				tasks = append(tasks, si)
				break
			}
		}
	}
	partials := make([]T, len(tasks))
	runTasks(q.workers, len(tasks), func(ti int) {
		si := tasks[ti]
		val := init()
		var scratch Event
		for _, v := range views {
			if v == nil || si >= len(v.shards) {
				continue
			}
			if !q.mayMatch(v, si) {
				continue
			}
			statTask(v, execScan)
			sh := v.shards[si]
			c := newMergeCursor(sh)
			for i := c.next(); i >= 0; i = c.next() {
				if !q.matchKey(sh, i) {
					continue
				}
				sh.view(i, &scratch)
				if q.pred != nil && !q.pred(&scratch) {
					continue
				}
				val = acc(val, &scratch)
			}
		}
		partials[ti] = val
	})
	out := init()
	for _, p := range partials {
		out = merge(out, p)
	}
	return out
}
