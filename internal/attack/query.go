package attack

import (
	"context"
	"iter"

	"doscope/internal/netx"
)

// Query is a Plan bound to one or more stores. Builder methods narrow
// the plan and return the receiver for chaining; terminal operations
// (Iter, IterByStart, Count, CountByVector, CountByDay,
// CountDistinctTargets, Events, Collect) execute it, pushing filters
// down to shard and index pruning instead of full scans. The plan is the
// same portable form federation ships to remote sites; QueryBackends
// runs the same shapes across any mix of local and remote backends.
//
// Execution is columnar: the source, vector, day, and target-prefix
// filters are tested against the hot shard columns (~14 bytes per event)
// and only matching rows are materialized into Event views.
//
// Every terminal is a lock-free read: it loads each store's published
// view once when it starts and runs entirely against that immutable
// snapshot, so terminals never block — or are blocked by — a concurrent
// writer, and never mutate store state. Every terminal compiles to the
// executor's per-shard tasks (exec.go), so a prefix of /8 or longer is
// served by by-target probes whichever terminal runs it. Counting
// terminals answer sealed rows from the incrementally maintained
// indexes and the small pending tails by linear scan; the terminals
// that need sorted order (Iter, IterByStart, Events and Store.Events)
// walk each task's ordered drain, which merges the pending tail on the
// fly through the same cursor seal uses, instead of sealing.
//
// A Query value is single-use (build a fresh one per execution), and
// two terminals on the same Query may observe different snapshots if a
// writer published between them; each terminal is individually
// consistent.
type Query struct {
	stores  []*Store
	plan    Plan
	startLo int64 // [startLo, startHi): the plan's day range as timestamps
	startHi int64
}

// Query starts a query over this store.
func (s *Store) Query() *Query { return QueryStores(s) }

// QueryStores starts a query spanning several stores (e.g. the telescope
// and honeypot data sets). Iter visits stores in argument order;
// IterByStart merges them by start time.
func QueryStores(stores ...*Store) *Query { return PlanAll().Query(stores...) }

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

// Source keeps only events observed by the given sensor. It panics on a
// source outside the enum.
func (q *Query) Source(src Source) *Query { q.plan.setSource(src); return q }

// Vectors keeps only events with one of the given attack vectors. It
// panics on a vector the plan's 32-bit mask cannot represent.
func (q *Query) Vectors(vs ...Vector) *Query { q.plan.addVectors(vs...); return q }

// Days keeps only events whose start day index lies in [lo, hi]
// (inclusive, saturated to the int32 day domain). Out-of-window events
// have negative or >= WindowDays day indexes and are excluded by any
// in-window range.
func (q *Query) Days(lo, hi int) *Query {
	q.plan.setDays(lo, hi)
	q.startLo, q.startHi = q.plan.startRange()
	return q
}

// Target keeps only events aimed at exactly this address (served from the
// by-target permutations).
func (q *Query) Target(a netx.Addr) *Query { return q.TargetPrefix(a, 32) }

// TargetPrefix keeps only events whose target falls inside a/bits. It
// panics on a prefix length outside [0, 32].
func (q *Query) TargetPrefix(a netx.Addr, bits int) *Query { q.plan.setPrefix(a, bits); return q }

// matchKey applies the columnar filters to row i's hot columns: the
// packed source|vector key, target address, and start timestamp. This is
// the fast path every scan takes before touching the payload columns;
// each column is loaded only if a filter actually reads it, so e.g. a
// vector-only query streams just the 2-byte key column.
func (q *Query) matchKey(sh *shard, i int) bool {
	p := &q.plan
	if p.Source >= 0 || p.VecMask != 0 {
		key := sh.key[i]
		if p.Source >= 0 && key>>8 != uint16(p.Source) {
			return false
		}
		if p.VecMask != 0 {
			if vec := key & 0xff; vec >= 32 || p.VecMask&(1<<vec) == 0 {
				return false
			}
		}
	}
	if p.HasPrefix && sh.target[i].Mask(int(p.PrefixBits)) != p.Prefix {
		return false
	}
	if p.HasDays {
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
	p := &q.plan
	if !p.HasDays {
		return 0, numShards - 1
	}
	if p.DayLo > p.DayHi {
		return 1, 0
	}
	return clampDay(int(p.DayLo)) / shardDays, clampDay(int(p.DayHi)) / shardDays
}

// mayMatch prunes shard si of the view on its (source, vector) cells:
// the pending-tail keys, scanned directly (fewer than sealTailMax rows),
// then the count index's cells for the shard's sealed rows. An index
// holding any out-of-range key keeps every shard.
func (q *Query) mayMatch(v *view, si int) bool {
	sh := v.shards[si]
	if sh.rows() == 0 {
		return false
	}
	p := &q.plan
	if p.Source < 0 && p.VecMask == 0 {
		return true
	}
	for _, k := range sh.key[sh.sealed:] {
		if p.selects(int(k>>8), int(k&0xff)) {
			return true
		}
	}
	if sh.sealed == 0 {
		return false
	}
	c := v.counts.get(v, countsIdx)
	if c.unindexed > 0 {
		return true
	}
	for src := 0; src < NumSources; src++ {
		for vec := 0; vec < NumVectors; vec++ {
			if p.selects(src, vec) && c.shard[si][src][vec] > 0 {
				return true
			}
		}
	}
	return false
}

// scanShard walks one shard snapshot in physical order, body and tail
// alike. Only the hot columns are read; nothing is materialized.
func (q *Query) scanShard(sh *shard, fn func(sh *shard, i int) bool) bool {
	for i, n := 0, sh.rows(); i < n; i++ {
		if q.matchKey(sh, i) && !fn(sh, i) {
			return false
		}
	}
	return true
}

// forEachPendingRow visits every pending-tail row matching the columnar
// filters. The count fast paths answer sealed rows from the
// incrementally maintained indexes and use this to fold in the (at most
// sealTailMax per shard) rows not yet sealed.
func (q *Query) forEachPendingRow(v *view, fn func(sh *shard, i int)) {
	lo, hi := q.shardRange()
	for si := lo; si <= hi && si < len(v.shards); si++ {
		sh := v.shards[si]
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
	return func(yield func(*Event) bool) { q.compile(cmRows).walk(yield) }
}

// IterByStart yields matching events from all stores merged by start
// time (ties favor the earlier store, then per-store order), the order
// the fusion pipeline consumes for daily stamping. It runs on the same
// compiled tasks as Iter: shard alignment makes it a per-shard-index
// k-way merge of the stores' ordered drains over the start column
// instead of a global sort, and rows are materialized only after they
// win the merge. The yielded *Event is scratch, valid until the next
// yield.
func (q *Query) IterByStart() iter.Seq[*Event] {
	return func(yield func(*Event) bool) {
		ex := q.compile(cmRows)
		// Tasks are view-major then shard-ascending, so each store's
		// tasks are one contiguous range [ti, end) walked in order.
		type run struct {
			d       rowDrain
			ti, end int
			head    int // the drain's next row in the merge, -1 if none
		}
		runs := make([]run, len(ex.views))
		for ti, t := range ex.tasks {
			r := &runs[t.vi]
			if r.end == 0 {
				r.ti = ti
			}
			r.end = ti + 1
		}
		var scratch Event
		for {
			si := -1 // the lowest shard index any store has left
			for k := range runs {
				if r := &runs[k]; r.ti < r.end && (si < 0 || ex.tasks[r.ti].si < si) {
					si = ex.tasks[r.ti].si
				}
			}
			if si < 0 {
				return
			}
			for k := range runs {
				r := &runs[k]
				r.head = -1
				if r.ti < r.end && ex.tasks[r.ti].si == si {
					r.d.reset(ex, r.ti)
					r.ti++
					r.head = r.d.next()
				}
			}
			for {
				best := -1
				var bestStart int64
				for k := range runs {
					if r := &runs[k]; r.head >= 0 {
						if s := r.d.c.sh.start[r.head]; best < 0 || s < bestStart {
							best, bestStart = k, s
						}
					}
				}
				if best < 0 {
					break
				}
				r := &runs[best]
				r.d.c.sh.view(r.head, &scratch)
				r.head = r.d.next()
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
// columns, fanned out across the worker pool, that materialize no events.
func (q *Query) Count() int {
	c, _ := q.execCounts(context.Background(), cmTotal)
	return c.n
}

// CountByVector returns matching event counts per attack vector, answered
// from the count index plus a pending-tail scan when the query has no
// prefix filter, and from per-shard key-column scan tasks otherwise.
// Events with out-of-range vector values are not counted.
func (q *Query) CountByVector() [NumVectors]int {
	c, _ := q.execCounts(context.Background(), cmVector)
	return c.vec
}

// CountByDay returns matching in-window event counts per start day
// (length WindowDays), answered from the count index plus a pending-tail
// scan when the query has no prefix filter, and from per-shard
// start-column scan tasks otherwise.
func (q *Query) CountByDay() []int {
	c, _ := q.execCounts(context.Background(), cmDay)
	return c.day
}
