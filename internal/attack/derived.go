package attack

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Derived indexes are structures computed from the sealed rows of a
// view's shards: the count index and the by-target permutations. A kind
// is defined by three functions — an empty index, a writable copy of a
// shared one, and an extension by newly sealed rows — and one mechanism
// owns everything else:
//
//   - Per view, the first reader that needs an index builds it once
//     (viewMemo), unless the view was published carrying the writer's
//     copy — then the lookup is a field load.
//   - A from-scratch build registers itself on the store (indexSlot,
//     first build wins) with the per-shard sealed row counts it covers,
//     and bumps Store.rebuilds.
//   - A later view whose shards have all sealed at least that far
//     catches up from the registered build by extending a copy of it
//     over the rows sealed since, instead of rebuilding.
//   - The writer adopts the registered build on its next mutation,
//     catches it up the same way, extends it by every seal's new rows
//     from then on, and publishes it with every view; the first such
//     publication drops the registration.
//
// Rows seal strictly in physical order, so the rows a build has not
// seen are exactly [watermark, sealed) of each shard, however many
// views were published since. Registered and published copies are never
// rewritten: whoever extends a copy it does not own takes one through
// own first.
type indexKind[I any] struct {
	// fresh returns an empty index.
	fresh func() *I
	// own returns a copy of x that extend may mutate without rewriting
	// anything reachable from x.
	own func(x *I) *I
	// extend folds rows [lo, hi) of shard si into x, which the caller
	// owns; lo is the number of rows of the shard x already covers.
	extend func(x *I, si int, sh *shard, lo, hi int)
	// slot and memo locate the kind's store and view state.
	slot func(*Store) *indexSlot[I]
	memo func(*view) *viewMemo[I]
}

// viewMemo is one view's copy of a derived index.
type viewMemo[I any] struct {
	pub  *I // the writer's copy at publication; nil before adoption
	once sync.Once
	lazy *I // built or caught up by the first reader when pub is nil
}

// indexSlot is the store's state for one adoptable index kind.
type indexSlot[I any] struct {
	// reg is a finished reader build awaiting writer adoption.
	reg atomic.Pointer[builtIndex[I]]
	// cur is the writer's copy, nil until adopted; shared marks it as
	// reachable from a published view or a registration. Both are
	// guarded by Store.mu.
	cur    *I
	shared bool
}

// builtIndex is a from-scratch build with the per-shard sealed row
// counts it covers.
type builtIndex[I any] struct {
	x        *I
	sealedAt [numShards]int32
}

// get returns the view's copy of the index: the published one, a field
// load on the inlined fast path, or the once-per-view build.
func (m *viewMemo[I]) get(v *view, k *indexKind[I]) *I {
	if m.pub != nil {
		return m.pub
	}
	return m.built(v, k)
}

func (m *viewMemo[I]) built(v *view, k *indexKind[I]) *I {
	m.once.Do(func() { m.lazy = k.buildFor(v) })
	return m.lazy
}

// build constructs the index over the sealed rows of shards.
func (k *indexKind[I]) build(shards []*shard) (x *I, sealedAt [numShards]int32) {
	x = k.fresh()
	for si, sh := range shards {
		if sh.sealed > 0 {
			k.extend(x, si, sh, 0, sh.sealed)
		}
		sealedAt[si] = int32(sh.sealed)
	}
	return x, sealedAt
}

// buildFor builds the index for a view published without the writer's
// copy: a catch-up from the registered build when the view is at or past
// it, a from-scratch build (registered for adoption) otherwise.
func (k *indexKind[I]) buildFor(v *view) *I {
	if v.owner == nil {
		x, _ := k.build(v.shards)
		return x
	}
	slot := k.slot(v.owner)
	if b := slot.reg.Load(); b != nil && v.atOrAfter(&b.sealedAt) {
		x, _ := k.catchUp(b.x, &b.sealedAt, v.shards)
		return x
	}
	x, sealedAt := k.build(v.shards)
	v.owner.rebuilds.Add(1)
	slot.reg.CompareAndSwap(nil, &builtIndex[I]{x: x, sealedAt: sealedAt})
	return x
}

// catchUp extends the shared index x from the watermarks up to every
// shard's sealed rows, owning a copy before the first extension. It
// reports whether it did.
func (k *indexKind[I]) catchUp(x *I, from *[numShards]int32, shards []*shard) (_ *I, owned bool) {
	for si, sh := range shards {
		if lo := int(from[si]); lo < sh.sealed {
			if !owned {
				x, owned = k.own(x), true
			}
			k.extend(x, si, sh, lo, sh.sealed)
		}
	}
	return x, owned
}

// atOrAfter reports whether every shard of the view has sealed at least
// up to the build watermarks, so catching up only needs positive deltas
// over rows this snapshot can see.
func (v *view) atOrAfter(sealedAt *[numShards]int32) bool {
	for si, sh := range v.shards {
		if sh.sealed < int(sealedAt[si]) {
			return false
		}
	}
	return true
}

// derivedIndex is the writer's side of an adoptable index kind.
type derivedIndex interface {
	adopt(s *Store) bool
	sealRows(s *Store, si, lo, hi int)
	publish(s *Store, nv *view)
}

// derivedIndexes lists the kinds the writer adopts and maintains.
var derivedIndexes = [...]derivedIndex{countsIdx, permsIdx}

// adopt promotes the registered build, if any, to the writer's copy,
// caught up to the writer's sealed rows.
func (k *indexKind[I]) adopt(s *Store) bool {
	slot := k.slot(s)
	b := slot.reg.Load()
	if b == nil || slot.cur != nil {
		return false
	}
	shards := make([]*shard, len(s.shards))
	for si := range s.shards {
		shards[si] = &s.shards[si]
	}
	var owned bool
	slot.cur, owned = k.catchUp(b.x, &b.sealedAt, shards)
	slot.shared = !owned
	return true
}

// sealRows extends the writer's copy, once adopted, by rows [lo, hi) of
// shard si, owning a copy first when the current one is shared.
func (k *indexKind[I]) sealRows(s *Store, si, lo, hi int) {
	slot := k.slot(s)
	if slot.cur == nil {
		return
	}
	if slot.shared {
		slot.cur, slot.shared = k.own(slot.cur), false
	}
	k.extend(slot.cur, si, &s.shards[si], lo, hi)
}

// publish hands the writer's copy to a new view, which makes it shared.
// From then on views carry the writer's copy and a registration only
// pins memory, so publish drops it — including one that a reader still
// holding an older view registers after adoption. Dropping it at
// adoption instead would make readers of the views published while the
// adopting mutation runs rebuild from scratch.
func (k *indexKind[I]) publish(s *Store, nv *view) {
	slot := k.slot(s)
	k.memo(nv).pub = slot.cur
	slot.shared = slot.cur != nil
	if slot.shared && slot.reg.Load() != nil {
		slot.reg.Store(nil)
	}
}

// --- the kinds ---------------------------------------------------------

// countsIndex is the store's one (source, vector) tally over sealed
// rows: in-window events by (day, source, vector), out-of-window events
// by (source, vector), and every event by the shard it is stored in —
// the cells shard pruning reads. unindexed counts rows whose source or
// vector falls outside the enum ranges (hand-built events or a corrupt
// segment); any such row turns the index answers and pruning off.
// Pending-tail rows are counted by a linear tail scan at query time.
type countsIndex struct {
	day       [][2][NumVectors]int32 // len WindowDays
	out       [2][NumVectors]int32
	shard     [numShards][2][NumVectors]int32
	outTotal  int
	unindexed int
}

var countsIdx = &indexKind[countsIndex]{
	fresh: func() *countsIndex { return &countsIndex{day: make([][2][NumVectors]int32, WindowDays)} },
	own: func(c *countsIndex) *countsIndex {
		cp := *c
		cp.day = slices.Clone(c.day)
		return &cp
	},
	extend: (*countsIndex).addRows,
	slot:   func(s *Store) *indexSlot[countsIndex] { return &s.counts },
	memo:   func(v *view) *viewMemo[countsIndex] { return &v.counts },
}

// addRows counts rows [lo, hi) of shard si.
func (c *countsIndex) addRows(si int, sh *shard, lo, hi int) {
	for i := lo; i < hi; i++ {
		src, vec := int(sh.key[i]>>8), int(sh.key[i]&0xff)
		if src >= NumSources || vec >= NumVectors {
			c.unindexed++
			continue
		}
		c.shard[si][src][vec]++
		if d := DayOf(sh.start[i]); d >= 0 && d < WindowDays {
			c.day[d][src][vec]++
		} else {
			c.out[src][vec]++
			c.outTotal++
		}
	}
}

// targetPerms lists each shard's sealed rows in (target, start, row)
// order — the by-target index that prefix and exact-target filters
// probe by binary search.
type targetPerms struct {
	perm [numShards][]int32
}

// permsIdx: a copy shares the permutation slices, which extension only
// appends past the length any other copy can see or replaces wholesale.
// Appends stay exclusive to one copy because a from-scratch build holds
// no spare capacity: the first append to a registered build reallocates.
var permsIdx = &indexKind[targetPerms]{
	fresh: func() *targetPerms { return new(targetPerms) },
	own: func(p *targetPerms) *targetPerms {
		cp := *p
		return &cp
	},
	extend: (*targetPerms).addRows,
	slot:   func(s *Store) *indexSlot[targetPerms] { return &s.perms },
	memo:   func(v *view) *viewMemo[targetPerms] { return &v.perms },
}

// addRows merges rows [lo, hi) of shard si into its permutation; a
// shard's first rows take the exactly sized sorted slice as is.
func (p *targetPerms) addRows(si int, sh *shard, lo, hi int) {
	tail := sh.sortedTgtRows(lo, hi)
	switch cur := p.perm[si][:lo]; {
	case lo == 0:
		p.perm[si] = tail
	case sh.cmpRowsTgt(cur[lo-1], tail[0]) < 0:
		p.perm[si] = append(cur, tail...)
	default:
		p.perm[si] = sh.mergeTgtPerms(cur, tail)
	}
}
