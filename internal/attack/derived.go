package attack

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Derived indexes are structures computed from the sealed rows of a
// view's shards: the count index and the by-target permutations. They
// are a cache that only readers touch; the writer never names them. A
// kind is defined by three functions — an empty index, a writable copy
// of a shared one, and an extension by newly sealed rows — and one
// mechanism owns everything else:
//
//   - Per view, the first reader that needs an index builds it once
//     (viewMemo).
//   - The store keeps the newest build of each kind with the per-shard
//     sealed row counts it covers. A view whose shards have all sealed
//     at least that far catches up from it by extending a copy over the
//     rows sealed since; any other view builds from scratch and bumps
//     Store.rebuilds.
//   - A build that covers more sealed rows than the store's newest
//     replaces it; an older view's build never does.
//
// Rows seal strictly in physical order, so the rows a build has not
// seen are exactly [watermark, sealed) of each shard, however many
// views were published since. A build is never rewritten once another
// reader can reach it: whoever extends a build takes a copy through own
// first.
type indexKind[I any] struct {
	// fresh returns an empty index.
	fresh func() *I
	// own returns a copy of x that extend may mutate without rewriting
	// anything reachable from x.
	own func(x *I) *I
	// extend folds rows [lo, hi) of shard si into x, which the caller
	// owns; lo is the number of rows of the shard x already covers.
	extend func(x *I, si int, sh *shard, lo, hi int)
	// newest locates the store's newest build of the kind.
	newest func(*Store) *atomic.Pointer[builtIndex[I]]
}

// viewMemo is one view's copy of a derived index, built by its first
// reader.
type viewMemo[I any] struct {
	once sync.Once
	x    *I
}

// builtIndex is a build with the per-shard sealed row counts it covers.
type builtIndex[I any] struct {
	x        *I
	sealedAt [numShards]int32
	// sealed totals sealedAt. Sealed counts only grow from one
	// publication to the next, so of two builds of one store's views
	// the one with more sealed rows is the newer.
	sealed int
}

// get returns the view's copy of the index, building it on first use.
func (m *viewMemo[I]) get(v *view, k *indexKind[I]) *I {
	m.once.Do(func() { m.x = k.buildFor(v) })
	return m.x
}

// buildFor builds the index for v: a catch-up from the store's newest
// build when v is at or past it, a from-scratch build otherwise. The
// result becomes the store's newest build when it covers more rows.
func (k *indexKind[I]) buildFor(v *view) *I {
	nb := &builtIndex[I]{}
	for si, sh := range v.shards {
		nb.sealedAt[si] = int32(sh.sealed)
		nb.sealed += sh.sealed
	}
	newest := k.newest(v.owner)
	b := newest.Load()
	switch {
	case b == nil || !v.atOrAfter(&b.sealedAt):
		nb.x = k.fresh()
		k.extendFrom(nb.x, &[numShards]int32{}, v.shards)
		v.owner.rebuilds.Add(1)
	case b.sealed == nb.sealed:
		return b.x // nothing sealed since: share the build as is
	default:
		nb.x = k.own(b.x)
		k.extendFrom(nb.x, &b.sealedAt, v.shards)
	}
	for b == nil || b.sealed < nb.sealed {
		if newest.CompareAndSwap(b, nb) {
			break
		}
		b = newest.Load()
	}
	return nb.x
}

// extendFrom folds every shard's rows from its watermark up to its
// sealed count into x, which the caller owns.
func (k *indexKind[I]) extendFrom(x *I, from *[numShards]int32, shards []*shard) {
	for si, sh := range shards {
		if lo := int(from[si]); lo < sh.sealed {
			k.extend(x, si, sh, lo, sh.sealed)
		}
	}
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
	newest: func(s *Store) *atomic.Pointer[builtIndex[countsIndex]] { return &s.counts },
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
// appends to or replaces wholesale. own clips each slice to its length,
// so the first append to a copy reallocates: a catch-up build keeps the
// spare capacity its own appends left, and two readers extending it at
// once would otherwise append into the same backing array.
var permsIdx = &indexKind[targetPerms]{
	fresh: func() *targetPerms { return new(targetPerms) },
	own: func(p *targetPerms) *targetPerms {
		cp := *p
		for si, perm := range cp.perm {
			cp.perm[si] = perm[:len(perm):len(perm)]
		}
		return &cp
	},
	extend: (*targetPerms).addRows,
	newest: func(s *Store) *atomic.Pointer[builtIndex[targetPerms]] { return &s.perms },
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
