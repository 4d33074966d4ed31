package attack

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"doscope/internal/netx"
)

// Target bitmap indexes: roaring-flavored compressed bitsets over the
// target-address column, one bitmap per (shard, day-of-window) cell plus
// one out-of-window bitmap on the boundary shards. They answer the
// distinct-target terminals — CountDistinctTargets, CountDistinctBlocks
// and the per-day series behind the paper's Figure-1 targets panel — by
// container union and popcount instead of hash-set scans over every
// target cell.
//
// Representation is the classic two-level scheme: a bitmap is a sorted
// array of 16-bit keys (the target's high bits), each owning one
// container over the low 16 bits. A container starts as a sorted
// uint16 array and converts to a fixed 1024-word bitset once it
// outgrows arrContainerMax entries, so sparse cells stay compact while
// dense cells get O(1) inserts and word-wide unions.
//
// Concurrency follows the store's copy-on-write discipline, enforced
// with generation stamps instead of whole-index clones: every node
// (index, shard, bitmap, container) records the generation it was
// created under, and a mutator may write a node in place only when its
// generation matches the mutator's own — anything else is path-copied
// first. Generations come from a global counter and are never reused,
// so a published view's nodes can never match a later writer's
// generation: whatever a reader can see is immutable by construction.
const arrContainerMax = 4096

// tgtGen hands out index generations. Every distinct build, adoption,
// or post-publication mutation cycle claims a fresh generation, so
// stamps identify ownership globally and forever.
var tgtGen atomic.Uint64

// container holds one key's low-16-bit membership set: a sorted array
// below arrContainerMax entries, a 1024-word bitset above. n caches the
// cardinality in either form. Containers are never empty.
type container struct {
	gen  uint64
	arr  []uint16      // sorted; nil iff bits is non-nil
	bits *[1024]uint64 // bitset form
	n    int
}

// mut returns a container the caller may mutate under generation g,
// cloning the payload when the receiver belongs to another generation.
func (c *container) mut(g uint64) *container {
	if c.gen == g {
		return c
	}
	nc := &container{gen: g, n: c.n}
	if c.bits != nil {
		b := *c.bits
		nc.bits = &b
	} else {
		nc.arr = slices.Clone(c.arr)
	}
	return nc
}

// add inserts low. The caller must own the container (gen-checked via
// mut).
func (c *container) add(low uint16) {
	if c.bits != nil {
		w, b := low>>6, uint64(1)<<(low&63)
		if c.bits[w]&b == 0 {
			c.bits[w] |= b
			c.n++
		}
		return
	}
	i, ok := slices.BinarySearch(c.arr, low)
	if ok {
		return
	}
	if len(c.arr) >= arrContainerMax {
		var bs [1024]uint64
		for _, v := range c.arr {
			bs[v>>6] |= 1 << (v & 63)
		}
		bs[low>>6] |= 1 << (low & 63)
		c.bits, c.arr = &bs, nil
		c.n++
		return
	}
	c.arr = slices.Insert(c.arr, i, low)
	c.n++
}

// contains reports membership of low.
func (c *container) contains(low uint16) bool {
	if c.bits != nil {
		return c.bits[low>>6]&(1<<(low&63)) != 0
	}
	_, ok := slices.BinarySearch(c.arr, low)
	return ok
}

// orInto folds the container into a scratch bitset.
func (c *container) orInto(dst *[1024]uint64) {
	if c.bits != nil {
		for w, v := range c.bits {
			dst[w] |= v
		}
		return
	}
	for _, v := range c.arr {
		dst[v>>6] |= 1 << (v & 63)
	}
}

// groups counts distinct low-bit groups of width 1<<shift present in
// the container — the sub-key half of a prefix-block count.
func (c *container) groups(shift int) int {
	if c.bits == nil {
		n, last := 0, -1
		for _, v := range c.arr {
			if g := int(v >> shift); g != last {
				last = g
				n++
			}
		}
		return n
	}
	return bitsetGroups(c.bits, shift)
}

// bitsetGroups counts groups of 1<<shift consecutive bits with any bit
// set in a 65536-bit bitset.
func bitsetGroups(bs *[1024]uint64, shift int) int {
	n := 0
	if shift >= 6 {
		stride := 1 << (shift - 6)
		for w := 0; w < 1024; w += stride {
			for k := 0; k < stride; k++ {
				if bs[w+k] != 0 {
					n++
					break
				}
			}
		}
		return n
	}
	width := 1 << shift
	mask := uint64(1)<<width - 1
	for _, v := range bs {
		for ; v != 0; v >>= width {
			if v&mask != 0 {
				n++
			}
		}
	}
	return n
}

// targetBitmap is one cell's compressed target set: sorted high-16-bit
// keys, one container each.
type targetBitmap struct {
	gen  uint64
	keys []uint16
	cts  []*container
}

// mut returns a bitmap the caller may mutate under generation g.
func (tb *targetBitmap) mut(g uint64) *targetBitmap {
	if tb.gen == g {
		return tb
	}
	return &targetBitmap{gen: g, keys: slices.Clone(tb.keys), cts: slices.Clone(tb.cts)}
}

// add inserts target t. The caller must own the bitmap.
func (tb *targetBitmap) add(g uint64, t netx.Addr) {
	key, low := uint16(t>>16), uint16(t)
	i, ok := slices.BinarySearch(tb.keys, key)
	if !ok {
		c := &container{gen: g, arr: []uint16{low}, n: 1}
		tb.keys = slices.Insert(tb.keys, i, key)
		tb.cts = slices.Insert(tb.cts, i, c)
		return
	}
	c := tb.cts[i].mut(g)
	tb.cts[i] = c
	c.add(low)
}

// card returns the bitmap's cardinality.
func (tb *targetBitmap) card() int {
	n := 0
	for _, c := range tb.cts {
		n += c.n
	}
	return n
}

// contains reports membership of t.
func (tb *targetBitmap) contains(t netx.Addr) bool {
	i, ok := slices.BinarySearch(tb.keys, uint16(t>>16))
	return ok && tb.cts[i].contains(uint16(t))
}

// unionCard returns the number of distinct targets across the bitmaps
// (nil entries ignored): a k-way merge over the sorted key spaces,
// popcounting a scratch bitset only where several bitmaps share a key.
func unionCard(bms []*targetBitmap) int {
	return unionCount(bms, 32)
}

// unionBlocks returns the number of distinct maskBits-bit target
// prefixes across the bitmaps — CountDistinctBlocks as container
// arithmetic: prefixes at or above the key split count distinct key
// prefixes, longer ones count low-bit groups inside each merged key.
func unionBlocks(bms []*targetBitmap, maskBits int) int {
	if maskBits <= 0 {
		for _, tb := range bms {
			if tb != nil && len(tb.keys) > 0 {
				return 1
			}
		}
		return 0
	}
	if maskBits > 32 {
		maskBits = 32
	}
	return unionCount(bms, maskBits)
}

// arrayUnion counts distinct values (shift == 0) or distinct
// width-(1<<shift) low-bit groups across sorted array containers by
// k-way merge. pos is caller-provided scratch of len(cs).
func arrayUnion(cs []*container, pos []int, shift int) int {
	for i := range pos {
		pos[i] = 0
	}
	total, last := 0, -1
	for {
		minVal := -1
		for i, c := range cs {
			if pos[i] < len(c.arr) {
				if v := int(c.arr[pos[i]]); minVal < 0 || v < minVal {
					minVal = v
				}
			}
		}
		if minVal < 0 {
			return total
		}
		for i, c := range cs {
			if pos[i] < len(c.arr) && int(c.arr[pos[i]]) == minVal {
				pos[i]++
			}
		}
		if g := minVal >> shift; g != last {
			last = g
			total++
		}
	}
}

// oneContainer counts one unshared container's contribution: its
// cardinality for exact targets, its distinct low-bit groups otherwise.
func oneContainer(c *container, shift int) int {
	if shift == 0 {
		return c.n
	}
	return c.groups(shift)
}

// pairCount counts the union of exactly two containers sharing a key.
func pairCount(ca, cb *container, shift int) int {
	if ca.bits == nil && cb.bits == nil {
		return arrayUnion2(ca.arr, cb.arr, shift)
	}
	var scratch [1024]uint64
	ca.orInto(&scratch)
	cb.orInto(&scratch)
	if shift == 0 {
		n := 0
		for _, w := range scratch {
			n += bits.OnesCount64(w)
		}
		return n
	}
	return bitsetGroups(&scratch, shift)
}

// arrayUnion2 is the two-pointer form of arrayUnion.
func arrayUnion2(x, y []uint16, shift int) int {
	i, j, total, last := 0, 0, 0, -1
	for i < len(x) || j < len(y) {
		var v int
		switch {
		case j >= len(y) || (i < len(x) && x[i] < y[j]):
			v = int(x[i])
			i++
		case i >= len(x) || y[j] < x[i]:
			v = int(y[j])
			j++
		default:
			v = int(x[i])
			i++
			j++
		}
		if g := v >> shift; g != last {
			last = g
			total++
		}
	}
	return total
}

// unionCount2 merges exactly two bitmaps' key spaces with two
// pointers — the dominant shape (one bitmap per store, empty tails),
// worth sparing the generic path's position bookkeeping and per-call
// allocations: the per-day terminals call this once per window day.
func unionCount2(a, b *targetBitmap, shift int) int {
	i, j, total := 0, 0, 0
	for i < len(a.keys) && j < len(b.keys) {
		switch {
		case a.keys[i] < b.keys[j]:
			total += oneContainer(a.cts[i], shift)
			i++
		case b.keys[j] < a.keys[i]:
			total += oneContainer(b.cts[j], shift)
			j++
		default:
			total += pairCount(a.cts[i], b.cts[j], shift)
			i++
			j++
		}
	}
	for ; i < len(a.keys); i++ {
		total += oneContainer(a.cts[i], shift)
	}
	for ; j < len(b.keys); j++ {
		total += oneContainer(b.cts[j], shift)
	}
	return total
}

// unionCount is the shared k-way merge behind unionCard and
// unionBlocks. maskBits == 32 counts exact targets; 17..31 counts
// low-bit groups per key; 1..16 counts distinct key prefixes.
func unionCount(bms []*targetBitmap, maskBits int) int {
	live := make([]*targetBitmap, 0, len(bms))
	for _, tb := range bms {
		if tb != nil && len(tb.keys) > 0 {
			live = append(live, tb)
		}
	}
	if len(live) == 0 {
		return 0
	}
	if maskBits > 16 {
		switch len(live) {
		case 1:
			total := 0
			for _, c := range live[0].cts {
				total += oneContainer(c, 32-maskBits)
			}
			return total
		case 2:
			return unionCount2(live[0], live[1], 32-maskBits)
		}
	}
	if maskBits <= 16 {
		// Distinct high-bit prefixes: walk the merged key space alone.
		shift := 16 - maskBits
		total, lastPfx := 0, -1
		pos := make([]int, len(live))
		for {
			minKey := -1
			for k, tb := range live {
				if pos[k] < len(tb.keys) {
					if key := int(tb.keys[pos[k]]); minKey < 0 || key < minKey {
						minKey = key
					}
				}
			}
			if minKey < 0 {
				return total
			}
			for k, tb := range live {
				if pos[k] < len(tb.keys) && int(tb.keys[pos[k]]) == minKey {
					pos[k]++
				}
			}
			if pfx := minKey >> shift; pfx != lastPfx {
				lastPfx = pfx
				total++
			}
		}
	}
	shift := 32 - maskBits // 0 for exact targets
	pos := make([]int, len(live))
	cs := make([]*container, 0, len(live))
	cpos := make([]int, len(live))
	var scratch [1024]uint64
	total := 0
	for {
		minKey := -1
		for k, tb := range live {
			if pos[k] < len(tb.keys) {
				if key := int(tb.keys[pos[k]]); minKey < 0 || key < minKey {
					minKey = key
				}
			}
		}
		if minKey < 0 {
			return total
		}
		cs = cs[:0]
		allArr := true
		for k, tb := range live {
			if pos[k] < len(tb.keys) && int(tb.keys[pos[k]]) == minKey {
				c := tb.cts[pos[k]]
				allArr = allArr && c.bits == nil
				cs = append(cs, c)
				pos[k]++
			}
		}
		if len(cs) == 1 {
			if shift == 0 {
				total += cs[0].n
			} else {
				total += cs[0].groups(shift)
			}
			continue
		}
		if allArr {
			// Sparse group: k-way merge of the sorted arrays directly.
			// The 8KB bitset scratch pays zero + OR + popcount per
			// group; per-day per-shard cells hold a handful of entries
			// each, so the merge is orders of magnitude cheaper there.
			total += arrayUnion(cs, cpos[:len(cs)], shift)
			continue
		}
		scratch = [1024]uint64{}
		for _, c := range cs {
			c.orInto(&scratch)
		}
		if shift == 0 {
			for _, w := range scratch {
				total += bits.OnesCount64(w)
			}
		} else {
			total += bitsetGroups(&scratch, shift)
		}
	}
}

// shardTargets is one shard's slice of the target index: a bitmap per
// day the shard covers, plus one for out-of-window rows (non-empty only
// on the boundary shards, where shardOf clamps strays).
type shardTargets struct {
	gen uint64
	day [shardDays]*targetBitmap
	out *targetBitmap
}

// mut returns a shardTargets the caller may mutate under generation g.
func (st *shardTargets) mut(g uint64) *shardTargets {
	if st.gen == g {
		return st
	}
	ns := *st
	ns.gen = g
	return &ns
}

// add stamps one row's target into its day cell (the out cell for
// out-of-window rows). The caller must own st.
func (st *shardTargets) add(g uint64, si int, start int64, t netx.Addr) {
	slot := &st.out
	if d := DayOf(start); d >= 0 && d < WindowDays {
		if rel := d - si*shardDays; rel >= 0 && rel < shardDays {
			slot = &st.day[rel]
		}
	}
	if *slot == nil {
		*slot = &targetBitmap{gen: g}
	} else {
		*slot = (*slot).mut(g)
	}
	(*slot).add(g, t)
}

// targetsIndex is the store-level target bitmap index, covering exactly
// the sealed rows of every shard (pending tails are folded in at query
// time as tiny tailTargets bitmaps). It is a derived index (targetsIdx
// in derived.go): built once, adopted, and extended by seal deltas.
type targetsIndex struct {
	gen    uint64
	shards [numShards]*shardTargets
}

// mut returns an index root the caller may mutate under generation g.
func (ti *targetsIndex) mut(g uint64) *targetsIndex {
	if ti.gen == g {
		return ti
	}
	nt := *ti
	nt.gen = g
	return &nt
}

// addRows folds rows [lo, hi) of shard si into the index under the
// root's generation. The caller must own the root; deeper nodes are
// path-copied as needed.
func (ti *targetsIndex) addRows(si int, sh *shard, lo, hi int) {
	g := ti.gen
	st := ti.shards[si]
	if st == nil {
		st = &shardTargets{gen: g}
	} else {
		st = st.mut(g)
	}
	ti.shards[si] = st
	for i := lo; i < hi; i++ {
		st.add(g, si, sh.start[i], sh.target[i])
	}
}

// tailTargets builds a query-time shardTargets over the pending tail
// rows [sealed, rows) — at most sealTailMax rows — so distinct-target
// terminals treat an unsealed tail as one more bitmap in the union.
// Returns nil when the tail is empty.
func tailTargets(sh *shard, si int) *shardTargets {
	if sh.sealed == sh.rows() {
		return nil
	}
	g := tgtGen.Add(1)
	st := &shardTargets{gen: g}
	for i := sh.sealed; i < sh.rows(); i++ {
		st.add(g, si, sh.start[i], sh.target[i])
	}
	return st
}

// appendShardBitmaps collects st's bitmaps for the in-window days
// [dlo, dhi] (absolute day indexes), plus the out-of-window cell when
// includeOut is set.
func appendShardBitmaps(dst []*targetBitmap, st *shardTargets, si, dlo, dhi int, includeOut bool) []*targetBitmap {
	if st == nil {
		return dst
	}
	base := si * shardDays
	for rel := 0; rel < shardDays; rel++ {
		if d := base + rel; d < dlo || d > dhi {
			continue
		}
		if tb := st.day[rel]; tb != nil {
			dst = append(dst, tb)
		}
	}
	if includeOut && st.out != nil {
		dst = append(dst, st.out)
	}
	return dst
}
