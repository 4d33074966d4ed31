package attack

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"doscope/internal/netx"
)

// shard is one day-range bucket stored column-wise (struct of arrays).
// The hot filter columns — start, target, and the packed source|vector
// key — are what Count/CountByDay and every filtered scan read: ~14 bytes
// per event instead of the full ~90-byte record. The cold payload columns
// are only touched when a matching row is materialized into an Event
// view. Port lists live in one shared per-shard arena referenced by
// (offset, length), so ingest performs no per-event allocation.
//
// All columns are parallel: row i of every column describes event i.
// Physical rows are append-only and NEVER move: (shard, row) handles
// handed out by the by-target index stay valid for the life of the
// store. Sorted-order iteration goes through the ord permutation
// instead of permuting the columns.
//
// Rows are split into a sealed body and a pending tail:
//
//   - rows [0, sealed) are the body; ord (when non-nil, len == sealed)
//     lists them in (start, target) order. ord == nil means the body is
//     physically in (start, target) order already (the common case for
//     time-ordered ingest and for segment-backed shards).
//   - rows [sealed, rows()) are the pending tail, in arrival order.
//     Appends park here; queries that do not need sorted order scan the
//     tail linearly, and seal merges it into the body ordering.
//
// A shard opened from a DOSEVT02 segment aliases read-only (mmap'd)
// memory and is marked frozen; grow copies it out before any append.
type shard struct {
	// Hot filter columns.
	start  []int64
	target []netx.Addr
	key    []uint16 // packed Source<<8 | Vector

	// Cold payload columns.
	end     []int64
	packets []uint64
	bytes   []uint64
	maxPPS  []float64
	avgRPS  []float64

	// Port lists: rows reference [portOff, portOff+portLen) in arena.
	portOff []uint32
	portLen []uint16
	arena   []uint16

	// ord lists the sealed body rows in (start, target) order; nil means
	// physical order is already sorted. len(ord) == sealed when non-nil.
	ord    []int32
	sealed int  // rows [0, sealed) are ordered by ord; the rest are tail
	frozen bool // columns alias read-only segment memory
}

// packKey packs an event's sensor and vector into the hot key column.
func packKey(src Source, vec Vector) uint16 {
	return uint16(src)<<8 | uint16(vec)
}

// rows returns the number of events in the shard.
func (sh *shard) rows() int { return len(sh.start) }

// tail returns the number of pending (unsealed) rows.
func (sh *shard) tail() int { return sh.rows() - sh.sealed }

// ordRow maps sorted position k to its physical row index.
func (sh *shard) ordRow(k int) int {
	if sh.ord == nil {
		return k
	}
	return int(sh.ord[k])
}

// ports returns row i's port list as a view into the arena. Out-of-range
// references (possible only in a corrupt segment file) yield nil instead
// of panicking.
func (sh *shard) ports(i int) []uint16 {
	n := int(sh.portLen[i])
	if n == 0 {
		return nil
	}
	off := int(sh.portOff[i])
	if off+n > len(sh.arena) {
		return nil
	}
	return sh.arena[off : off+n : off+n]
}

// view materializes row i into e. The Ports slice aliases the shard
// arena: valid for reading until the store is mutated.
func (sh *shard) view(i int, e *Event) {
	k := sh.key[i]
	e.Source = Source(k >> 8)
	e.Vector = Vector(k & 0xff)
	e.Target = sh.target[i]
	e.Start = sh.start[i]
	e.End = sh.end[i]
	e.Packets = sh.packets[i]
	e.Bytes = sh.bytes[i]
	e.MaxPPS = sh.maxPPS[i]
	e.AvgRPS = sh.avgRPS[i]
	e.Ports = sh.ports(i)
}

// appendRow appends e's fields to the columns as a pending-tail row,
// copying its ports into the arena. The caller grows the shard first
// (see Store.apply), which also copies a frozen (segment-backed) shard
// to the heap.
func (sh *shard) appendRow(e *Event) {
	sh.start = append(sh.start, e.Start)
	sh.target = append(sh.target, e.Target)
	sh.key = append(sh.key, packKey(e.Source, e.Vector))
	sh.end = append(sh.end, e.End)
	sh.packets = append(sh.packets, e.Packets)
	sh.bytes = append(sh.bytes, e.Bytes)
	sh.maxPPS = append(sh.maxPPS, e.MaxPPS)
	sh.avgRPS = append(sh.avgRPS, e.AvgRPS)
	n := len(e.Ports)
	if n > math.MaxUint16 {
		n = math.MaxUint16
	}
	sh.portOff = append(sh.portOff, uint32(len(sh.arena)))
	sh.portLen = append(sh.portLen, uint16(n))
	sh.arena = append(sh.arena, e.Ports[:n]...)
}

// grow makes room for the given number of rows and port entries, so
// the appendRow calls that follow do not regrow the columns one append
// at a time. A frozen (segment-backed) shard is copied out of read-only
// memory into the grown columns. The row columns fill together, so
// while start has room grow leaves them all to append: a small live
// batch costs one comparison here.
func (sh *shard) grow(rows, ports int) {
	fresh := sh.frozen
	if !fresh && cap(sh.start)-len(sh.start) >= rows {
		return
	}
	sh.start = growCol(sh.start, rows, fresh)
	sh.target = growCol(sh.target, rows, fresh)
	sh.key = growCol(sh.key, rows, fresh)
	sh.end = growCol(sh.end, rows, fresh)
	sh.packets = growCol(sh.packets, rows, fresh)
	sh.bytes = growCol(sh.bytes, rows, fresh)
	sh.maxPPS = growCol(sh.maxPPS, rows, fresh)
	sh.avgRPS = growCol(sh.avgRPS, rows, fresh)
	sh.portOff = growCol(sh.portOff, rows, fresh)
	sh.portLen = growCol(sh.portLen, rows, fresh)
	sh.arena = growCol(sh.arena, ports, fresh)
	sh.frozen = false
}

// growCol returns col with room for n more elements: slices.Grow, or a
// fresh copy when col aliases memory that must not be written.
func growCol[T any](col []T, n int, fresh bool) []T {
	if fresh {
		return append(make([]T, 0, len(col)+n), col...)
	}
	return slices.Grow(col, n)
}

// gather copies one column through a row permutation (used by the
// segment writer to emit physically sorted blocks without permuting the
// live shard).
func gather[T any](col []T, perm []int32) []T {
	out := make([]T, len(perm))
	for i, p := range perm {
		out[i] = col[p]
	}
	return out
}

// cmpRows orders two physical rows by the (start, target) sort key.
func (sh *shard) cmpRows(a, b int32) int {
	if c := cmp.Compare(sh.start[a], sh.start[b]); c != 0 {
		return c
	}
	return cmp.Compare(sh.target[a], sh.target[b])
}

// cmpRowsTgt orders two physical rows by the (target, start, row) key
// the by-target permutation uses. The physical-row tiebreak makes the
// order total, so plain sorts are deterministic without stability.
func (sh *shard) cmpRowsTgt(a, b int32) int {
	if c := cmp.Compare(sh.target[a], sh.target[b]); c != 0 {
		return c
	}
	if c := cmp.Compare(sh.start[a], sh.start[b]); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// seal merges the pending tail into the body ordering: the tail rows
// are sorted among themselves (tailPerm) and then sorted-merged with the
// body's ord run by the same cursor the ordered drains walk. Cost is
// O(tail log tail + body) — proportional to the delta plus one linear
// merge — instead of the O(n log n) full re-sort of the pre-incremental
// store, and no column data moves, so existing (shard, row) handles
// stay valid.
//
// The merges are publication-safe by construction: they either append
// past the length of any previously published permutation header or
// allocate a fresh slice, never rewriting entries a published view can
// see.
func (sh *shard) seal() {
	tail := sh.tailPerm()
	if tail == nil {
		return
	}
	body := sh.sealed
	// Append fast path: a tail that sorts entirely after the body (the
	// common case for time-ordered live ingest) extends the run without
	// a merge; with an identity body it costs nothing at all.
	if body == 0 || sh.cmpRows(int32(sh.ordRow(body-1)), tail[0]) <= 0 {
		sh.sealed = sh.rows()
		if sh.ord == nil {
			if tailIsIdentity(tail, body) {
				return
			}
			sh.ord = identity(body)
		}
		sh.ord = append(sh.ord, tail...)
		return
	}
	c := mergeCursor{sh: sh, body: body, tail: tail}
	sh.ord = c.drain()
	sh.sealed = sh.rows()
}

// sortedTgtRows returns rows [lo, hi) sorted by the by-target key.
func (sh *shard) sortedTgtRows(lo, hi int) []int32 {
	rows := make([]int32, hi-lo)
	for i := range rows {
		rows[i] = int32(lo + i)
	}
	slices.SortFunc(rows, sh.cmpRowsTgt)
	return rows
}

// mergeTgtPerms merges two (target, start, row)-sorted permutations
// into a fresh slice. Pure — safe for read-side catch-up over shared
// permutations.
func (sh *shard) mergeTgtPerms(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if sh.cmpRowsTgt(a[i], b[j]) < 0 {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// tailPerm returns the pending-tail rows sorted by (start, target, row)
// — the order seal merges them in. Tail rows are physical rows in
// arrival order, so the row tiebreak orders equal (start, target) keys
// by arrival, as a stable sort would. Read-only, so fullOrd and the
// ordered drains merge the tail on the fly with it instead of sealing.
func (sh *shard) tailPerm() []int32 {
	t := sh.tail()
	if t == 0 {
		return nil
	}
	tail := make([]int32, t)
	for i := range tail {
		tail[i] = int32(sh.sealed + i)
	}
	sh.sortRows(tail)
	return tail
}

// sortRows sorts physical rows in place by (start, target, row), a
// total order, so the sort need not be stable. When the rows' start
// span, the target and the rows' row span fit one word together
// (in-window starts span under 2^20 s, leaving 12 bits: 4096 rows), it
// sorts packed integer keys; otherwise — more rows, or out-of-window
// starts collapsed into an edge shard — it compares rows through
// cmpRows.
func (sh *shard) sortRows(rows []int32) {
	if len(rows) < 2 {
		return
	}
	lo, hi := sh.start[rows[0]], sh.start[rows[0]]
	for _, r := range rows {
		lo, hi = min(lo, sh.start[r]), max(hi, sh.start[r])
	}
	rlo, rhi := slices.Min(rows), slices.Max(rows)
	rowBits := bits.Len32(uint32(rhi - rlo))
	// hi-lo may overflow int64; as a uint64 it is still the exact span.
	if bits.Len64(uint64(hi-lo))+32+rowBits > 64 {
		slices.SortFunc(rows, func(a, b int32) int {
			if c := sh.cmpRows(a, b); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		return
	}
	keys := make([]uint64, len(rows))
	for i, r := range rows {
		keys[i] = (uint64(sh.start[r]-lo)<<32|uint64(sh.target[r]))<<rowBits | uint64(r-rlo)
	}
	slices.Sort(keys)
	mask := uint64(1)<<rowBits - 1
	for i, k := range keys {
		rows[i] = rlo + int32(k&mask)
	}
}

// mergeCursor walks a shard snapshot's rows in (start, target, row)
// order without mutating anything: the sealed body through its ord
// permutation, the pending tail through tailPerm, two-way merged with
// body-first ties (physical order is arrival order, and tail rows
// arrived later). It is the one merge behind seal, fullOrd and the
// executor's ordered scan drains.
type mergeCursor struct {
	sh   *shard
	k    int // position in the body ordering
	body int
	tail []int32
	t    int
}

func newMergeCursor(sh *shard) mergeCursor {
	return mergeCursor{sh: sh, body: sh.sealed, tail: sh.tailPerm()}
}

// next returns and consumes the next row in merged order, -1 when
// exhausted.
func (c *mergeCursor) next() int {
	if c.k < c.body {
		b := int32(c.sh.ordRow(c.k))
		if c.t >= len(c.tail) || c.sh.cmpRows(b, c.tail[c.t]) <= 0 {
			c.k++
			return int(b)
		}
		c.t++
		return int(c.tail[c.t-1])
	}
	if c.t < len(c.tail) {
		c.t++
		return int(c.tail[c.t-1])
	}
	return -1
}

// drain returns the cursor's remaining rows as a fresh permutation.
func (c *mergeCursor) drain() []int32 {
	out := make([]int32, 0, c.body-c.k+len(c.tail)-c.t)
	for i := c.next(); i >= 0; i = c.next() {
		out = append(out, int32(i))
	}
	return out
}

// fullOrd returns a permutation listing ALL rows — sealed body and
// pending tail — in (start, target) order, or nil when the physical
// layout already is that order. Pure: unlike seal it never updates the
// shard, so the segment writer can run against a live snapshot.
func (sh *shard) fullOrd() []int32 {
	if sh.tail() == 0 {
		return sh.ord
	}
	c := newMergeCursor(sh)
	out := c.drain()
	if tailIsIdentity(out, 0) {
		return nil
	}
	return out
}

// tailIsIdentity reports whether the sorted tail indexes are exactly
// base, base+1, ... — i.e. the tail was appended already in order.
func tailIsIdentity(tail []int32, base int) bool {
	for i, p := range tail {
		if p != int32(base+i) {
			return false
		}
	}
	return true
}

// identity builds the identity permutation of length n.
func identity(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}
