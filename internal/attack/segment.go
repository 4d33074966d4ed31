package attack

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"unsafe"

	"doscope/internal/netx"
)

// DOSEVT02 is the column-oriented segment format for bulk captures. It
// serializes the store's columnar shard layout verbatim — per-shard
// column blocks plus a footer of offsets — so a reader can serve a Store
// directly from an mmap'd file: open cost is O(1) in the event count, and
// pages fault in only as queries touch their columns.
//
// Layout (all integers little-endian):
//
//	[0, 8)   magic "DOSEVT02"
//	then, for each non-empty shard, one 8-byte-aligned block of column
//	data at a fixed stride from the row count r and arena length a:
//
//	    start    [r]int64      offset 0
//	    end      [r]int64      offset 8r
//	    packets  [r]uint64     offset 16r
//	    bytes    [r]uint64     offset 24r
//	    max_pps  [r]uint64     offset 32r   (IEEE-754 bits)
//	    avg_rps  [r]uint64     offset 40r
//	    target   [r]uint32     offset 48r
//	    port_off [r]uint32     offset 52r
//	    key      [r]uint16     offset 56r   (Source<<8 | Vector)
//	    port_len [r]uint16     offset 58r
//	    arena    [a]uint16     offset 60r
//	    zero padding to the next multiple of 8
//
//	footer: numShards records of {block_off, rows, arena_len} uint64
//	trailer (32 bytes): {footer_off, shard_count, total_rows} uint64,
//	then the magic again
//
// Column order puts the 8-byte columns first, then 4-, then 2-byte ones,
// so every column begins at a multiple of its element size and the
// mmap'd bytes can be reinterpreted in place on little-endian hosts.
// Empty shards store {0, 0, 0} footer records and no block. Rows within
// a block are in (start, target) order, the shard's sort invariant.
//
// Versioning: DOSEVT02 fixes the shard geometry — a segment written
// under a different shardDays/WindowDays would carry a different shard
// count and is rejected rather than misread.
const segMagic = "DOSEVT02"

const (
	segTrailerLen  = 32
	segFooterEntry = 24
	// maxEvents bounds the row counts accepted from a trailer or footer.
	maxEvents = 1 << 30
	// maxArena bounds the per-shard port arena length accepted from a
	// footer (2 GiB of ports); real arenas are ≤ MaxTrackedPorts*rows.
	maxArena = 1 << 30
)

// segBlockSize returns the unpadded and padded byte size of a shard
// block with r rows and an a-entry arena.
func segBlockSize(r, a uint64) (size, padded uint64) {
	size = 60*r + 2*a
	return size, (size + 7) &^ 7
}

// hostLittle reports whether the host is little-endian, the condition
// for serving columns zero-copy from segment bytes.
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// --- writer ----------------------------------------------------------

// gatheredShard holds one shard's columns in physical (start, target)
// order, ready to stream into a segment block.
type gatheredShard struct {
	start, end     []int64
	packets, bts   []uint64
	maxPPS, avgRPS []float64
	target         []netx.Addr
	portOff        []uint32
	key, portLen   []uint16
}

// gatherShard resolves a shard snapshot's columns through its merged
// permutation (a no-op for physically sorted shards). Row permutation
// only: arena entries never move, so the (offset, length) port
// references stay valid as written.
func gatherShard(sh *shard) gatheredShard {
	g := gatheredShard{
		start: sh.start, end: sh.end, packets: sh.packets, bts: sh.bytes,
		maxPPS: sh.maxPPS, avgRPS: sh.avgRPS, target: sh.target,
		portOff: sh.portOff, key: sh.key, portLen: sh.portLen,
	}
	if perm := sh.fullOrd(); perm != nil {
		g.start, g.end = gather(sh.start, perm), gather(sh.end, perm)
		g.packets, g.bts = gather(sh.packets, perm), gather(sh.bytes, perm)
		g.maxPPS, g.avgRPS = gather(sh.maxPPS, perm), gather(sh.avgRPS, perm)
		g.target, g.key = gather(sh.target, perm), gather(sh.key, perm)
		g.portOff, g.portLen = gather(sh.portOff, perm), gather(sh.portLen, perm)
	}
	return g
}

// segGatherWindow bounds how many shards' gathered column copies are
// alive at once: the writer fans the gathers of one window over the
// executor pool, streams the window's blocks out sequentially, releases
// them, and moves on — parallel permutation resolution without ever
// buffering more than a window of copied columns.
const segGatherWindow = 8

// WriteSegment writes the store in the DOSEVT02 segment format. It is
// a pure read against the published view — safe under concurrent
// ingest, capturing an atomic snapshot of whole mutations: shards whose
// snapshot is not physically sorted (a live order index, or pending
// tail rows) are gathered through a merged permutation on the way out,
// so blocks always land physically in (start, target) order and reopen
// with no order index at all. Gathers run windowed-parallel; the byte
// stream is written strictly in shard order and is identical for any
// GOMAXPROCS.
//
// Batches still in the ingest queue of a queued-mode store are not
// included: call Flush (or Close, when the capture is ending) first to
// make the file cover everything enqueued — the amppot shutdown
// sequence does exactly that before its -out write.
func (s *Store) WriteSegment(w io.Writer) error {
	v := s.view()
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(segMagic); err != nil {
		return err
	}
	type segMeta struct{ off, rows, arena uint64 }
	metas := make([]segMeta, numShards)
	off := uint64(len(segMagic))
	var pad [8]byte
	var sis []int
	for si := 0; si < numShards && si < len(v.shards); si++ {
		if v.shards[si].rows() > 0 {
			sis = append(sis, si)
		}
	}
	gathered := make([]gatheredShard, len(sis))
	for base := 0; base < len(sis); base += segGatherWindow {
		n := len(sis) - base
		if n > segGatherWindow {
			n = segGatherWindow
		}
		runTasks(context.Background(), n, func(ti int) {
			gathered[base+ti] = gatherShard(v.shards[sis[base+ti]])
		})
		for k := base; k < base+n; k++ {
			si := sis[k]
			sh := v.shards[si]
			g := &gathered[k]
			r, a := uint64(sh.rows()), uint64(len(sh.arena))
			metas[si] = segMeta{off, r, a}
			if err := writeCols(bw,
				col[int64]{g.start, putI64}, col[int64]{g.end, putI64},
				col[uint64]{g.packets, putU64}, col[uint64]{g.bts, putU64},
				col[float64]{g.maxPPS, putF64}, col[float64]{g.avgRPS, putF64},
				col[netx.Addr]{g.target, putAddr}, col[uint32]{g.portOff, putU32},
				col[uint16]{g.key, putU16}, col[uint16]{g.portLen, putU16},
				col[uint16]{sh.arena, putU16},
			); err != nil {
				return err
			}
			size, padded := segBlockSize(r, a)
			if padded > size {
				if _, err := bw.Write(pad[:padded-size]); err != nil {
					return err
				}
			}
			off += padded
			gathered[k] = gatheredShard{} // release the window's copies
		}
	}
	var scratch [segFooterEntry]byte
	for _, m := range metas {
		binary.LittleEndian.PutUint64(scratch[0:8], m.off)
		binary.LittleEndian.PutUint64(scratch[8:16], m.rows)
		binary.LittleEndian.PutUint64(scratch[16:24], m.arena)
		if _, err := bw.Write(scratch[:]); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint64(scratch[0:8], off)
	binary.LittleEndian.PutUint64(scratch[8:16], numShards)
	binary.LittleEndian.PutUint64(scratch[16:24], uint64(v.length))
	if _, err := bw.Write(scratch[:]); err != nil {
		return err
	}
	if _, err := bw.WriteString(segMagic); err != nil {
		return err
	}
	return bw.Flush()
}

// column is one typed column headed for a segment block, erased to an
// interface so heterogenous columns can share one write loop.
type column interface {
	writeTo(bw *bufio.Writer) error
}

func writeCols(bw *bufio.Writer, cols ...column) error {
	for _, c := range cols {
		if err := c.writeTo(bw); err != nil {
			return err
		}
	}
	return nil
}

// rawBytes reinterprets a column's backing array as bytes (little-endian
// hosts only).
func rawBytes[T any](col []T) []byte {
	if len(col) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&col[0])), len(col)*int(unsafe.Sizeof(col[0])))
}

// col writes one typed column: on little-endian hosts the in-memory
// representation is written directly, otherwise each element is encoded
// with put.
type col[T any] struct {
	v   []T
	put func([]byte, T)
}

func (c col[T]) writeTo(bw *bufio.Writer) error {
	if len(c.v) == 0 {
		return nil
	}
	if hostLittle {
		_, err := bw.Write(rawBytes(c.v))
		return err
	}
	var b [8]byte
	sz := int(unsafe.Sizeof(c.v[0]))
	for _, v := range c.v {
		c.put(b[:], v)
		if _, err := bw.Write(b[:sz]); err != nil {
			return err
		}
	}
	return nil
}

func putI64(b []byte, v int64)      { binary.LittleEndian.PutUint64(b, uint64(v)) }
func putU64(b []byte, v uint64)     { binary.LittleEndian.PutUint64(b, v) }
func putF64(b []byte, v float64)    { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }
func putU32(b []byte, v uint32)     { binary.LittleEndian.PutUint32(b, v) }
func putU16(b []byte, v uint16)     { binary.LittleEndian.PutUint16(b, v) }
func putAddr(b []byte, v netx.Addr) { binary.LittleEndian.PutUint32(b, uint32(v)) }

// --- reader ----------------------------------------------------------

// segErr wraps a corrupt-segment condition.
func segErr(format string, args ...any) error {
	return fmt.Errorf("attack: segment: "+format, args...)
}

// OpenSegment serves a Store directly from a DOSEVT02 segment image.
// On little-endian hosts the store's columns alias data zero-copy; the
// caller must keep data valid, and unmodified, for as long as the store
// (or any Event view obtained from it) is in use. Opening is O(1) in the
// event count: only the footer is decoded, columns are not touched.
//
// The returned store is fully functional: Add copies the affected shard
// out of the segment memory first (copy-on-write), so a segment-backed
// store can absorb live ingest without corrupting the backing file.
func OpenSegment(data []byte) (*Store, error) {
	if len(data) < len(segMagic)+segTrailerLen {
		return nil, segErr("short file (%d bytes)", len(data))
	}
	if string(data[:len(segMagic)]) != segMagic {
		return nil, segErr("bad magic %q", data[:len(segMagic)])
	}
	tr := data[len(data)-segTrailerLen:]
	footerOff := binary.LittleEndian.Uint64(tr[0:8])
	shardCount := binary.LittleEndian.Uint64(tr[8:16])
	totalRows := binary.LittleEndian.Uint64(tr[16:24])
	if string(tr[24:32]) != segMagic {
		return nil, segErr("truncated or corrupt trailer")
	}
	if shardCount != numShards {
		return nil, segErr("segment has %d shards, this build expects %d (shard geometry mismatch)", shardCount, numShards)
	}
	if totalRows > maxEvents {
		return nil, segErr("implausible event count %d", totalRows)
	}
	footerLen := shardCount * segFooterEntry
	if footerOff < uint64(len(segMagic)) || footerOff+footerLen != uint64(len(data)-segTrailerLen) {
		return nil, segErr("footer offset %d inconsistent with file size %d", footerOff, len(data))
	}
	s := &Store{shards: make([]shard, numShards)}
	var sum uint64
	for si := uint64(0); si < shardCount; si++ {
		m := data[footerOff+si*segFooterEntry:]
		off := binary.LittleEndian.Uint64(m[0:8])
		rows := binary.LittleEndian.Uint64(m[8:16])
		arena := binary.LittleEndian.Uint64(m[16:24])
		if rows == 0 {
			if off != 0 || arena != 0 {
				return nil, segErr("shard %d: empty shard with nonzero block", si)
			}
			continue
		}
		if rows > maxEvents || arena > maxArena {
			return nil, segErr("shard %d: implausible geometry (%d rows, %d arena)", si, rows, arena)
		}
		size, padded := segBlockSize(rows, arena)
		// Subtraction form: off+padded could wrap around uint64 on a
		// crafted footer offset and slip past an additive check.
		if off < uint64(len(segMagic)) || off%8 != 0 || off > footerOff || padded > footerOff-off {
			return nil, segErr("shard %d: block [%d, +%d) out of bounds", si, off, size)
		}
		b := data[off : off+size]
		r, a := int(rows), int(arena)
		sh := &s.shards[si]
		sh.start = openColumn(b[0:], r, getI64)
		sh.end = openColumn(b[8*rows:], r, getI64)
		sh.packets = openColumn(b[16*rows:], r, getU64)
		sh.bytes = openColumn(b[24*rows:], r, getU64)
		sh.maxPPS = openColumn(b[32*rows:], r, getF64)
		sh.avgRPS = openColumn(b[40*rows:], r, getF64)
		sh.target = openColumn(b[48*rows:], r, getAddr)
		sh.portOff = openColumn(b[52*rows:], r, getU32)
		sh.key = openColumn(b[56*rows:], r, getU16)
		sh.portLen = openColumn(b[58*rows:], r, getU16)
		sh.arena = openColumn(b[60*rows:], a, getU16)
		sh.sealed, sh.frozen = r, true
		sum += rows
	}
	if sum != totalRows {
		return nil, segErr("shard rows sum to %d, trailer says %d", sum, totalRows)
	}
	s.length = int(sum)
	// Publish the initial view so the opened store serves lock-free
	// reads like any other; the snapshots alias the segment memory, so
	// the data must stay mapped while the store is in use.
	s.publish()
	return s, nil
}

// openColumn serves n elements from b: zero-copy when the host is
// little-endian and b is element-aligned (always true for mmap'd or
// heap-allocated segment images), decoded into a fresh slice otherwise.
func openColumn[T any](b []byte, n int, get func([]byte) T) []T {
	if n == 0 {
		return nil
	}
	sz := unsafe.Sizeof(*new(T))
	if hostLittle && uintptr(unsafe.Pointer(&b[0]))%sz == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)[:n:n]
	}
	out := make([]T, n)
	for i := range out {
		out[i] = get(b[uintptr(i)*sz:])
	}
	return out
}

func getI64(b []byte) int64      { return int64(binary.LittleEndian.Uint64(b)) }
func getU64(b []byte) uint64     { return binary.LittleEndian.Uint64(b) }
func getF64(b []byte) float64    { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }
func getU32(b []byte) uint32     { return binary.LittleEndian.Uint32(b) }
func getU16(b []byte) uint16     { return binary.LittleEndian.Uint16(b) }
func getAddr(b []byte) netx.Addr { return netx.Addr(binary.LittleEndian.Uint32(b)) }

// --- file opening ----------------------------------------------------

type closerFunc func() error

func (f closerFunc) Close() error { return f() }

var nopCloser = closerFunc(func() error { return nil })

// WriteSegmentFile writes the store as a DOSEVT02 segment file at path,
// atomically: a reader, or a crash, sees either the previous file or the
// complete new one, never a torn segment.
func (s *Store) WriteSegmentFile(path string) error {
	return writeFileAtomic(path, s.WriteSegment)
}

// writeFileAtomic writes a temporary file in path's directory, syncs it
// and renames it over path. On failure it removes the temporary file
// and leaves any previous file at path as it was.
func writeFileAtomic(path string, write func(io.Writer) error) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	// CreateTemp makes the file private; a capture is as readable as
	// one os.Create would have written.
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// OpenSegmentFile mmaps a DOSEVT02 segment file and serves a Store from
// the mapping: a multi-GB capture opens in O(1) time and memory, paging
// in only the columns queries actually touch. The returned io.Closer
// unmaps the file; close it only once the store and every Event view
// derived from it are no longer in use. On platforms without mmap the
// file is read into memory instead.
func OpenSegmentFile(path string) (*Store, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	data, unmap, err := mapFile(f, fi.Size())
	if err != nil {
		return nil, nil, fmt.Errorf("attack: mapping %s: %w", path, err)
	}
	s, err := OpenSegment(data)
	if err != nil {
		unmap()
		return nil, nil, fmt.Errorf("attack: %s: %w", path, err)
	}
	return s, closerFunc(unmap), nil
}
