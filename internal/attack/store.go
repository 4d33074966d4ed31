package attack

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"doscope/internal/netx"
)

// Shard geometry: events are bucketed by the day-of-window their Start
// falls in, shardDays days per shard. Days before the window collapse into
// the first shard and days beyond it into the last, so concatenating the
// shards in index order always reproduces the global (Start, Target) sort
// while Add only touches a single shard instead of the whole store.
const (
	shardDays = 8
	numShards = (WindowDays + shardDays - 1) / shardDays
)

// sealTailMax bounds a shard's pending tail: Add seals the shard once
// the tail reaches this many rows, so queries between seals scan at
// most sealTailMax unsorted rows per shard. Each seal sorts the tail
// and merges it into the shard body's order index, so amortized append
// cost is O(log tail) plus O(body/sealTailMax) for the merge — bounded
// by the events of one 8-day shard, never the store (and the merge
// drops to O(tail) for append-ordered ingest, which skips the merge
// entirely).
const sealTailMax = 64

// shardOf maps a start timestamp to its shard index.
func shardOf(start int64) int {
	d := DayOf(start)
	if d < 0 {
		d = 0
	} else if d >= WindowDays {
		d = WindowDays - 1
	}
	return d / shardDays
}

// rowRef addresses one event as a (shard, row) handle. Physical rows
// never move (sealing only rewrites the shard's order index), so a
// reference stays valid for the life of the store.
type rowRef struct {
	shard int32
	row   int32
}

// view is one published, immutable snapshot of a store: the shard
// snapshots (value copies of the shard headers — the column backing
// arrays are shared, which is safe because rows are append-only and
// permutation merges never rewrite entries below a published length),
// and the event count and version. The writer swaps a fresh view into
// Store.pub on every mutation; readers load it once per terminal and run
// against it lock-free.
//
// A view additionally carries one memo per derived index (see
// derived.go): a once-per-view build by the first reader that needs it.
type view struct {
	owner   *Store
	shards  []*shard // aliases shardArr; nil only for the empty view
	length  int
	version uint64

	// shardArr backs the shards slice inline so a publication is two
	// allocations (view + dirty-shard snapshot), not three. Snapshots
	// themselves stay separate heap objects: embedding them here would
	// chain every view to its predecessor and leak the whole history.
	shardArr [numShards]*shard

	counts viewMemo[countsIndex]
	perms  viewMemo[targetPerms]
}

// emptyView serves reads against a store that has never published.
var emptyView view

// pendingRows reports how many rows are still in pending tails.
func (v *view) pendingRows() int {
	n := 0
	for _, sh := range v.shards {
		n += sh.tail()
	}
	return n
}

// Store holds attack events sharded by day-of-window. Each shard keeps
// its events in a columnar struct-of-arrays layout (see shard): a sorted
// body addressed through an order index plus a small unsorted pending
// tail that absorbs appends. The derived indexes (derived.go) are a
// read-side cache the writer never touches: a view's first reader
// extends the store's newest build by the rows sealed since, so a
// rebuild from scratch is needed only when no build exists or the
// reader holds a view older than the newest build. Access events
// through Query; the Events slice contract is retained only as a
// deprecated compatibility shim.
//
// Concurrency: a Store is safe for any number of concurrent readers
// alongside any number of concurrent writers. Mutations route through
// an MPSC ingest queue (see ingest.go): producers enqueue whole
// batches, and a single drainer applies every queued batch, seals each
// touched shard at most once, and atomically publishes ONE immutable
// view covering all of them. By default the drainer role is taken
// inline by a producer, so Add/AddBatch still return only after their
// batch is published (read-your-writes), with concurrent producers'
// batches coalescing into one publication; after StartIngest a
// background drainer publishes once per tick instead and producers
// only enqueue. Either way batches apply in enqueue order — one
// serialization of the producers' batch sequences — every published
// view covers a whole-batch prefix of that order (an AddBatch becomes
// visible all at once, never partially), and no read path ever takes a
// lock, seals a tail, or mutates shard state.
type Store struct {
	// pub is the published immutable view readers load. It is only ever
	// swapped by a writer holding mu.
	pub atomic.Pointer[view]

	mu sync.Mutex // serializes mutators; never taken by readers

	// Writer-private canonical state, guarded by mu.
	shards  []shard
	length  int
	version uint64
	dirty   []bool // per-shard: touched since the last publish

	// The newest build of each derived index (see derived.go); only
	// readers touch them.
	counts atomic.Pointer[builtIndex[countsIndex]]
	perms  atomic.Pointer[builtIndex[targetPerms]]

	// rebuilds counts from-scratch index constructions; sealOps counts
	// shard seals. A catch-up never touches rebuilds, and no read path
	// touches sealOps: tests assert both stay put under pure query
	// traffic.
	rebuilds atomic.Uint64
	sealOps  atomic.Uint64

	// Query-execution counters (see ExecStats): per-shard tasks by
	// kind. Bumped from read paths like rebuilds — observability
	// atomics, not store state.
	execScanTasks  atomic.Uint64
	execProbeTasks atomic.Uint64

	// MPSC ingest front (see ingest.go). qmu guards the queue fields;
	// it is held only for enqueue/snapshot bookkeeping, never during
	// apply or publication. drainSem is the cap-1 drainer-role token:
	// whoever holds it is the one goroutine draining the queue.
	qmu       sync.Mutex
	qcond     *sync.Cond      // backpressure: signaled when a drain frees space
	queue     []*pendingBatch // enqueued batches, in arrival order
	queued    int             // events enqueued, not yet published
	maxQueue  int             // backpressure bound (events); ensureIngest defaults it
	drainSem  chan struct{}
	drainKick chan struct{} // wakes the background drainer ahead of its tick
	drainTick time.Duration
	drainStop chan struct{}
	drainerWG sync.WaitGroup
	drainerOn bool // queued mode active (guarded by qmu)
	ingClosed bool // Close called; store reverted to synchronous mode

	// ingDrains counts drains that applied at least one batch;
	// ingCoalesced counts batches applied (their ratio is the
	// combining factor /v1/stats reports).
	ingDrains    atomic.Uint64
	ingCoalesced atomic.Uint64
}

// view returns the current published snapshot (an empty one for a store
// that has never been written).
func (s *Store) view() *view {
	if v := s.pub.Load(); v != nil {
		return v
	}
	return &emptyView
}

// NewStore builds a store from events (which it copies).
func NewStore(events []Event) *Store {
	s := &Store{}
	s.AddBatch(events)
	return s
}

// beginWrite prepares writer state for a mutation: it allocates the
// shard array and the dirty flags on first use.
func (s *Store) beginWrite() {
	if s.shards == nil {
		s.shards = make([]shard, numShards)
	}
	if s.dirty == nil {
		s.dirty = make([]bool, numShards)
	}
}

// apply appends the batches' events to their shards as pending-tail
// rows, in enqueue order, marks those shards dirty and returns the
// number of events. It counts each shard's rows and ports first and
// grows the shard once by exactly that, so a large batch (NewStore,
// ReadCSV) fills each column with one allocation instead of append's
// repeated regrowth; small live batches grow by append's usual factor.
func (s *Store) apply(batches []*pendingBatch) int {
	var rows, ports [numShards]int
	var touched [numShards]uint16 // the shards with rows > 0, so a one-event drain visits one
	n, nt := 0, 0
	for _, b := range batches {
		for i := range b.events {
			e := &b.events[i]
			si := shardOf(e.Start)
			if rows[si] == 0 {
				touched[nt] = uint16(si)
				nt++
			}
			rows[si]++
			ports[si] += min(len(e.Ports), math.MaxUint16)
		}
		n += len(b.events)
	}
	for _, si := range touched[:nt] {
		s.shards[si].grow(rows[si], ports[si])
		s.dirty[si] = true
	}
	for _, b := range batches {
		for i := range b.events {
			e := &b.events[i]
			s.shards[shardOf(e.Start)].appendRow(e)
		}
	}
	return n
}

// publish snapshots every dirty shard and swaps a fresh view in. Shard
// snapshots are value copies of the shard header (slice headers and row
// counts); the column arrays are shared with the canonical state, which
// only ever appends past the snapshotted lengths or replaces whole
// permutation slices — never rewrites what a published header can
// reach.
func (s *Store) publish() {
	prev := s.pub.Load()
	nv := &view{owner: s, length: s.length, version: s.version}
	nv.shards = nv.shardArr[:len(s.shards)]
	if prev != nil && len(prev.shards) == len(s.shards) {
		copy(nv.shards, prev.shards)
		for si, d := range s.dirty {
			if d {
				snap := s.shards[si]
				nv.shards[si] = &snap
			}
		}
	} else {
		for si := range s.shards {
			snap := s.shards[si]
			nv.shards[si] = &snap
		}
	}
	for si := range s.dirty {
		s.dirty[si] = false
	}
	s.pub.Store(nv)
}

// Add appends one event through the ingest queue. In synchronous mode
// (the default) it returns once the event is published — visible to
// every subsequent query — possibly coalesced into one publication
// with other producers' concurrent batches; in queued mode (after
// StartIngest) it enqueues and returns, and the event publishes on the
// next drain tick. The event parks in its shard's pending tail, which
// seals automatically once it reaches sealTailMax rows; until then the
// row is served by a linear tail scan. No index is invalidated and
// nothing is re-sorted (see sealTailMax).
func (s *Store) Add(e Event) {
	s.AddBatch([]Event{e})
}

// AddBatch appends a batch of events through the ingest queue. The
// batch is published atomically — concurrent readers see either none
// or all of it, and batches land in enqueue order. In synchronous mode
// (the default) AddBatch returns only after publication; concurrent
// batches coalesce into a single drain, which checks the seal
// threshold once per shard for all of them and publishes one view. In
// queued mode (after StartIngest) AddBatch enqueues and returns — the
// store takes ownership of the slice until the batch publishes on the
// next drain tick, and Flush is the visibility barrier. Producers
// block only when the queue is at its backpressure bound. This is the
// preferred ingest path for periodic flushes (e.g. the amppot live
// pipeline); small flushes simply park in the pending tails, which
// every query sees.
func (s *Store) AddBatch(events []Event) {
	if len(events) == 0 {
		return
	}
	b, async, kick := s.enqueue(events)
	if kick {
		select {
		case s.drainKick <- struct{}{}:
		default:
		}
	}
	if async {
		return
	}
	s.drainOrWait(b)
}

// Version counts published mutations: it advances by the event count
// of every batch a drain publishes. In synchronous mode that means
// every Add/AddBatch moves it before returning; in queued mode it
// moves once per drain tick, by everything the tick coalesced —
// consumers caching results derived from a store compare versions to
// detect staleness, so a cached body stays valid exactly until a tick
// actually changes what queries can observe.
func (s *Store) Version() uint64 { return s.view().version }

// sealShard merges shard si's pending tail into its sorted body.
// Existing references stay valid — sealing rewrites order indexes, never
// the rows. Callers hold mu.
func (s *Store) sealShard(si int) {
	s.shards[si].seal()
	s.sealOps.Add(1)
	s.dirty[si] = true
}

// Seal merges every shard's pending tail into its sorted body and
// publishes the result when it sealed anything.
// Sealing is a writer-side convenience, not a query prerequisite:
// terminals that need sorted order merge pending tails on the fly, and
// counting terminals answer from the index plus bounded tail scans.
// Seal covers the batches already drained into the shards; in queued
// mode, call Flush first to drain the ingest queue as well.
func (s *Store) Seal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shards == nil {
		return
	}
	s.beginWrite()
	sealed := false
	for si := range s.shards {
		if s.shards[si].tail() > 0 {
			s.sealShard(si)
			sealed = true
		}
	}
	if sealed {
		s.publish()
	}
}

// pendingRows reports how many appended rows are still in pending
// tails (not yet covered by the derived indexes).
func (s *Store) pendingRows() int { return s.view().pendingRows() }

// Events returns a fresh copy of all events sorted by (Start, Target).
// The returned slice is the caller's to mutate, but the events' Ports
// slices still alias store-owned arena memory. Like every read path it
// runs against the published view and is safe under concurrent ingest.
//
// Deprecated: Events materializes a full copy of the store on every
// call; use Query with Iter or Count instead, which push filters
// down to shard and index pruning. Retained for persistence round-trip
// tests and external callers not yet migrated.
func (s *Store) Events() []Event {
	ex := s.Query().compile(cmRows)
	flat := make([]Event, 0, ex.views[0].length)
	for e := range ex.walk {
		flat = append(flat, *e)
	}
	return flat
}

// Len returns the number of events.
func (s *Store) Len() int { return s.view().length }

// --- CSV persistence -------------------------------------------------

var csvHeader = []string{
	"source", "vector", "target", "start", "end",
	"packets", "bytes", "max_pps", "avg_rps", "ports",
}

// WriteCSV writes the store in a stable text format.
func (s *Store) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	rec := make([]string, len(csvHeader))
	var ports strings.Builder
	var err error
	for e := range s.Query().Iter() {
		rec[0] = e.Source.String()
		rec[1] = e.Vector.String()
		rec[2] = e.Target.String()
		rec[3] = strconv.FormatInt(e.Start, 10)
		rec[4] = strconv.FormatInt(e.End, 10)
		rec[5] = strconv.FormatUint(e.Packets, 10)
		rec[6] = strconv.FormatUint(e.Bytes, 10)
		rec[7] = strconv.FormatFloat(e.MaxPPS, 'g', -1, 64)
		rec[8] = strconv.FormatFloat(e.AvgRPS, 'g', -1, 64)
		ports.Reset()
		for i, p := range e.Ports {
			if i > 0 {
				ports.WriteByte(';')
			}
			ports.WriteString(strconv.Itoa(int(p)))
		}
		rec[9] = ports.String()
		if err = cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes the store as CSV at path, atomically: a reader, or
// a crash, sees either the previous file or the complete new one.
func (s *Store) WriteCSVFile(path string) error {
	return writeFileAtomic(path, s.WriteCSV)
}

// ReadCSV parses a store written by WriteCSV.
func ReadCSV(r io.Reader) (*Store, error) {
	cr := csv.NewReader(r)
	head, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("attack: reading CSV header: %w", err)
	}
	if len(head) != len(csvHeader) || head[0] != "source" {
		return nil, fmt.Errorf("attack: unexpected CSV header %v", head)
	}
	// Accumulate and build with one AddBatch: a decode is private until
	// it returns, so per-record view publication would be pure overhead.
	var events []Event
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		var e Event
		switch rec[0] {
		case "telescope":
			e.Source = SourceTelescope
		case "honeypot":
			e.Source = SourceHoneypot
		default:
			return nil, fmt.Errorf("attack: line %d: bad source %q", line, rec[0])
		}
		if e.Vector, err = ParseVector(rec[1]); err != nil {
			return nil, fmt.Errorf("attack: line %d: %w", line, err)
		}
		if e.Target, err = netx.ParseAddr(rec[2]); err != nil {
			return nil, fmt.Errorf("attack: line %d: %w", line, err)
		}
		if e.Start, err = strconv.ParseInt(rec[3], 10, 64); err != nil {
			return nil, fmt.Errorf("attack: line %d: start: %w", line, err)
		}
		if e.End, err = strconv.ParseInt(rec[4], 10, 64); err != nil {
			return nil, fmt.Errorf("attack: line %d: end: %w", line, err)
		}
		if e.Packets, err = strconv.ParseUint(rec[5], 10, 64); err != nil {
			return nil, fmt.Errorf("attack: line %d: packets: %w", line, err)
		}
		if e.Bytes, err = strconv.ParseUint(rec[6], 10, 64); err != nil {
			return nil, fmt.Errorf("attack: line %d: bytes: %w", line, err)
		}
		if e.MaxPPS, err = strconv.ParseFloat(rec[7], 64); err != nil {
			return nil, fmt.Errorf("attack: line %d: max_pps: %w", line, err)
		}
		if e.AvgRPS, err = strconv.ParseFloat(rec[8], 64); err != nil {
			return nil, fmt.Errorf("attack: line %d: avg_rps: %w", line, err)
		}
		if rec[9] != "" {
			start := 0
			str := rec[9]
			for i := 0; i <= len(str); i++ {
				if i == len(str) || str[i] == ';' {
					// Skip empty tokens so trailing or doubled
					// separators ("80;", "80;;443") round-trip instead
					// of failing with a bare strconv error.
					if i > start {
						p, err := strconv.ParseUint(str[start:i], 10, 16)
						if err != nil {
							return nil, fmt.Errorf("attack: line %d: ports: %w", line, err)
						}
						e.Ports = append(e.Ports, uint16(p))
					}
					start = i + 1
				}
			}
		}
		events = append(events, e)
	}
	return NewStore(events), nil
}
