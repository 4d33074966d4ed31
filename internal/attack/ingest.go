package attack

import (
	"sync"
	"time"
)

// This file is the store's multi-producer ingest front: an MPSC queue
// in front of the writer. Producers (Add/AddBatch callers, amppot
// sinks, federation push) only ever enqueue; a single drainer applies
// every queued batch, seals each touched shard at most once, and
// publishes ONE immutable view covering all of them — so publication
// cost is paid once per drain, not once per mutation, and N producers
// ingest concurrently instead of serializing on the full writer path.
//
// Why a queue and not per-day-shard writer locks: the store's
// publication model is single-writer by construction — one atomic view
// swap, one serialization of whole batches. Per-shard locks would let
// two producers mutate disjoint shards concurrently but would need a
// store-wide barrier anyway to publish a consistent cross-shard view
// (and to keep "a batch becomes visible atomically" — a batch spans
// shards). The queue keeps every writer invariant intact and moves the
// expensive parts (seal, publication) off the producer hot path; the
// apply loop itself is memory-bandwidth-bound column appends, which one
// core sustains far beyond the sensor fleet rates the paper's regime
// implies.
//
// Two modes share the machinery:
//
//   - Synchronous (the zero-value default): AddBatch enqueues, then
//     either becomes the drainer or waits for one. The call returns
//     only after the batch is published, so read-your-writes holds
//     exactly as before; under concurrency the drainer coalesces every
//     queued batch into one publication (flat combining).
//   - Queued (after StartIngest): AddBatch enqueues and returns. A
//     background drainer publishes one view per tick (continuously for
//     Tick <= 0). Flush is the visibility barrier; Close final-drains
//     exactly once and reverts the store to synchronous mode.
//
// In both modes batches apply in enqueue order — a total order that is
// one serialization of the producers' batch sequences — and a view
// always covers a whole-batch prefix of it.

// defaultMaxQueue bounds the ingest queue (in events) before producers
// block in enqueue: backpressure, so a producer fleet cannot outrun the
// drainer without bound. Draining frees the space and wakes producers;
// in ticked mode a producer at the bound kicks the drainer early rather
// than stalling a full tick.
const defaultMaxQueue = 1 << 18

// pendingBatch is one producer's enqueued batch. done is closed when
// the batch has been published; it is nil for queued-mode enqueues,
// where nobody waits.
type pendingBatch struct {
	events []Event
	done   chan struct{}
}

// IngestConfig configures queued (asynchronous) ingest, see
// Store.StartIngest.
type IngestConfig struct {
	// Tick is the publication cadence: the background drainer applies
	// everything queued and publishes one view per tick. Tick <= 0
	// drains continuously — whenever batches are pending — which still
	// coalesces whatever accumulated since the previous drain.
	Tick time.Duration
}

// IngestStats is a point-in-time snapshot of the ingest front, served
// by /v1/stats for ops visibility.
type IngestStats struct {
	// Queued counts events enqueued but not yet published (including a
	// drain in progress); Batches counts batches awaiting a drainer.
	Queued  int
	Batches int
	// Drains counts drain ticks that applied at least one batch;
	// Coalesced counts batches applied — Coalesced/Drains is the
	// combining factor.
	Drains    uint64
	Coalesced uint64
	// Queued mode active (StartIngest called, Close not yet).
	Async bool
}

// ensureIngest lazily initializes the queue machinery. Callers hold
// qmu. The fields are written once and never replaced, so goroutines
// that observed the initialization through qmu may use the channels
// without further locking.
func (s *Store) ensureIngest() {
	if s.qcond == nil {
		s.qcond = sync.NewCond(&s.qmu)
		s.drainSem = make(chan struct{}, 1)
		s.drainKick = make(chan struct{}, 1)
		if s.maxQueue <= 0 {
			s.maxQueue = defaultMaxQueue
		}
	}
}

// enqueue appends a batch to the ingest queue, blocking while the
// queue is at its bound. It reports whether the store is in queued
// mode (the producer returns without waiting) and whether the drainer
// should be kicked ahead of its tick.
func (s *Store) enqueue(events []Event) (b *pendingBatch, async, kick bool) {
	s.qmu.Lock()
	s.ensureIngest()
	for s.queued >= s.maxQueue {
		// Progress guarantee: a producer waiting here has not enqueued
		// yet, so every queued batch has either a live drainer (queued
		// mode) or an owner inside drainOrWait (synchronous mode)
		// responsible for draining it.
		if s.drainerOn {
			select {
			case s.drainKick <- struct{}{}:
			default:
			}
		}
		s.qcond.Wait()
	}
	async = s.drainerOn
	b = &pendingBatch{events: events}
	if !async {
		b.done = make(chan struct{})
	}
	s.queue = append(s.queue, b)
	s.queued += len(events)
	kick = async && (s.drainTick <= 0 || s.queued >= s.maxQueue)
	s.qmu.Unlock()
	return b, async, kick
}

// drainOrWait completes a synchronous mutation: the producer either
// acquires the drainer role and drains the queue itself — publishing
// its own batch along with every other batch queued at that moment —
// or waits for whichever producer holds the role to publish it.
func (s *Store) drainOrWait(b *pendingBatch) {
	for {
		select {
		case <-b.done:
			return
		case s.drainSem <- struct{}{}:
			// b was enqueued before the role was acquired, so this
			// drain's snapshot necessarily includes it; the loop exits
			// through b.done on the next iteration.
			s.drainAll()
			<-s.drainSem
		}
	}
}

// drainAll applies every queued batch in enqueue order, seals each
// touched shard at most once, publishes ONE view covering all of them,
// then frees the queue space and wakes the batches' producers. Callers
// hold the drainer role (drainSem); the writer mutex is taken only for
// the apply-and-publish step, so Seal interleaves safely.
func (s *Store) drainAll() {
	s.qmu.Lock()
	batches := s.queue
	s.queue = nil
	s.qmu.Unlock()
	if len(batches) == 0 {
		return
	}
	s.mu.Lock()
	s.beginWrite()
	n := s.apply(batches)
	s.length += n
	s.version += uint64(n)
	for si := range s.shards {
		if s.shards[si].tail() >= sealTailMax {
			s.sealShard(si)
		}
	}
	s.publish()
	s.mu.Unlock()
	s.ingDrains.Add(1)
	s.ingCoalesced.Add(uint64(len(batches)))
	s.qmu.Lock()
	s.queued -= n
	s.qcond.Broadcast()
	s.qmu.Unlock()
	for _, b := range batches {
		if b.done != nil {
			close(b.done)
		}
	}
}

// StartIngest switches the store into queued ingest: Add and AddBatch
// enqueue and return, and a background drainer applies everything
// queued and publishes one immutable view per tick. Readers keep their
// lock-free published-view semantics; what changes is the publication
// cadence — a query observes the batches of some whole-tick prefix
// rather than every individual mutation. Flush forces a drain and is
// the write-visibility barrier; Close drains exactly once more and
// reverts to synchronous mode.
//
// In queued mode the store takes ownership of the slice passed to
// AddBatch (and of the events' Ports arrays) until the batch
// publishes; callers must not reuse them after the call.
//
// StartIngest panics if the store is closed or already in queued mode.
func (s *Store) StartIngest(cfg IngestConfig) {
	s.qmu.Lock()
	s.ensureIngest()
	if s.ingClosed {
		s.qmu.Unlock()
		panic("attack: StartIngest on a closed store")
	}
	if s.drainerOn {
		s.qmu.Unlock()
		panic("attack: StartIngest called twice")
	}
	s.drainerOn = true
	s.drainTick = cfg.Tick
	s.drainStop = make(chan struct{})
	s.qmu.Unlock()
	s.drainerWG.Add(1)
	go s.drainer(cfg.Tick, s.drainStop)
}

// drainer is the queued-mode background goroutine: it drains on every
// tick (or whenever kicked: continuous mode kicks on enqueue, ticked
// mode only at the backpressure bound) and once more on stop.
func (s *Store) drainer(tick time.Duration, stop <-chan struct{}) {
	defer s.drainerWG.Done()
	var tickC <-chan time.Time
	if tick > 0 {
		t := time.NewTicker(tick)
		defer t.Stop()
		tickC = t.C
	}
	for {
		select {
		case <-stop:
			s.drainSem <- struct{}{}
			s.drainAll()
			<-s.drainSem
			return
		case <-tickC:
		case <-s.drainKick:
		}
		s.drainSem <- struct{}{}
		s.drainAll()
		<-s.drainSem
	}
}

// Flush drains the ingest queue synchronously: every batch enqueued
// before the call is published when Flush returns. It is the
// visibility barrier for queued-mode producers ("everything I wrote is
// now queryable") and a no-op on an idle store.
func (s *Store) Flush() {
	s.qmu.Lock()
	s.ensureIngest()
	s.qmu.Unlock()
	s.drainSem <- struct{}{}
	s.drainAll()
	<-s.drainSem
}

// Close stops queued ingest: the background drainer performs a final
// drain and exits, any batch still queued is published, and the store
// reverts to synchronous mode — a mutation that slips in concurrently
// with Close is never lost, it just self-drains. Every enqueued batch
// is applied exactly once: a drain removes batches from the queue
// before applying them, and the drainer role serializes drains.
//
// Close is idempotent and safe on a store that never started queued
// ingest (it degrades to Flush). The store remains fully usable for
// reads and synchronous writes afterwards.
func (s *Store) Close() error {
	s.qmu.Lock()
	s.ensureIngest()
	wasOn := s.drainerOn
	s.drainerOn = false
	s.ingClosed = true
	stop := s.drainStop
	s.qmu.Unlock()
	if wasOn {
		close(stop)
		s.drainerWG.Wait()
	}
	// Sweep up batches enqueued after the drainer's final snapshot but
	// before the mode flip was observed.
	s.Flush()
	return nil
}

// IngestStats snapshots the ingest front.
func (s *Store) IngestStats() IngestStats {
	s.qmu.Lock()
	st := IngestStats{
		Queued:  s.queued,
		Batches: len(s.queue),
		Async:   s.drainerOn,
	}
	s.qmu.Unlock()
	st.Drains = s.ingDrains.Load()
	st.Coalesced = s.ingCoalesced.Load()
	return st
}
