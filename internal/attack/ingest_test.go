package attack

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"doscope/internal/netx"
)

// ---------------------------------------------------------------------
// Multi-producer fixture: P producers, each with a sequence of tagged
// batches. Producer p is identified by its vector (VectorNTP+p) and a
// batch by the Packets field, so any observed event can be attributed
// to exactly one (producer, batch). Starts are globally unique (every
// (start, target) pair is distinct, making every sorted order
// deterministic) but shuffled across — and slightly outside — the
// window, so batches carry out-of-order days; targets are drawn from a
// small pool, so duplicates are everywhere.
// ---------------------------------------------------------------------

const (
	mpProducers = 3
	mpBatches   = 10
)

type mpTuple [mpProducers]int // applied-batch count per producer

type mpFixture struct {
	batches [mpProducers][mpBatches][]Event
	// cum[p][k]: events in p's first k batches; inWin is the in-window
	// subset (what CountByDay can see).
	cum   [mpProducers][mpBatches + 1]int
	inWin [mpProducers][mpBatches + 1]int
	// dayCum[p][k]: per-day histogram of p's first k batches.
	dayCum [mpProducers][mpBatches + 1][]int
	// tgtCum[p][k]: per-target counts of p's first k batches.
	tgtCum [mpProducers][mpBatches + 1]map[netx.Addr]int
	// byTotal maps a total event count to every tuple achieving it.
	byTotal map[int][]mpTuple

	mu      sync.Mutex
	oracles map[mpTuple]*mpOracle
}

// mpOracle is the from-scratch result set for one batch tuple.
type mpOracle struct {
	events []Event
	starts []int64
}

func mpVector(p int) Vector { return VectorNTP + Vector(p) }

func buildMPFixture(rng *rand.Rand) *mpFixture {
	f := &mpFixture{byTotal: make(map[int][]mpTuple), oracles: make(map[mpTuple]*mpOracle)}
	// Batch sizes vary from singletons up; total events stay modest so
	// the -race stress finishes quickly.
	total := 0
	var sizes [mpProducers][mpBatches]int
	for p := 0; p < mpProducers; p++ {
		for k := 0; k < mpBatches; k++ {
			sizes[p][k] = 1 + rng.Intn(40)
			total += sizes[p][k]
		}
	}
	// Globally unique starts, shuffled so consecutive batch events jump
	// across days (and a tenth land outside the window entirely).
	span := int64(WindowDays+20) * 86400
	step := span / int64(total)
	if step < 1 {
		step = 1
	}
	starts := make([]int64, total)
	for i := range starts {
		starts[i] = WindowStart - 10*86400 + int64(i)*step
	}
	rng.Shuffle(total, func(i, j int) { starts[i], starts[j] = starts[j], starts[i] })

	next := 0
	for p := 0; p < mpProducers; p++ {
		f.dayCum[p][0] = make([]int, WindowDays)
		f.tgtCum[p][0] = map[netx.Addr]int{}
		for k := 0; k < mpBatches; k++ {
			evs := make([]Event, sizes[p][k])
			for j := range evs {
				evs[j] = Event{
					Source:  SourceHoneypot,
					Vector:  mpVector(p),
					Target:  netx.AddrFrom4(198, 51, 100, byte(rng.Intn(24))),
					Start:   starts[next],
					Packets: uint64(k),
					Bytes:   uint64(p),
					AvgRPS:  float64(next),
				}
				evs[j].End = evs[j].Start + 60
				next++
			}
			f.batches[p][k] = evs
			f.cum[p][k+1] = f.cum[p][k] + len(evs)
			f.inWin[p][k+1] = f.inWin[p][k]
			day := append([]int(nil), f.dayCum[p][k]...)
			tgt := make(map[netx.Addr]int, len(f.tgtCum[p][k]))
			for a, n := range f.tgtCum[p][k] {
				tgt[a] = n
			}
			for j := range evs {
				if d := DayOf(evs[j].Start); d >= 0 && d < WindowDays {
					day[d]++
					f.inWin[p][k+1]++
				}
				tgt[evs[j].Target]++
			}
			f.dayCum[p][k+1] = day
			f.tgtCum[p][k+1] = tgt
		}
	}
	var tup mpTuple
	f.enumTotals(0, 0, tup)
	return f
}

func (f *mpFixture) enumTotals(p, sum int, tup mpTuple) {
	if p == mpProducers {
		f.byTotal[sum] = append(f.byTotal[sum], tup)
		return
	}
	for k := 0; k <= mpBatches; k++ {
		tup[p] = k
		f.enumTotals(p+1, sum+f.cum[p][k], tup)
	}
}

// oracle returns (building on first use) the from-scratch store results
// for one tuple of applied batch prefixes.
func (f *mpFixture) oracle(tup mpTuple) *mpOracle {
	f.mu.Lock()
	defer f.mu.Unlock()
	if o := f.oracles[tup]; o != nil {
		return o
	}
	var union []Event
	for p := 0; p < mpProducers; p++ {
		for k := 0; k < tup[p]; k++ {
			union = append(union, f.batches[p][k]...)
		}
	}
	fresh := NewStore(union)
	o := &mpOracle{events: fresh.Query().Events()}
	for e := range fresh.Query().IterByStart() {
		o.starts = append(o.starts, e.Start)
	}
	f.oracles[tup] = o
	return o
}

// decompose attributes observed events to (producer, batch) tags and
// verifies the whole-batch prefix property: for each producer, batches
// appear fully or not at all, and batch k implies every batch before
// it. It returns the applied-batch tuple.
func (f *mpFixture) decompose(t *testing.T, terminal string, evs []Event) (mpTuple, bool) {
	t.Helper()
	var got [mpProducers][mpBatches]int
	for i := range evs {
		p := int(evs[i].Vector - VectorNTP)
		k := int(evs[i].Packets)
		if p < 0 || p >= mpProducers || k < 0 || k >= mpBatches {
			t.Errorf("%s observed alien event %+v", terminal, evs[i])
			return mpTuple{}, false
		}
		got[p][k]++
	}
	var tup mpTuple
	for p := 0; p < mpProducers; p++ {
		k := 0
		for ; k < mpBatches && got[p][k] == len(f.batches[p][k]); k++ {
		}
		for j := k; j < mpBatches; j++ {
			if got[p][j] != 0 {
				t.Errorf("%s observed a non-prefix batch set for producer %d: batch %d present (%d/%d events) with batch %d incomplete",
					terminal, p, j, got[p][j], len(f.batches[p][j]), k)
				return mpTuple{}, false
			}
		}
		tup[p] = k
	}
	return tup, true
}

// monotone enforces per-reader monotonicity: the applied tuple may only
// grow componentwise across one reader's successive observations.
func monotone(t *testing.T, terminal string, last *mpTuple, tup mpTuple) {
	t.Helper()
	for p := 0; p < mpProducers; p++ {
		if tup[p] < last[p] {
			t.Errorf("%s went back in time for producer %d: %d batches after %d", terminal, p, tup[p], last[p])
			return
		}
	}
	*last = tup
}

// TestConcurrentWritersOracle is the multi-producer extension of the PR
// 5 writer-vs-readers stress: N producer goroutines race Add/AddBatch
// (mixed sizes, duplicate targets, out-of-order days) against M
// concurrent readers, in both writer modes. Every observed terminal
// result must equal the from-scratch oracle of SOME serialization
// prefix of whole batches — batch-atomic, per-producer prefix-closed —
// and the prefixes one reader observes must be monotone. Run under
// -race (make race / CI) this is also the data-race proof for the MPSC
// ingest front.
func TestConcurrentWritersOracle(t *testing.T) {
	for _, mode := range []string{"sync", "queued"} {
		t.Run(mode, func(t *testing.T) {
			rng := rand.New(rand.NewSource(211))
			f := buildMPFixture(rng)
			st := &Store{}
			if mode == "queued" {
				st.StartIngest(IngestConfig{Tick: 0}) // continuous: drain whenever batches are queued
			}

			var writersDone sync.WaitGroup
			var done bool
			var doneMu sync.Mutex
			writersDone.Add(mpProducers)
			for p := 0; p < mpProducers; p++ {
				go func(p int) {
					defer writersDone.Done()
					for k := 0; k < mpBatches; k++ {
						if len(f.batches[p][k]) == 1 {
							st.Add(f.batches[p][k][0]) // exercise the singleton path too
						} else {
							st.AddBatch(f.batches[p][k])
						}
					}
				}(p)
			}
			go func() {
				writersDone.Wait()
				st.Flush() // queued mode: barrier before readers' final sweep
				doneMu.Lock()
				done = true
				doneMu.Unlock()
			}()

			const readers = 3
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					var last mpTuple
					for finished := false; !finished; {
						doneMu.Lock()
						finished = done
						doneMu.Unlock()
						switch r % 3 {
						case 0:
							evs := st.Query().Events()
							tup, ok := f.decompose(t, "Events", evs)
							if !ok {
								return
							}
							monotone(t, "Events", &last, tup)
							if o := f.oracle(tup); !reflect.DeepEqual(evs, o.events) {
								t.Errorf("Events diverged from the %v prefix oracle", tup)
								return
							}
						case 1:
							var obs []Event
							for e := range st.Query().IterByStart() {
								obs = append(obs, *e.Clone())
							}
							tup, ok := f.decompose(t, "IterByStart", obs)
							if !ok {
								return
							}
							monotone(t, "IterByStart", &last, tup)
							o := f.oracle(tup)
							for i := range obs {
								if obs[i].Start != o.starts[i] {
									t.Errorf("IterByStart order diverged from the %v prefix oracle at %d", tup, i)
									return
								}
							}
						case 2:
							// Counting terminals: each producer's vector count
							// must sit exactly on one of its batch boundaries.
							vec := st.Query().CountByVector()
							var tup mpTuple
							for p := 0; p < mpProducers; p++ {
								k := -1
								for j := 0; j <= mpBatches; j++ {
									if vec[mpVector(p)] == f.cum[p][j] {
										k = j
										break
									}
								}
								if k < 0 {
									t.Errorf("CountByVector saw %d events for producer %d: not any whole-batch boundary", vec[mpVector(p)], p)
									return
								}
								tup[p] = k
							}
							monotone(t, "CountByVector", &last, tup)

							if n := st.Query().Count(); len(f.byTotal[n]) == 0 {
								t.Errorf("Count observed %d events: not any batch-serialization prefix", n)
								return
							}
							day := st.Query().CountByDay()
							if !f.dayMatchesSomePrefix(day) {
								t.Error("CountByDay matches no batch-serialization prefix")
								return
							}
							if !f.targetsMatchSomePrefix(groupByTarget(st.Query())) {
								t.Error("per-target grouping matches no batch-serialization prefix")
								return
							}
						}
					}
					// The final sweep ran after the done flag, which is set
					// only after every batch is published.
					full := mpTuple{mpBatches, mpBatches, mpBatches}
					if last != full {
						t.Errorf("reader %d finished at prefix %v, want %v", r, last, full)
					}
				}(r)
			}
			wg.Wait()
			if mode == "queued" {
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if got := st.Query().Events(); !reflect.DeepEqual(got, f.oracle(mpTuple{mpBatches, mpBatches, mpBatches}).events) {
				t.Fatal("final store diverged from the full oracle")
			}
		})
	}
}

// dayMatchesSomePrefix reports whether an observed per-day histogram is
// the sum of some per-producer batch prefixes.
func (f *mpFixture) dayMatchesSomePrefix(day []int) bool {
	total := 0
	for _, n := range day {
		total += n
	}
	// Candidate tuples are constrained by the in-window total.
	for sum, tups := range f.byTotal {
		_ = sum
		for _, tup := range tups {
			in := 0
			for p := 0; p < mpProducers; p++ {
				in += f.inWin[p][tup[p]]
			}
			if in != total {
				continue
			}
			match := true
			for d := 0; d < WindowDays && match; d++ {
				want := 0
				for p := 0; p < mpProducers; p++ {
					want += f.dayCum[p][tup[p]][d]
				}
				match = day[d] == want
			}
			if match {
				return true
			}
		}
	}
	return false
}

// targetsMatchSomePrefix reports whether observed per-target event
// counts are the sum of some per-producer batch prefixes.
func (f *mpFixture) targetsMatchSomePrefix(groups map[netx.Addr][]*Event) bool {
	total := 0
	for _, evs := range groups {
		total += len(evs)
	}
	for _, tup := range f.byTotal[total] {
		match := true
		seen := 0
		for a, evs := range groups {
			want := 0
			for p := 0; p < mpProducers; p++ {
				want += f.tgtCum[p][tup[p]][a]
			}
			if len(evs) != want {
				match = false
				break
			}
			seen += want
		}
		if match && seen == total {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------
// Drain/shutdown determinism.
// ---------------------------------------------------------------------

// TestQueuedPublicationCadence pins the tick model: queued batches are
// invisible (and the version unmoved) until a drain, and one drain
// publishes everything queued as a single view — two batches inside one
// tick never produce an intermediate state.
func TestQueuedPublicationCadence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	st := &Store{}
	st.StartIngest(IngestConfig{Tick: time.Hour}) // ticks never fire; Flush is the tick
	defer st.Close()

	b1, b2 := randomEvents(rng, 37), randomEvents(rng, 23)
	st.AddBatch(b1)
	st.AddBatch(b2)
	if n := st.Len(); n != 0 {
		t.Fatalf("queued batches visible before the tick: Len=%d", n)
	}
	if v := st.Version(); v != 0 {
		t.Fatalf("version moved before the tick: %d", v)
	}
	is := st.IngestStats()
	if is.Queued != 60 || is.Batches != 2 || !is.Async {
		t.Fatalf("pre-drain stats = %+v, want 60 queued in 2 batches, async", is)
	}

	st.Flush()
	if n := st.Len(); n != 60 {
		t.Fatalf("after the tick Len=%d, want 60", n)
	}
	if v := st.Version(); v != 60 {
		t.Fatalf("after the tick Version=%d, want 60", v)
	}
	is = st.IngestStats()
	if is.Queued != 0 || is.Batches != 0 || is.Drains != 1 || is.Coalesced != 2 {
		t.Fatalf("post-drain stats = %+v, want 0 queued, 1 drain coalescing 2 batches", is)
	}
	want := NewStore(append(append([]Event(nil), b1...), b2...)).Query().Events()
	if got := st.Query().Events(); !reflect.DeepEqual(got, want) {
		t.Fatal("tick-published store diverged from the two-batch oracle")
	}
}

// TestCloseExactlyOnce races producers against Close: every batch whose
// AddBatch returned must be applied exactly once — no loss from a
// stopping drainer, no double-apply from the final sweep — and the
// store must revert to working synchronous ingest afterwards.
func TestCloseExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	base := randomEvents(rng, mpProducers*240)
	st := &Store{}
	st.StartIngest(IngestConfig{Tick: 250 * time.Microsecond})

	var wg sync.WaitGroup
	for p := 0; p < mpProducers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := 0; k < 24; k++ {
				evs := make([]Event, 10)
				copy(evs, base[p*240+k*10:])
				for j := range evs {
					// Tag so every event is attributable: exactly-once is
					// checked per (producer, batch) tag.
					evs[j].Packets = uint64(p*1000 + k)
				}
				st.AddBatch(evs)
			}
		}(p)
	}
	// Race shutdown with the producers mid-stream.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// Post-Close mutations fall back to synchronous ingest (visible on
	// return) rather than being dropped.
	st.Add(Event{Source: SourceHoneypot, Vector: VectorNTP, Target: netx.AddrFrom4(192, 0, 2, 1), Start: WindowStart + 5, End: WindowStart + 6, Packets: 999999})
	if err := st.Close(); err != nil { // idempotent
		t.Fatal(err)
	}

	counts := make(map[uint64]int)
	for e := range st.Query().Iter() {
		counts[e.Packets]++
	}
	for p := 0; p < mpProducers; p++ {
		for k := 0; k < 24; k++ {
			if got := counts[uint64(p*1000+k)]; got != 10 {
				t.Fatalf("batch (%d,%d) applied %d/10 times", p, k, got)
			}
		}
	}
	if counts[999999] != 1 {
		t.Fatalf("post-Close Add applied %d times, want 1", counts[999999])
	}
	if got, want := st.Len(), mpProducers*240+1; got != want {
		t.Fatalf("Len=%d, want %d", got, want)
	}
}

// TestFlushBarrier: a batch enqueued before Flush is queryable when
// Flush returns, and a closed-then-written store round-trips the full
// multiset (the flush/close contract WriteSegment documents).
func TestFlushBarrier(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	evs := randomEvents(rng, 300)
	st := &Store{}
	st.StartIngest(IngestConfig{Tick: time.Hour})
	for off := 0; off < len(evs); off += 50 {
		st.AddBatch(evs[off : off+50])
	}
	st.Flush()
	if got := st.Len(); got != len(evs) {
		t.Fatalf("after Flush Len=%d, want %d", got, len(evs))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.WriteSegment(&buf); err != nil {
		t.Fatal(err)
	}
	seg, err := OpenSegment(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seg.Events(), NewStore(evs).Events()) {
		t.Fatal("written segment diverged from the ingested multiset")
	}
}

// TestBackpressureBound: producers at the queue bound block instead of
// growing the queue without limit, the drainer is kicked ahead of a
// distant tick, and nothing is lost.
func TestBackpressureBound(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	evs := randomEvents(rng, 2000)
	st := &Store{maxQueue: 64}
	st.StartIngest(IngestConfig{Tick: time.Hour})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for off := 0; off < len(evs); off += 25 {
			st.AddBatch(evs[off : off+25])
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("producer deadlocked at the backpressure bound")
	}
	st.Flush()
	if got := st.Len(); got != len(evs) {
		t.Fatalf("Len=%d, want %d", got, len(evs))
	}
	if is := st.IngestStats(); is.Drains < 2 {
		t.Fatalf("expected backpressure kicks to force multiple drains, got %+v", is)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStartIngestMisuse pins the mode machine's edges.
func TestStartIngestMisuse(t *testing.T) {
	st := &Store{}
	st.StartIngest(IngestConfig{Tick: time.Hour})
	mustPanic(t, "double StartIngest", func() { st.StartIngest(IngestConfig{}) })
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "StartIngest after Close", func() { st.StartIngest(IngestConfig{}) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", name)
		}
	}()
	fn()
}

// TestSyncCombining drives many synchronous producers concurrently and
// checks the combining accounting: every batch is applied exactly once
// and the drain count is not larger than the batch count (producers
// coalesce instead of publishing one view each; with real concurrency
// it is typically much smaller).
func TestSyncCombining(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	evs := randomEvents(rng, 1600)
	st := &Store{}
	var wg sync.WaitGroup
	const producers = 8
	per := len(evs) / producers
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			mine := evs[p*per : (p+1)*per]
			for off := 0; off < len(mine); off += 20 {
				st.AddBatch(mine[off : off+20])
			}
		}(p)
	}
	wg.Wait()
	if got := st.Len(); got != len(evs) {
		t.Fatalf("Len=%d, want %d", got, len(evs))
	}
	is := st.IngestStats()
	wantBatches := uint64(len(evs) / 20)
	if is.Coalesced != wantBatches {
		t.Fatalf("Coalesced=%d, want %d", is.Coalesced, wantBatches)
	}
	if is.Drains > is.Coalesced {
		t.Fatalf("more drains (%d) than batches (%d)", is.Drains, is.Coalesced)
	}
	if !reflect.DeepEqual(st.Query().Events(), NewStore(evs).Events()) {
		t.Fatal("combined store diverged from the oracle")
	}
	_ = fmt.Sprintf("%d", is.Drains)
}
