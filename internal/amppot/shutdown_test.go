package amppot

import (
	"bytes"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"doscope/internal/attack"
	"doscope/internal/netx"
)

// vecFor picks a payload-agnostic protocol (CharGen and QOTD answer any
// datagram) so every request in the fixture is logged.
func vecFor(v int) attack.Vector {
	if v%2 == 0 {
		return attack.VectorCharGen
	}
	return attack.VectorQOTD
}

// driveVictim replays one victim's request stream against the fleet:
// two bursts separated by more than the gap timeout, so the collector
// closes (and, in stream mode, publishes) the first event mid-run and
// the second only at the final flush. Per-(victim,vector) observations
// stay in one goroutine, so the collector's ordering contract holds no
// matter how producers interleave. The stream spans victimSpan(gap)
// seconds from base. A non-nil progress is set to each request's
// timestamp before the request is sent.
func driveVictim(f *Fleet, victim netx.Addr, vec attack.Vector, base int64, gap int64, progress *atomic.Int64) {
	send := func(i int, ts int64) {
		if progress != nil {
			progress.Store(ts)
		}
		f.HandleRequest(int(victim)+i, ts, victim, vec, []byte{1})
	}
	for i := 0; i < 150; i++ {
		send(i, base+int64(i))
	}
	for i := 0; i < 120; i++ {
		send(i, base+150+gap+1+int64(i))
	}
}

// victimSpan is how many seconds one driveVictim stream covers.
func victimSpan(gap int64) int64 { return 150 + gap + 1 + 120 }

// TestShutdownOrderingStreamedFleet is the regression test for the
// amppot daemon's shutdown sequence (stop producers → final flush →
// store close → write -out): the written segment must equal the
// ingested multiset — every extracted event exactly once — even though
// producers, periodic drains, and tick publication all raced while the
// capture was live.
func TestShutdownOrderingStreamedFleet(t *testing.T) {
	cfg := DefaultConfig()
	const producers = 4
	const victimsPer = 6

	// Live pipeline: streamed fleet into a queued-ingest store, with a
	// periodic drain ticking concurrently — the daemon's exact wiring.
	fleet := NewFleet(cfg)
	store := &attack.Store{}
	store.StartIngest(attack.IngestConfig{Tick: time.Millisecond})
	fleet.StreamTo(store)

	// Each producer drives its victims one after another on its own
	// clock, so its timestamps never go back, and publishes how far that
	// clock has come: no request it sends later is older. The drain
	// clock is the producers' low watermark, so CloseIdle only expires a
	// flow whose next request (if any) is more than the gap timeout away
	// — a split the sequential reference makes as well.
	base := func(v int) int64 { return attack.WindowStart + int64(v)*victimSpan(cfg.GapTimeout) }
	var progress [producers]atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		progress[p].Store(attack.WindowStart)
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for v := 0; v < victimsPer; v++ {
				victim := netx.AddrFrom4(203, 0, byte(p), byte(v))
				driveVictim(fleet, victim, vecFor(v), base(v), cfg.GapTimeout, &progress[p])
			}
			progress[p].Store(math.MaxInt64)
		}(p)
	}
	lowWatermark := func() int64 {
		w := int64(math.MaxInt64)
		for p := range progress {
			w = min(w, progress[p].Load())
		}
		return w
	}
	drainDone := make(chan struct{})
	stopDrain := make(chan struct{})
	go func() { // the -flush ticker
		defer close(drainDone)
		for {
			select {
			case <-stopDrain:
				return
			default:
				fleet.DrainTo(store, lowWatermark())
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	// Shutdown order: producers stop, periodic drain stops, final
	// flush, store close, then write.
	wg.Wait()
	close(stopDrain)
	<-drainDone
	fleet.FlushTo(store)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := store.WriteSegment(&buf); err != nil {
		t.Fatal(err)
	}
	seg, err := attack.OpenSegment(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	// Oracle: the same per-victim streams through a buffered fleet,
	// sequentially.
	ref := NewFleet(cfg)
	for p := 0; p < producers; p++ {
		for v := 0; v < victimsPer; v++ {
			victim := netx.AddrFrom4(203, 0, byte(p), byte(v))
			driveVictim(ref, victim, vecFor(v), base(v), cfg.GapTimeout, nil)
		}
	}
	want := ref.FlushStore().Events()
	if got := seg.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("written segment diverged from the ingested multiset: %d events, want %d", len(got), len(want))
	}
	if want2 := producers * victimsPer * 2; len(want) != want2 {
		t.Fatalf("oracle extracted %d events, fixture expected %d", len(want), want2)
	}
}

// TestStreamToCountsAndDrainReporting pins StreamTo bookkeeping: events
// extracted while streaming are reported by DrainTo/FlushTo return
// values just as in buffered mode, and Drain stays empty.
func TestStreamToCountsAndDrainReporting(t *testing.T) {
	cfg := DefaultConfig()
	fleet := NewFleet(cfg)
	store := &attack.Store{}
	fleet.StreamTo(store) // synchronous store: events visible as flows close

	victim := netx.AddrFrom4(198, 51, 100, 7)
	for i := 0; i < 150; i++ {
		fleet.HandleRequest(i, attack.WindowStart+int64(i), victim, attack.VectorCharGen, []byte{1})
	}
	// Flow still open: nothing extracted yet.
	if n := store.Len(); n != 0 {
		t.Fatalf("open flow already produced %d events", n)
	}
	if n := fleet.DrainTo(store, attack.WindowStart+150+cfg.GapTimeout+1); n != 1 {
		t.Fatalf("DrainTo reported %d extracted events, want 1", n)
	}
	if n := store.Len(); n != 1 {
		t.Fatalf("store has %d events after streamed drain, want 1", n)
	}
	for i := 0; i < 150; i++ {
		fleet.HandleRequest(i, attack.WindowStart+9000+int64(i), victim, attack.VectorCharGen, []byte{1})
	}
	if n := fleet.FlushTo(store); n != 1 {
		t.Fatalf("FlushTo reported %d extracted events, want 1", n)
	}
	if n := store.Len(); n != 2 {
		t.Fatalf("store has %d events after final flush, want 2", n)
	}
}
