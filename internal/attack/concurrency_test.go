package attack

import (
	"io"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"doscope/internal/netx"
)

// prefixOracle holds the from-scratch results for one batch prefix:
// what any reader must observe if its snapshot landed after batch k.
type prefixOracle struct {
	count  int
	vec    [NumVectors]int
	day    []int
	events []Event
	starts []int64
	byTgt  map[netx.Addr]int
}

// buildPrefixOracles replays the batch sequence into from-scratch
// stores and records every terminal's expected result per prefix.
func buildPrefixOracles(events []Event, batchSize int) []prefixOracle {
	n := len(events) / batchSize
	out := make([]prefixOracle, n+1)
	for k := 0; k <= n; k++ {
		fresh := NewStore(events[:k*batchSize])
		o := prefixOracle{
			count:  fresh.Query().Count(),
			vec:    fresh.Query().CountByVector(),
			day:    fresh.Query().CountByDay(),
			events: fresh.Query().Events(),
			byTgt:  make(map[netx.Addr]int),
		}
		for e := range fresh.Query().IterByStart() {
			o.starts = append(o.starts, e.Start)
		}
		for addr, evs := range groupByTarget(fresh.Query()) {
			o.byTgt[addr] = len(evs)
		}
		out[k] = o
	}
	return out
}

// TestConcurrentReadersUnderIngest is the writer-vs-readers stress
// test: one goroutine AddBatches the event stream while N reader
// goroutines hammer every terminal. Because mutations publish
// atomically, every result a reader observes must equal the
// from-scratch oracle of some whole-batch prefix, and the prefixes a
// single reader observes must be monotonically non-decreasing. Run
// under -race this is also the data-race proof for the lock-free read
// paths.
func TestConcurrentReadersUnderIngest(t *testing.T) {
	const (
		batches   = 24
		batchSize = 64
		readers   = 6
	)
	rng := rand.New(rand.NewSource(97))
	events := randomEvents(rng, batches*batchSize)
	// Four shards' worth of days: each shard takes ~384 events, so its
	// 64-row tail fills and seals several times while the readers run.
	for i := range events {
		dur := events[i].End - events[i].Start
		events[i].Start = WindowStart + rng.Int63n(4*shardDays*86400)
		events[i].End = events[i].Start + dur
	}
	oracles := buildPrefixOracles(events, batchSize)

	// Batch sizes are fixed and non-empty, so the total count identifies
	// the prefix uniquely.
	kByCount := make(map[int]int, len(oracles))
	for k, o := range oracles {
		kByCount[o.count] = k
	}

	st := &Store{}
	var writerDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < batches; k++ {
			st.AddBatch(events[k*batchSize : (k+1)*batchSize])
		}
		writerDone.Store(true)
	}()

	// resolve maps an observed total back to its prefix, enforcing
	// per-reader monotonicity: a later read can never see an earlier
	// prefix than an earlier read did.
	resolve := func(t *testing.T, total int, lastK *int, terminal string) (int, bool) {
		k, ok := kByCount[total]
		if !ok {
			t.Errorf("%s observed %d events: not any whole-batch prefix", terminal, total)
			return 0, false
		}
		if k < *lastK {
			t.Errorf("%s went back in time: prefix %d after %d", terminal, k, *lastK)
			return k, false
		}
		*lastK = k
		return k, true
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lastK := 0
			// Keep reading until the writer is done, then do one last
			// sweep that must observe the complete store.
			for done := false; !done; {
				done = writerDone.Load()
				switch r % 3 {
				case 0:
					if n := st.Query().Count(); true {
						resolve(t, n, &lastK, "Count")
					}
					vec := st.Query().CountByVector()
					total := 0
					for _, n := range vec {
						total += n
					}
					if k, ok := resolve(t, total, &lastK, "CountByVector"); ok && vec != oracles[k].vec {
						t.Errorf("CountByVector diverged from prefix %d oracle", k)
					}
					day := st.Query().CountByDay()
					matched := false
					for k := lastK; k <= batches && !matched; k++ {
						matched = reflect.DeepEqual(day, oracles[k].day)
					}
					if !matched {
						t.Error("CountByDay matches no whole-batch prefix oracle")
					}
				case 1:
					evs := st.Query().Events()
					if k, ok := resolve(t, len(evs), &lastK, "Iter/Events"); ok && !reflect.DeepEqual(evs, oracles[k].events) {
						t.Errorf("Iter diverged from prefix %d oracle", k)
					}
					var starts []int64
					for e := range st.Query().IterByStart() {
						starts = append(starts, e.Start)
					}
					if k, ok := resolve(t, len(starts), &lastK, "IterByStart"); ok && !reflect.DeepEqual(starts, oracles[k].starts) {
						t.Errorf("IterByStart diverged from prefix %d oracle", k)
					}
				case 2:
					got := groupByTarget(st.Query())
					total := 0
					for _, evs := range got {
						total += len(evs)
					}
					if k, ok := resolve(t, total, &lastK, "per-target Iter"); ok {
						for addr, evs := range got {
							if len(evs) != oracles[k].byTgt[addr] {
								t.Errorf("per-target Iter[%v] diverged from prefix %d oracle", addr, k)
								break
							}
						}
					}
				}
			}
			if lastK != batches {
				// The final sweep above ran with writerDone observed
				// true, so it must have seen the full store.
				t.Errorf("reader %d finished at prefix %d, want %d", r, lastK, batches)
			}
		}(r)
	}
	wg.Wait()

	// After the dust settles the store must equal the full oracle.
	if got := st.Query().Events(); !reflect.DeepEqual(got, oracles[batches].events) {
		t.Fatal("final store diverged from the full oracle")
	}
	if st.sealOps.Load() == 0 {
		t.Fatal("no shard sealed: the readers never raced a seal")
	}
}

// TestDerivedIndexesUnderIngest is the stress test for the derived
// indexes: readers build, catch up and read both while the writer
// seals and publishes. Each batch fills one shard's tail, so every
// batch seals and every queried view catches up. Each answer must equal
// the from-scratch answer of some whole-batch prefix no earlier than
// the reader's previous one; under -race this checks that no build
// another reader can reach is rewritten.
func TestDerivedIndexesUnderIngest(t *testing.T) {
	const (
		batches = 40
		readers = 4
	)
	rng := rand.New(rand.NewSource(103))
	events := randomEvents(rng, batches*sealTailMax)
	for i := range events {
		// Batch k lands in shard k%4, inside the window.
		shardStart := WindowStart + int64((i/sealTailMax)%4*shardDays)*86400
		events[i].Start = shardStart + rng.Int63n(shardDays*86400)
		events[i].End = events[i].Start + 60
	}
	prefix := events[0].Target.Mask(8)
	type answer struct{ count, distinct, inPrefix int }
	oracles := make([]answer, batches+1)
	for k := range oracles {
		fresh := NewStore(events[:k*sealTailMax])
		oracles[k] = answer{
			count:    fresh.Query().Count(),
			distinct: fresh.Query().CountDistinctTargets(),
			inPrefix: fresh.Query().TargetPrefix(prefix, 8).Count(),
		}
	}

	st := &Store{}
	var writerDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < batches; k++ {
			st.AddBatch(events[k*sealTailMax : (k+1)*sealTailMax])
		}
		writerDone.Store(true)
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastK := 0
			// match advances lastK to the first prefix at or after it
			// whose answer is want, reporting whether there is one.
			match := func(name string, got int, want func(answer) int) {
				k := lastK
				for k <= batches && want(oracles[k]) != got {
					k++
				}
				if k > batches {
					t.Errorf("%s = %d matches no prefix at or after %d", name, got, lastK)
					return
				}
				lastK = k
			}
			for done := false; !done; {
				done = writerDone.Load()
				match("CountDistinctTargets", st.Query().CountDistinctTargets(), func(a answer) int { return a.distinct })
				match("prefix Count", st.Query().TargetPrefix(prefix, 8).Count(), func(a answer) int { return a.inPrefix })
				match("Count", st.Query().Count(), func(a answer) int { return a.count })
			}
			if lastK != batches {
				t.Errorf("reader finished at prefix %d, want %d", lastK, batches)
			}
		}()
	}
	wg.Wait()
	if got := st.rebuilds.Load(); got > 2*readers {
		t.Errorf("%d from-scratch builds for 2 indexes and %d readers", got, readers)
	}
}

// TestReadPathsDoNotMutate is the acceptance assertion that no query
// terminal takes a lock or mutates shard state: running the complete
// terminal matrix against a store with pending tails leaves the
// published view POINTER untouched (nothing was republished), the seal
// and version counters unchanged, and every tail still pending. Only
// the once-per-lifetime lazy index builds may tick the rebuild counter.
func TestReadPathsDoNotMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	build := func(t *testing.T) *Store {
		st := &Store{}
		st.AddBatch(randomEvents(rng, 600))
		for _, e := range randomEvents(rng, 40) {
			st.Add(e) // leave unsealed pending tails behind
		}
		return st
	}
	fromSegment := func(t *testing.T) *Store {
		seg, err := OpenSegment(segmentBytes(t, build(t)))
		if err != nil {
			t.Fatal(err)
		}
		return seg
	}
	for name, mk := range map[string]func(*testing.T) *Store{
		"live-with-tails": build,
		"segment-backed":  fromSegment,
	} {
		t.Run(name, func(t *testing.T) {
			st := mk(t)
			v0 := st.view()
			seals0 := st.sealOps.Load()
			version0 := st.Version()
			pending0 := st.pendingRows()

			target := st.Events()[0].Target
			st.Query().Count()
			st.Query().Source(SourceHoneypot).Vectors(VectorNTP).CountByVector()
			st.Query().Days(0, 30).CountByDay()
			st.Query().Target(target).Count()
			st.Query().TargetPrefix(target, 16).Count()
			st.Query().TargetPrefix(target, 4).Count() // shorter than /8: scan tasks
			st.Query().Events()
			for range st.Query().IterByStart() {
				break
			}
			st.Query().CountDistinctTargets()
			st.Query().TargetPrefix(target, 16).CountDistinctTargets()
			if err := st.WriteSegment(io.Discard); err != nil {
				t.Fatal(err)
			}
			if err := st.WriteCSV(io.Discard); err != nil {
				t.Fatal(err)
			}

			if st.view() != v0 {
				t.Fatal("query traffic republished the store view: some read path mutated")
			}
			if got := st.sealOps.Load(); got != seals0 {
				t.Fatalf("query traffic sealed %d shards", got-seals0)
			}
			if got := st.Version(); got != version0 {
				t.Fatalf("query traffic moved the version %d -> %d", version0, got)
			}
			if got := st.pendingRows(); got != pending0 {
				t.Fatalf("query traffic drained pending tails %d -> %d", pending0, got)
			}
			if got := st.rebuilds.Load(); got > 2 {
				t.Fatalf("query traffic built %d from-scratch indexes, want at most 2 (counts + target perms)", got)
			}
		})
	}
}
