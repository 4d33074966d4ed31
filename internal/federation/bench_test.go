package federation

import (
	"context"
	"math/rand"
	"net"
	"testing"
	"time"

	"doscope/internal/attack"
	"doscope/internal/faultnet"
)

// benchSite serves a store of n random events on loopback and returns
// a client; the same store is returned for local baselines.
func benchSite(b *testing.B, n int) (*RemoteStore, *attack.Store) {
	b.Helper()
	st := attack.NewStore(randomEvents(rand.New(rand.NewSource(71)), n))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { l.Close() })
	go NewServer(st).Serve(l)
	r := Dial(l.Addr().String())
	b.Cleanup(func() { r.Close() })
	return r, st
}

const benchEvents = 20000

// BenchmarkFederatedCount is the index-partial path the federation
// protocol exists for: a counting plan crosses the wire as 20 bytes and
// comes back as 8 — per-op cost is one round trip plus an index lookup,
// independent of the site's event count.
func BenchmarkFederatedCount(b *testing.B) {
	r, _ := benchSite(b, benchEvents)
	fed := attack.QueryBackends(r).Source(attack.SourceHoneypot).Days(0, 364)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := strict(fed.Count()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	_, recv := r.WireBytes()
	b.ReportMetric(float64(recv)/float64(b.N), "wire-B/op")
}

// BenchmarkFederatedCountSegmentShip is the strawman the counting path
// is measured against: ship the site's whole capture as a DOSEVT02
// segment and count client-side. Same answer, O(events) bytes and time.
func BenchmarkFederatedCountSegmentShip(b *testing.B) {
	r, _ := benchSite(b, benchEvents)
	plan := attack.QueryBackends(r).Source(attack.SourceHoneypot).Days(0, 364).Plan()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, closer, err := r.PlanStoreContext(context.Background(), attack.PlanAll())
		if err != nil {
			b.Fatal(err)
		}
		if n := plan.Query(st).Count(); n < 0 {
			b.Fatal("impossible")
		}
		closer.Close()
	}
	b.StopTimer()
	_, recv := r.WireBytes()
	b.ReportMetric(float64(recv)/float64(b.N), "wire-B/op")
}

// BenchmarkFederatedCountOneSiteDown prices degraded-mode queries with
// one of three sites blackholed: every Count answers from the
// two healthy sites either way, but without the breaker each op also
// pays the dead site's full request timeout, while with it the site is
// rejected in memory after the opening failure. The gap between the
// two sub-benchmarks is what the breaker buys.
func BenchmarkFederatedCountOneSiteDown(b *testing.B) {
	const deadTimeout = 25 * time.Millisecond
	run := func(b *testing.B, breaker Option) {
		r1, _ := benchSite(b, benchEvents/10)
		r2, _ := benchSite(b, benchEvents/10)
		// The dead site: a blackhole proxy — dials succeed, requests
		// vanish — so only the request deadline detects the outage.
		proxy, err := faultnet.Listen("127.0.0.1:9", faultnet.Faults{Blackhole: true})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { proxy.Close() })
		dead := Dial(proxy.Addr(),
			WithAttempts(1),
			WithDialTimeout(deadTimeout),
			WithRequestTimeout(deadTimeout),
			breaker)
		b.Cleanup(func() { dead.Close() })
		fed := attack.QueryBackends(r1, r2, dead)
		// One warm-up op outside the timer: it trips the breaker (when
		// enabled) so the loop measures the steady degraded state.
		if _, _, err := fed.Count(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, statuses, err := fed.Count()
			if err != nil {
				b.Fatal(err)
			}
			if attack.StatusErr(statuses) == nil {
				b.Fatal("blackholed site did not degrade the count")
			}
		}
	}
	b.Run("breaker", func(b *testing.B) { run(b, WithBreaker(1, time.Hour)) })
	b.Run("no-breaker", func(b *testing.B) { run(b, WithBreaker(0, 0)) })
}

// BenchmarkFederatedFetchOpen measures the iteration-terminal path: a
// filtered fetch shipped as a segment and opened zero-copy.
func BenchmarkFederatedFetchOpen(b *testing.B) {
	r, _ := benchSite(b, benchEvents)
	plan := attack.QueryBackends(r).Source(attack.SourceHoneypot).Plan()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, closer, err := r.PlanStoreContext(context.Background(), plan)
		if err != nil {
			b.Fatal(err)
		}
		if st.Len() == 0 {
			b.Fatal("empty fetch")
		}
		closer.Close()
	}
}
