package federation

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"doscope/internal/attack"
	"doscope/internal/netx"
)

// randomEvents mirrors the attack package's test generator: n valid
// events over both sources and all vectors, spread across (and slightly
// outside) the measurement window.
func randomEvents(rng *rand.Rand, n int) []attack.Event {
	events := make([]attack.Event, n)
	for i := range events {
		e := attack.Event{
			Target:  netx.AddrFrom4(203, byte(rng.Intn(4)), byte(rng.Intn(8)), byte(rng.Intn(32))),
			Start:   attack.WindowStart + rng.Int63n((attack.WindowDays+20)*86400) - 10*86400,
			Packets: rng.Uint64() % 1e9,
			Bytes:   rng.Uint64() % 1e12,
		}
		if rng.Intn(2) == 0 {
			e.Source = attack.SourceTelescope
			e.Vector = attack.Vector(rng.Intn(4))
			e.MaxPPS = rng.Float64() * 1e4
			for j := 0; j < rng.Intn(4); j++ {
				e.Ports = append(e.Ports, uint16(rng.Intn(65536)))
			}
		} else {
			e.Source = attack.SourceHoneypot
			e.Vector = attack.VectorNTP + attack.Vector(rng.Intn(8))
			e.AvgRPS = rng.Float64() * 1e4
		}
		e.End = e.Start + rng.Int63n(86400)
		events[i] = e
	}
	return events
}

// startSite serves st on a loopback listener and returns a client for
// it. The store needs no lock, even when a writer is still appending.
func startSite(t *testing.T, st *attack.Store, opts ...Option) *RemoteStore {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go NewServer(st).Serve(l)
	r := Dial(l.Addr().String(), opts...)
	t.Cleanup(func() { r.Close() })
	return r
}

// segmentBacked round-trips a store through the DOSEVT02 codec so the
// site serves mmap-style (frozen, order-index-free) shards.
func segmentBacked(t *testing.T, st *attack.Store) *attack.Store {
	t.Helper()
	var buf bytes.Buffer
	if err := st.WriteSegment(&buf); err != nil {
		t.Fatal(err)
	}
	seg, err := attack.OpenSegment(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

// fedPlans are the filter shapes the equivalence test executes; they
// cover every serializable filter dimension and their combination.
func fedPlans() map[string]attack.Plan {
	prefix := netx.AddrFrom4(203, 1, 0, 0)
	target := netx.AddrFrom4(203, 0, 2, 5)
	return map[string]attack.Plan{
		"all":                attack.PlanAll(),
		"source":             {Source: int8(attack.SourceHoneypot)},
		"vectors":            {Source: -1, VecMask: 1<<attack.VectorTCP | 1<<attack.VectorNTP},
		"days":               {Source: -1, HasDays: true, DayLo: 10, DayHi: 400},
		"days-out-of-window": {Source: -1, HasDays: true, DayLo: -20, DayHi: 5},
		"prefix":             {Source: -1, HasPrefix: true, PrefixBits: 16, Prefix: prefix.Mask(16)},
		"target":             {Source: -1, HasPrefix: true, PrefixBits: 32, Prefix: target},
		"combined": {Source: int8(attack.SourceTelescope),
			VecMask: 1<<attack.VectorTCP | 1<<attack.VectorUDP,
			HasDays: true, DayLo: 0, DayHi: 600,
			HasPrefix: true, PrefixBits: 18, Prefix: prefix.Mask(18)},
	}
}

// TestFederatedEquivalence is the mixed-backend property test:
// QueryStores over local stores must be indistinguishable from the same
// data split across RemoteStore sites — one serving a segment-backed
// store, one serving a live store with unsealed pending tails — for
// every terminal, with counting results byte-identical to the
// equivalent single-store query.
func TestFederatedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	events := randomEvents(rng, 3000)
	combined := attack.NewStore(events)

	// Site A: a segment-backed store, the bulk-capture shape.
	localA := attack.NewStore(events[:1600])
	siteA := segmentBacked(t, localA)

	// Site B: a live store mid-ingest — AddBatch most of it, then
	// trickle the rest through Add so shards keep unsealed tails.
	siteB := &attack.Store{}
	siteB.AddBatch(events[1600:2900])
	for _, e := range events[2900:] {
		siteB.Add(e)
	}
	localB := attack.NewStore(events[1600:])

	ra := startSite(t, siteA)
	rb := startSite(t, siteB)

	for name, plan := range fedPlans() {
		t.Run(name, func(t *testing.T) {
			fed := attack.QueryPlan(plan, ra, rb)
			local := plan.Query(localA, localB)
			single := plan.Query(combined)

			n, err := strict(fed.Count())
			if err != nil {
				t.Fatal(err)
			}
			if want := single.Count(); n != want {
				t.Errorf("Count = %d, want %d", n, want)
			}

			perVec, err := strict(fed.CountByVector())
			if err != nil {
				t.Fatal(err)
			}
			if want := plan.Query(combined).CountByVector(); perVec != want {
				t.Errorf("CountByVector = %v, want %v", perVec, want)
			}

			perDay, err := strict(fed.CountByDay())
			if err != nil {
				t.Fatal(err)
			}
			if want := plan.Query(combined).CountByDay(); !reflect.DeepEqual(perDay, want) {
				t.Error("CountByDay mismatch vs single-store query")
			}

			got, err := strict(fed.Events())
			if err != nil {
				t.Fatal(err)
			}
			want := local.Events()
			if len(got) != len(want) {
				t.Fatalf("Events: %d events, want %d", len(got), len(want))
			}
			if len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Error("Events mismatch vs local split")
			}

			// IterByStart merges across backends by start time exactly
			// like the local multi-store merge.
			it, statuses, closer, _ := attack.QueryPlan(plan, ra, rb).IterByStart()
			if err := attack.StatusErr(statuses); err != nil {
				t.Fatal(err)
			}
			var starts []int64
			for e := range it {
				starts = append(starts, e.Start)
			}
			closer.Close()
			var wantStarts []int64
			for e := range plan.Query(localA, localB).IterByStart() {
				wantStarts = append(wantStarts, e.Start)
			}
			if !reflect.DeepEqual(starts, wantStarts) {
				t.Error("IterByStart order mismatch")
			}
		})
	}
}

// TestFederatedMixedBackends runs one federated plan over a local store
// and a remote site in the same QueryBackends call.
func TestFederatedMixedBackends(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	events := randomEvents(rng, 1200)
	combined := attack.NewStore(events)
	local := attack.NewStore(events[:700])
	remote := startSite(t, attack.NewStore(events[700:]))

	fed := attack.QueryBackends(local, remote).Source(attack.SourceHoneypot)
	n, err := strict(fed.Count())
	if err != nil {
		t.Fatal(err)
	}
	if want := combined.Query().Source(attack.SourceHoneypot).Count(); n != want {
		t.Fatalf("mixed-backend Count = %d, want %d", n, want)
	}
	evs, err := strict(fed.Events())
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != n {
		t.Fatalf("mixed-backend Events = %d, want %d", len(evs), n)
	}
}

// TestCountingWireBytesOIndex asserts the acceptance criterion that
// counting queries ship index partials, not events: the bytes a
// federated count moves are identical for a small and an 8x larger
// store, while a segment fetch scales with the events.
func TestCountingWireBytesOIndex(t *testing.T) {
	countingBytes := func(n int) (recv uint64) {
		rng := rand.New(rand.NewSource(47))
		r := startSite(t, attack.NewStore(randomEvents(rng, n)))
		fed := attack.QueryBackends(r)
		if _, err := strict(fed.Count()); err != nil {
			t.Fatal(err)
		}
		if _, err := strict(fed.CountByVector()); err != nil {
			t.Fatal(err)
		}
		if _, err := strict(fed.CountByDay()); err != nil {
			t.Fatal(err)
		}
		_, recv = r.WireBytes()
		return recv
	}
	small, large := countingBytes(1000), countingBytes(8000)
	if small != large {
		t.Errorf("counting wire bytes grew with the store: %d at 1k events, %d at 8k", small, large)
	}
	// The exact budget: three response headers plus the count (8B),
	// per-vector (NumVectors*8) and per-day (WindowDays*8) index rows.
	wantResp := uint64(3*frameHeader + 8 + 8*attack.NumVectors + 8*attack.WindowDays)
	if small != wantResp {
		t.Errorf("counting wire bytes = %d, want exactly %d (index cells + headers)", small, wantResp)
	}

	segmentBytes := func(n int) (recv uint64) {
		rng := rand.New(rand.NewSource(47))
		r := startSite(t, attack.NewStore(randomEvents(rng, n)))
		st, closer, err := r.PlanStoreContext(context.Background(), attack.PlanAll())
		if err != nil {
			t.Fatal(err)
		}
		defer closer.Close()
		if st.Len() != n {
			t.Fatalf("fetched store has %d events, want %d", st.Len(), n)
		}
		_, recv = r.WireBytes()
		return recv
	}
	if s, l := segmentBytes(1000), segmentBytes(8000); l < 4*s {
		t.Errorf("segment fetch should scale with events: %d at 1k, %d at 8k", s, l)
	}
}

// TestLiveSiteSeesIngest: a served store keeps answering as the writer
// appends — no shared lock anywhere — and remote counts track the
// ingest batch by batch.
func TestLiveSiteSeesIngest(t *testing.T) {
	st := &attack.Store{}
	r := startSite(t, st)
	rng := rand.New(rand.NewSource(53))
	events := randomEvents(rng, 300)

	for round := 0; round < 3; round++ {
		st.AddBatch(events[100*round : 100*(round+1)])
		n, err := strict(attack.QueryBackends(r).Count())
		if err != nil {
			t.Fatal(err)
		}
		if want := 100 * (round + 1); n != want {
			t.Fatalf("after round %d: remote Count = %d, want %d", round, n, want)
		}
	}
}

// TestConcurrentClients: handlers run one per connection and execute
// concurrently with no serialization at all — counting queries are
// lock-free reads against the store's published view, and the
// once-per-view lazy index build is shared between racing readers (run
// under -race in CI).
func TestConcurrentClients(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	st := attack.NewStore(randomEvents(rng, 2000))
	want := st.Query().Count() // pre-read so the fresh servers below start cold
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go NewServer(attack.NewStore(randomEvents(rand.New(rand.NewSource(71)), 2000))).Serve(l)

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := Dial(l.Addr().String())
			defer r.Close()
			for j := 0; j < 5; j++ {
				n, err := r.PlanCountContext(context.Background(), attack.PlanAll())
				if err != nil {
					errs[i] = err
					return
				}
				if n != want {
					errs[i] = fmt.Errorf("Count = %d, want %d", n, want)
					return
				}
				if _, err := r.PlanCountByDayContext(context.Background(), attack.PlanAll()); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// rawSite runs fn for each accepted connection — a hand-rolled peer for
// protocol-corruption tests.
func rawSite(t *testing.T, fn func(net.Conn)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				fn(c)
			}(conn)
		}
	}()
	return l.Addr().String()
}

// discardRequest reads one request frame off the wire.
func discardRequest(c net.Conn) bool {
	_, _, err := readFrame(c, maxReqPayload)
	return err == nil
}

// TestClientRejectsCorruptFrames mirrors the DOSEVT02 fuzz posture on
// the wire: truncated, oversized, mistyped, and mismagicked responses
// must surface as errors immediately — never hangs, panics, or silent
// wrong answers — and must not be retried (a corrupt stream cannot be
// resynchronized).
func TestClientRejectsCorruptFrames(t *testing.T) {
	goodCount := func() []byte {
		var buf bytes.Buffer
		writeFrame(&buf, typeRespCount, binary.LittleEndian.AppendUint64(nil, 42))
		return buf.Bytes()
	}
	cases := []struct {
		name string
		resp func() []byte
	}{
		{"bad-magic", func() []byte { b := goodCount(); b[0] = 'X'; return b }},
		{"reserved", func() []byte { b := goodCount(); b[6] = 1; return b }},
		{"wrong-type", func() []byte {
			var buf bytes.Buffer
			writeFrame(&buf, typeRespSegment, []byte("not a count"))
			return buf.Bytes()
		}},
		{"unknown-type", func() []byte { b := goodCount(); b[4] = 0x7b; return b }},
		{"short-payload", func() []byte {
			var buf bytes.Buffer
			writeFrame(&buf, typeRespCount, []byte{1, 2, 3})
			return buf.Bytes()
		}},
		{"oversized-length", func() []byte {
			b := goodCount()
			binary.LittleEndian.PutUint32(b[8:12], maxRespPayload+1)
			return b[:frameHeader]
		}},
		{"truncated-header", func() []byte { return goodCount()[:5] }},
		{"truncated-payload", func() []byte { return goodCount()[:frameHeader+3] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := rawSite(t, func(c net.Conn) {
				if discardRequest(c) {
					c.Write(tc.resp())
				}
			})
			r := Dial(addr, WithAttempts(1), WithBackoff(time.Millisecond))
			defer r.Close()
			if _, err := r.PlanCountContext(context.Background(), attack.PlanAll()); err == nil {
				t.Fatal("corrupt response accepted without error")
			}
		})
	}
}

// TestClientCapsCountResponses: a site whose count or version response
// claims a 1 GiB payload is refused on the header alone — a frame error,
// not a retry and not an allocation of the claimed size.
func TestClientCapsCountResponses(t *testing.T) {
	cases := []struct {
		name string
		resp byte
		call func(r *RemoteStore) error
	}{
		{"count", typeRespCount, func(r *RemoteStore) error {
			_, err := r.PlanCountContext(context.Background(), attack.PlanAll())
			return err
		}},
		{"by-vector", typeRespCountByVector, func(r *RemoteStore) error {
			_, err := r.PlanCountByVectorContext(context.Background(), attack.PlanAll())
			return err
		}},
		{"by-day", typeRespCountByDay, func(r *RemoteStore) error {
			_, err := r.PlanCountByDayContext(context.Background(), attack.PlanAll())
			return err
		}},
		{"version", typeRespVersion, func(r *RemoteStore) error { _, err := r.Version(); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var requests atomic.Int32
			addr := rawSite(t, func(c net.Conn) {
				for discardRequest(c) {
					requests.Add(1)
					var hdr [frameHeader]byte
					copy(hdr[:4], frameMagic)
					hdr[4] = tc.resp
					binary.LittleEndian.PutUint32(hdr[8:12], 1<<30)
					c.Write(hdr[:])
				}
			})
			r := Dial(addr, WithAttempts(3), WithBackoff(time.Millisecond), WithBreaker(0, 0), WithRequestTimeout(time.Second))
			defer r.Close()
			err := tc.call(r)
			var fe frameError
			if !errors.As(err, &fe) {
				t.Fatalf("1 GiB claim: error %v, want a frame error", err)
			}
			if n := requests.Load(); n != 1 {
				t.Errorf("site saw %d requests, want 1 (frame errors are not retried)", n)
			}
		})
	}
}

// TestClientFetchClaimCostsOnlyWhatArrives: a site whose fetch response
// claims maxRespPayload (1 GiB) but sends 10 bytes and closes costs the
// client the first read chunk, not the claim, and surfaces as a
// truncated frame that is not retried.
func TestClientFetchClaimCostsOnlyWhatArrives(t *testing.T) {
	var requests atomic.Int32
	addr := rawSite(t, func(c net.Conn) {
		if !discardRequest(c) {
			return
		}
		requests.Add(1)
		var hdr [frameHeader]byte
		copy(hdr[:4], frameMagic)
		hdr[4] = typeRespSegment
		binary.LittleEndian.PutUint32(hdr[8:12], maxRespPayload)
		c.Write(hdr[:])
		c.Write(make([]byte, 10))
	})
	r := Dial(addr, WithAttempts(3), WithBackoff(time.Millisecond), WithBreaker(0, 0), WithRequestTimeout(5*time.Second))
	defer r.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := r.PlanStoreContext(context.Background(), attack.PlanAll())
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("1 GiB claim with 10 bytes sent: error %v, want a truncated frame", err)
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("site saw %d requests, want 1 (truncated frames are not retried)", n)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8<<20 {
		t.Errorf("the fetch allocated %d bytes for a 10-byte response, want < 8 MiB", grew)
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader under the
// server's request cap and the client's count/version response cap: it
// must never panic or accept a payload over the cap, and every frame it
// accepts must re-encode through writeFrame to exactly the bytes it
// consumed.
func FuzzReadFrame(f *testing.F) {
	frame := func(typ byte, payload []byte) []byte {
		var buf bytes.Buffer
		writeFrame(&buf, typ, payload)
		return buf.Bytes()
	}
	f.Add(frame(typeReqCount, attack.PlanAll().AppendBinary(nil)))
	f.Add(frame(typeReqVersion, nil))
	f.Add(frame(typeRespCountByVector, make([]byte, 8*attack.NumVectors)))
	f.Add(frame(typeRespError, []byte("remote failure")))
	f.Add([]byte(frameMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, limit := range []uint32{maxReqPayload, respCap(attack.WindowDays)} {
			typ, payload, err := readFrame(bytes.NewReader(data), limit)
			if err != nil {
				continue
			}
			if uint32(len(payload)) > limit {
				t.Fatalf("cap %d: accepted a %d-byte payload", limit, len(payload))
			}
			var buf bytes.Buffer
			if err := writeFrame(&buf, typ, payload); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
				t.Fatalf("cap %d: frame re-encodes to %x, read from %x", limit, buf.Bytes(), data[:buf.Len()])
			}
		}
	})
}

// TestClientRejectsCorruptSegment: a syntactically valid segment frame
// carrying corrupt DOSEVT02 bytes is rejected by the segment reader.
func TestClientRejectsCorruptSegment(t *testing.T) {
	addr := rawSite(t, func(c net.Conn) {
		if discardRequest(c) {
			writeFrame(c, typeRespSegment, []byte("DOSEVT02 but then garbage"))
		}
	})
	r := Dial(addr, WithAttempts(1))
	defer r.Close()
	if _, _, err := r.PlanStoreContext(context.Background(), attack.PlanAll()); err == nil {
		t.Fatal("corrupt segment accepted without error")
	}
}

// TestServerRejectsCorruptRequests: garbage from a client yields an
// error frame (when a response is possible at all) and a closed
// connection, not a wedged or crashed server.
func TestServerRejectsCorruptRequests(t *testing.T) {
	st := attack.NewStore(randomEvents(rand.New(rand.NewSource(59)), 100))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go NewServer(st).Serve(l)

	send := func(raw []byte) (byte, []byte, error) {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(raw); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		return readFrame(conn, maxRespPayload)
	}

	frame := func(typ byte, payload []byte) []byte {
		var buf bytes.Buffer
		writeFrame(&buf, typ, payload)
		return buf.Bytes()
	}
	goodPlan := attack.PlanAll().AppendBinary(nil)
	for name, raw := range map[string][]byte{
		"bad-magic":      append([]byte("XXXX"), frame(typeReqCount, goodPlan)[4:]...),
		"unknown-type":   frame(0x42, goodPlan),
		"short-plan":     frame(typeReqCount, goodPlan[:7]),
		"corrupt-plan":   frame(typeReqCount, append(append([]byte{}, goodPlan[:1]...), append([]byte{0xee}, goodPlan[2:]...)...)),
		"oversized-plan": frame(typeReqCount, make([]byte, maxReqPayload+1)),
	} {
		t.Run(name, func(t *testing.T) {
			typ, _, err := send(raw)
			if err == nil && typ != typeRespError {
				t.Fatalf("server answered type %#x to a corrupt request, want error frame or close", typ)
			}
		})
	}

	// And the server is still healthy afterwards.
	r := Dial(l.Addr().String())
	defer r.Close()
	n, err := r.PlanCountContext(context.Background(), attack.PlanAll())
	if err != nil || n != st.Len() {
		t.Fatalf("server unhealthy after corrupt requests: n=%d err=%v", n, err)
	}
}

// TestRetryAfterPeerClose: a site that drops the first connection before
// responding is retried with backoff and the second attempt succeeds —
// the RemoteStore transport contract.
func TestRetryAfterPeerClose(t *testing.T) {
	st := attack.NewStore(randomEvents(rand.New(rand.NewSource(61)), 50))
	var mu sync.Mutex
	drops := 1
	srv := NewServer(st)
	addr := rawSite(t, func(c net.Conn) {
		mu.Lock()
		drop := drops > 0
		if drop {
			drops--
		}
		mu.Unlock()
		if drop {
			return // close before any response byte: retryable
		}
		srv.handle(nopCloseConn{c})
	})
	r := Dial(addr, WithAttempts(3), WithBackoff(time.Millisecond))
	defer r.Close()
	n, err := r.PlanCountContext(context.Background(), attack.PlanAll())
	if err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	if n != st.Len() {
		t.Fatalf("Count = %d, want %d", n, st.Len())
	}
}

// nopCloseConn lets rawSite's deferred Close coexist with handle's.
type nopCloseConn struct{ net.Conn }

func (nopCloseConn) Close() error { return nil }

// TestDialRetryBackoff: nothing listening at all exhausts the attempts
// and reports the dial failure rather than hanging.
func TestDialRetryBackoff(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close() // nothing listens here now
	r := Dial(addr, WithAttempts(2), WithBackoff(time.Millisecond), WithDialTimeout(time.Second))
	if _, err := r.PlanCountContext(context.Background(), attack.PlanAll()); err == nil {
		t.Fatal("count against a dead site succeeded")
	}
}

// TestUnixSocketSite: the unix-socket transport works end to end and is
// selected automatically from the path-shaped address.
func TestUnixSocketSite(t *testing.T) {
	st := attack.NewStore(randomEvents(rand.New(rand.NewSource(67)), 200))
	sock := t.TempDir() + "/site.sock"
	l, err := Listen(sock)
	if err != nil {
		t.Skipf("unix sockets unavailable: %v", err)
	}
	defer l.Close()
	go NewServer(st).Serve(l)
	r := Dial(sock)
	defer r.Close()
	n, err := r.PlanCountContext(context.Background(), attack.PlanAll())
	if err != nil {
		t.Fatal(err)
	}
	if n != st.Len() {
		t.Fatalf("Count over unix socket = %d, want %d", n, st.Len())
	}
}

// TestRemoteCountsUnderLiveIngest is the federated leg of the
// writer-vs-readers stress test: a writer AddBatches into a served
// store while concurrent RemoteStore clients count it over the wire.
// Batches publish atomically, so every remote count must be a
// whole-batch prefix, per-client monotonic, and per-vector results must
// match the from-scratch oracle of their prefix. Run under -race this
// also proves the server handlers need no lock over the store.
func TestRemoteCountsUnderLiveIngest(t *testing.T) {
	const (
		batches   = 16
		batchSize = 50
		clients   = 4
	)
	rng := rand.New(rand.NewSource(73))
	events := randomEvents(rng, batches*batchSize)

	kByCount := make(map[int]int, batches+1)
	vecByK := make([][attack.NumVectors]int, batches+1)
	for k := 0; k <= batches; k++ {
		fresh := attack.NewStore(events[:k*batchSize])
		kByCount[fresh.Len()] = k
		vecByK[k] = fresh.Query().CountByVector()
	}

	st := &attack.Store{}
	r := startSite(t, st)
	_ = r // each client goroutine dials its own connection below

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

	addr := r.Addr()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := Dial(addr)
			defer cl.Close()
			lastK := 0
			for done := false; !done; {
				done = writerDone.Load()
				n, err := cl.PlanCountContext(context.Background(), attack.PlanAll())
				if err != nil {
					t.Error(err)
					return
				}
				k, ok := kByCount[n]
				if !ok {
					t.Errorf("client %d: remote Count %d is not a whole-batch prefix", c, n)
					return
				}
				if k < lastK {
					t.Errorf("client %d: remote Count went back in time (prefix %d after %d)", c, k, lastK)
					return
				}
				lastK = k
				vec, err := cl.PlanCountByVectorContext(context.Background(), attack.PlanAll())
				if err != nil {
					t.Error(err)
					return
				}
				total := 0
				for _, v := range vec {
					total += v
				}
				vk, ok := kByCount[total]
				if !ok || vk < lastK {
					t.Errorf("client %d: remote CountByVector total %d invalid at prefix %d", c, total, lastK)
					return
				}
				lastK = vk
				if vec != vecByK[vk] {
					t.Errorf("client %d: remote CountByVector diverged from prefix %d oracle", c, vk)
					return
				}
			}
			if lastK != batches {
				t.Errorf("client %d finished at prefix %d, want %d", c, lastK, batches)
			}
		}(c)
	}
	wg.Wait()
}

// TestServerShutdown covers the cmd/amppot shutdown ordering: after the
// listener closes, Shutdown must unblock a handler parked mid-request
// (by closing its connection), wait for in-flight handlers to return,
// and leave nothing serving — so a final capture flush/write can never
// be observed by a remote fetch.
func TestServerShutdown(t *testing.T) {
	st := attack.NewStore(randomEvents(rand.New(rand.NewSource(79)), 200))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	// A healthy round trip first, keeping its connection open.
	r := Dial(l.Addr().String())
	defer r.Close()
	if n, err := r.PlanCountContext(context.Background(), attack.PlanAll()); err != nil || n != st.Len() {
		t.Fatalf("pre-shutdown count: n=%d err=%v", n, err)
	}

	// Park a second connection mid-frame: the handler blocks reading the
	// rest of the request and only Shutdown's conn close can free it.
	stuck, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stuck.Close()
	if _, err := stuck.Write([]byte("DFED")); err != nil { // header fragment
		t.Fatal(err)
	}
	// Let the server accept and park the handler before shutting down.
	time.Sleep(50 * time.Millisecond)

	l.Close()
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after listener close", err)
	}
	done := make(chan struct{})
	go func() { srv.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hung on a handler parked mid-frame")
	}

	// Nothing serves anymore: a fresh client cannot reach the store.
	dead := Dial(l.Addr().String(), WithAttempts(1), WithBackoff(time.Millisecond))
	defer dead.Close()
	if _, err := dead.PlanCountContext(context.Background(), attack.PlanAll()); err == nil {
		t.Fatal("count succeeded after Shutdown")
	}
}

// strict reads a federated terminal the all-or-nothing way: any backend
// that did not answer fails it.
func strict[T any](v T, statuses []attack.BackendStatus, _ error) (T, error) {
	return v, attack.StatusErr(statuses)
}
