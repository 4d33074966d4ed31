package main

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"time"

	"doscope/internal/amppot"
	"doscope/internal/attack"
	"doscope/internal/netx"
)

// honeypot-capture sizing: requests are derived from a stride sample of
// the scenario's honeypot events, at least 101 per event (one more than
// AmpPot's event threshold) and at most hpMaxPerEvent. The timed
// operation is a run of hpRun consecutive requests: a single request's
// cost depends on its protocol and on whether it is answered, so its
// median jumps with the seed's protocol mix, while a run's cost does not.
// A run is timed by the CPU time the process spends on it, like a
// paper-batch repetition, and is long enough (about 50 ms) that the
// kernel's accounting of the other threads' CPU time, which lags by up
// to a scheduler tick, stays a small share of it.
const (
	hpEvents      = 800
	hpMaxPerEvent = 300
	hpRun         = 8192
	hpIdleEvery   = 3600 // virtual seconds between CloseIdle calls
)

// reflRequest is one request as a honeypot receives it.
type reflRequest struct {
	ts      int64
	victim  netx.Addr
	vector  attack.Vector
	payload []byte
}

// honeypot is the cmd/amppot sensor path: the fleet answers every
// request and streams extracted events into a queued store.
type honeypot struct {
	cfg    config
	t      *tracer
	stream []reflRequest
	want   []attack.Event // a buffered-mode fleet's events for the stream
}

func setupHoneypot(cfg config, t *tracer, l layers) (instance, error) {
	sc, err := generate(cfg, l)
	if err != nil {
		return nil, err
	}
	w := &honeypot{cfg: cfg, t: t, stream: requestStream(sc.Honeypot.Events())}
	fleet := amppot.NewFleet(amppot.DefaultConfig())
	w.replay(fleet, nil, nil, nil)
	w.want = sortEvents(fleet.Flush())
	return w, nil
}

func (w *honeypot) close() {}

// requestStream turns a stride sample of honeypot events into
// protocol-valid requests spread evenly over each event, in time order.
func requestStream(events []attack.Event) []reflRequest {
	stride := max(1, len(events)/hpEvents)
	var out []reflRequest
	for i := 0; i < len(events); i += stride {
		e := events[i]
		n := int64(min(max(e.Packets, 101), hpMaxPerEvent))
		payload := reflectionPayload(e.Vector)
		for k := int64(0); k < n; k++ {
			out = append(out, reflRequest{
				ts: e.Start + k*(e.End-e.Start)/(n-1), victim: e.Target, vector: e.Vector, payload: payload,
			})
		}
	}
	slices.SortStableFunc(out, func(a, b reflRequest) int { return cmp.Compare(a.ts, b.ts) })
	return out
}

// reflectionPayload is a well-formed request of the abused protocol.
func reflectionPayload(v attack.Vector) []byte {
	switch v {
	case attack.VectorNTP:
		return []byte{0x17, 0, 0, 42, 0, 0, 0, 0} // mode 7 monlist
	case attack.VectorDNS:
		q := make([]byte, 12, 32)
		binary.BigEndian.PutUint16(q[0:2], 0x1234)
		binary.BigEndian.PutUint16(q[4:6], 1)
		q = append(q, 3, 'a', 'm', 'p', 3, 'c', 'o', 'm', 0)
		return append(q, 0, 0xff, 0, 1) // ANY IN
	case attack.VectorSSDP:
		return []byte("M-SEARCH * HTTP/1.1\r\nHOST:239.255.255.250:1900\r\nMAN:\"ssdp:discover\"\r\nST:ssdp:all\r\n\r\n")
	case attack.VectorMSSQL:
		return []byte{0x02}
	case attack.VectorRIPv1:
		req := make([]byte, 24)
		req[0], req[1] = 1, 1
		binary.BigEndian.PutUint32(req[20:24], 16) // metric 16: whole table
		return req
	case attack.VectorTFTP:
		return append([]byte{0, 1}, "doscope.bin\x00octet\x00"...)
	}
	return []byte{0x0a} // CharGen, QOTD: any datagram
}

// runTime is the CPU and the wall-clock time of one run of requests.
type runTime struct{ cpu, wall time.Duration }

// replay sends the stream through the fleet round-robin, closing idle
// flows at every hpIdleEvery-second boundary of virtual time. It times
// each run of hpRun requests into runs and, when reqs is non-nil, each
// request into reqs. It returns the time spent in CloseIdle.
func (w *honeypot) replay(fleet *amppot.Fleet, runs []runTime, reqs []time.Duration, t *tracer) time.Duration {
	var idle time.Duration
	next := w.stream[0].ts + hpIdleEvery
	runStart, runCPU := time.Now(), processCPU()
	for i, r := range w.stream {
		if r.ts >= next {
			_, sp := t.begin(context.Background(), "amppot.close_idle")
			t0 := time.Now()
			fleet.CloseIdle(r.ts)
			idle += time.Since(t0)
			sp.end()
			next = r.ts + hpIdleEvery
		}
		if reqs != nil {
			t0 := time.Now()
			fleet.HandleRequest(i, r.ts, r.victim, r.vector, r.payload)
			reqs[i] = time.Since(t0)
		} else {
			fleet.HandleRequest(i, r.ts, r.victim, r.vector, r.payload)
		}
		if runs != nil && (i+1)%hpRun == 0 {
			now, cpu := time.Now(), processCPU()
			runs[i/hpRun] = runTime{cpu: cpu - runCPU, wall: now.Sub(runStart)}
			runStart, runCPU = now, cpu
		}
	}
	return idle
}

func sortEvents(evs []attack.Event) []attack.Event {
	evs = slices.Clone(evs)
	slices.SortFunc(evs, func(a, b attack.Event) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Target, b.Target),
			cmp.Compare(a.Vector, b.Vector), cmp.Compare(a.End, b.End))
	})
	return evs
}

// sameEvent compares the fields a honeypot event carries.
func sameEvent(a, b attack.Event) bool {
	return a.Source == b.Source && a.Vector == b.Vector && a.Target == b.Target &&
		a.Start == b.Start && a.End == b.End && a.Packets == b.Packets &&
		a.Bytes == b.Bytes && a.AvgRPS == b.AvgRPS
}

// passResult is one replay of the whole stream.
type passResult struct {
	busy, idle, close time.Duration
	allocs            float64 // heap bytes allocated while replaying
	ingest            attack.IngestStats
	mismatches        int // events differing from the buffered reference
}

// pass replays the whole stream into a fresh fleet streaming into a
// fresh queued store; see replay for runs and reqs.
func (w *honeypot) pass(runs []runTime, reqs []time.Duration) passResult {
	var r passResult
	fleet := amppot.NewFleet(amppot.DefaultConfig())
	st := &attack.Store{}
	st.StartIngest(attack.IngestConfig{Tick: 0})
	fleet.StreamTo(st)
	rt := readRuntime()
	t0 := time.Now()
	r.idle = w.replay(fleet, runs, reqs, w.t)
	fleet.FlushTo(st)
	t1 := time.Now()
	st.Close()
	r.close = time.Since(t1)
	r.busy = time.Since(t0)
	r.allocs = readRuntime().allocBytes - rt.allocBytes
	r.ingest = st.IngestStats()

	got := sortEvents(st.Events())
	if len(got) != len(w.want) {
		r.mismatches = max(len(got), len(w.want))
		return r
	}
	for i := range got {
		if !sameEvent(got[i], w.want[i]) {
			r.mismatches++
		}
	}
	return r
}

func (w *honeypot) run(l layers) (outcome, error) {
	var lat, wall, reqLat, closes []float64
	var busy, idle time.Duration
	var allocs float64
	var drains, coalesced uint64
	passes, mismatches := 0, 0
	runs := make([]runTime, len(w.stream)/hpRun)
	var reqs []time.Duration
	if w.t != nil {
		reqs = make([]time.Duration, len(w.stream))
	}
	rt := readRuntime()
	deadline := time.Now().Add(w.cfg.seconds)
	for passes == 0 || time.Now().Before(deadline) {
		r := w.pass(runs, reqs)
		busy, idle, allocs = busy+r.busy, idle+r.idle, allocs+r.allocs
		drains, coalesced = drains+r.ingest.Drains, coalesced+r.ingest.Coalesced
		closes = append(closes, ms(r.close))
		mismatches += r.mismatches
		passes++
		for _, d := range runs {
			lat = append(lat, ms(d.cpu))
			wall = append(wall, ms(d.wall))
		}
		for _, d := range reqs {
			reqLat = append(reqLat, float64(d))
		}
	}
	recordRuntime(l, rt)
	rss := peakRSSMB()
	requests := passes * len(w.stream)
	if w.t != nil {
		l["amppot.request_p50_ns"] = newDist(reqLat).pct(50)
	}
	l["amppot.alloc_bytes_per_request"] = allocs / float64(requests)
	l["attack.ingest.batches_per_drain"] = ratio(float64(coalesced), float64(drains))
	l["attack.ingest.close_ms"] = median(closes)
	if w.t != nil {
		l["amppot.close_idle_ms"] = ms(time.Duration(newDist(durations(w.t.finished(), "amppot.close_idle")).pct(50)))
	}
	if mismatches > 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: honeypot-capture: %d streamed events differ from the buffered reference\n", mismatches)
	}
	return outcome{
		peakRSSMB: rss,
		latMS:     lat,
		opsPerS:   float64(requests) / busy.Seconds(),
		attempted: requests,
		failed:    mismatches,
		manifest: map[string]any{
			"stream_requests": len(w.stream), "passes": passes, "reference_events": len(w.want),
			"close_idle_total_ms": ms(idle), "event_mismatches": mismatches, "run_requests": hpRun,
			"wall_p50_ms": newDist(wall).pct(50), "wall_p90_ms": newDist(wall).pct(90),
		},
	}, nil
}

// sameBehavior: this path has no cache and runs no query; the traced
// passes are checked against the buffered reference like the untraced
// ones, which is the behavior tracing must not change.
func (w *honeypot) sameBehavior() error { return nil }
