package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"path/filepath"
	"sync"
	"time"

	"doscope/internal/attack"
	"doscope/internal/federation"
	"doscope/internal/httpapi"
)

// fed-query sizing: a plan population eight times the response cache,
// drawn Zipf-distributed, so part of the requests hit the cache.
const (
	fedCache    = 1024 // dosqueryd's default -cache
	fedPlans    = 8 * fedCache
	fedZipfS    = 1.1
	fedSeqLen   = 1 << 18
	fedWarmup   = 2000
	fedClients  = 2
	fedSameReqs = 300
)

// site is one DOSFED01 server over a segment-backed store.
type site struct {
	st     *attack.Store
	srv    *federation.Server
	l      net.Listener
	served chan error
}

func startSite(st *attack.Store) (*site, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &site{st: st, srv: federation.NewServer(st), l: l, served: make(chan error, 1)}
	go func() { s.served <- s.srv.Serve(l) }()
	return s, nil
}

func (s *site) close() {
	s.l.Close()
	s.srv.Shutdown()
	<-s.served
}

// fed is the dosqueryd -federate deployment: an httpapi front end over
// two remote sites, one per sensor.
type fed struct {
	cfg     config
	sites   []*site
	remotes []*federation.RemoteStore
	segs    io.Closer
	h       *httpStack
	plans   []request
	seq     []int32
}

// dial connects to the sites with dosqueryd's default client options.
func dial(sites []*site) []*federation.RemoteStore {
	var out []*federation.RemoteStore
	for _, s := range sites {
		out = append(out, federation.Dial(s.l.Addr().String(),
			federation.WithBreaker(5, time.Second), federation.WithHealthProbe(time.Second)))
	}
	return out
}

func setupFed(cfg config, t *tracer, l layers) (instance, error) {
	sc, err := generate(cfg, l)
	if err != nil {
		return nil, err
	}
	paths := []string{filepath.Join(cfg.dir, "telescope.seg"), filepath.Join(cfg.dir, "honeypot.seg")}
	if err := writeSegments(l, paths, sc.Telescope, sc.Honeypot); err != nil {
		return nil, err
	}
	t0 := time.Now()
	stores, segs, err := openSegments(paths...)
	if err != nil {
		return nil, err
	}
	l["attack.segment.open_ms"] = ms(time.Since(t0))
	firstQueries(l, stores...)
	w := &fed{cfg: cfg, segs: segs}
	for _, st := range stores {
		s, err := startSite(st)
		if err != nil {
			w.close()
			return nil, err
		}
		w.sites = append(w.sites, s)
	}
	w.remotes = dial(w.sites)
	srv := httpapi.NewServer(remoteBackends(t, w.remotes...), httpapi.WithCache(fedCache))
	if w.h, err = serveHTTP(t, srv); err != nil {
		w.close()
		return nil, err
	}
	w.plans = population(cfg.seed+2, fedPlans)
	w.seq = zipfSequence(cfg.seed+3, fedPlans, fedSeqLen, fedZipfS)
	for _, i := range w.seq[fedSeqLen-fedWarmup:] { // warm-up from the sequence's tail
		if _, err := w.h.query(w.plans[i]); err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return w, nil
}

func (w *fed) close() {
	if w.h != nil {
		w.h.close()
	}
	for _, r := range w.remotes {
		r.Close()
	}
	for _, s := range w.sites {
		s.close()
	}
	w.segs.Close()
}

func (w *fed) siteStores() []*attack.Store {
	var out []*attack.Store
	for _, s := range w.sites {
		out = append(out, s.st)
	}
	return out
}

func wireBytes(remotes []*federation.RemoteStore) (sent, recv uint64) {
	for _, r := range remotes {
		s, v := r.WireBytes()
		sent, recv = sent+s, recv+v
	}
	return sent, recv
}

func (w *fed) run(l layers) (outcome, error) {
	before, err := w.h.stats()
	if err != nil {
		return outcome{}, err
	}
	ex0 := execStats(w.siteStores()...)
	sent0, recv0 := wireBytes(w.remotes)
	rt := readRuntime()

	// Every response to one request must be the same bytes: the sites
	// never change. Keep one hash per distinct request for the oracle.
	var mu sync.Mutex
	hashes := make(map[int32]uint64)
	var unstable int
	samples := closedLoop(time.Now().Add(w.cfg.seconds), fedClients, func(i int) error {
		pi := w.seq[i%fedSeqLen]
		body, err := w.h.query(w.plans[pi])
		if err != nil {
			return err
		}
		h := fnv.New64a()
		h.Write(body)
		sum := h.Sum64()
		mu.Lock()
		if prev, ok := hashes[pi]; ok && prev != sum {
			unstable++
		}
		hashes[pi] = sum
		mu.Unlock()
		return nil
	})
	recordRuntime(l, rt)
	rss := peakRSSMB()
	n := len(samples)
	after, err := w.h.stats()
	if err != nil {
		return outcome{}, err
	}
	recordHTTP(l, before, after, n)
	recordExec(l, subExec(execStats(w.siteStores()...), ex0), n)
	sent1, recv1 := wireBytes(w.remotes)
	l["federation.bytes_sent_per_query"] = ratio(float64(sent1-sent0), float64(n))
	l["federation.bytes_recv_per_query"] = ratio(float64(recv1-recv0), float64(n))

	mismatches, err := w.oracle(hashes)
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		peakRSSMB: rss,
		latMS:     latenciesMS(samples),
		opsPerS:   float64(n-failures(samples)) / elapsed(samples).Seconds(),
		attempted: n + len(hashes),
		failed:    failures(samples) + unstable + mismatches,
		manifest: map[string]any{
			"clients": fedClients, "plan_population": fedPlans, "zipf_s": fedZipfS,
			"cache_entries": fedCache, "queries": n, "distinct_plans": len(hashes),
			"unstable_answers": unstable, "oracle_mismatches": mismatches,
			"endpoint_p50_ms": endpointP50(samples, func(i int) string { return w.plans[w.seq[i%fedSeqLen]].path }),
		},
	}, nil
}

// oracle compares every distinct request's answer with the answer of a
// single in-process store holding the union of both sites.
func (w *fed) oracle(hashes map[int32]uint64) (int, error) {
	var all []attack.Event
	for _, st := range w.siteStores() {
		all = append(all, st.Events()...)
	}
	union := httpapi.NewServer([]attack.Queryable{attack.NewStore(all)})
	mismatches := 0
	for pi, got := range hashes {
		want, err := answer(union, w.plans[pi])
		if err != nil {
			return 0, err
		}
		h := fnv.New64a()
		h.Write(want)
		if h.Sum64() != got {
			mismatches++
		}
	}
	return mismatches, nil
}

// sameBehavior replays a fixed request sequence through a plain and a
// traced front end over the same sites, after one pass that builds any
// lazy index the sequence needs, so both passes find the sites alike.
func (w *fed) sameBehavior() error {
	reqs := make([]request, 0, fedSameReqs)
	for _, i := range w.seq[:fedSameReqs] {
		reqs = append(reqs, w.plans[i])
	}
	pass := func(t *tracer) (behavior, error) {
		remotes := dial(w.sites)
		defer func() {
			for _, r := range remotes {
				r.Close()
			}
		}()
		h := handler(t, httpapi.NewServer(remoteBackends(t, remotes...), httpapi.WithCache(fedCache)))
		return replay(h, reqs, nil, w.siteStores()...)
	}
	if _, err := pass(nil); err != nil {
		return err
	}
	return compareBehavior(pass)
}
