package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"doscope/internal/attack"
	"doscope/internal/httpapi"
)

// live-serve sizing. The replayed later half of the scenario (~100k
// events) outlasts a 15-second window at this rate, so ingest runs for
// the whole window.
const (
	liveEventsPerS  = 3200
	liveBatch       = 64
	liveQueriesPerS = 200
	livePlans       = 256 // each plan repeats about ten times: monotonicity is checked
	lagTimeout      = 5 * time.Second
)

// live is the cmd/amppot -serve-http deployment: one store preloaded
// with the earlier half of the scenario, ingesting the later half in
// queued mode while HTTP queries arrive.
type live struct {
	cfg    config
	all    []attack.Event // scenario events in start order
	half   int
	st     *attack.Store
	h      *httpStack
	plans  []request
	seq    []int32
	closed bool
}

func setupLive(cfg config, t *tracer, l layers) (instance, error) {
	sc, err := generate(cfg, l)
	if err != nil {
		return nil, err
	}
	w := &live{cfg: cfg, all: byStart(sc.Telescope, sc.Honeypot)}
	w.half = len(w.all) / 2
	w.st = attack.NewStore(w.all[:w.half])
	firstQueries(l, w.st)
	w.st.StartIngest(attack.IngestConfig{Tick: 0})
	w.plans = population(cfg.seed+2, livePlans)
	rng := rand.New(rand.NewSource(cfg.seed + 3))
	w.seq = make([]int32, liveQueriesPerS*int(cfg.seconds/time.Second))
	for i := range w.seq {
		w.seq[i] = int32(rng.Intn(livePlans))
	}
	srv := httpapi.NewServer(localBackends(t, w.st))
	if w.h, err = serveHTTP(t, srv); err != nil {
		w.close()
		return nil, err
	}
	for _, r := range w.plans { // warm-up: every plan once
		if _, err := w.h.query(r); err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return w, nil
}

func (w *live) close() {
	if w.h != nil {
		w.h.close()
	}
	if !w.closed {
		w.st.Close()
		w.closed = true
	}
}

// ingestResult is what the producer goroutine observed.
type ingestResult struct {
	batches   []sample  // AddBatch calls
	lag       []float64 // batch sent (or due, if sent late behind a blocked AddBatch) to visible, ms
	queuedMax int       // deepest queue seen after an AddBatch
	sent      int       // events handed to AddBatch
	invisible int       // batches not visible within lagTimeout
}

// visibleSpin is how long after a send the producer polls Store.Len by
// yielding rather than sleeping: publication usually follows within it,
// and a sleep would round the observed lag up to a timer tick.
const visibleSpin = 5 * time.Millisecond

// produce replays the later half in liveBatch-event batches, one due
// every batch interval from origin, and watches Store.Len between sends
// to see when each batch became visible.
func (w *live) produce(origin time.Time, n int) ingestResult {
	interval := time.Second * liveBatch / liveEventsPerS
	type pending struct {
		from time.Time
		want int // Len once the batch is visible
	}
	var res ingestResult
	var queue []pending
	var lastSend time.Time
	base := w.st.Len()
	// poll watches for visibility until the given time, or, once the
	// last batch is sent, until nothing is outstanding.
	poll := func(until time.Time, last bool) {
		for {
			now := time.Now()
			for len(queue) > 0 && w.st.Len() >= queue[0].want {
				res.lag = append(res.lag, ms(now.Sub(queue[0].from)))
				queue = queue[1:]
			}
			if !now.Before(until) || last && len(queue) == 0 {
				return
			}
			if len(queue) > 0 && now.Sub(lastSend) < visibleSpin {
				runtime.Gosched()
			} else {
				time.Sleep(min(until.Sub(now), time.Millisecond))
			}
		}
	}
	rest := w.all[w.half:]
	for i := 0; i < n; i++ {
		due := origin.Add(time.Duration(i) * interval)
		free := time.Now()
		poll(due, false)
		batch := rest[i*liveBatch : (i+1)*liveBatch : (i+1)*liveBatch]
		start := time.Now()
		w.st.AddBatch(slices.Clone(batch))
		s := sample{due: due, start: start, end: time.Now(), from: latencyFrom(due, free, start)}
		res.batches = append(res.batches, s)
		lastSend = s.end
		res.sent += liveBatch
		res.queuedMax = max(res.queuedMax, w.st.IngestStats().Queued)
		queue = append(queue, pending{from: s.from, want: base + res.sent})
	}
	poll(time.Now().Add(lagTimeout), true)
	res.invisible = len(queue)
	return res
}

// monotone checks that a plan's answer never shrinks: a response must
// be at least every response to the same request received before it
// was sent, since published views only grow.
type monotone struct {
	mu   sync.Mutex
	seen map[string][]observed
}

type observed struct {
	recv  time.Time
	total int
	max   int // running maximum of total up to this entry
}

func (m *monotone) check(key string, sent time.Time, total int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	obs := m.seen[key]
	// obs is in receive order; find the last response received before sent.
	i := sort.Search(len(obs), func(i int) bool { return !obs[i].recv.Before(sent) })
	ok := i == 0 || obs[i-1].max <= total
	hi := total
	if len(obs) > 0 {
		hi = max(hi, obs[len(obs)-1].max)
	}
	m.seen[key] = append(obs, observed{recv: time.Now(), total: total, max: hi})
	return ok
}

// total reduces a response to the number that may only grow as events
// arrive: the count, the sum of a series, or the number of groups.
func total(path string, body []byte) (int, error) {
	var r struct {
		Count    int `json:"count"`
		Counts   []struct{ Count int }
		Days     json.RawMessage `json:"days"`
		Groups   int             `json:"total_groups"`
		Combined []int           `json:"combined"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, err
	}
	sum := func(v []int) int {
		n := 0
		for _, x := range v {
			n += x
		}
		return n
	}
	switch path {
	case "/v1/count":
		return r.Count, nil
	case "/v1/count/vector":
		n := 0
		for _, c := range r.Counts {
			n += c.Count
		}
		return n, nil
	case "/v1/count/day":
		var days []int
		err := json.Unmarshal(r.Days, &days)
		return sum(days), err
	case "/v1/count/target-prefix":
		return r.Groups, nil
	case "/v1/figures/1":
		return sum(r.Combined), nil
	}
	return 0, fmt.Errorf("no total for %s", path)
}

func (w *live) run(l layers) (outcome, error) {
	nq := len(w.seq)
	nb := min((len(w.all)-w.half)/liveBatch, liveEventsPerS*int(w.cfg.seconds/time.Second)/liveBatch)
	before, err := w.h.stats()
	if err != nil {
		return outcome{}, err
	}
	ex0, in0 := execStats(w.st), w.st.IngestStats()
	rt := readRuntime()
	origin := time.Now().Add(20 * time.Millisecond)

	var ing ingestResult
	done := make(chan struct{})
	go func() {
		defer close(done)
		ing = w.produce(origin, nb)
	}()
	mono := &monotone{seen: make(map[string][]observed)}
	var violations int
	var vmu sync.Mutex
	queries := openLoop(origin, time.Second/liveQueriesPerS, nq, 2, func(i int) error {
		r := w.plans[w.seq[i]]
		sent := time.Now()
		body, err := w.h.query(r)
		if err != nil {
			return err
		}
		n, err := total(r.path, body)
		if err != nil {
			return err
		}
		if !mono.check(r.url(), sent, n) {
			vmu.Lock()
			violations++
			vmu.Unlock()
		}
		return nil
	})
	<-done
	recordRuntime(l, rt)
	rss := peakRSSMB()

	after, err := w.h.stats()
	if err != nil {
		return outcome{}, err
	}
	recordHTTP(l, before, after, nq)
	recordExec(l, subExec(execStats(w.st), ex0), nq)
	in1 := w.st.IngestStats()
	l["attack.ingest.batches_per_drain"] = ratio(float64(in1.Coalesced-in0.Coalesced), float64(in1.Drains-in0.Drains))
	l["attack.ingest.queued_max"] = float64(ing.queuedMax)
	lag := newDist(ing.lag)
	l["attack.ingest.visible_lag_p50_ms"] = lag.pct(50)
	l["attack.ingest.visible_lag_p99_ms"] = lag.pct(99)
	add := newDist(latenciesMS(ing.batches))
	l["attack.ingest.addbatch_p50_us"] = 1000 * add.pct(50)
	l["attack.ingest.addbatch_p99_us"] = 1000 * add.pct(99)
	var late []float64
	for _, s := range append(slices.Clone(queries), ing.batches...) {
		late = append(late, ms(s.late()))
	}
	l["gen.late_p99_ms"] = newDist(late).pct(99)

	t0 := time.Now()
	w.st.Close()
	w.closed = true
	l["attack.ingest.close_ms"] = ms(time.Since(t0))

	mismatches, err := w.final(ing.sent)
	if err != nil {
		return outcome{}, err
	}
	failed := failures(queries) + violations + ing.invisible + mismatches
	return outcome{
		peakRSSMB: rss,
		latMS:     latenciesMS(queries),
		opsPerS:   float64(nq-failures(queries)) / elapsed(queries).Seconds(),
		attempted: nq + nb + len(w.plans),
		failed:    failed,
		manifest: map[string]any{
			"events_per_s": liveEventsPerS, "batch_events": liveBatch,
			"queries_per_s": liveQueriesPerS, "plan_population": livePlans,
			"cache_entries": 1024, "preloaded_events": w.half,
			"queries": nq, "batches": nb, "lag_samples": len(ing.lag),
			"monotonicity_violations": violations, "final_mismatches": mismatches,
			"invisible_batches": ing.invisible,
			"endpoint_p50_ms":   endpointP50(queries, func(i int) string { return w.plans[w.seq[i]].path }),
		},
	}, nil
}

// final replays whatever the window left unsent, then compares every
// plan's answer with a store built from all events at once.
func (w *live) final(sent int) (int, error) {
	w.st.AddBatch(slices.Clone(w.all[w.half+sent:]))
	oracle := httpapi.NewServer([]attack.Queryable{attack.NewStore(w.all)})
	mismatches := 0
	for _, r := range w.plans {
		got, err := w.h.query(r)
		if err != nil {
			return 0, err
		}
		want, err := answer(oracle, r)
		if err != nil {
			return 0, err
		}
		if string(got) != string(want) {
			mismatches++
		}
	}
	return mismatches, nil
}

// sameBehavior replays the first queries, each followed by one
// synchronous batch, through a plain and a traced stack over fresh
// stores, and compares answers, cache counters and executor tasks.
func (w *live) sameBehavior() error {
	pass := func(t *tracer) (behavior, error) {
		st := attack.NewStore(w.all[:w.half])
		h := handler(t, httpapi.NewServer(localBackends(t, st)))
		reqs := make([]request, 0, 200)
		for _, i := range w.seq[:min(200, len(w.seq))] {
			reqs = append(reqs, w.plans[i])
		}
		next := w.half
		return replay(h, reqs, func() {
			st.AddBatch(slices.Clone(w.all[next : next+liveBatch]))
			next += liveBatch
		}, st)
	}
	return compareBehavior(pass)
}

// behavior is what tracing must leave unchanged.
type behavior struct {
	bodies       []string
	hits, misses uint64
	exec         attack.ExecStats
}

// replay runs reqs through h in order, calling between after each, and
// returns the answers with the cache and executor counters they moved.
func replay(h http.Handler, reqs []request, between func(), stores ...*attack.Store) (behavior, error) {
	var b behavior
	ex0 := execStats(stores...)
	for _, r := range reqs {
		body, err := answer(h, r)
		if err != nil {
			return b, err
		}
		b.bodies = append(b.bodies, string(body))
		if between != nil {
			between()
		}
	}
	b.exec = subExec(execStats(stores...), ex0)
	body, err := answer(h, request{path: "/v1/stats"})
	if err != nil {
		return b, err
	}
	var s apiStats
	if err := json.Unmarshal(body, &s); err != nil {
		return b, err
	}
	b.hits, b.misses = s.CacheHits, s.CacheMisses
	return b, nil
}

// compareBehavior runs pass untraced and traced and reports the first
// difference.
func compareBehavior(pass func(t *tracer) (behavior, error)) error {
	plain, err := pass(nil)
	if err != nil {
		return err
	}
	traced, err := pass(newTracer())
	if err != nil {
		return err
	}
	switch {
	case plain.hits != traced.hits || plain.misses != traced.misses:
		return fmt.Errorf("cache hits/misses %d/%d untraced, %d/%d traced", plain.hits, plain.misses, traced.hits, traced.misses)
	case plain.exec != traced.exec:
		return fmt.Errorf("executor tasks %+v untraced, %+v traced", plain.exec, traced.exec)
	case !slices.Equal(plain.bodies, traced.bodies):
		return fmt.Errorf("answers differ between the untraced and traced stacks")
	}
	return nil
}
