package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"time"

	"doscope/internal/attack"
	"doscope/internal/dossim"
	"doscope/internal/httpapi"
	"doscope/internal/ipmeta"
	"doscope/internal/webmodel"
)

// generate builds the seeded scenario at cfg.scale, the share of the
// paper's event volume, with the address plan and Web model kept small
// so generation stays well under a second.
func generate(cfg config, l layers) (*dossim.Scenario, error) {
	seed := cfg.seed
	t0 := time.Now()
	plan, err := ipmeta.BuildPlan(ipmeta.PlanConfig{Seed: seed, NumActive24: 65000})
	if err != nil {
		return nil, fmt.Errorf("address plan: %w", err)
	}
	web, err := webmodel.Build(webmodel.Config{
		Seed: seed + 1, NumDomains: 20000, Plan: plan, WindowDays: attack.WindowDays,
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("web model: %w", err)
	}
	sc, err := dossim.Generate(dossim.Config{Seed: seed, Scale: cfg.scale, Plan: plan, Web: web})
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	l["dossim.generate_s"] = time.Since(t0).Seconds()
	return sc, nil
}

// byStart returns both stores' events in start order, telescope first
// among equal starts.
func byStart(stores ...*attack.Store) []attack.Event {
	var all []attack.Event
	for _, st := range stores {
		all = append(all, st.Events()...)
	}
	slices.SortStableFunc(all, func(a, b attack.Event) int {
		switch {
		case a.Start < b.Start:
			return -1
		case a.Start > b.Start:
			return 1
		}
		return 0
	})
	return all
}

// writeSegments writes each store as a DOSEVT02 segment file and
// records the write time and bytes per event.
func writeSegments(l layers, paths []string, stores ...*attack.Store) error {
	t0 := time.Now()
	var size int64
	events := 0
	for i, st := range stores {
		f, err := os.Create(paths[i])
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		err = st.WriteSegment(w)
		if err == nil {
			err = w.Flush()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("write %s: %w", paths[i], err)
		}
		fi, err := os.Stat(paths[i])
		if err != nil {
			return err
		}
		size += fi.Size()
		events += st.Len()
	}
	l["attack.segment.write_ms"] = ms(time.Since(t0))
	l["attack.segment.bytes_per_event"] = ratio(float64(size), float64(events))
	return nil
}

// openSegments opens segment files; the returned closer unmaps them all.
func openSegments(paths ...string) ([]*attack.Store, io.Closer, error) {
	var stores []*attack.Store
	var closers multiCloser
	for _, p := range paths {
		st, c, err := attack.OpenSegmentFile(p)
		if err != nil {
			closers.Close()
			return nil, nil, fmt.Errorf("open %s: %w", p, err)
		}
		stores = append(stores, st)
		closers = append(closers, c)
	}
	return stores, closers, nil
}

type multiCloser []io.Closer

func (m multiCloser) Close() error {
	var errs []error
	for _, c := range m {
		errs = append(errs, c.Close())
	}
	return errors.Join(errs...)
}

// firstQueries times the first count, prefix and distinct-target query
// on freshly opened stores: each builds one lazy index.
func firstQueries(l layers, stores ...*attack.Store) {
	t0 := time.Now()
	attack.QueryStores(stores...).Count()
	l["attack.index.first_count_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	attack.QueryStores(stores...).TargetPrefix(0, 8).Count()
	l["attack.index.first_prefix_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	attack.QueryStores(stores...).CountDistinctTargets()
	l["attack.index.first_distinct_ms"] = ms(time.Since(t0))
}

// execStats sums the execution counters of stores.
func execStats(stores ...*attack.Store) attack.ExecStats {
	var s attack.ExecStats
	for _, st := range stores {
		s = addExec(s, st.ExecStats())
	}
	return s
}

func addExec(a, b attack.ExecStats) attack.ExecStats {
	return attack.ExecStats{
		ScanTasks:    a.ScanTasks + b.ScanTasks,
		ProbeTasks:   a.ProbeTasks + b.ProbeTasks,
		BitmapTasks:  a.BitmapTasks + b.BitmapTasks,
		BitmapHits:   a.BitmapHits + b.BitmapHits,
		BitmapMisses: a.BitmapMisses + b.BitmapMisses,
	}
}

func subExec(a, b attack.ExecStats) attack.ExecStats {
	return attack.ExecStats{
		ScanTasks:    a.ScanTasks - b.ScanTasks,
		ProbeTasks:   a.ProbeTasks - b.ProbeTasks,
		BitmapTasks:  a.BitmapTasks - b.BitmapTasks,
		BitmapHits:   a.BitmapHits - b.BitmapHits,
		BitmapMisses: a.BitmapMisses - b.BitmapMisses,
	}
}

// recordExec stores the executor's per-query task mix.
func recordExec(l layers, d attack.ExecStats, queries int) {
	q := float64(queries)
	l["attack.exec.scan_tasks_per_query"] = ratio(float64(d.ScanTasks), q)
	l["attack.exec.probe_tasks_per_query"] = ratio(float64(d.ProbeTasks), q)
	l["attack.exec.bitmap_tasks_per_query"] = ratio(float64(d.BitmapTasks), q)
	l["attack.exec.bitmap_hit_ratio"] = ratio(float64(d.BitmapHits), float64(d.BitmapHits+d.BitmapMisses))
}

// httpStack is an httpapi server on a loopback listener plus a client
// holding at most two connections to it.
type httpStack struct {
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

func serveHTTP(t *tracer, srv *httpapi.Server) (*httpStack, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &httpStack{
		hs:   &http.Server{Handler: handler(t, srv)},
		base: "http://" + l.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true,
		}},
		served: make(chan error, 1),
	}
	go func() { h.served <- h.hs.Serve(l) }()
	return h, nil
}

func (h *httpStack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	h.hs.Shutdown(ctx)
	<-h.served
	h.client.CloseIdleConnections()
}

// get fetches a URL path; any status but 200 is an error.
func (h *httpStack) get(pathQuery string) ([]byte, error) {
	resp, err := h.client.Get(h.base + pathQuery)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", pathQuery, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// query runs one request; a degraded (partial) answer is a failure.
func (h *httpStack) query(r request) ([]byte, error) {
	body, err := h.get(r.url())
	if err == nil && bytes.Contains(body, []byte(`"degraded"`)) {
		err = fmt.Errorf("%s: degraded answer", r.url())
	}
	return body, err
}

// apiStats is the part of /v1/stats the benchmark reads.
type apiStats struct {
	CacheHits     uint64 `json:"cache_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	BytesStreamed uint64 `json:"bytes_streamed"`
}

func (h *httpStack) stats() (apiStats, error) {
	var s apiStats
	body, err := h.get("/v1/stats")
	if err == nil {
		err = json.Unmarshal(body, &s)
	}
	return s, err
}

// recordHTTP stores the cache and response-size figures between two
// /v1/stats snapshots taken around queries requests.
func recordHTTP(l layers, before, after apiStats, queries int) {
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	l["httpapi.cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	l["httpapi.resp_bytes_per_query"] = ratio(float64(after.BytesStreamed-before.BytesStreamed), float64(queries))
}

// answer runs a request straight through a handler, for oracles.
func answer(h http.Handler, r request) ([]byte, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, r.url(), nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("oracle %s: status %d: %s", r.url(), rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes(), nil
}
