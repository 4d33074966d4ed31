package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"doscope/internal/attack"
	"doscope/internal/faultnet"
	"doscope/internal/federation"
)

// chaosSite is one federated site with a faultnet proxy in front: the
// HTTP server under test dials the proxy, so tests can injure and heal
// the site without touching the federation server.
type chaosSite struct {
	store *attack.Store
	proxy *faultnet.Proxy
}

// startChaosSite serves st over DOSFED01 behind a fault proxy.
func startChaosSite(t *testing.T, st *attack.Store) *chaosSite {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := federation.NewServer(st)
	go fs.Serve(l)
	t.Cleanup(fs.Shutdown)
	proxy, err := faultnet.Listen(l.Addr().String(), faultnet.Faults{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close(); proxy.Close() })
	return &chaosSite{store: st, proxy: proxy}
}

// chaosOpts tunes the federation clients for fast failure detection in
// tests: one attempt, sub-second timeouts, a two-failure breaker, and
// an aggressive background probe so healed sites rejoin quickly.
func chaosOpts() []federation.Option {
	return []federation.Option{
		federation.WithAttempts(1),
		federation.WithDialTimeout(400 * time.Millisecond),
		federation.WithRequestTimeout(400 * time.Millisecond),
		federation.WithBreaker(2, 100*time.Millisecond),
		federation.WithHealthProbe(25 * time.Millisecond),
	}
}

// chaosFixture: three federated sites behind fault proxies, an HTTP
// server fanning out to all three, and two oracle servers over the
// same event data held locally — the full set and the healthy subset
// with site 1 removed. Degraded-mode responses must equal the subset
// oracle; healthy responses the full one.
func chaosFixture(t *testing.T, opts ...Option) (ts, oracleFull, oracleSub *httptest.Server, sites []*chaosSite) {
	t.Helper()
	rng := rand.New(rand.NewSource(103))
	stores := make([]*attack.Store, 3)
	for i, n := range []int{350, 300, 250} {
		stores[i] = attack.NewStore(randomEvents(rng, n))
	}
	sites = make([]*chaosSite, 3)
	backends := make([]attack.Queryable, 3)
	for i, st := range stores {
		sites[i] = startChaosSite(t, st)
		r := federation.Dial(sites[i].proxy.Addr(), chaosOpts()...)
		t.Cleanup(func() { r.Close() })
		backends[i] = r
	}
	ts = httptest.NewServer(NewServer(backends, opts...))
	t.Cleanup(ts.Close)
	oracleFull = httptest.NewServer(NewServer([]attack.Queryable{stores[0], stores[1], stores[2]}))
	t.Cleanup(oracleFull.Close)
	oracleSub = httptest.NewServer(NewServer([]attack.Queryable{stores[0], stores[2]}))
	t.Cleanup(oracleSub.Close)
	return
}

// getMap fetches a JSON endpoint into a generic map, failing on
// non-200.
func getMap(t *testing.T, ts *httptest.Server, path string) map[string]any {
	t.Helper()
	status, body := getBody(t, ts, path)
	if status != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, status, body)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
	return m
}

// chaosEndpoints is every query endpoint the degraded sweep covers.
var chaosEndpoints = []string{
	"/v1/count",
	"/v1/count/vector",
	"/v1/count/day",
	"/v1/count/target-prefix?group=16",
	"/v1/figures/1",
	"/v1/figures/5",
	"/v1/figures/6",
	"/v1/figures/7",
}

// TestChaosDegradedSweep is the acceptance scenario: with one of three
// sites blackholed, every counting and figure endpoint answers 200
// with a degraded field naming the dead site and values equal to the
// healthy-subset oracle; /healthz reports the open breaker; and when
// the site heals, it rejoins automatically and responses return to the
// full-fleet values with no degraded field.
func TestChaosDegradedSweep(t *testing.T) {
	ts, oracleFull, oracleSub, sites := chaosFixture(t)

	// Healthy first: full-oracle values, no degraded field anywhere.
	for _, ep := range chaosEndpoints {
		got, want := getMap(t, ts, ep), getMap(t, oracleFull, ep)
		if _, ok := got["degraded"]; ok {
			t.Fatalf("%s: degraded field over healthy sites: %v", ep, got["degraded"])
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s healthy: got %v, want full oracle %v", ep, got, want)
		}
	}

	sites[1].proxy.SetFaults(faultnet.Faults{Blackhole: true})

	for _, ep := range chaosEndpoints {
		got := getMap(t, ts, ep)
		deg, ok := got["degraded"].(map[string]any)
		if !ok {
			t.Fatalf("%s with site 1 blackholed: no degraded field: %v", ep, got)
		}
		bs := deg["backends"].([]any)
		if len(bs) != 3 {
			t.Fatalf("%s: degraded lists %d backends, want 3", ep, len(bs))
		}
		st1 := bs[1].(map[string]any)
		if st1["state"] == "ok" || st1["backend"].(float64) != 1 {
			t.Fatalf("%s: dead site status %v, want failed/skipped backend 1", ep, st1)
		}
		for _, i := range []int{0, 2} {
			if st := bs[i].(map[string]any); st["state"] != "ok" {
				t.Fatalf("%s: healthy site %d reported %v", ep, i, st)
			}
		}
		delete(got, "degraded")
		want := getMap(t, oracleSub, ep)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s degraded: got %v, want healthy-subset oracle %v", ep, got, want)
		}
	}

	// The breaker has tripped by now (every sweep request fed it);
	// /healthz reports it without touching the network.
	deadline := time.Now().Add(5 * time.Second)
	for {
		hz := getMap(t, ts, "/healthz")
		if hz["degraded"] == true {
			if hz["ok"] != true {
				t.Fatal("healthz ok flipped false while degraded; it reports liveness")
			}
			sitesList := hz["sites"].([]any)
			if len(sitesList) != 3 {
				t.Fatalf("healthz lists %d sites, want 3", len(sitesList))
			}
			s1 := sitesList[1].(map[string]any)
			if s1["breaker"] == "closed" {
				t.Fatalf("healthz site 1 breaker %v, want open/half-open", s1["breaker"])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported degraded with a blackholed site")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// /v1/stats carries the same breaker view per backend.
	var snap statsSnapshot
	getJSON(t, ts, "/v1/stats", &snap)
	if snap.Degraded == 0 {
		t.Error("stats degraded counter never moved")
	}
	if snap.Backends[1].Breaker == "closed" || snap.Backends[1].Breaker == "" {
		t.Errorf("stats backend 1 breaker = %q, want open/half-open", snap.Backends[1].Breaker)
	}

	// With the breaker open the dead site is skipped in memory — the
	// sweep stays fast instead of paying the 400ms timeout per request.
	start := time.Now()
	got := getMap(t, ts, "/v1/count")
	if _, ok := got["degraded"]; !ok {
		t.Fatal("count lost its degraded field while the site is still down")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("open-breaker count took %v", d)
	}

	// Heal: the background probe closes the breaker and the site
	// rejoins with no caller traffic required.
	sites[1].proxy.Heal()
	deadline = time.Now().Add(10 * time.Second)
	for {
		got := getMap(t, ts, "/v1/count")
		if _, ok := got["degraded"]; !ok {
			want := getMap(t, oracleFull, "/v1/count")
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("post-rejoin count %v, want full oracle %v", got, want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("site never rejoined after healing")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestChaosEventsDegrade: the streaming endpoint degrades too — the
// page holds the healthy subset's events and the trailer carries the
// per-backend statuses.
func TestChaosEventsDegrade(t *testing.T) {
	ts, _, oracleSub, sites := chaosFixture(t)
	sites[1].proxy.SetFaults(faultnet.Faults{Blackhole: true})

	status, body := getBody(t, ts, "/v1/events?limit=2000")
	if status != http.StatusOK {
		t.Fatalf("events with a blackholed site: status %d", status)
	}
	events, trailer := decodeEventPage(t, body)
	if trailer.Degraded == nil {
		t.Fatal("events trailer carries no degraded field")
	}
	if st := trailer.Degraded.Backends[1]; st.State == "ok" {
		t.Fatalf("dead site state %q in trailer", st.State)
	}
	_, wantBody := getBody(t, oracleSub, "/v1/events?limit=2000")
	wantEvents, _ := decodeEventPage(t, wantBody)
	assertEventsEqual(t, events, wantEvents, "degraded events vs healthy-subset oracle")
}

// TestChaosStrictFailsClosed: WithStrict restores the all-or-nothing
// discipline — one dead site turns the query into a 502.
func TestChaosStrictFailsClosed(t *testing.T) {
	ts, oracleFull, _, sites := chaosFixture(t, WithStrict(true))

	got := getMap(t, ts, "/v1/count")
	want := getMap(t, oracleFull, "/v1/count")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("strict healthy count %v, want %v", got, want)
	}

	sites[1].proxy.SetFaults(faultnet.Faults{Blackhole: true})
	status, body := getBody(t, ts, "/v1/count")
	if status != http.StatusBadGateway {
		t.Fatalf("strict count with a dead site: status %d (%s), want 502", status, body)
	}
	status, _ = getBody(t, ts, "/v1/events")
	if status != http.StatusBadGateway {
		t.Fatalf("strict events with a dead site: status %d, want 502", status)
	}
}

// flakyLocal is a versioned backend whose query path can be failed on
// demand while Version keeps answering — the window where the cache's
// version vector succeeds but the fan-out loses a backend. It is the
// backend shape that exercises cached()'s degraded-bypass guard
// directly, with no network involved.
type flakyLocal struct {
	st *attack.Store

	mu   sync.Mutex
	fail bool
}

func (f *flakyLocal) setFail(b bool) {
	f.mu.Lock()
	f.fail = b
	f.mu.Unlock()
}

func (f *flakyLocal) err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return errors.New("flaky backend down")
	}
	return nil
}

func (f *flakyLocal) Version() uint64 { return f.st.Version() }

func (f *flakyLocal) PlanCountContext(ctx context.Context, p attack.Plan) (int, error) {
	if err := f.err(); err != nil {
		return 0, err
	}
	return f.st.PlanCountContext(ctx, p)
}

func (f *flakyLocal) PlanCountByVectorContext(ctx context.Context, p attack.Plan) ([attack.NumVectors]int, error) {
	if err := f.err(); err != nil {
		return [attack.NumVectors]int{}, err
	}
	return f.st.PlanCountByVectorContext(ctx, p)
}

func (f *flakyLocal) PlanCountByDayContext(ctx context.Context, p attack.Plan) ([]int, error) {
	if err := f.err(); err != nil {
		return nil, err
	}
	return f.st.PlanCountByDayContext(ctx, p)
}

func (f *flakyLocal) PlanStoreContext(ctx context.Context, p attack.Plan) (*attack.Store, io.Closer, error) {
	if err := f.err(); err != nil {
		return nil, nil, err
	}
	return f.st.PlanStoreContext(ctx, p)
}

// TestDegradedNeverCached is the cache regression: a degraded body is
// never written to the response cache, so a backend outage cannot be
// replayed from cache after the backend recovers. The flaky backend
// keeps its version vector valid throughout, so the cache would accept
// the degraded body if cached() offered it.
func TestDegradedNeverCached(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	healthy := attack.NewStore(randomEvents(rng, 400))
	flaky := &flakyLocal{st: attack.NewStore(randomEvents(rng, 300))}
	ts := httptest.NewServer(NewServer([]attack.Queryable{healthy, flaky}))
	defer ts.Close()

	flaky.setFail(true)
	for i := 0; i < 2; i++ {
		var resp countResponse
		getJSON(t, ts, "/v1/count", &resp)
		if resp.Degraded == nil {
			t.Fatalf("request %d: no degraded field with a failing backend", i)
		}
		if resp.Count != healthy.Len() {
			t.Fatalf("request %d: degraded count = %d, want the healthy backend's %d", i, resp.Count, healthy.Len())
		}
	}
	var snap statsSnapshot
	getJSON(t, ts, "/v1/stats", &snap)
	if snap.CacheEntries != 0 {
		t.Fatalf("degraded responses were cached: %d entries", snap.CacheEntries)
	}
	if snap.CacheHits != 0 {
		t.Fatalf("a degraded response was served from cache (%d hits)", snap.CacheHits)
	}

	// Backend heals under an unchanged version vector: the next
	// request must recompute the whole answer, not replay the outage.
	flaky.setFail(false)
	var resp countResponse
	getJSON(t, ts, "/v1/count", &resp)
	if resp.Degraded != nil {
		t.Fatalf("healed backend still reported degraded: %+v", resp.Degraded)
	}
	if want := healthy.Len() + flaky.st.Len(); resp.Count != want {
		t.Fatalf("post-heal count = %d, want %d", resp.Count, want)
	}
	getJSON(t, ts, "/v1/stats", &snap)
	if snap.CacheEntries != 1 {
		t.Fatalf("healthy response not cached: %d entries", snap.CacheEntries)
	}
}

// TestLimiterCapEviction: the per-client bucket map cannot grow past
// its cap even when every client stays active — the overflow evicts the
// longest-idle buckets first.
func TestLimiterCapEviction(t *testing.T) {
	l := newLimiter(1, 60)
	now := time.Unix(0, 0)
	l.now = func() time.Time { return now }

	key := func(i int) string { return fmt.Sprintf("client-%d", i) }
	for i := 0; i < limiterClients; i++ {
		now = now.Add(time.Millisecond)
		if !l.allow(key(i)) {
			t.Fatalf("fresh client %d rejected", i)
		}
	}
	if len(l.clients) != limiterClients {
		t.Fatalf("map holds %d buckets, want the cap %d", len(l.clients), limiterClients)
	}
	// Every bucket is active (spent a token moments ago), so pruning
	// frees nothing — admission must evict, and evict the oldest.
	now = now.Add(time.Millisecond)
	if !l.allow("fresh-client") {
		t.Fatal("client rejected at the cap")
	}
	if len(l.clients) > limiterClients {
		t.Fatalf("map grew past the cap: %d", len(l.clients))
	}
	if _, ok := l.clients[key(0)]; ok {
		t.Error("oldest bucket survived eviction")
	}
	if _, ok := l.clients["fresh-client"]; !ok {
		t.Error("new client not admitted")
	}
}
