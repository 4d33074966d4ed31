package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"doscope/internal/attack"
	"doscope/internal/federation"
	"doscope/internal/netx"
)

// randomEvents mirrors the attack package's test generator: n valid
// events spread across (and slightly outside) the measurement window,
// over both sources and all vectors, with repeated targets so prefix
// grouping and figure tallies have structure.
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

// segmentBacked round-trips a store through the DOSEVT02 codec so a
// backend serves frozen, index-complete shards — the mmap-style shape.
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

// startSite serves st over DOSFED01 on a loopback listener and returns
// a connected RemoteStore, so tests can put a real federated backend
// behind the HTTP server.
func startSite(t *testing.T, st *attack.Store) *federation.RemoteStore {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := federation.NewServer(st)
	go fs.Serve(l)
	t.Cleanup(fs.Shutdown)
	r := federation.Dial(l.Addr().String())
	t.Cleanup(func() { r.Close() })
	return r
}

// testBackends builds the three backend shapes the server must treat
// identically: a live store with a pending (unsealed) tail, a
// segment-backed store, and a federated remote site.
func testBackends(t *testing.T, rng *rand.Rand) []attack.Queryable {
	t.Helper()
	live := &attack.Store{}
	live.AddBatch(randomEvents(rng, 400))
	live.Seal()
	for _, e := range randomEvents(rng, 60) {
		live.Add(e) // pending tail stays unsealed
	}

	segSrc := &attack.Store{}
	segSrc.AddBatch(randomEvents(rng, 300))
	seg := segmentBacked(t, segSrc)

	siteStore := &attack.Store{}
	siteStore.AddBatch(randomEvents(rng, 250))
	remote := startSite(t, siteStore)

	return []attack.Queryable{live, seg, remote}
}

func getBody(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, body
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) {
	t.Helper()
	status, body := getBody(t, ts, path)
	if status != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, status, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
}

// equivalencePlans is the filter matrix the HTTP layer is checked
// against direct execution on: every filter dimension alone and in
// combination, in both URL-parameter and base64-plan form.
func equivalencePlans() []attack.Plan {
	prefix, _ := netx.ParsePrefix("203.1.0.0/16")
	narrow, _ := netx.ParsePrefix("203.0.2.0/24")
	return []attack.Plan{
		attack.PlanAll(),
		{Source: int8(attack.SourceTelescope)},
		{Source: int8(attack.SourceHoneypot)},
		{Source: -1, VecMask: 1<<attack.VectorNTP | 1<<attack.VectorDNS},
		{Source: -1, HasDays: true, DayLo: 100, DayHi: 400},
		{Source: -1, HasPrefix: true, PrefixBits: 16, Prefix: prefix.Addr()},
		{
			Source: int8(attack.SourceTelescope), VecMask: 1 << attack.VectorTCP,
			HasDays: true, DayLo: 0, DayHi: attack.WindowDays - 1,
			HasPrefix: true, PrefixBits: 24, Prefix: narrow.Addr(),
		},
	}
}

// TestHTTPDirectEquivalence is the core contract: every counting
// endpoint must return exactly what direct attack.QueryPlan execution
// returns over the same backend mix — live (pending tail), segment-
// backed, and federated — for both parameter encodings.
func TestHTTPDirectEquivalence(t *testing.T) {
	backends := testBackends(t, rand.New(rand.NewSource(1)))
	ts := httptest.NewServer(NewServer(backends))
	defer ts.Close()

	for i, p := range equivalencePlans() {
		queries := []string{p.Values().Encode(), "plan=" + url.QueryEscape(p.EncodeString())}
		for _, q := range queries {
			suffix := ""
			if q != "" {
				suffix = "?" + q
			}

			wantCount, err := strict(attack.QueryPlan(p, backends...).Count())
			if err != nil {
				t.Fatal(err)
			}
			var cr countResponse
			getJSON(t, ts, "/v1/count"+suffix, &cr)
			if cr.Count != wantCount {
				t.Errorf("plan %d %q: /v1/count = %d, direct = %d", i, q, cr.Count, wantCount)
			}
			if cr.Plan != p.EncodeString() {
				t.Errorf("plan %d %q: echoed plan %q, want %q", i, q, cr.Plan, p.EncodeString())
			}

			wantVec, err := strict(attack.QueryPlan(p, backends...).CountByVector())
			if err != nil {
				t.Fatal(err)
			}
			var vr countByVectorResponse
			getJSON(t, ts, "/v1/count/vector"+suffix, &vr)
			if len(vr.Counts) != attack.NumVectors {
				t.Fatalf("plan %d: /v1/count/vector returned %d rows", i, len(vr.Counts))
			}
			for v := range wantVec {
				if vr.Counts[v].Count != wantVec[v] || vr.Counts[v].Vector != attack.Vector(v).String() {
					t.Errorf("plan %d vector %s: got %+v, want %d", i, attack.Vector(v), vr.Counts[v], wantVec[v])
				}
			}

			wantDays, err := strict(attack.QueryPlan(p, backends...).CountByDay())
			if err != nil {
				t.Fatal(err)
			}
			var dr countByDayResponse
			getJSON(t, ts, "/v1/count/day"+suffix, &dr)
			if !equalInts(dr.Days, wantDays) {
				t.Errorf("plan %d %q: /v1/count/day disagrees with direct execution", i, q)
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// decodeEventPage splits one /v1/events NDJSON response into its event
// lines and trailer.
func decodeEventPage(t *testing.T, body []byte) ([]eventJSON, eventsTrailer) {
	t.Helper()
	var events []eventJSON
	var trailer eventsTrailer
	sawTrailer := false
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if sawTrailer {
			t.Fatalf("line after trailer: %s", line)
		}
		if bytes.Contains(line, []byte(`"page"`)) {
			if err := json.Unmarshal(line, &trailer); err != nil {
				t.Fatalf("trailer %s: %v", line, err)
			}
			sawTrailer = true
			continue
		}
		var e eventJSON
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("event line %s: %v", line, err)
		}
		events = append(events, e)
	}
	if !sawTrailer {
		t.Fatal("page had no trailer line")
	}
	return events, trailer
}

// TestEventsEquivalenceAndPagination checks /v1/events against direct
// IterByStart execution: one unpaginated fetch must match exactly, and
// stitching cursor-resumed pages together must reproduce the same
// sequence — including across ties, where many events share a start
// timestamp and the cursor's skip count does the work.
func TestEventsEquivalenceAndPagination(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	backends := testBackends(t, rng)

	// Pile ties onto one backend so page boundaries land mid-run.
	tied := &attack.Store{}
	base := attack.WindowStart + 123*86400
	for i := 0; i < 90; i++ {
		e := randomEvents(rng, 1)[0]
		e.Start = base + int64(i/30) // three runs of 30 identical starts
		e.End = e.Start + 60
		tied.Add(e)
	}
	backends = append(backends, tied)

	ts := httptest.NewServer(NewServer(backends))
	defer ts.Close()

	for _, p := range equivalencePlans() {
		it, statuses, closer, _ := attack.QueryPlan(p, backends...).IterByStart()
		if err := attack.StatusErr(statuses); err != nil {
			t.Fatal(err)
		}
		var want []eventJSON
		for e := range it {
			want = append(want, toEventJSON(e))
		}
		closer.Close()

		suffix := "?" + p.Values().Encode()
		if p.All() {
			suffix = ""
		}
		sep := "?"
		if suffix != "" {
			sep = "&"
		}

		// One big page.
		_, body := getBody(t, ts, "/v1/events"+suffix+sep+"limit=10000")
		got, trailer := decodeEventPage(t, body)
		if trailer.More || trailer.Next != "" {
			t.Fatalf("full fetch still reports more (trailer %+v)", trailer)
		}
		assertEventsEqual(t, got, want, "single page")

		// Stitched pages with a limit that lands inside tie runs.
		var stitched []eventJSON
		cursor := ""
		for pages := 0; ; pages++ {
			if pages > len(want)/7+2 {
				t.Fatal("pagination did not terminate")
			}
			u := "/v1/events" + suffix + sep + "limit=7"
			if cursor != "" {
				u += "&cursor=" + url.QueryEscape(cursor)
			}
			_, body := getBody(t, ts, u)
			page, trailer := decodeEventPage(t, body)
			stitched = append(stitched, page...)
			if trailer.Count != len(page) {
				t.Fatalf("trailer count %d, page had %d events", trailer.Count, len(page))
			}
			if !trailer.More {
				break
			}
			cursor = trailer.Next
		}
		assertEventsEqual(t, stitched, want, "stitched pages")
	}
}

func assertEventsEqual(t *testing.T, got, want []eventJSON, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, direct execution has %d", label, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: event %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestCacheInvalidationOnIngest pins the cache contract: repeat queries
// between ingest batches are served from cache without re-executing,
// and any ingest — local or at a federated site — invalidates, so a
// response is never staler than the stores.
func TestCacheInvalidationOnIngest(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	live := &attack.Store{}
	live.AddBatch(randomEvents(rng, 200))
	siteStore := &attack.Store{}
	siteStore.AddBatch(randomEvents(rng, 100))
	remote := startSite(t, siteStore)

	s := NewServer([]attack.Queryable{live, remote})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var c1, c2 countResponse
	getJSON(t, ts, "/v1/count", &c1)
	misses0 := s.metrics.cacheMisses.Load()
	getJSON(t, ts, "/v1/count", &c2)
	if c2.Count != c1.Count {
		t.Fatalf("repeat count %d != %d", c2.Count, c1.Count)
	}
	if hits := s.metrics.cacheHits.Load(); hits != 1 {
		t.Fatalf("after repeat query: %d cache hits, want 1", hits)
	}
	if misses := s.metrics.cacheMisses.Load(); misses != misses0 {
		t.Fatalf("repeat query re-executed (misses %d -> %d)", misses0, misses)
	}

	// Local ingest must invalidate.
	live.AddBatch(randomEvents(rng, 10))
	var c3 countResponse
	getJSON(t, ts, "/v1/count", &c3)
	if c3.Count != c1.Count+10 {
		t.Fatalf("after local ingest: count %d, want %d", c3.Count, c1.Count+10)
	}

	// Remote ingest must invalidate too: the entry is keyed on the
	// version vector of ALL backends, including the DOSFED01 site.
	getJSON(t, ts, "/v1/count", &c3) // warm the cache under the new vector
	siteStore.AddBatch(randomEvents(rng, 5))
	var c4 countResponse
	getJSON(t, ts, "/v1/count", &c4)
	if c4.Count != c1.Count+15 {
		t.Fatalf("after remote ingest: count %d, want %d", c4.Count, c1.Count+15)
	}
}

// TestRateLimit429 exercises the per-client token bucket: once the
// burst is spent, requests draw 429 with a Retry-After hint, while
// /healthz keeps answering.
func TestRateLimit429(t *testing.T) {
	live := &attack.Store{}
	live.AddBatch(randomEvents(rand.New(rand.NewSource(4)), 50))
	ts := httptest.NewServer(NewServer([]attack.Queryable{live},
		WithRateLimit(0.001, 3))) // burst of 3, effectively no refill
	defer ts.Close()

	limited := 0
	for i := 0; i < 10; i++ {
		resp, err := ts.Client().Get(ts.URL + "/v1/count")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			limited++
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
		default:
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	if limited != 7 {
		t.Fatalf("%d of 10 requests limited, want 7 (burst 3)", limited)
	}
	if status, _ := getBody(t, ts, "/healthz"); status != http.StatusOK {
		t.Fatalf("/healthz limited: status %d", status)
	}

	// The hint rounds up: at 0.4 tokens/s one token takes 2.5 s, so a
	// client told 2 s would retry into another 429.
	slow := httptest.NewServer(NewServer([]attack.Queryable{live}, WithRateLimit(0.4, 1)))
	defer slow.Close()
	for i, want := range []string{"", "3"} {
		resp, err := slow.Client().Get(slow.URL + "/v1/count")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got := resp.Header.Get("Retry-After"); got != want {
			t.Fatalf("rate 0.4, request %d: status %d, Retry-After %q, want %q", i, resp.StatusCode, got, want)
		}
	}
}

// TestInFlightCap503 exercises the global concurrency gate: with every
// slot held, requests shed with 503 instead of queuing, and recover
// once a slot frees.
func TestInFlightCap503(t *testing.T) {
	live := &attack.Store{}
	live.AddBatch(randomEvents(rand.New(rand.NewSource(5)), 50))
	s := NewServer([]attack.Queryable{live}, WithMaxInFlight(2))
	ts := httptest.NewServer(s)
	defer ts.Close()

	s.inflight <- struct{}{} // occupy both slots
	s.inflight <- struct{}{}
	if status, _ := getBody(t, ts, "/v1/count"); status != http.StatusServiceUnavailable {
		t.Fatalf("at capacity: status %d, want 503", status)
	}
	if status, _ := getBody(t, ts, "/healthz"); status != http.StatusOK {
		t.Fatalf("/healthz rejected at capacity: status %d", status)
	}
	<-s.inflight
	if status, _ := getBody(t, ts, "/v1/count"); status != http.StatusOK {
		t.Fatalf("after slot freed: status %d, want 200", status)
	}
	if s.metrics.rejected.Load() == 0 {
		t.Fatal("rejected counter never moved")
	}
}

// TestFiguresAgainstDirect checks Figure 1 cell-for-cell against direct
// CountByDay execution and sanity-pins the scan figures' invariants.
func TestFiguresAgainstDirect(t *testing.T) {
	backends := testBackends(t, rand.New(rand.NewSource(6)))
	ts := httptest.NewServer(NewServer(backends))
	defer ts.Close()

	var f1 figure1Response
	getJSON(t, ts, "/v1/figures/1", &f1)
	for _, panel := range []struct {
		name string
		src  int8
		got  []int
	}{
		{"telescope", int8(attack.SourceTelescope), f1.Telescope},
		{"honeypot", int8(attack.SourceHoneypot), f1.Honeypot},
		{"combined", -1, f1.Combined},
	} {
		p := attack.PlanAll()
		p.Source = panel.src
		want, err := strict(attack.QueryPlan(p, backends...).CountByDay())
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(panel.got, want) {
			t.Errorf("figure 1 %s panel disagrees with direct CountByDay", panel.name)
		}
	}

	total, err := strict(attack.QueryPlan(attack.PlanAll(), backends...).Count())
	if err != nil {
		t.Fatal(err)
	}

	var f5 figure5Response
	getJSON(t, ts, "/v1/figures/5", &f5)
	med := 0
	for _, n := range f5.MediumPlus {
		med += n
	}
	if med <= 0 || med > total {
		t.Fatalf("figure 5: %d medium-plus events of %d total", med, total)
	}

	var f6 figure6Response
	getJSON(t, ts, "/v1/figures/6", &f6)
	binned, weighted := 0, 0
	for k, b := range f6.Bins {
		binned += b.Count
		if k == 0 {
			weighted += b.Count
		}
	}
	if binned != f6.Targets {
		t.Fatalf("figure 6: bins sum to %d, targets = %d", binned, f6.Targets)
	}
	if f6.Targets <= 0 {
		t.Fatal("figure 6: no targets")
	}
	_ = weighted

	var f7 figure7Response
	getJSON(t, ts, "/v1/figures/7", &f7)
	if len(f7.DailyTargets) != attack.WindowDays || len(f7.DailyMedium) != attack.WindowDays {
		t.Fatal("figure 7: series are not window-sized")
	}
	if len(f7.PeakDays) != 4 || len(f7.PeakValues) != 4 {
		t.Fatalf("figure 7: %d peaks, want 4", len(f7.PeakDays))
	}
	for i, d := range f7.PeakDays {
		if f7.DailyTargets[d] != f7.PeakValues[i] {
			t.Fatalf("figure 7 peak %d: day %d has %d targets, peak claims %d", i, d, f7.DailyTargets[d], f7.PeakValues[i])
		}
	}
	maxDay := 0
	for _, v := range f7.DailyTargets {
		if v > maxDay {
			maxDay = v
		}
	}
	if f7.PeakValues[0] != maxDay {
		t.Fatalf("figure 7: top peak %d, series max %d", f7.PeakValues[0], maxDay)
	}
	for d := range f7.DailyTargets {
		if f7.DailyMedium[d] > f7.DailyTargets[d] {
			t.Fatalf("figure 7 day %d: medium series %d exceeds all-targets %d", d, f7.DailyMedium[d], f7.DailyTargets[d])
		}
	}
}

// TestBadRequests pins the failure-mode statuses: malformed filters and
// cursors are 400s, unknown figures 404, source-filtered figures 400,
// and the error body is always the JSON envelope.
func TestBadRequests(t *testing.T) {
	live := &attack.Store{}
	ts := httptest.NewServer(NewServer([]attack.Queryable{live}))
	defer ts.Close()

	cases := []struct {
		path string
		want int
	}{
		{"/v1/count?source=mars", http.StatusBadRequest},
		{"/v1/count?days=ten..twelve", http.StatusBadRequest},
		{"/v1/count?prefix=not-a-cidr", http.StatusBadRequest},
		{"/v1/count?plan=%21%21%21", http.StatusBadRequest},
		{"/v1/count?plan=AAAA&source=telescope", http.StatusBadRequest},
		{"/v1/events?cursor=xyz", http.StatusBadRequest},
		{"/v1/events?limit=0", http.StatusBadRequest},
		{"/v1/events?limit=999999999", http.StatusBadRequest},
		{"/v1/count/target-prefix?group=33", http.StatusBadRequest},
		{"/v1/figures/2", http.StatusNotFound},
		{"/v1/figures/1?source=telescope", http.StatusBadRequest},
		{"/v1/nope", http.StatusNotFound},
	}
	for _, c := range cases {
		status, body := getBody(t, ts, c.path)
		if status != c.want {
			t.Errorf("GET %s: status %d, want %d (body %s)", c.path, status, c.want, body)
		}
		if status == http.StatusBadRequest && !strings.Contains(string(body), `"error"`) {
			t.Errorf("GET %s: error body missing envelope: %s", c.path, body)
		}
	}
}

// FuzzParseCursor feeds parseCursor arbitrary cursor= values: it never
// panics, and every cursor it accepts survives String and a re-parse
// unchanged, so a Next trailer always resumes where it says.
func FuzzParseCursor(f *testing.F) {
	for _, s := range []string{
		"0:0", "1420070400:3", "-1:0", "9223372036854775807:9223372036854775807",
		"+7:007", "1:-1", ":", "x:1", "1:", "1:2:3", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := parseCursor(s)
		if err != nil {
			return
		}
		if c.skip < 0 {
			t.Fatalf("%q: accepted negative skip %d", s, c.skip)
		}
		again, err := parseCursor(c.String())
		if err != nil || again != c {
			t.Fatalf("%q parses to %+v, whose text %q parses to %+v, %v", s, c, c.String(), again, err)
		}
	})
}

// TestTargetPrefixEndpoint checks the grouped tally against a direct
// full-scan oracle at /24 granularity.
func TestTargetPrefixEndpoint(t *testing.T) {
	backends := testBackends(t, rand.New(rand.NewSource(7)))
	ts := httptest.NewServer(NewServer(backends))
	defer ts.Close()

	it, statuses, closer, _ := attack.QueryPlan(attack.PlanAll(), backends...).Iter()
	if err := attack.StatusErr(statuses); err != nil {
		t.Fatal(err)
	}
	events := make(map[netx.Addr]int)
	targets := make(map[netx.Addr]map[netx.Addr]struct{})
	for e := range it {
		key := e.Target.Mask(24)
		events[key]++
		if targets[key] == nil {
			targets[key] = make(map[netx.Addr]struct{})
		}
		targets[key][e.Target] = struct{}{}
	}
	closer.Close()

	var pr targetPrefixResponse
	getJSON(t, ts, "/v1/count/target-prefix?group=24&top=100000", &pr)
	if pr.GroupBits != 24 || pr.Total != len(events) || len(pr.Groups) != len(events) {
		t.Fatalf("got %d/%d groups at /%d, oracle has %d", len(pr.Groups), pr.Total, pr.GroupBits, len(events))
	}
	for _, g := range pr.Groups {
		pfx, err := netx.ParsePrefix(g.Prefix)
		if err != nil {
			t.Fatalf("bad prefix %q: %v", g.Prefix, err)
		}
		if g.Events != events[pfx.Addr()] || g.Targets != len(targets[pfx.Addr()]) {
			t.Fatalf("group %s: %d events / %d targets, oracle %d / %d",
				g.Prefix, g.Events, g.Targets, events[pfx.Addr()], len(targets[pfx.Addr()]))
		}
	}
	for i := 1; i < len(pr.Groups); i++ {
		if pr.Groups[i].Events > pr.Groups[i-1].Events {
			t.Fatal("groups not ordered by event count")
		}
	}

	// top= truncates but keeps the total.
	var top targetPrefixResponse
	getJSON(t, ts, "/v1/count/target-prefix?group=24&top=2", &top)
	if len(top.Groups) != 2 || top.Total != pr.Total {
		t.Fatalf("top=2: %d groups, total %d (want 2, %d)", len(top.Groups), top.Total, pr.Total)
	}
}

// TestStatsAndHealthz sanity-checks the operational endpoints.
func TestStatsAndHealthz(t *testing.T) {
	backends := testBackends(t, rand.New(rand.NewSource(8)))
	ts := httptest.NewServer(NewServer(backends))
	defer ts.Close()

	var hz struct {
		OK       bool `json:"ok"`
		Backends int  `json:"backends"`
	}
	getJSON(t, ts, "/healthz", &hz)
	if !hz.OK || hz.Backends != len(backends) {
		t.Fatalf("healthz = %+v", hz)
	}

	getJSON(t, ts, "/v1/count", &countResponse{})
	var snap statsSnapshot
	getJSON(t, ts, "/v1/stats", &snap)
	if snap.Requests < 2 || snap.BytesStreamed == 0 {
		t.Fatalf("stats counters did not move: %+v", snap)
	}
	if len(snap.Backends) != len(backends) {
		t.Fatalf("stats lists %d backends, want %d", len(snap.Backends), len(backends))
	}
	kinds := map[string]int{}
	for _, b := range snap.Backends {
		kinds[b.Kind]++
		if b.Kind == "remote" && b.Addr == "" {
			t.Fatal("remote backend without addr")
		}
	}
	if kinds["store"] != 2 || kinds["remote"] != 1 {
		t.Fatalf("backend kinds = %v", kinds)
	}
}

// TestGracefulShutdown drains an in-flight request before Shutdown
// returns, mirroring the federation server's contract.
func TestGracefulShutdown(t *testing.T) {
	live := &attack.Store{}
	live.AddBatch(randomEvents(rand.New(rand.NewSource(9)), 2000))
	s := NewServer([]attack.Queryable{live})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()

	resp, err := http.Get(fmt.Sprintf("http://%s/v1/events?limit=2000", l.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	body, readErr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if readErr != nil {
		t.Fatal(readErr)
	}
	if err := s.Shutdown(t.Context()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v after Shutdown", err)
	}
	events, trailer := decodeEventPage(t, body)
	if len(events) != 2000 || trailer.More {
		t.Fatalf("drained response truncated: %d events, more=%v", len(events), trailer.More)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/healthz", l.Addr())); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
}

// TestServeClosesStalledHeader: a client that sends half a request
// header and stalls (slowloris) has its connection closed once the
// header read timeout passes, while a complete request on another
// connection is still served.
func TestServeClosesStalledHeader(t *testing.T) {
	prev := readHeaderTimeout
	readHeaderTimeout = 200 * time.Millisecond
	t.Cleanup(func() { readHeaderTimeout = prev })
	s := NewServer([]attack.Queryable{&attack.Store{}})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() { s.Shutdown(context.Background()) })

	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, "GET /healthz HTTP/1.1\r\nHost: doscope\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	c.SetReadDeadline(start.Add(5 * time.Second))
	if _, err := io.ReadAll(c); err != nil {
		t.Fatalf("stalled header: connection not closed by the server: %v", err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Errorf("connection closed after %v, before the %v header timeout", waited, readHeaderTimeout)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", l.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the stalled client: %s", resp.Status)
	}
}

// strict reads a federated terminal the all-or-nothing way: any backend
// that did not answer fails it.
func strict[T any](v T, statuses []attack.BackendStatus, _ error) (T, error) {
	return v, attack.StatusErr(statuses)
}

// smallSendBuffers shrinks the kernel send buffer of every accepted
// connection, so a page of a few hundred KB cannot vanish into socket
// buffers when its client stops reading.
type smallSendBuffers struct{ net.Listener }

func (l smallSendBuffers) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetWriteBuffer(4096)
	}
	return c, err
}

// TestEventsStalledConsumer: a /v1/events client that never reads its
// page has the handler released once a chunk misses its write deadline,
// a slow but live reader still gets the whole page although it takes
// longer than one chunk's deadline, and a keep-alive connection keeps
// serving after a page once the deadline would have passed.
func TestEventsStalledConsumer(t *testing.T) {
	prev := eventsChunkTimeout
	eventsChunkTimeout = 500 * time.Millisecond
	t.Cleanup(func() { eventsChunkTimeout = prev })
	const page = 5000
	s := NewServer([]attack.Queryable{attack.NewStore(randomEvents(rand.New(rand.NewSource(31)), page))})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(smallSendBuffers{l})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	request := fmt.Sprintf("GET /v1/events?limit=%d HTTP/1.1\r\nHost: doscope\r\n\r\n", page)

	t.Run("stalled", func(t *testing.T) {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		start := time.Now()
		if _, err := io.WriteString(c, request); err != nil {
			t.Fatal(err)
		}
		waitFor := func(what string, done func() bool) {
			for deadline := time.Now().Add(10 * time.Second); !done(); time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%s: still %d requests in flight after 10s", what, s.metrics.inFlight.Load())
				}
			}
		}
		waitFor("handler start", func() bool { return s.metrics.inFlight.Load() == 1 })
		waitFor("stalled handler release", func() bool { return s.metrics.inFlight.Load() == 0 })
		if waited := time.Since(start); waited < eventsChunkTimeout/2 {
			t.Fatalf("handler returned after %v, before a chunk deadline could pass: the page fit in socket buffers", waited)
		}
	})

	t.Run("slow-reader", func(t *testing.T) {
		resp, err := http.Get(fmt.Sprintf("http://%s/v1/events?limit=%d", l.Addr(), page))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		start := time.Now()
		var body bytes.Buffer
		buf := make([]byte, 16<<10)
		for {
			n, err := resp.Body.Read(buf)
			body.Write(buf[:n])
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("slow reader cut after %d bytes: %v", body.Len(), err)
			}
			time.Sleep(15 * time.Millisecond)
		}
		events, trailer := decodeEventPage(t, body.Bytes())
		if len(events) != page || trailer.Count != page {
			t.Fatalf("slow reader got %d events (trailer count %d), want %d", len(events), trailer.Count, page)
		}
		if took := time.Since(start); took < eventsChunkTimeout {
			t.Fatalf("slow reader finished in %v, within one chunk deadline: no deadline was extended", took)
		}
	})

	t.Run("keep-alive", func(t *testing.T) {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		br := bufio.NewReader(c)
		get := func(path string) int {
			if _, err := fmt.Fprintf(c, "GET %s HTTP/1.1\r\nHost: doscope\r\n\r\n", path); err != nil {
				t.Fatal(err)
			}
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Fatalf("GET %s body: %v", path, err)
			}
			return resp.StatusCode
		}
		if code := get("/v1/events?limit=10"); code != http.StatusOK {
			t.Fatalf("events page: %d", code)
		}
		time.Sleep(eventsChunkTimeout + 100*time.Millisecond)
		if code := get("/healthz"); code != http.StatusOK {
			t.Fatalf("healthz on the same connection: %d", code)
		}
	})
}
