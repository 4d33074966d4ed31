package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"doscope/internal/attack"
)

const benchEvents = 20000

// benchServer serves one live store of benchEvents random events.
func benchServer(b *testing.B, opts ...Option) *httptest.Server {
	b.Helper()
	st := attack.NewStore(randomEvents(rand.New(rand.NewSource(71)), benchEvents))
	ts := httptest.NewServer(NewServer([]attack.Queryable{st}, opts...))
	b.Cleanup(ts.Close)
	return ts
}

func benchGet(b *testing.B, client *http.Client, url string) {
	resp, err := client.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// BenchmarkHTTPCount measures the counting path end to end — HTTP
// parse, plan compile, index lookup, JSON — cold (cache disabled, every
// request executes) versus cached (every request after the first is a
// version-validated cache hit), serially and under 8 concurrent
// clients. The cold/cached delta is the response cache's whole case.
func BenchmarkHTTPCount(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"cold", []Option{WithCache(0)}},
		{"cached", nil},
	} {
		b.Run(mode.name, func(b *testing.B) {
			ts := benchServer(b, mode.opts...)
			url := ts.URL + "/v1/count?source=honeypot&days=0..364"
			for _, clients := range []int{1, 8} {
				b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
					b.SetParallelism(clients)
					benchGet(b, ts.Client(), url) // warm once so "cached" measures hits
					b.ResetTimer()
					b.RunParallel(func(pb *testing.PB) {
						client := ts.Client()
						for pb.Next() {
							benchGet(b, client, url)
						}
					})
				})
			}
		})
	}
}

// BenchmarkHTTPTargetPrefix is the cache's real case: the grouped
// tally iterates every matching event, so a cold request is O(events)
// while a cached hit is one map lookup and a body write. The cold/
// cached delta here is what a fleet of dashboard consumers polling the
// same view between ingest batches saves.
func BenchmarkHTTPTargetPrefix(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"cold", []Option{WithCache(0)}},
		{"cached", nil},
	} {
		b.Run(mode.name, func(b *testing.B) {
			ts := benchServer(b, mode.opts...)
			url := ts.URL + "/v1/count/target-prefix?group=16&top=100"
			client := ts.Client()
			benchGet(b, client, url)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchGet(b, client, url)
			}
		})
	}
}

// BenchmarkHTTPEventsPage measures one NDJSON page of 1000 events
// through the streaming path (pages are never cached), first page
// versus a deep cursor-resumed page — the deep page leans on the
// cursor's day-range narrowing to skip shards below the resume point.
// "short" is a first page of 10 events, far fewer than a shard holds:
// its cost tracks the page, as long as the merge streams each shard
// instead of collecting it first.
func BenchmarkHTTPEventsPage(b *testing.B) {
	ts := benchServer(b)
	first := ts.URL + "/v1/events?limit=1000"

	// Fetch a deep cursor once: page 15 of the full scan.
	cursor := ""
	for i := 0; i < 15; i++ {
		u := first
		if cursor != "" {
			u += "&cursor=" + cursor
		}
		resp, err := ts.Client().Get(u)
		if err != nil {
			b.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		var trailer eventsTrailer
		lines := splitLines(body)
		if err := unmarshalLast(lines, &trailer); err != nil || !trailer.More {
			b.Fatalf("page %d: trailer %+v err %v", i, trailer, err)
		}
		cursor = trailer.Next
	}
	deep := first + "&cursor=" + cursor

	for _, bc := range []struct{ name, url string }{
		{"first", first},
		{"deep", deep},
		{"short", ts.URL + "/v1/events?limit=10"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			client := ts.Client()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchGet(b, client, bc.url)
			}
		})
	}
}

func splitLines(body []byte) [][]byte {
	var lines [][]byte
	start := 0
	for i, c := range body {
		if c == '\n' {
			if i > start {
				lines = append(lines, body[start:i])
			}
			start = i + 1
		}
	}
	if start < len(body) {
		lines = append(lines, body[start:])
	}
	return lines
}

func unmarshalLast(lines [][]byte, v any) error {
	if len(lines) == 0 {
		return io.ErrUnexpectedEOF
	}
	return json.Unmarshal(lines[len(lines)-1], v)
}
