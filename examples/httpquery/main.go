// HTTP query-serving walkthrough: one dosqueryd-style server fronting
// a local capture and a federated honeypot site behind the same URLs —
// the consumer-facing face of the query plane. A plain HTTP client
// counts, filters, streams events, and fetches a figure; the program
// checks each answer against direct in-process execution and shows the
// version-keyed response cache turning over on ingest. Run with:
//
//	go run ./examples/httpquery
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"

	"doscope/internal/attack"
	"doscope/internal/dossim"
	"doscope/internal/federation"
	"doscope/internal/httpapi"
	"doscope/internal/netx"
)

func main() {
	// One calibrated scenario split the way real deployments are: the
	// telescope capture local to the serving process, the honeypot
	// capture behind a DOSFED01 federation site.
	sc, err := dossim.Generate(dossim.Config{Seed: 7, Scale: 0.0002})
	if err != nil {
		log.Fatal(err)
	}
	siteL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go federation.NewServer(sc.Honeypot).Serve(siteL)
	remote := federation.Dial(siteL.Addr().String())
	defer remote.Close()

	// The HTTP server fans every request out to both backends, exactly
	// like attack.QueryBackends(sc.Telescope, remote).
	srv := httpapi.NewServer([]attack.Queryable{sc.Telescope, remote})
	httpL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(httpL)
	base := "http://" + httpL.Addr().String()
	fmt.Printf("serving %d local + %d federated events on %s\n",
		sc.Telescope.Len(), sc.Honeypot.Len(), base)

	// Counting terminals are URLs; filters are the plan grammar.
	var count struct {
		Plan  string `json:"plan"`
		Count int    `json:"count"`
	}
	getJSON(base+"/v1/count?vectors=NTP,DNS&days=0..364", &count)
	local, statuses, _ := attack.QueryBackends(sc.Telescope, remote).
		Vectors(attack.VectorNTP, attack.VectorDNS).Days(0, 364).Count()
	if err := attack.StatusErr(statuses); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nNTP+DNS events, first year: %d (direct execution: %d)\n", count.Count, local)
	fmt.Printf("the response echoes its compiled plan: plan=%s\n", count.Plan)

	// The echoed base64 plan replays the same query — what doscope
	// -plan prints, and what the DOSFED01 wire ships.
	var replay struct {
		Count int `json:"count"`
	}
	getJSON(base+"/v1/count?plan="+count.Plan, &replay)
	fmt.Printf("replayed via plan=: %d\n", replay.Count)

	// /v1/events streams NDJSON pages in global start order; the
	// trailer line carries the cursor that resumes after the last event.
	resp, err := http.Get(base + "/v1/events?limit=5")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfirst events page:")
	sc2 := bufio.NewScanner(resp.Body)
	for sc2.Scan() {
		line := sc2.Text()
		if strings.Contains(line, `"page"`) {
			fmt.Println("  trailer:", line)
		} else {
			fmt.Println(" ", line)
		}
	}
	resp.Body.Close()

	// Counting responses cache between ingest batches, keyed by the
	// version vector of ALL backends — including the federated site.
	getJSON(base+"/v1/count", &count)
	getJSON(base+"/v1/count", &count) // served from cache
	var stats struct {
		CacheHits   uint64 `json:"cache_hits"`
		CacheMisses uint64 `json:"cache_misses"`
	}
	getJSON(base+"/v1/stats", &stats)
	fmt.Printf("\ncache after a repeat query: %d hits, %d misses\n", stats.CacheHits, stats.CacheMisses)

	before := count.Count
	sc.Telescope.Add(attack.Event{
		Source: attack.SourceTelescope, Vector: attack.VectorTCP,
		Target: netx.AddrFrom4(203, 0, 113, 9),
		Start:  attack.WindowStart, End: attack.WindowStart + 60,
		Packets: 1000, Bytes: 64000, MaxPPS: 100,
	})
	getJSON(base+"/v1/count", &count)
	fmt.Printf("after ingesting one event the cache invalidates: %d -> %d\n", before, count.Count)

	// Figures are aggregates over the same backends; Figure 1 comes
	// straight off the per-day count indexes.
	var fig struct {
		Combined []int `json:"combined"`
	}
	getJSON(base+"/v1/figures/1", &fig)
	peak, peakDay := 0, 0
	for d, n := range fig.Combined {
		if n > peak {
			peak, peakDay = n, d
		}
	}
	fmt.Printf("\nfigure 1 peak: %d events on day %d\n", peak, peakDay)
}

func getJSON(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
