// Command dosqueryd serves the HTTP/JSON query API over any mix of
// attack-event backends: DOSEVT02 segment files (mmap'd, O(1) open),
// event-cache directories, and remote federation sites speaking
// DOSFED01. One process can front a single capture file or stitch an
// ecosystem-wide federated view behind the same URLs.
//
// Usage:
//
//	dosqueryd [-listen 127.0.0.1:8080] [-events dir] [-seg file,...]
//	          [-federate addr,...] [-cache 1024] [-rate 0] [-burst 10]
//	          [-max-inflight 0] [-max-page 10000] [-strict]
//	          [-breaker-failures 5] [-breaker-cooldown 1s] [-quiet]
//
// Backends merge in flag order: -events directories first (telescope
// then honeypot), then -seg segments, then -federate sites. Counting
// and figure responses are cached keyed on the compiled plan and
// validated by the version vector of every backend, so repeat queries
// between ingest batches never re-execute, and no response is ever
// staler than the stores. -rate enables a per-client token bucket
// (requests per second, bursting to -burst); -max-inflight caps
// concurrently executing requests across all clients, shedding the
// excess with 503.
//
// Federated sites degrade rather than fail: when a site dies, queries
// keep answering 200 from the surviving backends with a "degraded"
// field naming the casualty, a per-site circuit breaker
// (-breaker-failures consecutive failures to open) stops the fleet from
// paying the dead site's timeouts, and the site rejoins automatically
// when the background health probe, sent every -breaker-cooldown while
// the breaker is open, answers. -strict restores the all-or-nothing
// discipline: any backend failure turns the query into a 502. /healthz
// reports per-site breaker states either way.
//
// SIGINT/SIGTERM shut down gracefully: the listener closes, in-flight
// requests drain, then the process exits. See docs/API.md for the
// endpoint reference.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"doscope/internal/attack"
	"doscope/internal/federation"
	"doscope/internal/httpapi"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:8080", "HTTP listen address")
		events      = flag.String("events", "", "event-cache directory (telescope.seg/honeypot.seg, as written by doscope -save-events)")
		segs        = flag.String("seg", "", "comma-separated DOSEVT02 segment files to serve")
		fedAddrs    = flag.String("federate", "", "comma-separated federation site addresses (host:port or unix socket path)")
		cacheSize   = flag.Int("cache", 1024, "response cache capacity in entries (0 disables)")
		rate        = flag.Float64("rate", 0, "per-client rate limit in requests/second (0 disables)")
		burst       = flag.Int("burst", 10, "per-client burst capacity when -rate is set")
		maxInflight = flag.Int("max-inflight", 0, "global cap on concurrently executing requests (0 = unlimited)")
		maxPage     = flag.Int("max-page", 10000, "largest /v1/events page a client may request")
		strict      = flag.Bool("strict", false, "fail federated queries (502) when any backend fails, instead of serving degraded results")
		brFailures  = flag.Int("breaker-failures", 5, "consecutive failures before a site's circuit breaker opens (0 disables the breaker)")
		brCooldown  = flag.Duration("breaker-cooldown", time.Second, "how often an open breaker probes the site with a version frame (each probe is bounded by the same duration)")
		quiet       = flag.Bool("quiet", false, "suppress per-request log lines")
	)
	flag.Parse()

	var backends []attack.Queryable
	var names []string
	if *events != "" {
		for _, base := range []string{"telescope", "honeypot"} {
			st, path, err := openCached(*events, base)
			if err != nil {
				fatal(err)
			}
			backends = append(backends, st)
			names = append(names, fmt.Sprintf("%s (%d events)", path, st.Len()))
		}
	}
	for _, path := range splitList(*segs) {
		st, _, err := attack.OpenSegmentFile(path)
		if err != nil {
			fatal(err)
		}
		backends = append(backends, st)
		names = append(names, fmt.Sprintf("%s (%d events)", path, st.Len()))
	}
	for _, addr := range splitList(*fedAddrs) {
		r := federation.Dial(addr, federation.WithBreaker(*brFailures, *brCooldown))
		defer r.Close()
		backends = append(backends, r)
		names = append(names, "federated site "+addr)
	}
	if len(backends) == 0 {
		fatal(fmt.Errorf("no backends: pass -events, -seg, or -federate"))
	}

	opts := []httpapi.Option{
		httpapi.WithCache(*cacheSize),
		httpapi.WithRateLimit(*rate, *burst),
		httpapi.WithMaxInFlight(*maxInflight),
		httpapi.WithMaxPage(*maxPage),
		httpapi.WithStrict(*strict),
	}
	if !*quiet {
		opts = append(opts, httpapi.WithLogger(log.New(os.Stderr, "dosqueryd: ", 0)))
	}
	srv := httpapi.NewServer(backends, opts...)

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	for _, n := range names {
		fmt.Fprintln(os.Stderr, "dosqueryd: backend:", n)
	}
	fmt.Fprintf(os.Stderr, "dosqueryd: serving http://%s/v1/ over %d backend(s)\n", l.Addr(), len(backends))

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	select {
	case err := <-served:
		if err != nil {
			fatal(err)
		}
		return
	case <-stop:
	}
	fmt.Fprintln(os.Stderr, "dosqueryd: shutting down, draining in-flight requests")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fatal(err)
	}
	<-served
}

// openCached opens one store of a doscope -save-events directory.
func openCached(dir, base string) (*attack.Store, string, error) {
	path := filepath.Join(dir, base+".seg")
	st, _, err := attack.OpenSegmentFile(path)
	return st, path, err
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dosqueryd:", err)
	os.Exit(1)
}
