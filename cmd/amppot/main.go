// Command amppot runs AmpPot honeypot instances on real UDP sockets,
// emulating the eight reflection protocols, rate-limiting replies, and
// printing extracted attack events as CSV on shutdown (SIGINT) or after
// -duration.
//
// Usage:
//
//	amppot [-listen 127.0.0.1] [-protocols NTP,DNS,CharGen] [-base-port 0]
//	       [-duration 0] [-min-requests 100] [-gap 1h] [-flush 30s]
//	       [-serve addr] [-serve-http addr] [-out file]
//
// Extraction is live: completed attack events stream straight from the
// collector into the capture store's concurrent ingest queue as their
// flows close, and -flush is the store's drain tick — once per tick the
// store's drainer coalesces everything queued and publishes ONE
// immutable view, so flow closing never pays view-publication cost and
// queries between ticks never re-sort or recount the capture. Each tick
// also expires idle flows and prints a status line with index-served
// per-vector counts to stderr. -flush 0 disables the live path and
// extracts everything once at shutdown (synchronous store, no queue).
//
// -serve exposes the live capture store as a federation site on the
// given address (host:port, or a unix socket path) speaking the DOSFED01
// protocol: remote clients (federation.RemoteStore, doscope -federate)
// run counting queries against the store at any time — lock-free reads
// of the store's published view, concurrent with ingest and with each
// other, shipping index partials rather than events — or fetch the
// capture as a DOSEVT02 segment. Every query observes a whole-tick
// prefix of the capture, never a partial batch. On shutdown the
// federation listener closes and in-flight handlers drain before the
// final flush, the store close, and the -out write, so no remote fetch
// can observe the capture mid-finalization. See docs/FORMATS.md for the wire format.
//
// -serve-http exposes the same live store over the HTTP/JSON query API
// (internal/httpapi, the dosqueryd endpoints): curl or a dashboard can
// count, filter, and stream the capture while the honeypots ingest,
// with counting responses cached between drain ticks (the store's
// version counter moves once per published tick, invalidating exactly
// when the capture visibly changed). Both servers can run at once —
// they read the same lock-free published views. See docs/API.md.
//
// -out selects the capture sink by extension: .seg writes the mmap-able
// DOSEVT02 segment format, anything else CSV. Without -out, CSV goes to
// stdout.
//
// With -base-port 0 each protocol listens on its well-known port (needs
// privileges); otherwise protocol i listens on base-port+i.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"doscope/internal/amppot"
	"doscope/internal/attack"
	"doscope/internal/federation"
	"doscope/internal/httpapi"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1", "address to bind")
		protos     = flag.String("protocols", "NTP,DNS,CharGen,SSDP,RIPv1,QOTD,MSSQL,TFTP", "comma-separated protocol list")
		basePort   = flag.Int("base-port", 0, "0 = well-known ports; otherwise base for sequential ports")
		duration   = flag.Duration("duration", 0, "stop after this long (0 = until SIGINT)")
		minReq     = flag.Uint64("min-requests", 100, "attack event threshold (requests)")
		gap        = flag.Duration("gap", time.Hour, "idle gap splitting request streams into separate events")
		flushEvery = flag.Duration("flush", 30*time.Second, "drain completed events into the live store this often (0 = only at shutdown)")
		serveAddr  = flag.String("serve", "", "expose the live store to federation clients on this address (host:port or unix socket path)")
		serveHTTP  = flag.String("serve-http", "", "expose the live store over the HTTP/JSON query API on this address (host:port)")
		out        = flag.String("out", "", "write events to this file instead of stdout CSV (.seg = DOSEVT02 segment, otherwise CSV)")
	)
	flag.Parse()

	cfg := amppot.DefaultConfig()
	cfg.MinRequests = *minReq
	cfg.GapTimeout = int64(*gap / time.Second)
	fleet := amppot.NewFleet(cfg)

	var conns []net.PacketConn
	i := 0
	for _, name := range strings.Split(*protos, ",") {
		name = strings.TrimSpace(name)
		vec, err := attack.ParseVector(name)
		if err != nil {
			fatal(err)
		}
		spec, ok := amppot.SpecFor(vec)
		if !ok {
			fatal(fmt.Errorf("%s is not a reflection protocol", name))
		}
		port := int(spec.Port)
		if *basePort != 0 {
			port = *basePort + i
		}
		conn, err := net.ListenPacket("udp4", fmt.Sprintf("%s:%d", *listen, port))
		if err != nil {
			fatal(err)
		}
		conns = append(conns, conn)
		fmt.Fprintf(os.Stderr, "amppot: %s on %s\n", name, conn.LocalAddr())
		hp := fleet.Honeypot(i % amppot.FleetSize)
		go func(vec attack.Vector, conn net.PacketConn) {
			_ = hp.Serve(conn, vec)
		}(vec, conn)
		i++
	}
	if len(conns) == 0 {
		fatal(fmt.Errorf("no protocols to serve"))
	}

	// The live capture store. With -flush > 0 it runs in queued ingest
	// mode: the collector streams each completed event into the store's
	// MPSC queue as the flow closes (an enqueue, not a publication), and
	// the store's background drainer coalesces everything queued into
	// ONE immutable view per -flush tick — seals at most once per
	// touched shard, pays publication once per tick. The ticker below
	// only expires idle flows and prints the status line. No lock
	// anywhere: honeypot goroutines enqueue concurrently, and the
	// status-line queries, federation handlers, and HTTP handlers all
	// read published views lock-free.
	store := &attack.Store{}
	if *flushEvery > 0 {
		store.StartIngest(attack.IngestConfig{Tick: *flushEvery})
		fleet.StreamTo(store)
	}
	// -serve makes this process a federation site: handlers execute each
	// shipped plan as a lock-free read against the live store's
	// published view, so remote counting queries run concurrently with
	// ingest (and with each other) and always observe a whole-batch
	// prefix of the capture.
	var fedListener net.Listener
	var fedSrv *federation.Server
	if *serveAddr != "" {
		l, err := federation.Listen(*serveAddr)
		if err != nil {
			fatal(err)
		}
		fedListener = l
		fmt.Fprintf(os.Stderr, "amppot: federation site on %s\n", l.Addr())
		fedSrv = federation.NewServer(store)
		go func() {
			if err := fedSrv.Serve(l); err != nil {
				fmt.Fprintln(os.Stderr, "amppot: federation:", err)
			}
		}()
	}
	// -serve-http fronts the same store with the HTTP/JSON query API;
	// its responses cache between flushes because every drain bumps the
	// store's version counter.
	var httpSrv *httpapi.Server
	if *serveHTTP != "" {
		l, err := net.Listen("tcp", *serveHTTP)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "amppot: http query api on http://%s/v1/\n", l.Addr())
		httpSrv = httpapi.NewServer([]attack.Queryable{store})
		go func() {
			if err := httpSrv.Serve(l); err != nil {
				fmt.Fprintln(os.Stderr, "amppot: http:", err)
			}
		}()
	}

	done := make(chan struct{})
	var flushWG sync.WaitGroup
	if *flushEvery > 0 {
		flushWG.Add(1)
		go func() {
			defer flushWG.Done()
			tick := time.NewTicker(*flushEvery)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					// Expire idle flows (their events stream into the
					// queue) and force the tick's publication so the
					// status line reads the post-drain view.
					n := fleet.DrainTo(store, time.Now().Unix())
					if n == 0 {
						continue
					}
					store.Flush()
					fmt.Fprintf(os.Stderr, "amppot: live flush: +%d events (total %d, %s)\n",
						n, store.Len(), vectorSummary(store.Query().CountByVector()))
				}
			}
		}()
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if *duration > 0 {
		select {
		case <-stop:
		case <-time.After(*duration):
		}
	} else {
		<-stop
	}
	for _, c := range conns {
		c.Close()
	}
	// Shutdown order matters: stop accepting federation and HTTP
	// connections and wait for every in-flight handler BEFORE the final
	// drain and the -out write, so a remote fetch can never observe (or
	// race) the capture mid-final-flush, and the written file is the
	// same capture the last remote query saw.
	if fedListener != nil {
		fedListener.Close()
		fedSrv.Shutdown()
	}
	if httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "amppot: http shutdown:", err)
		}
		cancel()
	}
	close(done)
	flushWG.Wait()

	// Final drain: close every remaining flow (streaming the events into
	// the queue), then Close the store — its drainer publishes everything
	// enqueued exactly once and the store reverts to synchronous mode —
	// before the -out write, so the written file is the full capture.
	fleet.FlushTo(store)
	if err := store.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "amppot: %d attack events\n", store.Len())
	counts := store.Query().CountByVector()
	for v := attack.VectorNTP; int(v) < attack.NumVectors; v++ {
		if counts[v] > 0 {
			fmt.Fprintf(os.Stderr, "amppot:   %-7s %d events\n", v, counts[v])
		}
	}
	if err := write(store, *out); err != nil {
		fatal(err)
	}
}

// vectorSummary formats nonzero reflection-vector counts for the live
// status line.
func vectorSummary(counts [attack.NumVectors]int) string {
	var b strings.Builder
	for v := attack.VectorNTP; int(v) < attack.NumVectors; v++ {
		if counts[v] == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %d", v, counts[v])
	}
	if b.Len() == 0 {
		return "no vectors"
	}
	return b.String()
}

// write sinks the extracted events: to stdout as CSV, or to a file in
// the codec its extension selects (.seg for DOSEVT02, CSV otherwise).
// A file is replaced atomically.
func write(store *attack.Store, out string) error {
	switch {
	case out == "":
		return store.WriteCSV(os.Stdout)
	case filepath.Ext(out) == ".seg":
		return store.WriteSegmentFile(out)
	}
	return store.WriteCSVFile(out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "amppot:", err)
	os.Exit(1)
}
