// Federation walkthrough: two sensor sites — a telescope vantage and an
// AmpPot honeypot fleet, the paper's two independent data sets — each
// served by a federation.Server, joined by a client into one
// Figure-1-style macroscopic aggregate without any event leaving a
// site. Run with:
//
//	go run ./examples/federation
//
// With -chaos, the walkthrough continues into degraded mode: the
// honeypot site is routed through a fault-injecting proxy
// (internal/faultnet), blackholed mid-demo, and the same federated
// query keeps answering from the surviving site — partial results with
// per-site status, the circuit breaker opening, and the site rejoining
// automatically once healed, when the breaker's background probe (one
// version frame per cool-down) gets its first answer.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"doscope/internal/attack"
	"doscope/internal/dossim"
	"doscope/internal/faultnet"
	"doscope/internal/federation"
	"doscope/internal/netx"
)

// chaosCooldown is site B's breaker cool-down under -chaos: how often
// the open breaker probes the site.
const chaosCooldown = 200 * time.Millisecond

func main() {
	chaos := flag.Bool("chaos", false, "after the aggregate, blackhole the honeypot site and walk through degraded mode")
	flag.Parse()
	// One calibrated scenario, split across two "sites" the way the
	// real deployments are: the telescope store at one vantage, the
	// honeypot store at another.
	sc, err := dossim.Generate(dossim.Config{Seed: 7, Scale: 0.0002})
	if err != nil {
		log.Fatal(err)
	}

	siteA := serveSite(sc.Telescope)
	siteB := serveSite(sc.Honeypot)
	fmt.Printf("site A (telescope) on %s: %d events\n", siteA, sc.Telescope.Len())
	fmt.Printf("site B (honeypot)  on %s: %d events\n", siteB, sc.Honeypot.Len())

	// With -chaos, site B sits behind a fault-injecting proxy so the
	// demo can injure and heal it; the client gets fast failure
	// detection and a short breaker cool-down (the probe period) so the
	// walkthrough is brisk.
	dialB := siteB
	var proxy *faultnet.Proxy
	var optsB []federation.Option
	if *chaos {
		p, err := faultnet.Listen(siteB, faultnet.Faults{})
		if err != nil {
			log.Fatal(err)
		}
		defer p.Close()
		proxy, dialB = p, p.Addr()
		optsB = []federation.Option{
			federation.WithAttempts(1),
			federation.WithDialTimeout(500 * time.Millisecond),
			federation.WithRequestTimeout(500 * time.Millisecond),
			federation.WithBreaker(2, chaosCooldown),
		}
	}

	// The analysis plane: RemoteStores satisfy attack.Queryable, so the
	// federated query reads exactly like a local QueryStores plan.
	ra, rb := federation.Dial(siteA), federation.Dial(dialB, optsB...)
	defer ra.Close()
	defer rb.Close()
	fed := attack.QueryBackends(ra, rb)

	// Every terminal reports each site's outcome next to the merged
	// answer. StatusErr makes a query all-or-nothing: it is non-nil
	// when any site did not answer, so it also covers the terminal's
	// own error (no site answered).
	total, statuses, _ := fed.Count()
	if err := attack.StatusErr(statuses); err != nil {
		log.Fatal(err)
	}
	perVec, statuses, _ := fed.CountByVector()
	if err := attack.StatusErr(statuses); err != nil {
		log.Fatal(err)
	}
	perDay, statuses, _ := fed.CountByDay()
	if err := attack.StatusErr(statuses); err != nil {
		log.Fatal(err)
	}

	// The same numbers computed locally: federation is exact, not
	// approximate — counting partials merge to byte-identical results.
	local := attack.QueryStores(sc.Telescope, sc.Honeypot)
	fmt.Printf("\nfederated total: %d events (local check: %d)\n", total, local.Count())

	fmt.Println("\nper-vector mix across both sites:")
	for v := 0; v < attack.NumVectors; v++ {
		if perVec[v] > 0 {
			fmt.Printf("  %-8s %6d\n", attack.Vector(v), perVec[v])
		}
	}

	// Figure 1 is the daily combined series; print its first weeks.
	fmt.Println("\ndaily combined series (first 4 weeks):")
	for week := 0; week < 4; week++ {
		n := 0
		for d := 7 * week; d < 7*(week+1); d++ {
			n += perDay[d]
		}
		fmt.Printf("  week %d: %4d events\n", week+1, n)
	}

	// Counting queries ship index partials, not events: the bytes on
	// the wire are a tiny fraction of the captures they summarize.
	var sent, recv uint64
	for _, r := range []*federation.RemoteStore{ra, rb} {
		s, v := r.WireBytes()
		sent, recv = sent+s, recv+v
	}
	fmt.Printf("\nwire traffic for the whole aggregate: %d bytes out, %d back\n", sent, recv)

	// Iteration terminals do fetch events — as DOSEVT02 segments opened
	// zero-copy — e.g. to inspect one victim across both vantages.
	events, statuses, _ := fed.Target(mostAttacked(perDayStore(sc))).Events()
	if err := attack.StatusErr(statuses); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("events on the most-attacked target, fetched across sites: %d\n", len(events))

	if *chaos {
		// A fresh query: fed still carries the target filter above.
		chaosWalkthrough(attack.QueryBackends(ra, rb), proxy, rb, sc.Telescope)
	}
}

// chaosWalkthrough injures site B and shows the degraded-mode story:
// the same terminals answer from the healthy site with per-site status,
// the circuit breaker opens, and the site rejoins after healing, without
// any query being spent on finding out.
func chaosWalkthrough(fed *attack.FedQuery, proxy *faultnet.Proxy, rb *federation.RemoteStore, telescope *attack.Store) {
	fmt.Println("\n--- chaos: blackholing the honeypot site ---")
	proxy.SetFaults(faultnet.Faults{Blackhole: true})

	n, statuses, err := fed.Count()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("degraded federated count: %d (telescope-only check: %d)\n", n, telescope.Query().Count())
	for _, st := range statuses {
		if st.Err != nil {
			fmt.Printf("  site %d: %s (%v)\n", st.Backend, st.State, st.Err)
		} else {
			fmt.Printf("  site %d: %s\n", st.Backend, st.State)
		}
	}

	// A second failure trips the two-failure breaker: from here the
	// dead site is skipped in memory instead of costing its timeout.
	if _, _, err := fed.Count(); err != nil {
		log.Fatal(err)
	}
	bst, _ := rb.Breaker()
	fmt.Printf("site B breaker: %s after %d consecutive failures\n", bst.State, bst.Failures)
	start := time.Now()
	if _, _, err := fed.Count(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query with the breaker open: %v (no dial, no timeout)\n",
		time.Since(start).Round(time.Millisecond))
	fmt.Printf("while it stays open, no query reaches site B; a background probe re-checks it every %v\n",
		chaosCooldown)

	fmt.Println("\n--- chaos: healing the site ---")
	proxy.Heal()
	healed := time.Now()
	for {
		if bst, _ := rb.Breaker(); bst.State == federation.BreakerClosed {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("the probe got an answer and closed the breaker %v after the heal\n",
		time.Since(healed).Round(10*time.Millisecond))
	n, statuses, err = fed.Count()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("federated count back to %d (degraded: %v)\n", n, attack.StatusErr(statuses) != nil)
}

// serveSite starts a federation server for st on a loopback listener
// and returns its address.
func serveSite(st *attack.Store) string {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go federation.NewServer(st).Serve(l)
	return l.Addr().String()
}

// perDayStore joins the scenario's stores for the target scan below.
func perDayStore(sc *dossim.Scenario) *attack.Query {
	return attack.QueryStores(sc.Telescope, sc.Honeypot)
}

// mostAttacked returns the target with the most events.
func mostAttacked(q *attack.Query) (best netx.Addr) {
	counts := map[netx.Addr]int{}
	for e := range q.Iter() {
		counts[e.Target]++
	}
	max := 0
	for t, n := range counts {
		if n > max || (n == max && t < best) {
			best, max = t, n
		}
	}
	return best
}
