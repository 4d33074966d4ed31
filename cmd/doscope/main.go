// Command doscope reproduces the paper end to end: it generates the
// calibrated two-year DoS ecosystem scenario, runs the sensor pipelines,
// fuses the data sets, and prints every table and figure of the paper's
// evaluation.
//
// Usage:
//
//	doscope [-scale 0.001] [-seed 42] [-packet-level] [-save-events dir]
//	        [-load-events dir] [-federate host:port,...] [-section all]
//	        [-plan] [-source s] [-vectors v,...] [-days lo..hi] [-target-prefix cidr]
//
// -scale 0.001 reproduces the paper at 1/1000 (≈21k attack events, 210k
// Web sites) in a few seconds. -packet-level synthesizes raw backscatter
// and reflection traffic and classifies it with the real telescope and
// honeypot code paths (use scales <= 0.00005).
//
// -federate skips generation entirely and aggregates remote federation
// sites (e.g. amppot -serve instances) into one macroscopic view: the
// listed sites are queried over the DOSFED01 protocol with counting
// plans — index partials cross the wire, never events — and the merged
// per-vector and per-day aggregates are printed Figure-1 style. Site
// addresses are host:port pairs or unix socket paths.
//
// -save-events writes telescope.seg / honeypot.seg in the mmap-able
// DOSEVT02 segment format, the scenario cache for bulk captures;
// -load-events serves the attack stores from such a directory (the
// segments are mmap'd and open in O(1) regardless of size) and skips
// attack planning and event synthesis entirely. The segment records no
// generation config, so pass the same -scale and -seed as at save time:
// the Web model is still generated from those flags, and mismatched
// values would join cached events against a differently-sized site
// population.
//
// -plan compiles the query filter flags (-source, -vectors, -days,
// -target-prefix — the same grammar the HTTP API's URL parameters use)
// into a portable attack.Plan and prints its base64 form, then exits.
// The printed string is what dosqueryd's plan= parameter and the
// DOSFED01 wire accept, so a query can be built once here and replayed
// against any serving surface.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"strings"

	"doscope/internal/attack"
	"doscope/internal/core"
	"doscope/internal/dossim"
	"doscope/internal/federation"
	"doscope/internal/report"
)

func main() {
	var (
		scale       = flag.Float64("scale", 0.001, "fraction of the paper's full-scale event and domain counts")
		seed        = flag.Int64("seed", 42, "deterministic scenario seed")
		packetLevel = flag.Bool("packet-level", false, "synthesize raw packets and run the real classifiers (slow; use small scales)")
		saveEvents  = flag.String("save-events", "", "directory to write telescope.seg / honeypot.seg DOSEVT02 event segments")
		loadEvents  = flag.String("load-events", "", "directory to serve the attack stores from (telescope.seg/honeypot.seg, mmap'd); use the -scale/-seed the cache was saved with")
		federate    = flag.String("federate", "", "comma-separated federation site addresses to aggregate instead of generating a scenario")
		section     = flag.String("section", "all", "report section: all, tables, figures, joint, web")
		printPlan   = flag.Bool("plan", false, "print the base64 plan compiled from the query filter flags, then exit")
		source      = flag.String("source", "", "plan filter: sensor source (telescope or honeypot)")
		vectors     = flag.String("vectors", "", "plan filter: comma-separated attack vectors")
		days        = flag.String("days", "", "plan filter: day range lo..hi (or a single day), relative to the window start")
		targetPfx   = flag.String("target-prefix", "", "plan filter: target CIDR prefix")
	)
	flag.Parse()

	if *printPlan {
		p, err := compilePlan(*source, *vectors, *days, *targetPfx)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doscope:", err)
			os.Exit(1)
		}
		fmt.Println(p.EncodeString())
		return
	}

	if *federate != "" {
		if err := federated(os.Stdout, strings.Split(*federate, ",")); err != nil {
			fmt.Fprintln(os.Stderr, "doscope:", err)
			os.Exit(1)
		}
		return
	}

	cfg := dossim.Config{
		Seed:        *seed,
		Scale:       *scale,
		PacketLevel: *packetLevel,
	}
	if *loadEvents != "" {
		// Serve the attack stores from the segment cache; generation
		// then skips attack planning and event synthesis entirely.
		tel, hp, err := load(*loadEvents)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doscope:", err)
			os.Exit(1)
		}
		cfg.Telescope, cfg.Honeypot = tel, hp
	}
	sc, err := dossim.Generate(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "doscope:", err)
		os.Exit(1)
	}
	if *saveEvents != "" {
		if err := save(sc, *saveEvents); err != nil {
			fmt.Fprintln(os.Stderr, "doscope:", err)
			os.Exit(1)
		}
	}
	ds := core.New(sc.Telescope, sc.Honeypot, sc.Plan, sc.History, sc.Cfg.WindowDays)
	ds.MailIdx = sc.Web
	fmt.Printf("doscope: scale=%g seed=%d telescope=%d honeypot=%d events, %d Web sites\n",
		*scale, *seed, sc.Telescope.Len(), sc.Honeypot.Len(), sc.History.NumDomains())
	// First-month reflection share straight off the count indexes: no scan.
	if n := attack.QueryStores(sc.Telescope, sc.Honeypot).Days(0, 29).Count(); n > 0 {
		refl := sc.Honeypot.Query().Days(0, 29).Count()
		fmt.Printf("doscope: first month: %d events, %.1f%% reflection\n\n", n, 100*float64(refl)/float64(n))
	} else {
		fmt.Println()
	}
	switch *section {
	case "all":
		fmt.Print(report.All(ds))
	case "tables":
		fmt.Print(report.Table1(ds.Table1()))
		fmt.Print(report.Table2(ds.Table2()))
		fmt.Print(report.Table3(ds.Table3()))
		fmt.Print(report.Table4("a (telescope)", ds.Table4(attack.SourceTelescope, 5)))
		fmt.Print(report.Table4("b (honeypot)", ds.Table4(attack.SourceHoneypot, 5)))
		fmt.Print(report.Mix("Table 5", ds.Table5()))
		fmt.Print(report.Mix("Table 6", ds.Table6()))
		fmt.Print(report.Mix("Table 7", ds.Table7()))
		fmt.Print(report.Mix("Table 8a", ds.Table8(attack.VectorTCP, 5)))
		fmt.Print(report.Mix("Table 8b", ds.Table8(attack.VectorUDP, 5)))
		fmt.Print(report.Table9(ds.Table9()))
	case "figures":
		tel, hp, comb := ds.Figure1()
		fmt.Print(report.Figure1(tel, hp, comb))
		f2t, f2h := ds.Figure2()
		fmt.Print(report.Figure2(f2t, f2h))
		fmt.Print(report.Figure3(ds.Figure3()))
		fmt.Print(report.Figure4(ds.Figure4()))
		fmt.Print(report.Figure5(ds.Figure5()))
		fmt.Print(report.Figure6(ds.Figure6()))
		fmt.Print(report.Figure7(ds.Figure7(), ds.WindowDays))
		fmt.Print(report.Figure8(ds.Figure8()))
		fmt.Print(report.Figure9(ds.Figure9()))
		fmt.Print(report.Figure10(ds.Figure10()))
		fmt.Print(report.Figure11(ds.Figure11()))
	case "joint":
		fmt.Print(report.Joint(ds.JointAttacks()))
	case "web":
		fmt.Print(report.WebImpact(ds.WebImpactStats()))
	default:
		fmt.Fprintf(os.Stderr, "doscope: unknown section %q\n", *section)
		os.Exit(2)
	}
}

// compilePlan maps the query filter flags onto the HTTP API's URL
// parameter grammar and compiles them through the same
// attack.PlanFromValues path, so the flags and the serving layer can
// never drift apart.
func compilePlan(source, vectors, days, prefix string) (attack.Plan, error) {
	v := url.Values{}
	for key, val := range map[string]string{
		attack.ParamSource:  source,
		attack.ParamVectors: vectors,
		attack.ParamDays:    days,
		attack.ParamPrefix:  prefix,
	} {
		if val != "" {
			v.Set(key, val)
		}
	}
	return attack.PlanFromValues(v)
}

// federated aggregates the listed sites' attack stores into one
// ecosystem-wide summary — the paper's macroscopic join, but across
// processes: every number below comes back as an index partial over the
// DOSFED01 wire, merged client-side; no event leaves a site.
func federated(w io.Writer, addrs []string) error {
	var backends []attack.Queryable
	var remotes []*federation.RemoteStore
	for _, addr := range addrs {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		r := federation.Dial(addr)
		defer r.Close()
		remotes = append(remotes, r)
		backends = append(backends, r)
	}
	if len(backends) == 0 {
		return fmt.Errorf("-federate: no site addresses")
	}
	fed := attack.QueryBackends(backends...)
	// Per-site count partials, summed client-side: the per-site lines
	// (the vantage-point split the paper's Table 1 rows show) and the
	// header total come from the same snapshot, so they always agree
	// even while sites are still ingesting.
	perSite := make([]int, len(remotes))
	total := 0
	for i, r := range remotes {
		n, err := r.PlanCountContext(context.Background(), attack.PlanAll())
		if err != nil {
			return err
		}
		perSite[i], total = n, total+n
	}
	// The report is all-or-nothing: a site that does not answer fails it
	// rather than shrinking the aggregate. StatusErr is non-nil whenever
	// the terminal's own error is, so it stands in for that error.
	perVec, statuses, _ := fed.CountByVector()
	if err := attack.StatusErr(statuses); err != nil {
		return err
	}
	perDay, statuses, _ := fed.CountByDay()
	if err := attack.StatusErr(statuses); err != nil {
		return err
	}
	fmt.Fprintf(w, "federated aggregate over %d sites: %d events\n", len(remotes), total)
	for i, r := range remotes {
		fmt.Fprintf(w, "  site %-24s %d events\n", r.Addr(), perSite[i])
	}
	fmt.Fprintln(w, "per vector:")
	for v := 0; v < attack.NumVectors; v++ {
		if perVec[v] > 0 {
			fmt.Fprintf(w, "  %-8s %d\n", attack.Vector(v), perVec[v])
		}
	}
	active, peakDay, peakN := 0, 0, 0
	for d, n := range perDay {
		if n > 0 {
			active++
		}
		if n > peakN {
			peakDay, peakN = d, n
		}
	}
	fmt.Fprintf(w, "daily series: %d active days, peak %d events on %s\n",
		active, peakN, attack.Date(attack.DayStart(peakDay)).Format("2006-01-02"))
	var sent, recv uint64
	for _, r := range remotes {
		s, v := r.WireBytes()
		sent, recv = sent+s, recv+v
	}
	fmt.Fprintf(w, "wire: %d bytes sent, %d received (index partials only)\n", sent, recv)
	return nil
}

func save(sc *dossim.Scenario, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, store := range map[string]*attack.Store{
		"telescope.seg": sc.Telescope,
		"honeypot.seg":  sc.Honeypot,
	} {
		if err := store.WriteSegmentFile(filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	return nil
}

// load opens the attack stores cached in dir as telescope.seg and
// honeypot.seg. The mappings stay open for the life of the process; the
// OS reclaims them on exit.
func load(dir string) (tel, hp *attack.Store, err error) {
	open := func(base string) (*attack.Store, error) {
		st, _, err := attack.OpenSegmentFile(filepath.Join(dir, base+".seg"))
		return st, err
	}
	if tel, err = open("telescope"); err != nil {
		return nil, nil, err
	}
	if hp, err = open("honeypot"); err != nil {
		return nil, nil, err
	}
	return tel, hp, nil
}
