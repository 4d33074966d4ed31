package main

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"doscope/internal/attack"
	"doscope/internal/core"
	"doscope/internal/dossim"
	"doscope/internal/report"
)

// paperScale keeps one repetition near 80 ms of wall-clock time, so a
// 15-second run holds well over the 100 repetitions a p90 with ten
// samples beyond it needs, even when steal slows it by a third.
const paperScale = 0.0008

// paper is the doscope reproduction: each repetition reopens both
// segments, so every lazy index is built again as in a fresh run.
type paper struct {
	cfg   config
	t     *tracer
	sc    *dossim.Scenario
	paths []string
	want  string // the report computed from the in-memory scenario stores
}

func setupPaper(cfg config, t *tracer, l layers) (instance, error) {
	sc, err := generate(cfg, l)
	if err != nil {
		return nil, err
	}
	w := &paper{cfg: cfg, t: t, sc: sc, paths: []string{
		filepath.Join(cfg.dir, "telescope.seg"), filepath.Join(cfg.dir, "honeypot.seg"),
	}}
	if err := writeSegments(l, w.paths, sc.Telescope, sc.Honeypot); err != nil {
		return nil, err
	}
	w.want = report.All(w.dataset(sc.Telescope, sc.Honeypot))
	// One throwaway reopen measures the open and first-query costs.
	t0 := time.Now()
	stores, segs, err := openSegments(w.paths...)
	if err != nil {
		return nil, err
	}
	l["attack.segment.open_ms"] = ms(time.Since(t0))
	firstQueries(l, stores...)
	segs.Close()
	return w, nil
}

func (w *paper) close() {}

func (w *paper) dataset(tel, hp *attack.Store) *core.Dataset {
	ds := core.New(tel, hp, w.sc.Plan, w.sc.History, w.sc.Cfg.WindowDays)
	ds.MailIdx = w.sc.Web
	return ds
}

// repetition reopens the segments and renders the full report, through
// the timed replica of report.All when tracing. It returns the text and
// the executor tasks the repetition ran.
func (w *paper) repetition(t *tracer) (string, attack.ExecStats, error) {
	stores, segs, err := openSegments(w.paths...)
	if err != nil {
		return "", attack.ExecStats{}, err
	}
	defer segs.Close()
	ds := w.dataset(stores[0], stores[1])
	var text string
	if t != nil {
		text = tracedReport(ds, t)
	} else {
		text = report.All(ds)
	}
	return text, execStats(stores...), nil
}

// run times each repetition by the CPU time the process spends on it,
// and reports wall-clock time in the manifest. A repetition is CPU-bound
// and long enough that on a virtual machine its wall-clock time grows
// with the CPU time the hypervisor gives other guests (steal), which
// varied from 2% to 35% between runs on the reference host, and the
// wall-clock p90 varied 2.5-fold with it; the process's CPU time does
// not count steal.
func (w *paper) run(l layers) (outcome, error) {
	var lat, wall []float64
	var exec attack.ExecStats
	mismatches, ties := 0, 0
	rt := readRuntime()
	deadline := time.Now().Add(w.cfg.seconds)
	for time.Now().Before(deadline) {
		t0, c0 := time.Now(), processCPU()
		text, ex, err := w.repetition(w.t)
		if err != nil {
			return outcome{}, err
		}
		lat = append(lat, ms(processCPU()-c0))
		wall = append(wall, ms(time.Since(t0)))
		switch exact, tiesOnly := compareReports(w.want, text); {
		case tiesOnly:
			ties++
		case !exact:
			mismatches++
		}
		exec = addExec(exec, ex)
	}
	recordRuntime(l, rt)
	rss := peakRSSMB()
	recordExec(l, exec, len(lat))
	if w.t != nil {
		spans := w.t.finished()
		for _, c := range coreCalls {
			l["core."+c.name+"_ms"] = ms(time.Duration(newDist(durations(spans, "core."+c.name)).pct(50)))
		}
	}
	var total float64
	for _, v := range wall {
		total += v
	}
	wd := newDist(wall)
	return outcome{
		peakRSSMB: rss,
		latMS:     lat,
		opsPerS:   ratio(float64(len(lat)), total/1000),
		attempted: len(lat),
		failed:    mismatches,
		manifest: map[string]any{
			"repetitions": len(lat), "report_mismatches": mismatches, "report_tie_differences": ties,
			"wall_p50_ms": wd.pct(50), "wall_p90_ms": wd.pct(90),
			"telescope_events": w.sc.Telescope.Len(), "honeypot_events": w.sc.Honeypot.Len(),
		},
	}, nil
}

// sameBehavior renders one repetition untraced and one traced and
// compares the executor tasks and the text.
func (w *paper) sameBehavior() error {
	plain, ex0, err := w.repetition(nil)
	if err != nil {
		return err
	}
	traced, ex1, err := w.repetition(newTracer())
	if err != nil {
		return err
	}
	if ex0 != ex1 {
		return fmt.Errorf("executor tasks %+v untraced, %+v traced", ex0, ex1)
	}
	if exact, tiesOnly := compareReports(plain, traced); !exact && !tiesOnly {
		return fmt.Errorf("report text differs between the untraced and traced runs")
	}
	return nil
}

// compareReports reports whether two renderings are identical, and if
// not, whether they differ only where core breaks ties at random:
// core.Table4 and core.JointAttacks rank rows gathered from a map by
// value alone, with sort.Slice and no tie-break, so which of two
// equal-valued rows is listed first, or makes the top-N cut, varies from
// run to run. Inside those rankings a row may differ if it shows the
// same values as the row it replaces, so the values keep their order;
// any other differing line is a mismatch.
func compareReports(want, got string) (exact, tiesOnly bool) {
	if want == got {
		return true, false
	}
	a, b := strings.Split(want, "\n"), strings.Split(got, "\n")
	if len(a) != len(b) {
		return false, false
	}
	values := 0 // value fields per row of the ranking line i is in; 0 outside one
	for i := range a {
		if a[i] == "" {
			values = 0
		}
		if a[i] != b[i] && !(values > 0 && sameValues(a[i], b[i], values)) {
			return false, false
		}
		if n, ok := rankings[a[i]]; ok {
			values = n
		}
	}
	return false, true
}

// rankings maps the header above each ranking that may tie to the
// number of trailing fields that hold a row's values: count and share
// in Table 4, the share in the joint-attack lists. A ranking runs to the
// next blank line or ranking header.
var rankings = map[string]int{
	"Table 4a (telescope): targets per country": 2,
	"Table 4b (honeypot): targets per country":  2,
	"  top joint-target ASNs:":                  1,
	"  top joint-target countries:":             1,
}

// sameValues reports whether two ranking rows end in the same n value
// fields, the last a share.
func sameValues(a, b string, n int) bool {
	fa, fb := strings.Fields(a), strings.Fields(b)
	return len(fa) > n && len(fb) > n && strings.HasSuffix(fa[len(fa)-1], "%") &&
		slices.Equal(fa[len(fa)-n:], fb[len(fb)-n:])
}

// coreCalls is report.All spelled out call by call, so each analysis
// can be timed; render formats the analysis's result as report.All does.
var coreCalls = []struct {
	name   string
	render func(ds *core.Dataset) string
}{
	{"table1", func(ds *core.Dataset) string { return report.Table1(ds.Table1()) }},
	{"table2", func(ds *core.Dataset) string { return report.Table2(ds.Table2()) }},
	{"table3", func(ds *core.Dataset) string { return report.Table3(ds.Table3()) }},
	{"table4_telescope", func(ds *core.Dataset) string {
		return report.Table4("a (telescope)", ds.Table4(attack.SourceTelescope, 5))
	}},
	{"table4_honeypot", func(ds *core.Dataset) string {
		return report.Table4("b (honeypot)", ds.Table4(attack.SourceHoneypot, 5))
	}},
	{"table5", func(ds *core.Dataset) string {
		return report.Mix("Table 5: IP protocol distribution (telescope)", ds.Table5())
	}},
	{"table6", func(ds *core.Dataset) string {
		return report.Mix("Table 6: reflection protocol distribution (honeypot)", ds.Table6())
	}},
	{"table7", func(ds *core.Dataset) string {
		return report.Mix("Table 7: target port cardinality (telescope)", ds.Table7())
	}},
	{"table8_tcp", func(ds *core.Dataset) string {
		return report.Mix("Table 8a: top targeted services, single-port TCP", ds.Table8(attack.VectorTCP, 5))
	}},
	{"table8_udp", func(ds *core.Dataset) string {
		return report.Mix("Table 8b: top targeted services, single-port UDP", ds.Table8(attack.VectorUDP, 5))
	}},
	{"table9", func(ds *core.Dataset) string { return report.Table9(ds.Table9()) }},
	{"figure1", func(ds *core.Dataset) string { return report.Figure1(ds.Figure1()) }},
	{"figure2", func(ds *core.Dataset) string { return report.Figure2(ds.Figure2()) }},
	{"figure3", func(ds *core.Dataset) string { return report.Figure3(ds.Figure3()) }},
	{"figure4", func(ds *core.Dataset) string { return report.Figure4(ds.Figure4()) }},
	{"figure5", func(ds *core.Dataset) string { return report.Figure5(ds.Figure5()) }},
	{"figure6", func(ds *core.Dataset) string { return report.Figure6(ds.Figure6()) }},
	{"figure7", func(ds *core.Dataset) string { return report.Figure7(ds.Figure7(), ds.WindowDays) }},
	{"figure8", func(ds *core.Dataset) string { return report.Figure8(ds.Figure8()) }},
	{"figure9", func(ds *core.Dataset) string { return report.Figure9(ds.Figure9()) }},
	{"figure10", func(ds *core.Dataset) string { return report.Figure10(ds.Figure10()) }},
	{"figure11", func(ds *core.Dataset) string { return report.Figure11(ds.Figure11()) }},
	{"joint_attacks", func(ds *core.Dataset) string { return report.Joint(ds.JointAttacks()) }},
	{"web_impact", func(ds *core.Dataset) string { return report.WebImpact(ds.WebImpactStats()) }},
	{"mail_impact", func(ds *core.Dataset) string { return report.Mail(ds.MailImpactStats()) }},
}

// tracedReport renders report.All's text, one span per analysis.
func tracedReport(ds *core.Dataset, t *tracer) string {
	ctx, root := t.begin(context.Background(), "core.report")
	parts := make([]string, len(coreCalls))
	for i, c := range coreCalls {
		_, sp := t.begin(ctx, "core."+c.name)
		parts[i] = c.render(ds)
		sp.end()
	}
	root.end()
	return strings.Join(parts, "\n")
}
