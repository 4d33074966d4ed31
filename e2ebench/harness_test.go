package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"doscope/internal/core"
	"doscope/internal/report"
)

func TestPercentileNearestRank(t *testing.T) {
	var v []float64
	for i := 100; i >= 1; i-- {
		v = append(v, float64(i))
	}
	d := newDist(v)
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := d.pct(c.p); got != c.want {
			t.Errorf("pct(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := newDist(nil).pct(50); got != 0 {
		t.Errorf("empty pct = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, // rank 990, 10 beyond
		{999, 99, false}, // rank 990, 9 beyond
		{100, 90, true},  // rank 90, 10 beyond
		{99, 90, false},  // rank 90, 9 beyond
		{20, 50, true},   // rank 10, 10 beyond
		{10000, 99.9, true},
		{0, 50, false},
	} {
		if got := tailOK(c.n, c.p); got != c.want {
			t.Errorf("tailOK(%d, %v) = %v (beyond %d), want %v", c.n, c.p, got, beyond(c.n, c.p), c.want)
		}
	}
}

// A stalled operation must inflate the latency of the operations due
// while it stalled: they are timed from their due time, not from when a
// worker got to them.
func TestOpenLoopChargesStallToLaterOperations(t *testing.T) {
	const (
		interval = 5 * time.Millisecond
		stall    = 100 * time.Millisecond
	)
	samples := openLoop(time.Now().Add(time.Millisecond), interval, 20, 1, func(i int) error {
		if i == 5 {
			time.Sleep(stall)
		}
		return nil
	})
	if got := samples[5].latency(); got < stall {
		t.Fatalf("stalled op latency %v, want >= %v", got, stall)
	}
	// Op 6 was due one interval after op 5 started; it waited out the rest
	// of the stall.
	for i := 6; i <= 10; i++ {
		want := stall - time.Duration(i-5)*interval
		if got := samples[i].latency(); got < want {
			t.Errorf("op %d latency %v, want >= %v", i, got, want)
		}
		if got := samples[i].late(); got < want {
			t.Errorf("op %d sent %v late, want >= %v", i, got, want)
		}
	}
	// Once the backlog drains, ops run on schedule again.
	if got := samples[19].late(); got > stall/2 {
		t.Errorf("op 19 still %v late after the backlog drained", got)
	}
}

// An operation whose sender sat idle until its due time and woke late is
// timed from the send: the lateness is the generator's timer, not the
// system. One whose sender was busy past its due time is timed from due.
func TestLatencyFromChargesOnlyQueueing(t *testing.T) {
	due := time.Now()
	start := due.Add(700 * time.Microsecond)
	if got := latencyFrom(due, due.Add(-time.Millisecond), start); !got.Equal(start) {
		t.Errorf("idle sender: latency from %v, want the send time", got.Sub(due))
	}
	if got := latencyFrom(due, due.Add(time.Millisecond), start); !got.Equal(due) {
		t.Errorf("busy sender: latency from %v after due, want the due time", got.Sub(due))
	}
}

func TestClosedLoopStopsAtDeadline(t *testing.T) {
	start := time.Now()
	samples := closedLoop(start.Add(30*time.Millisecond), 2, func(int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	for _, s := range samples {
		if s.start.After(start.Add(30 * time.Millisecond)) {
			t.Fatalf("operation started after the deadline")
		}
		if s.latency() != s.end.Sub(s.start) {
			t.Fatalf("closed-loop latency must run from send time")
		}
	}
}

func TestZipfSequenceDeterministicPerSeed(t *testing.T) {
	a := zipfSequence(7, 8192, 5000, 1.1)
	b := zipfSequence(7, 8192, 5000, 1.1)
	c := zipfSequence(8, 8192, 5000, 1.1)
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave different sequences")
	}
	if slices.Equal(a, c) {
		t.Fatal("different seeds gave the same sequence")
	}
	counts := make(map[int32]int)
	for _, v := range a {
		if v < 0 || v >= 8192 {
			t.Fatalf("index %d out of range", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[100] {
		t.Errorf("not Zipf-shaped: head %d, index 100 %d", counts[0], counts[100])
	}
	if !slices.Equal(population(3, 50), population(3, 50)) {
		t.Fatal("same seed gave different plan populations")
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(20), End: ms(50)},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: ms(90), End: ms(120)}, // runs past root
		{ID: 5, Parent: 3, Name: "d", Start: ms(25), End: ms(35)},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: ms(50), 2: ms(20), 3: ms(20), 4: ms(30), 5: ms(10)} {
		if self[id] != want {
			t.Errorf("self(%d) = %v, want %v", id, self[id], want)
		}
	}
}

func TestSpansLinkThroughContext(t *testing.T) {
	tr := newTracer()
	ctx, root := tr.begin(context.Background(), "httpapi.serve")
	_, child := tr.begin(ctx, "attack.exec.count")
	child.end()
	root.end()
	spans := tr.finished()
	if len(spans) != 2 || spans[0].Parent != spans[1].ID || spans[1].Parent != 0 {
		t.Fatalf("spans not linked: %+v", spans)
	}
	var none *tracer
	_, sp := none.begin(context.Background(), "x")
	sp.end() // a nil tracer records nothing and must not panic
}

// Only the Table 4 and JointAttacks rankings may differ, and only by a
// row showing the same values in the same place.
func TestCompareReportsToleratesOnlyTies(t *testing.T) {
	joint := func(edit func(j *core.JointStats)) core.JointStats {
		j := core.JointStats{
			CommonTargets: 40, JointTargets: 12,
			TopASNs: []core.ASShare{
				{ASN: 1, Name: "A", Share: 0.5}, {ASN: 2, Name: "B", Share: 0.25}, {ASN: 3, Name: "C", Share: 0.25},
			},
			TopCountries: []core.CountryRow{
				{Country: "US", Targets: 6, Share: 0.5}, {Country: "CN", Targets: 3, Share: 0.25},
			},
		}
		if edit != nil {
			edit(&j)
		}
		return j
	}
	countries := func(edit func(r []core.CountryRow)) []core.CountryRow {
		r := []core.CountryRow{
			{Country: "US", Targets: 400, Share: 0.4}, {Country: "RU", Targets: 144, Share: 0.144},
			{Country: "FR", Targets: 144, Share: 0.144}, {Country: "Other", Targets: 312, Share: 0.312},
		}
		if edit != nil {
			edit(r)
		}
		return r
	}
	mix := []core.MixRow{{Label: "NTP", Events: 5, Share: 0.5}, {Label: "DNS", Events: 5, Share: 0.5}}
	web := core.WebImpact{SitesEverAttacked: 1000, AliveSites: 4000, AttackedFraction: 0.25}
	render := func(c []core.CountryRow, m []core.MixRow, j core.JointStats, w core.WebImpact) string {
		return report.Table4("a (telescope)", c) + "\n" + report.Mix("Table 6", m) + "\n" +
			report.Joint(j) + "\n" + report.WebImpact(w) + "\nFigure 1\n  telescope ▁▂▃ avg=2.0/day\n"
	}
	want := render(countries(nil), mix, joint(nil), web)
	cases := []struct {
		name     string
		got      string
		tiesOnly bool
	}{
		{"equal Table 4 rows swapped", render(countries(func(r []core.CountryRow) {
			r[1], r[2] = r[2], r[1]
		}), mix, joint(nil), web), true},
		{"a Table 4 count changed under the same share", render(countries(func(r []core.CountryRow) {
			r[2].Targets = 145
		}), mix, joint(nil), web), false},
		{"equal rows of a deterministic table swapped",
			render(countries(nil), []core.MixRow{mix[1], mix[0]}, joint(nil), web), false},
		{"equal-share ASNs swapped", render(countries(nil), mix, joint(func(j *core.JointStats) {
			j.TopASNs[1], j.TopASNs[2] = j.TopASNs[2], j.TopASNs[1]
		}), web), true},
		{"another country at the cut with the same share", render(countries(nil), mix, joint(func(j *core.JointStats) {
			j.TopCountries[1] = core.CountryRow{Country: "DE", Targets: 3, Share: 0.25}
		}), web), true},
		{"a ranking share changed", render(countries(nil), mix, joint(func(j *core.JointStats) {
			j.TopASNs[2].Share = 0.24
		}), web), false},
		{"ranking rows out of share order", render(countries(nil), mix, joint(func(j *core.JointStats) {
			j.TopASNs[0], j.TopASNs[1] = j.TopASNs[1], j.TopASNs[0]
		}), web), false},
		{"a joint count changed", render(countries(nil), mix, joint(func(j *core.JointStats) { j.JointTargets++ }), web), false},
		{"a count changed under the same percentage", render(countries(nil), mix, joint(nil),
			core.WebImpact{SitesEverAttacked: 1001, AliveSites: 4000, AttackedFraction: 0.25}), false},
		{"a series changed under the same average",
			strings.Replace(want, "▁▂▃", "▃▂▁", 1), false},
	}
	if exact, ties := compareReports(want, want); !exact || ties {
		t.Error("identical reports must compare exact")
	}
	for _, c := range cases {
		if exact, ties := compareReports(want, c.got); exact || ties != c.tiesOnly {
			t.Errorf("%s: exact %v, ties only %v; want ties only %v", c.name, exact, ties, c.tiesOnly)
		}
	}
}

// BENCHMARK.json must declare exactly the metrics and workloads the
// program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var progNames []string
	for _, w := range workloads {
		progNames = append(progNames, w.name)
	}
	if !slices.Equal(names, progNames) {
		t.Errorf("workloads %v in BENCHMARK.json, %v in the program", names, progNames)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, prog []metricDef) {
		if len(declared) != len(prog) {
			t.Errorf("%s: %d metrics declared, %d reported", kind, len(declared), len(prog))
			return
		}
		for i, d := range declared {
			if d.Name != prog[i].name || d.Unit != prog[i].unit {
				t.Errorf("%s[%d]: declared %s %s, reported %s %s", kind, i, d.Name, d.Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
