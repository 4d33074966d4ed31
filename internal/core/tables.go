package core

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"doscope/internal/attack"
	"doscope/internal/dps"
	"doscope/internal/stats"
	"doscope/internal/webmodel"
)

// Table1Row summarizes one attack-event data set (Table 1).
type Table1Row struct {
	Source   string
	Events   int
	Targets  int
	Slash24s int
	Slash16s int
	ASNs     int
}

// Table1 reproduces Table 1: events, unique targets, /24s, /16s and ASNs
// per data set and combined. The combined counts are the sizes of the
// unions of the two data sets' sets.
func (ds *Dataset) Table1() []Table1Row {
	d := ds.digest()
	// One source bitmask per distinct target, /24, /16 and AS, by dense id.
	tgt, s24, s16, asns := make([]uint8, len(d.targets)), make([]uint8, d.n24), make([]uint8, d.n16), make([]uint8, len(d.asns))
	for i, t := range d.targets {
		tgt[i] = t.srcs
		s24[t.s24] |= t.srcs
		s16[t.s16] |= t.srcs
		if t.asn >= 0 {
			asns[t.asn] |= t.srcs
		}
	}
	nt, n24, n16, nas := countBySource(tgt), countBySource(s24), countBySource(s16), countBySource(asns)
	names := [...]string{"Network Telescope", "Amplification Honeypot", "Combined"}
	events := [...]int{ds.Telescope.Len(), ds.Honeypot.Len(), ds.Telescope.Len() + ds.Honeypot.Len()}
	rows := make([]Table1Row, len(names))
	for i := range rows {
		rows[i] = Table1Row{Source: names[i], Events: events[i], Targets: nt[i], Slash24s: n24[i], Slash16s: n16[i], ASNs: nas[i]}
	}
	return rows
}

// countBySource counts the keys whose source bitmask has each source's
// bit, and last the keys with any bit.
func countBySource(masks []uint8) (n [attack.NumSources + 1]int) {
	for _, m := range masks {
		for src := range attack.NumSources {
			if m&(1<<src) != 0 {
				n[src]++
			}
		}
		if m != 0 {
			n[attack.NumSources]++
		}
	}
	return n
}

// Table2Row summarizes the DNS data set for one TLD (Table 2).
type Table2Row struct {
	TLD        string
	WebSites   int
	DataPoints uint64
}

// Table2 reproduces Table 2 from the measurement history: Web sites and
// collected data points per gTLD.
func (ds *Dataset) Table2() []Table2Row {
	rows := make([]Table2Row, webmodel.NumTLDs+1)
	for i := 0; i < webmodel.NumTLDs; i++ {
		rows[i].TLD = "." + webmodel.TLD(i).String()
	}
	rows[webmodel.NumTLDs].TLD = "Combined"
	if ds.History == nil {
		return rows
	}
	for id := 0; id < ds.History.NumDomains(); id++ {
		t := int(ds.History.TLD[id])
		var dp uint64
		for _, s := range ds.History.Segments[id] {
			dp += uint64(s.To-s.From+1) * 2
		}
		if len(ds.History.Segments[id]) > 0 {
			rows[t].WebSites++
			rows[t].DataPoints += dp
		}
	}
	for i := 0; i < webmodel.NumTLDs; i++ {
		rows[webmodel.NumTLDs].WebSites += rows[i].WebSites
		rows[webmodel.NumTLDs].DataPoints += rows[i].DataPoints
	}
	return rows
}

// Table3Row counts the Web sites using one DPS provider (Table 3).
type Table3Row struct {
	Provider string
	WebSites int
}

// Table3 reproduces Table 3: for each provider, the number of Web sites
// observed using it at any point of the window.
func (ds *Dataset) Table3() []Table3Row {
	counts := make(map[dps.Provider]int)
	if ds.History != nil {
		for id := 0; id < ds.History.NumDomains(); id++ {
			seenProv := map[dps.Provider]bool{}
			for _, s := range ds.History.Segments[id] {
				if s.Provider != dps.None && !seenProv[s.Provider] {
					seenProv[s.Provider] = true
					counts[s.Provider]++
				}
			}
		}
	}
	var rows []Table3Row
	for _, p := range dps.All() {
		rows = append(rows, Table3Row{Provider: p.String(), WebSites: counts[p]})
	}
	return rows
}

// CountryRow is one row of Table 4.
type CountryRow struct {
	Country string
	Targets int
	Share   float64
}

// Table4 reproduces Table 4: unique targets per country for one data set,
// top-n rows plus an "Other" aggregate.
func (ds *Dataset) Table4(src attack.Source, topN int) []CountryRow {
	if ds.Plan == nil {
		return nil
	}
	counts := make(map[string]int)
	total := 0
	for _, t := range ds.digest().targets {
		if t.srcs&(1<<src) == 0 {
			continue
		}
		cc, ok := ds.Plan.CountryOf(t.addr)
		name := "??"
		if ok {
			name = cc.String()
		}
		counts[name]++
		total++
	}
	var rows []CountryRow
	for cc, n := range counts {
		rows = append(rows, CountryRow{Country: cc, Targets: n, Share: float64(n) / float64(total)})
	}
	sortCountries(rows)
	if len(rows) <= topN {
		return rows
	}
	other := CountryRow{Country: "Other"}
	for _, r := range rows[topN:] {
		other.Targets += r.Targets
		other.Share += r.Share
	}
	return append(rows[:topN:topN], other)
}

// sortCountries orders country rows by target count, descending, ties
// broken by country code so the order does not depend on map iteration.
func sortCountries(rows []CountryRow) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Targets != rows[j].Targets {
			return rows[i].Targets > rows[j].Targets
		}
		return rows[i].Country < rows[j].Country
	})
}

// MixRow is a share of a categorical distribution (Tables 5-7).
type MixRow struct {
	Label  string
	Events int
	Share  float64
}

// Table5 reproduces Table 5: the IP protocol distribution of randomly
// spoofed attacks, answered entirely from the count index.
func (ds *Dataset) Table5() []MixRow {
	counts := ds.Telescope.Query().CountByVector()
	total := ds.Telescope.Len()
	labels := []string{"TCP", "UDP", "ICMP", "Other"}
	rows := make([]MixRow, 4)
	for i := range rows {
		rows[i] = MixRow{Label: labels[i], Events: counts[i], Share: float64(counts[i]) / float64(total)}
	}
	return rows
}

// Table6 reproduces Table 6: the reflection protocol distribution, top 5
// plus Other, answered entirely from the count index.
func (ds *Dataset) Table6() []MixRow {
	counts := ds.Honeypot.Query().CountByVector()
	total := ds.Honeypot.Len()
	var rows []MixRow
	for v := attack.Vector(0); int(v) < attack.NumVectors; v++ {
		if n := counts[v]; n > 0 {
			rows = append(rows, MixRow{Label: v.String(), Events: n, Share: float64(n) / float64(total)})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Events > rows[j].Events })
	if len(rows) > 5 {
		other := MixRow{Label: "Other"}
		for _, r := range rows[5:] {
			other.Events += r.Events
			other.Share += r.Share
		}
		rows = append(rows[:5:5], other)
	}
	return rows
}

// Table7 reproduces Table 7: single- vs multi-port randomly spoofed
// attacks (events without port information, e.g. ICMP floods, are
// excluded, as in the paper's TCP/UDP port analysis).
func (ds *Dataset) Table7() []MixRow {
	type agg struct{ single, multi int }
	a := attack.Fold(ds.Telescope.Query(),
		func() agg { return agg{} },
		func(a agg, e *attack.Event) agg {
			switch {
			case len(e.Ports) == 0:
			case e.SinglePort():
				a.single++
			default:
				a.multi++
			}
			return a
		},
		func(a, b agg) agg { return agg{a.single + b.single, a.multi + b.multi} })
	total := a.single + a.multi
	return []MixRow{
		{Label: "single-port", Events: a.single, Share: float64(a.single) / float64(total)},
		{Label: "multi-port", Events: a.multi, Share: float64(a.multi) / float64(total)},
	}
}

// Table8 reproduces Table 8: the top-5 targeted services among single-port
// attacks of the given transport protocol, plus Other.
func (ds *Dataset) Table8(vec attack.Vector, topN int) []MixRow {
	var ports []uint16
	for _, e := range ds.digest().events {
		if e.src == attack.SourceTelescope && e.vec == vec && e.nports == 1 {
			ports = append(ports, e.port)
		}
	}
	slices.Sort(ports)
	counts := make(map[string]int)
	for i := 0; i < len(ports); {
		n := 1
		for i+n < len(ports) && ports[i+n] == ports[i] {
			n++
		}
		counts[attack.ServiceName(vec, ports[i])] += n
		i += n
	}
	total := len(ports)
	var rows []MixRow
	for svc, n := range counts {
		rows = append(rows, MixRow{Label: svc, Events: n, Share: float64(n) / float64(total)})
	}
	slices.SortFunc(rows, func(a, b MixRow) int {
		if c := cmp.Compare(b.Events, a.Events); c != 0 {
			return c
		}
		return strings.Compare(a.Label, b.Label)
	})
	if len(rows) > topN {
		other := MixRow{Label: "Other"}
		for _, r := range rows[topN:] {
			other.Events += r.Events
			other.Share += r.Share
		}
		rows = append(rows[:topN:topN], other)
	}
	return rows
}

// Table9Result gives the normalized attack intensity at selected
// percentiles of the attacked-Web-site distribution (Table 9).
type Table9Result struct {
	Percentiles []float64
	Intensity   []float64
}

// Table9 reproduces Table 9. Per attacked Web site the highest normalized
// intensity over its attacks is used; intensities are log-normalized onto
// [0,1] within their own data set, and for sites attacked in both data
// sets the higher value wins (as in the paper).
func (ds *Dataset) Table9() Table9Result {
	cdf := stats.SortedCDF(ds.webJoinResult().siteNorm)
	ps := []float64{11.1, 50, 95, 97.5, 99, 99.9, 100}
	res := Table9Result{Percentiles: ps}
	for _, p := range ps {
		res.Intensity = append(res.Intensity, cdf.Quantile(p/100))
	}
	return res
}
