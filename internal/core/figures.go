package core

import (
	"cmp"
	"slices"

	"doscope/internal/attack"
	"doscope/internal/stats"
)

// DailyPanel is one panel of Figure 1 (or Figure 5): per-day counts of
// attacks, unique targets, targeted /16 blocks, and targeted ASNs.
type DailyPanel struct {
	Attacks  []float64
	Targets  []float64
	Slash16s []float64
	ASNs     []float64
}

func newDailyPanel(days int) *DailyPanel {
	return &DailyPanel{
		Attacks:  make([]float64, days),
		Targets:  make([]float64, days),
		Slash16s: make([]float64, days),
		ASNs:     make([]float64, days),
	}
}

// dailyPanels computes the per-source and combined daily panels of the
// digest's events, or of its medium+ events only, indexed by
// attack.Source with the combined panel last. Distinct targets, /16s
// and ASNs are counted per day with one stamp per key, indexed by the
// key's dense id: the day it was last counted and the bitmask of the
// sources that have counted it that day, so one stamp serves the event's
// own panel and the combined one. Events arrive in start order, so a day
// is over once a later one begins.
func (ds *Dataset) dailyPanels(mediumOnly bool) [attack.NumSources + 1]*DailyPanel {
	var panels [attack.NumSources + 1]*DailyPanel
	for i := range panels {
		panels[i] = newDailyPanel(ds.WindowDays)
	}
	comb := panels[attack.NumSources]
	d := ds.digest()
	targets, s16, asns := make([]dayStamp, len(d.targets)), make([]dayStamp, d.n16), make([]dayStamp, len(d.asns))
	for i := range d.events {
		e := &d.events[i]
		if e.day < 0 || int(e.day) >= ds.WindowDays || mediumOnly && !d.medium(e) {
			continue
		}
		own, bit := panels[e.src], uint8(1)<<e.src
		own.Attacks[e.day]++
		comb.Attacks[e.day]++
		t := &d.targets[e.tid]
		targets[e.tid].count(bit, e.day, own.Targets, comb.Targets)
		s16[t.s16].count(bit, e.day, own.Slash16s, comb.Slash16s)
		if t.asn >= 0 {
			asns[t.asn].count(bit, e.day, own.ASNs, comb.ASNs)
		}
	}
	return panels
}

// dayStamp records which sources have counted a key on its last day.
type dayStamp struct {
	day  int32 // 1 + the day; 0 before the key is first counted
	bits uint8
}

// count counts the key on day in the series of the source with bit
// unless that source has counted it already, and in the combined series
// unless any source has.
func (s *dayStamp) count(bit uint8, day int32, own, comb []float64) {
	if s.day != day+1 {
		s.day, s.bits = day+1, 0
	}
	if s.bits&bit != 0 {
		return
	}
	if s.bits == 0 {
		comb[day]++
	}
	s.bits |= bit
	own[day]++
}

// Figure1 reproduces the three panels of Figure 1: daily attack and target
// counts for the telescope, honeypot, and combined data sets, computed in
// one pass over the start-ordered events.
func (ds *Dataset) Figure1() (tel, hp, combined *DailyPanel) {
	p := ds.dailyPanels(false)
	return p[attack.SourceTelescope], p[attack.SourceHoneypot], p[attack.NumSources]
}

// DurationCDF summarizes one data set's duration distribution (Figure 2).
type DurationCDF struct {
	Source  string
	CDF     *stats.CDF
	MeanSec float64
	P50Sec  float64
	P90Sec  float64
	Over1h  float64
	Over24h float64
}

// Figure2 reproduces Figure 2: duration distributions per data set.
func (ds *Dataset) Figure2() (tel, hp DurationCDF) {
	d := ds.digest()
	var durs [attack.NumSources][]float64
	for src := range durs {
		durs[src] = make([]float64, 0, len(d.sorted[src]))
	}
	for _, e := range d.events {
		durs[e.src] = append(durs[e.src], float64(e.end-e.start))
	}
	build := func(name string, durs []float64) DurationCDF {
		stats.SortFloat64s(durs)
		c := stats.SortedCDF(durs)
		return DurationCDF{
			Source: name, CDF: c,
			MeanSec: c.Mean(), P50Sec: c.Median(), P90Sec: c.Quantile(0.9),
			Over1h: 1 - c.At(3600), Over24h: 1 - c.At(86400),
		}
	}
	return build("Telescope", durs[attack.SourceTelescope]), build("Honeypot", durs[attack.SourceHoneypot])
}

// IntensityCDF summarizes an intensity distribution (Figures 3 and 4).
type IntensityCDF struct {
	Label  string
	CDF    *stats.CDF
	Mean   float64
	Median float64
}

// Figure3 reproduces Figure 3: the telescope intensity distribution
// (maximum packets per second observed at the telescope).
func (ds *Dataset) Figure3() IntensityCDF {
	c := stats.SortedCDF(ds.digest().sorted[attack.SourceTelescope])
	return IntensityCDF{Label: "Telescope (max pps)", CDF: c, Mean: c.Mean(), Median: c.Median()}
}

// Figure4 reproduces Figure 4: honeypot request-rate distributions,
// overall and for the top five reflection protocols.
func (ds *Dataset) Figure4() []IntensityCDF {
	d := ds.digest()
	var n [attack.NumVectors]int
	for _, e := range d.events {
		if e.src == attack.SourceHoneypot && int(e.vec) < attack.NumVectors {
			n[e.vec]++
		}
	}
	var byVec [attack.NumVectors][]float64
	for v := range byVec {
		byVec[v] = make([]float64, 0, n[v])
	}
	for _, e := range d.events {
		if e.src == attack.SourceHoneypot && int(e.vec) < attack.NumVectors {
			byVec[e.vec] = append(byVec[e.vec], e.intensity)
		}
	}
	out := []IntensityCDF{}
	c := stats.SortedCDF(d.sorted[attack.SourceHoneypot])
	out = append(out, IntensityCDF{Label: "Overall", CDF: c, Mean: c.Mean(), Median: c.Median()})
	for _, v := range []attack.Vector{attack.VectorNTP, attack.VectorDNS, attack.VectorCharGen, attack.VectorSSDP, attack.VectorRIPv1} {
		stats.SortFloat64s(byVec[v])
		c := stats.SortedCDF(byVec[v])
		out = append(out, IntensityCDF{Label: v.String(), CDF: c, Mean: c.Mean(), Median: c.Median()})
	}
	return out
}

// Figure5 reproduces Figure 5: the daily series restricted to events of
// medium or higher intensity (>= the mean intensity of the data set),
// both data sets combined.
func (ds *Dataset) Figure5() *DailyPanel {
	return ds.dailyPanels(true)[attack.NumSources]
}

// Figure6 reproduces Figure 6: the histogram of Web sites co-hosted on
// attacked IP addresses (each unique attacked Web-hosting IP contributes
// its co-hosting count at the time of its first attack).
func (ds *Dataset) Figure6() *stats.LogHistogram {
	j := ds.webJoinResult()
	return stats.NewLogHistogram(j.cohost)
}

// Figure7Result is the Figure 7 Web-impact time series.
type Figure7Result struct {
	// DailySites is the number of distinct Web sites on attacked IPs per
	// day; DailyMedium restricts to medium+ intensity events.
	DailySites  []float64
	DailyMedium []float64
	// SmoothedPct is the monthly-median cubic-spline smoothed percentage
	// of all measured Web sites (the paper's black curve).
	SmoothedPct []float64
	// Peaks are the four largest days.
	PeakDays   []int
	PeakValues []float64
}

// Figure7 reproduces Figure 7.
func (ds *Dataset) Figure7() Figure7Result {
	j := ds.webJoinResult()
	res := Figure7Result{
		DailySites:  j.dailyAll.Values,
		DailyMedium: j.dailyMed.Values,
	}
	smoothed := j.dailyAll.MonthlyMedianSpline()
	res.SmoothedPct = make([]float64, len(smoothed))
	if j.aliveSites > 0 {
		for i, v := range smoothed {
			res.SmoothedPct[i] = 100 * v / float64(j.aliveSites)
		}
	}
	// Extract the four highest peak days.
	type peak struct {
		day int
		v   float64
	}
	var peaks []peak
	for d, v := range j.dailyAll.Values {
		peaks = append(peaks, peak{d, v})
	}
	slices.SortFunc(peaks, func(a, b peak) int {
		if c := cmp.Compare(b.v, a.v); c != 0 {
			return c
		}
		return cmp.Compare(a.day, b.day) // deterministic tie-break
	})
	for i := 0; i < 4 && i < len(peaks); i++ {
		res.PeakDays = append(res.PeakDays, peaks[i].day)
		res.PeakValues = append(res.PeakValues, peaks[i].v)
	}
	return res
}

// TargetsIn24s returns unique attacked /24 blocks across both data sets
// (the "one third of the Internet" headline, §4).
func (ds *Dataset) TargetsIn24s() int {
	return ds.digest().n24
}
