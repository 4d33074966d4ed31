package core

import (
	"sort"

	"doscope/internal/attack"
	"doscope/internal/netx"
	"doscope/internal/stats"
)

// siteAgg is one Web site's attack aggregates in the §5 join, kept
// together so that visiting a site touches one cache line.
type siteAgg struct {
	attacks  int32 // attacks on the site's address while it was hosted there
	firstDay int32 // day of the first of them; -1 if none
	// adoption is the first day the site was seen behind a DPS, for
	// sites not protected from their first observation; -1 if none.
	adoption int32
	// lastBefore is the latest attack day before adoption; -1 if none.
	lastBefore int32
	// dayAll and dayMed are the last days the site was counted in the
	// daily series (all and medium+ events); -1 if never.
	dayAll, dayMed int32
	maxNorm        float64 // max linearly normalized intensity over the attacks
	longestHp      int64   // longest honeypot attack duration, seconds
}

// webJoin is the §5 join between attack events and the DNS measurement
// history: per-site attack aggregates and the daily Web-impact series,
// computed in a single pass over the fused, time-ordered event stream.
type webJoin struct {
	sites []siteAgg // indexed by domain id
	// siteNorm is the maxNorm of every attacked site, ascending: Table 9's
	// distribution and the §6 site-percentile basis.
	siteNorm []float64

	// Daily unique sites on attacked addresses (all and medium+ events).
	dailyAll *stats.Daily
	dailyMed *stats.Daily

	// Figure 6: per unique attacked Web-hosting IP, the co-hosting count
	// at the time of its first attack.
	cohost []int
	// Unique target addresses across both data sets.
	uniqueTargets int
	// Sites with at least one observed segment (the measured namespace).
	aliveSites int
}

// webJoinResult computes the attack x DNS join once per store version:
// Figure5/Figure6/Figure7 chained in one run share the result, and an
// Add to either attack store (which bumps Store.Version) invalidates it.
func (ds *Dataset) webJoinResult() *webJoin {
	ds.refreshCaches()
	if ds.join != nil {
		return ds.join
	}
	rev := ds.reverseIndex()
	nd := 0
	if ds.History != nil {
		nd = ds.History.NumDomains()
	}
	j := &webJoin{
		sites:    make([]siteAgg, nd),
		dailyAll: stats.NewDaily(ds.WindowDays),
		dailyMed: stats.NewDaily(ds.WindowDays),
	}
	ds.join = j
	if nd == 0 {
		return j
	}
	for id := range j.sites {
		s := &j.sites[id]
		s.firstDay, s.adoption, s.lastBefore, s.dayAll, s.dayMed = -1, -1, -1, -1, -1
		if len(ds.History.Segments[id]) > 0 {
			j.aliveSites++
		}
		if day, _, ok := ds.History.FirstProtectedDay(uint32(id)); ok && !ds.History.Preexisting(uint32(id)) {
			s.adoption = int32(day)
		}
	}

	// Normalization constants: intensities scale linearly onto [0,1]
	// within their own data set (Table 9's normalized intensity; linear
	// scaling is what makes the distribution bottom-heavy, with 95% of
	// sites below ~0.07).
	ds.intensityStats()
	telDen, hpDen := 1.0, 1.0
	if n := len(ds.telPct); n > 0 && ds.telPct[n-1] > 0 {
		telDen = ds.telPct[n-1]
	}
	if n := len(ds.hpPct); n > 0 && ds.hpPct[n-1] > 0 {
		hpDen = ds.hpPct[n-1]
	}

	// cohostDone records, per in-window target, whether its co-hosting
	// count has been taken.
	cohostDone := make(map[netx.Addr]bool)

	// Consume both event streams merged in start-time order (the shard-
	// aligned k-way merge) so the daily stamps are correct.
	for e := range ds.All().IterByStart() {
		day := e.Day()
		if day < 0 || day >= ds.WindowDays {
			continue
		}
		done, ok := cohostDone[e.Target]
		if !ok {
			cohostDone[e.Target] = false
		}
		// What depends on the event alone is computed once per event.
		norm := e.AvgRPS / hpDen
		if e.Source == attack.SourceTelescope {
			norm = e.MaxPPS / telDen
		}
		var hpSecs int64
		if e.Source == attack.SourceHoneypot {
			hpSecs = e.Duration()
		}
		med := ds.MediumPlus(e)
		d := int32(day)
		sites := 0
		rev.ForEachSiteOn(e.Target, day, func(id uint32) {
			sites++
			s := &j.sites[id]
			s.attacks++
			if s.firstDay < 0 || d < s.firstDay {
				s.firstDay = d
			}
			if d < s.adoption && d > s.lastBefore {
				s.lastBefore = d
			}
			if norm > s.maxNorm {
				s.maxNorm = norm
			}
			s.longestHp = max(s.longestHp, hpSecs)
			if s.dayAll != d {
				s.dayAll = d
				j.dailyAll.Add(day, 1)
			}
			if med && s.dayMed != d {
				s.dayMed = d
				j.dailyMed.Add(day, 1)
			}
		})
		if !done && sites > 0 {
			cohostDone[e.Target] = true
			j.cohost = append(j.cohost, sites)
		}
	}
	j.uniqueTargets = len(cohostDone)
	for _, s := range j.sites {
		if s.attacks > 0 {
			j.siteNorm = append(j.siteNorm, s.maxNorm)
		}
	}
	sort.Float64s(j.siteNorm)
	return j
}

// WebImpact summarizes the §5 headline numbers.
type WebImpact struct {
	// SitesEverAttacked is the number of Web sites hosted on an attacked
	// IP at attack time at least once (the paper's 134M / 64%).
	SitesEverAttacked int
	AliveSites        int
	AttackedFraction  float64
	// DailyAvgSites and DailyAvgFraction reproduce the ~4M/day (~3%).
	DailyAvgSites    float64
	DailyAvgFraction float64
	// MediumDailyAvgSites reproduces the 1.7M/day medium+ series.
	MediumDailyAvgSites float64
	// WebTargetIPs is the number of unique target IPs hosting at least
	// one site (572k, ~9% of targets); TotalTargetIPs the 6.34M.
	WebTargetIPs   int
	TotalTargetIPs int
	// TCPShareOnWeb / WebPortShareOnWeb / NTPShareOnWeb reproduce the §5
	// "isolating Web targets" paragraph (93.4%, 87.6%, 54.69%).
	TCPShareOnWeb     float64
	WebPortShareOnWeb float64
	NTPShareOnWeb     float64
}

// WebImpactStats computes the §5 aggregates.
func (ds *Dataset) WebImpactStats() WebImpact {
	j := ds.webJoinResult()
	rev := ds.reverseIndex()
	var w WebImpact
	w.SitesEverAttacked = len(j.siteNorm)
	w.AliveSites = j.aliveSites
	if w.AliveSites > 0 {
		w.AttackedFraction = float64(w.SitesEverAttacked) / float64(w.AliveSites)
	}
	w.DailyAvgSites = j.dailyAll.Mean()
	if w.AliveSites > 0 {
		w.DailyAvgFraction = w.DailyAvgSites / float64(w.AliveSites)
	}
	w.MediumDailyAvgSites = j.dailyMed.Mean()
	w.WebTargetIPs = len(j.cohost)
	w.TotalTargetIPs = j.uniqueTargets

	tcp, webPort, telWeb := 0, 0, 0
	for e := range ds.Telescope.Query().Iter() {
		if rev == nil || !rev.HasAddr(e.Target) {
			continue
		}
		telWeb++
		if e.Vector == attack.VectorTCP {
			tcp++
			if e.SinglePort() && attack.WebPort(e.Ports[0]) {
				webPort++
			} else if !e.SinglePort() {
				for _, p := range e.Ports {
					if attack.WebPort(p) {
						webPort++
						break
					}
				}
			}
		}
	}
	if telWeb > 0 {
		w.TCPShareOnWeb = float64(tcp) / float64(telWeb)
		w.WebPortShareOnWeb = float64(webPort) / float64(telWeb)
	}
	ntp, hpWeb := 0, 0
	for e := range ds.Honeypot.Query().Iter() {
		if rev == nil || !rev.HasAddr(e.Target) {
			continue
		}
		hpWeb++
		if e.Vector == attack.VectorNTP {
			ntp++
		}
	}
	if hpWeb > 0 {
		w.NTPShareOnWeb = float64(ntp) / float64(hpWeb)
	}
	return w
}
