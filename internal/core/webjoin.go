package core

import (
	"cmp"
	"math"
	"slices"

	"doscope/internal/attack"
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
	maxNorm    float64 // max linearly normalized intensity over the attacks
	longestHp  int64   // longest honeypot attack duration, seconds
}

// webJoin is the §5 join between attack events and the DNS measurement
// history: per-site attack aggregates and the daily Web-impact series,
// computed in one pass over the digest's by-target event runs.
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
	rev := ds.History.ReverseIndex()
	for id := range j.sites {
		s := &j.sites[id]
		s.firstDay, s.adoption, s.lastBefore = -1, -1, -1
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
	d := ds.digest()
	var den [attack.NumSources]float64
	for src, s := range d.sorted {
		den[src] = 1
		if n := len(s); n > 0 && s[n-1] > 0 {
			den[src] = s[n-1]
		}
	}

	// The join runs target by target. A target's in-window events
	// collapse into one group per attack day, and each of the address's
	// hostings takes the groups of the days it covers: a site is on one
	// address per day, so its daily-series stamps need no other state.
	// cover counts, per group, the hostings that cover it, as a
	// difference array; a sentinel group closes the list.
	var groups []dayGroup
	var cover []int
	// Figure 6 counts each Web-hosting target at its first attack that
	// hit a site, in start order: the event index orders the entries.
	type firstHit struct {
		event int32
		sites int
	}
	var hits []firstHit
	for tid, t := range d.targets {
		events := d.byTarget[d.toff[tid]:d.toff[tid+1]]
		hostings := rev.Hostings(t.slot)
		if len(hostings) == 0 {
			// Most targets host no site: they only count as targets.
			for _, i := range events {
				if day := d.events[i].day; day >= 0 && int(day) < ds.WindowDays {
					j.uniqueTargets++
					break
				}
			}
			continue
		}
		groups = groups[:0]
		attacks := int32(0)
		for _, i := range events {
			e := &d.events[i]
			if e.day < 0 || int(e.day) >= ds.WindowDays {
				continue
			}
			if n := len(groups); n == 0 || groups[n-1].day != e.day {
				groups = append(groups, dayGroup{day: e.day, first: i, before: attacks})
			}
			g := &groups[len(groups)-1]
			attacks++
			if norm := e.intensity / den[e.src]; norm > g.maxNorm {
				g.maxNorm = norm
			}
			if e.src == attack.SourceHoneypot {
				g.longestHp = max(g.longestHp, e.end-e.start)
			}
			g.medium = g.medium || d.medium(e)
		}
		if len(groups) == 0 {
			continue
		}
		j.uniqueTargets++
		groups = append(groups, dayGroup{day: math.MaxInt32, before: attacks})
		suffixMaxima(groups)
		cover = slices.Grow(cover[:0], len(groups))[:len(groups)]
		clear(cover)
		for _, h := range hostings {
			a, b := dayAtLeast(groups, h.From), dayAtLeast(groups, h.To+1)
			if a == b {
				continue
			}
			cover[a]++
			cover[b]--
			s := &j.sites[h.ID]
			s.attacks += groups[b].before - groups[a].before
			if s.firstDay < 0 || groups[a].day < s.firstDay {
				s.firstDay = groups[a].day
			}
			if s.adoption > groups[a].day {
				if k := a + dayAtLeast(groups[a:b], s.adoption); groups[k-1].day > s.lastBefore {
					s.lastBefore = groups[k-1].day
				}
			}
			maxNorm, longestHp := groups[a].restNorm, groups[a].restHp
			if b < len(groups)-1 {
				// Most hostings last to the end of the window, where the
				// maxima over the rest answer; the others take a loop.
				maxNorm, longestHp = 0, 0
				for _, g := range groups[a:b] {
					if g.maxNorm > maxNorm {
						maxNorm = g.maxNorm
					}
					longestHp = max(longestHp, g.longestHp)
				}
			}
			if maxNorm > s.maxNorm {
				s.maxNorm = maxNorm
			}
			s.longestHp = max(s.longestHp, longestHp)
		}
		sites, hit := 0, false
		for k, g := range groups[:len(groups)-1] {
			if sites += cover[k]; sites == 0 {
				continue
			}
			if !hit {
				hit = true
				hits = append(hits, firstHit{g.first, sites})
			}
			j.dailyAll.Add(int(g.day), float64(sites))
			if g.medium {
				j.dailyMed.Add(int(g.day), float64(sites))
			}
		}
	}
	slices.SortFunc(hits, func(a, b firstHit) int { return cmp.Compare(a.event, b.event) })
	for _, h := range hits {
		j.cohost = append(j.cohost, h.sites)
	}
	attacked := 0
	for _, s := range j.sites {
		if s.attacks > 0 {
			attacked++
		}
	}
	j.siteNorm = make([]float64, 0, attacked)
	for _, s := range j.sites {
		if s.attacks > 0 {
			j.siteNorm = append(j.siteNorm, s.maxNorm)
		}
	}
	stats.SortFloat64s(j.siteNorm)
	return j
}

// dayGroup is one attack day of one target in the §5 join: the
// aggregates of the target's in-window events that began that day.
type dayGroup struct {
	day       int32
	first     int32 // digest index of the day's first event
	before    int32 // the target's attacks on earlier days
	medium    bool  // some event is of medium or higher intensity
	maxNorm   float64
	longestHp int64 // longest honeypot attack, seconds
	// restNorm and restHp are maxNorm and longestHp over this and all
	// later groups.
	restNorm float64
	restHp   int64
}

// suffixMaxima sets each group's restNorm and restHp, the maxima over it
// and all later groups.
func suffixMaxima(groups []dayGroup) {
	var norm float64
	var hp int64
	for k := len(groups) - 1; k >= 0; k-- {
		g := &groups[k]
		if g.maxNorm > norm {
			norm = g.maxNorm
		}
		hp = max(hp, g.longestHp)
		g.restNorm, g.restHp = norm, hp
	}
}

// dayAtLeast returns the index of the first group whose day is at least
// day, in groups ordered by day.
func dayAtLeast(groups []dayGroup, day int32) int {
	lo, hi := 0, len(groups)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if groups[m].day < day {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
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
	ntp, hpWeb := 0, 0
	d := ds.digest()
	for _, e := range d.events {
		if d.targets[e.tid].slot < 0 {
			continue
		}
		if e.src == attack.SourceTelescope {
			telWeb++
			if e.vec == attack.VectorTCP {
				tcp++
				if e.web {
					webPort++
				}
			}
			continue
		}
		hpWeb++
		if e.vec == attack.VectorNTP {
			ntp++
		}
	}
	if telWeb > 0 {
		w.TCPShareOnWeb = float64(tcp) / float64(telWeb)
		w.WebPortShareOnWeb = float64(webPort) / float64(telWeb)
	}
	if hpWeb > 0 {
		w.NTPShareOnWeb = float64(ntp) / float64(hpWeb)
	}
	return w
}
