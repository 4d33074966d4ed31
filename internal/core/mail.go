package core

import (
	"cmp"
	"slices"

	"doscope/internal/netx"
)

// MailIndex answers which domains' mail (MX target) is handled at an
// address on a day. webmodel.Population implements it; the §8 extension
// of the measurement platform ("query for more DNS RRs on the names found
// in MX records") would populate the same interface from wire data.
type MailIndex interface {
	// MailSlot returns a non-negative slot for an address that serves
	// mail and -1 for one that does not. It is called once per address.
	MailSlot(addr netx.Addr) int32
	// MailDomains returns the domains whose mail the address of slot
	// handles on day. Equal arguments give equal lists; the caller does
	// not modify them.
	MailDomains(slot int32, day int) []uint32
}

// MailImpact summarizes the §8 extension: the effect of attacks on mail
// infrastructure.
type MailImpact struct {
	// DomainsEverAffected counts domains whose MX resolved to an attacked
	// IP at attack time at least once.
	DomainsEverAffected int
	// Fraction over the measured namespace.
	Fraction float64
	// DailyAvg is the mean number of domains with attacked mail per day.
	DailyAvg float64
	// AttackedMailIPs counts distinct attacked addresses serving mail.
	AttackedMailIPs int
	// TopClusters lists the largest attacked mail clusters by affected
	// domain count.
	TopClusters []MailCluster
}

// MailCluster is one attacked mail-serving address.
type MailCluster struct {
	Addr    netx.Addr
	Domains int
	Events  int
}

// MailImpactStats computes the mail-infrastructure analysis; it needs a
// MailIndex (MailIdx) and a History.
func (ds *Dataset) MailImpactStats() MailImpact {
	var m MailImpact
	if ds.MailIdx == nil || ds.History == nil {
		return m
	}
	nd := ds.History.NumDomains()
	// Per domain, 1 + the last day it was counted in daily and 1 + the
	// first cluster it was counted in; 0 means never.
	type domainSeen struct{ day, cluster int32 }
	seen := make([]domainSeen, nd)
	daily := make([]float64, ds.WindowDays)
	dig := ds.digest()
	var clusters []MailCluster
	// A domain counts toward its first cluster when first seen; visits to
	// any other cluster are collected as (cluster, domain) pairs and
	// counted once each after removing duplicates.
	var others []uint64
	// Per target: its mail slot, looked up once, so that an event on an
	// address serving no mail (most of them) costs one array read; 1 +
	// the index of its cluster in clusters, 0 if it has none yet; and 1 +
	// the last day its domains were visited, 0 if never. A second visit
	// on one day would change nothing but the cluster's event count: the
	// domains already carry the day's stamp and a cluster, and the
	// (cluster, domain) pairs it would add again are removed below.
	type mailTarget struct{ slot, cluster, day int32 }
	tgts := make([]mailTarget, len(dig.targets))
	for tid, t := range dig.targets {
		tgts[tid].slot = ds.MailIdx.MailSlot(t.addr)
	}
	// Start order across both stores keeps days from going backwards, so
	// the per-domain last-day stamp counts each (domain, day) pair once.
	for _, e := range dig.events {
		t, day := &tgts[e.tid], e.day
		if t.slot < 0 || day < 0 || int(day) >= ds.WindowDays {
			continue
		}
		if t.day == day+1 {
			clusters[t.cluster-1].Events++
			continue
		}
		ids := ds.MailIdx.MailDomains(t.slot, int(day))
		if len(ids) == 0 {
			continue
		}
		if t.cluster == 0 {
			clusters = append(clusters, MailCluster{Addr: dig.targets[e.tid].addr})
			t.cluster = int32(len(clusters))
		}
		t.day = day + 1
		ci := t.cluster - 1
		clusters[ci].Events++
		for _, id := range ids {
			d := &seen[id]
			switch d.cluster {
			case 0:
				d.cluster = ci + 1
				clusters[ci].Domains++
			case ci + 1:
			default:
				others = append(others, uint64(ci)<<32|uint64(id))
			}
			if d.day != day+1 {
				d.day = day + 1
				daily[day]++
			}
		}
	}
	alive := 0
	for id, d := range seen {
		if d.cluster != 0 {
			m.DomainsEverAffected++
		}
		if len(ds.History.Segments[id]) > 0 {
			alive++
		}
	}
	if alive > 0 {
		m.Fraction = float64(m.DomainsEverAffected) / float64(alive)
	}
	var sum float64
	for _, v := range daily {
		sum += v
	}
	m.DailyAvg = sum / float64(len(daily))
	slices.Sort(others)
	for _, p := range slices.Compact(others) {
		clusters[p>>32].Domains++
	}
	m.AttackedMailIPs = len(clusters)
	slices.SortFunc(clusters, func(a, b MailCluster) int {
		if c := cmp.Compare(b.Domains, a.Domains); c != 0 {
			return c
		}
		return cmp.Compare(a.Addr, b.Addr)
	})
	m.TopClusters = clusters[:min(len(clusters), 5)]
	return m
}
