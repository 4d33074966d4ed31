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
	ForEachMailDomainOn(addr netx.Addr, day int, fn func(id uint32))
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

// MailImpactStats computes the mail-infrastructure analysis; the Dataset
// must have been built with a MailIndex (SetMailIndex).
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
	// Per target id, 1 + the index of its cluster in clusters; 0 if it
	// has none yet.
	clusterOf := make([]int32, len(dig.targets))
	var clusters []MailCluster
	// A domain counts toward its first cluster when first seen; visits to
	// any other cluster are collected as (cluster, domain) pairs and
	// counted once each after removing duplicates.
	var others []uint64
	// visit counts one domain of the current event, read through tid,
	// day and ci. It is built once rather than per event: handed to the
	// MailIndex interface, a closure escapes to the heap.
	var tid int32
	var day int
	ci := int32(-1) // the current event's cluster, once it has a domain
	visit := func(id uint32) {
		if ci < 0 {
			if clusterOf[tid] == 0 {
				clusters = append(clusters, MailCluster{Addr: dig.targets[tid].addr})
				clusterOf[tid] = int32(len(clusters))
			}
			ci = clusterOf[tid] - 1
		}
		d := &seen[id]
		switch d.cluster {
		case 0:
			d.cluster = ci + 1
			clusters[ci].Domains++
		case ci + 1:
		default:
			others = append(others, uint64(ci)<<32|uint64(id))
		}
		if d.day != int32(day)+1 {
			d.day = int32(day) + 1
			daily[day]++
		}
	}
	// Start order across both stores keeps days from going backwards, so
	// the per-domain last-day stamp counts each (domain, day) pair once.
	for _, e := range dig.events {
		tid, day, ci = e.tid, int(e.day), -1
		if day < 0 || day >= ds.WindowDays {
			continue
		}
		ds.MailIdx.ForEachMailDomainOn(dig.targets[tid].addr, day, visit)
		if ci >= 0 {
			clusters[ci].Events++
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
