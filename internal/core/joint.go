package core

import (
	"sort"

	"doscope/internal/attack"
)

// JointStats reproduces the §4 joint-attack correlation: targets hit by
// both randomly spoofed and reflection attacks, and how attack attributes
// shift when attacks are combined.
type JointStats struct {
	CommonTargets int // targets in both data sets
	JointTargets  int // targets with time-overlapping attacks

	// Telescope-side shifts for events co-participating in joint attacks.
	SinglePortShare float64 // 60.6% -> 77.1%
	HTTPShare       float64 // share of HTTP among single-port TCP (50.23%)
	Port27015Share  float64 // share of 27015 among single-port UDP (53%)

	// Honeypot-side shifts.
	NTPShare     float64 // 40.08% -> 47.0%
	CharGenShare float64 // 22.37% -> 11.5%

	// Joint-target rankings.
	TopASNs      []ASShare
	TopCountries []CountryRow
}

// ASShare is one row of the joint-target AS ranking.
type ASShare struct {
	ASN   uint32
	Name  string
	Share float64
}

// JointAttacks computes the §4 joint-attack analysis. A target's events
// are one run of the digest's by-target grouping, so the targets of
// both data sets and their overlapping attacks come from one walk over
// those runs.
func (ds *Dataset) JointAttacks() JointStats {
	d := ds.digest()
	var st JointStats
	var jointTargets []int32
	single, withPorts := 0, 0
	http, tcpSingle := 0, 0
	p27015, udpSingle := 0, 0
	ntp, chargen, hpTotal := 0, 0, 0
	for tid, t := range d.targets {
		if t.srcs != 1<<attack.SourceTelescope|1<<attack.SourceHoneypot {
			continue
		}
		st.CommonTargets++
		run := d.byTarget[d.toff[tid]:d.toff[tid+1]]
		joint := false
		// Each event co-participates in a joint attack if it overlaps an
		// event of the other data set on the same target.
		for _, i := range run {
			e := &d.events[i]
			if !overlapsOther(d, run, e) {
				continue
			}
			joint = true
			if e.src == attack.SourceHoneypot {
				// Honeypot-side vector shifts.
				hpTotal++
				switch e.vec {
				case attack.VectorNTP:
					ntp++
				case attack.VectorCharGen:
					chargen++
				}
				continue
			}
			// Telescope-side attribute shifts.
			if e.nports == 0 {
				continue
			}
			withPorts++
			if e.nports == 1 {
				single++
				switch e.vec {
				case attack.VectorTCP:
					tcpSingle++
					if attack.WebPort(e.port) && e.port != 443 {
						http++
					}
				case attack.VectorUDP:
					udpSingle++
					if e.port == 27015 {
						p27015++
					}
				}
			}
		}
		if joint {
			st.JointTargets++
			jointTargets = append(jointTargets, int32(tid))
		}
	}
	if withPorts > 0 {
		st.SinglePortShare = float64(single) / float64(withPorts)
	}
	if tcpSingle > 0 {
		st.HTTPShare = float64(http) / float64(tcpSingle)
	}
	if udpSingle > 0 {
		st.Port27015Share = float64(p27015) / float64(udpSingle)
	}
	if hpTotal > 0 {
		st.NTPShare = float64(ntp) / float64(hpTotal)
		st.CharGenShare = float64(chargen) / float64(hpTotal)
	}

	// Joint-target AS and country rankings.
	if ds.Plan != nil {
		asCounts := make([]int, len(d.asns))
		ccCounts := make(map[string]int)
		for _, tid := range jointTargets {
			t := &d.targets[tid]
			if t.asn >= 0 {
				asCounts[t.asn]++
			}
			if cc, ok := ds.Plan.CountryOf(t.addr); ok {
				ccCounts[cc.String()]++
			}
		}
		total := float64(len(jointTargets))
		for id, n := range asCounts {
			if n == 0 {
				continue
			}
			asn := d.asns[id]
			name := ""
			if as, ok := ds.Plan.ASByNum(asn); ok {
				name = as.Name
			}
			st.TopASNs = append(st.TopASNs, ASShare{ASN: uint32(asn), Name: name, Share: float64(n) / total})
		}
		sort.Slice(st.TopASNs, func(i, j int) bool {
			a, b := st.TopASNs[i], st.TopASNs[j]
			if a.Share != b.Share {
				return a.Share > b.Share
			}
			return a.ASN < b.ASN
		})
		if len(st.TopASNs) > 5 {
			st.TopASNs = st.TopASNs[:5]
		}
		for cc, n := range ccCounts {
			st.TopCountries = append(st.TopCountries, CountryRow{Country: cc, Targets: n, Share: float64(n) / total})
		}
		sortCountries(st.TopCountries)
		if len(st.TopCountries) > 5 {
			st.TopCountries = st.TopCountries[:5]
		}
	}
	return st
}

// overlapsOther reports whether e overlaps in time an event of the
// other data set in run, the events of e's target in start order.
func overlapsOther(d *digest, run []int32, e *devent) bool {
	for _, k := range run {
		o := &d.events[k]
		if o.start > e.end {
			return false // so do all later events
		}
		if o.src != e.src && e.start <= o.end {
			return true
		}
	}
	return false
}
