package core

import (
	"sort"

	"doscope/internal/attack"
	"doscope/internal/ipmeta"
	"doscope/internal/netx"
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

// JointAttacks computes the §4 joint-attack analysis over the by-target
// groupings of both stores.
func (ds *Dataset) JointAttacks() JointStats {
	telBy := ds.Telescope.Query().GroupByTarget()
	hpBy := ds.Honeypot.Query().GroupByTarget()

	var st JointStats
	jointTargets := make(map[netx.Addr]bool)
	var jointTel, jointHp []*attack.Event
	for target, tEvs := range telBy {
		hEvs, ok := hpBy[target]
		if !ok {
			continue
		}
		st.CommonTargets++
		overlap := false
		for _, te := range tEvs {
			for _, he := range hEvs {
				if te.Overlaps(he) {
					overlap = true
					jointTel = append(jointTel, te)
					jointHp = append(jointHp, he)
				}
			}
		}
		if overlap {
			st.JointTargets++
			jointTargets[target] = true
		}
	}

	// Telescope-side attribute shifts over co-participating events.
	single, withPorts := 0, 0
	http, tcpSingle := 0, 0
	p27015, udpSingle := 0, 0
	seenTel := make(map[*attack.Event]bool)
	for _, e := range jointTel {
		if seenTel[e] {
			continue
		}
		seenTel[e] = true
		if len(e.Ports) == 0 {
			continue
		}
		withPorts++
		if e.SinglePort() {
			single++
			switch e.Vector {
			case attack.VectorTCP:
				tcpSingle++
				if attack.WebPort(e.Ports[0]) && e.Ports[0] != 443 {
					http++
				}
			case attack.VectorUDP:
				udpSingle++
				if e.Ports[0] == 27015 {
					p27015++
				}
			}
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

	// Honeypot-side vector shifts.
	seenHp := make(map[*attack.Event]bool)
	ntp, chargen, hpTotal := 0, 0, 0
	for _, e := range jointHp {
		if seenHp[e] {
			continue
		}
		seenHp[e] = true
		hpTotal++
		switch e.Vector {
		case attack.VectorNTP:
			ntp++
		case attack.VectorCharGen:
			chargen++
		}
	}
	if hpTotal > 0 {
		st.NTPShare = float64(ntp) / float64(hpTotal)
		st.CharGenShare = float64(chargen) / float64(hpTotal)
	}

	// Joint-target AS and country rankings.
	if ds.Plan != nil {
		asCounts := make(map[uint32]int)
		ccCounts := make(map[string]int)
		for target := range jointTargets {
			if asn, ok := ds.Plan.ASOf(target); ok {
				asCounts[uint32(asn)]++
			}
			if cc, ok := ds.Plan.CountryOf(target); ok {
				ccCounts[cc.String()]++
			}
		}
		total := float64(len(jointTargets))
		for asn, n := range asCounts {
			name := ""
			if as, ok := ds.Plan.ASByNum(ipmeta.ASN(asn)); ok {
				name = as.Name
			}
			st.TopASNs = append(st.TopASNs, ASShare{ASN: asn, Name: name, Share: float64(n) / total})
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
