package dossim

import (
	"math"
	"math/rand"
	"slices"

	"doscope/internal/attack"
)

// Attribute samplers calibrated to §4 of the paper. Each comment cites the
// statistic being planted.

// logNormal draws exp(N(mu, sigma^2)).
func logNormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*rng.NormFloat64())
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// telescopeDuration: median 454 s, mean 48 min, P90 >= 1.5 h, ~0.2% > 24 h
// (Fig. 2 top). Lognormal(6.118, 1.92) matches all four anchors.
func telescopeDuration(rng *rand.Rand, isWeb bool) int64 {
	if isWeb {
		// Web-port attacks are shorter: mean 10 min, median 240 s.
		return int64(clampF(logNormal(rng, 5.48, 1.3), 60, 7*86400))
	}
	return int64(clampF(logNormal(rng, 6.118, 1.92), 60, 7*86400))
}

// honeypotDuration: median 255 s, mean 18 min, P90 >= 40 min, ~6% >= 1 h,
// ~0.02% at the 24 h cap (Fig. 2 bottom). Lognormal(5.541, 1.70).
func honeypotDuration(rng *rand.Rand) int64 {
	return int64(clampF(logNormal(rng, 5.541, 1.70), 15, 86400))
}

// telescopeIntensity: max backscatter pps at the telescope. ~70% of
// attacks at roughly <= 2 pps, median ~1, mean ~107, tail to tens of
// thousands (Fig. 3). Mixture of a narrow bulk and a heavy tail.
func telescopeIntensity(rng *rand.Rand, isWeb bool) float64 {
	tailP, tailMu := 0.30, 3.5
	if isWeb {
		// Web-port attacks are more intense: mean 226 vs 107 (§4).
		tailP, tailMu = 0.35, 4.4
	}
	var v float64
	if rng.Float64() < tailP {
		v = logNormal(rng, tailMu, 2.2)
	} else {
		v = logNormal(rng, -0.15, 0.55)
	}
	return clampF(v, 0.5, 200000)
}

// honeypotIntensity: average requests/s at the reflectors; median 77,
// mean 413 overall, per-protocol shifts per Fig. 4 (NTP reaches the
// highest rates).
func honeypotIntensity(rng *rand.Rand, vec attack.Vector) float64 {
	mu := 4.34
	switch vec {
	case attack.VectorNTP:
		mu += 0.35
	case attack.VectorCharGen:
		mu += 0.05
	case attack.VectorDNS:
		mu -= 0.05
	case attack.VectorSSDP:
		mu -= 0.50
	case attack.VectorRIPv1:
		mu -= 0.90
	default:
		mu -= 0.30
	}
	return clampF(logNormal(rng, mu, 1.7), 0.2, 500000)
}

// telescopeVector: Table 5 (TCP 79.4%, UDP 15.9%, ICMP 4.5%, other 0.2%);
// Web targets shift to 93.4% TCP (§5).
func telescopeVector(rng *rand.Rand, isWeb bool) attack.Vector {
	x := rng.Float64()
	if isWeb {
		switch {
		case x < 0.934:
			return attack.VectorTCP
		case x < 0.984:
			return attack.VectorUDP
		case x < 0.999:
			return attack.VectorICMP
		default:
			return attack.VectorOtherIP
		}
	}
	switch {
	case x < 0.794:
		return attack.VectorTCP
	case x < 0.794+0.159:
		return attack.VectorUDP
	case x < 0.794+0.159+0.045:
		return attack.VectorICMP
	default:
		return attack.VectorOtherIP
	}
}

// honeypotVector: Table 6 (NTP 40.08%, DNS 26.17%, CharGen 22.37%, SSDP
// 8.38%, RIPv1 2.27%, other 0.73%); Web targets raise NTP to 54.69% (§5);
// joint attacks raise NTP to 47.0% and halve CharGen to 11.5% (§4).
func honeypotVector(rng *rand.Rand, isWeb, joint bool) attack.Vector {
	type vw struct {
		v attack.Vector
		w float64
	}
	var table []vw
	switch {
	case isWeb:
		table = []vw{{attack.VectorNTP, 0.5469}, {attack.VectorDNS, 0.20},
			{attack.VectorCharGen, 0.16}, {attack.VectorSSDP, 0.065},
			{attack.VectorRIPv1, 0.018}, {attack.VectorQOTD, 0.004},
			{attack.VectorMSSQL, 0.004}, {attack.VectorTFTP, 0.0021}}
	case joint:
		table = []vw{{attack.VectorNTP, 0.470}, {attack.VectorDNS, 0.28},
			{attack.VectorCharGen, 0.115}, {attack.VectorSSDP, 0.10},
			{attack.VectorRIPv1, 0.027}, {attack.VectorQOTD, 0.003},
			{attack.VectorMSSQL, 0.003}, {attack.VectorTFTP, 0.002}}
	default:
		table = []vw{{attack.VectorNTP, 0.4008}, {attack.VectorDNS, 0.2617},
			{attack.VectorCharGen, 0.2237}, {attack.VectorSSDP, 0.0838},
			{attack.VectorRIPv1, 0.0227}, {attack.VectorQOTD, 0.003},
			{attack.VectorMSSQL, 0.0025}, {attack.VectorTFTP, 0.0018}}
	}
	x := rng.Float64()
	for _, e := range table {
		if x < e.w {
			return e.v
		}
		x -= e.w
	}
	return attack.VectorNTP
}

// telescopePorts: Table 7 (single-port 60.6%, 77.1% for joint attacks) and
// Table 8 port mixes; Web targets hit Web ports 87.6% of the time (§5).
func telescopePorts(rng *rand.Rand, vec attack.Vector, isWeb, joint bool) []uint16 {
	if vec == attack.VectorICMP || vec == attack.VectorOtherIP {
		return nil
	}
	pSingle := 0.606
	if joint {
		pSingle = 0.771
	}
	if rng.Float64() < pSingle {
		return []uint16{singlePort(rng, vec, isWeb, joint)}
	}
	// Multi-port: a handful of distinct ports.
	n := 2 + rng.Intn(6)
	ports := make([]uint16, 0, n)
	for len(ports) < n {
		var p uint16
		if isWeb && rng.Float64() < 0.6 {
			p = []uint16{80, 443, 8080}[rng.Intn(3)]
		} else {
			p = uint16(1 + rng.Intn(65535))
		}
		if !slices.Contains(ports, p) {
			ports = append(ports, p)
		}
	}
	slices.Sort(ports)
	return ports
}

func singlePort(rng *rand.Rand, vec attack.Vector, isWeb, joint bool) uint16 {
	x := rng.Float64()
	if vec == attack.VectorTCP {
		if isWeb {
			// 87.6% of Web-target events hit Web infrastructure ports.
			switch {
			case x < 0.62:
				return 80
			case x < 0.876:
				return 443
			case x < 0.89:
				return 3306
			case x < 0.90:
				return 22
			default:
				return uint16(1 + rng.Intn(65535))
			}
		}
		pHTTP := 0.4868
		if joint {
			pHTTP = 0.5023 // §4: joint attacks target HTTP slightly more
		}
		switch {
		case x < pHTTP:
			return 80
		case x < pHTTP+0.2068:
			return 443
		case x < pHTTP+0.2068+0.0112:
			return 3306
		case x < pHTTP+0.2068+0.0112+0.0107:
			return 53
		case x < pHTTP+0.2068+0.0112+0.0107+0.0099:
			return 1723
		default:
			// Table 8a "Other": a long tail of services.
			common := []uint16{22, 25, 21, 6667, 3389, 5900, 143, 110, 8080}
			if rng.Float64() < 0.4 {
				return common[rng.Intn(len(common))]
			}
			return uint16(1 + rng.Intn(65535))
		}
	}
	// UDP: Table 8b; joint attacks concentrate on 27015 (53% vs 18.54%).
	p27015 := 0.1854
	if joint {
		p27015 = 0.53
	}
	switch {
	case x < p27015:
		return 27015
	case x < p27015+0.0204:
		return 37547
	case x < p27015+0.0204+0.0141:
		return 32124
	case x < p27015+0.0204+0.0141+0.0139:
		return 28183
	case x < p27015+0.0204+0.0141+0.0139+0.0130:
		return 3306
	default:
		common := []uint16{123, 138, 161, 53, 500, 5060}
		if rng.Float64() < 0.1 {
			return common[rng.Intn(len(common))]
		}
		return uint16(1 + rng.Intn(65535))
	}
}

// drawKTel draws events-per-target for the telescope data set
// (mean ~5.1, matching 12.47M events over 2.45M targets).
func drawKTel(rng *rand.Rand) int {
	x := rng.Float64()
	switch {
	case x < 0.6:
		return 1 + rng.Intn(2)
	case x < 0.9:
		return 1 + geom(rng, 5)
	default:
		return 1 + geom(rng, 24)
	}
}

// drawKHp draws events-per-target for the honeypot data set (mean ~2.0,
// matching 8.43M events over 4.18M targets).
func drawKHp(rng *rand.Rand) int {
	x := rng.Float64()
	switch {
	case x < 0.7:
		return 1
	case x < 0.9:
		return 1 + geom(rng, 2)
	default:
		return 1 + geom(rng, 6)
	}
}

func geom(rng *rand.Rand, mean float64) int {
	return int(rng.ExpFloat64() * mean)
}

// countryMix is a cumulative sampler over country codes.
type countryMix struct {
	codes []string
	cum   []float64
}

func newCountryMix(pairs []struct {
	cc string
	w  float64
}) *countryMix {
	m := &countryMix{}
	total := 0.0
	for _, p := range pairs {
		total += p.w
		m.codes = append(m.codes, p.cc)
		m.cum = append(m.cum, total)
	}
	return m
}

func (m *countryMix) pick(rng *rand.Rand) string {
	x := rng.Float64() * m.cum[len(m.cum)-1]
	for i, c := range m.cum {
		if x < c {
			return m.codes[i]
		}
	}
	return m.codes[len(m.codes)-1]
}

type ccw = struct {
	cc string
	w  float64
}

// telescopeCountryMix plants Table 4a: US 25.56%, CN 10.47%, RU 5.72%,
// FR 5.14%, DE 4.20%; Japan pushed down to ~25th place.
func telescopeCountryMix() *countryMix {
	return newCountryMix([]ccw{
		{"US", .2456}, {"CN", .1047}, {"RU", .0650}, {"FR", .0330}, {"DE", .0430},
		{"GB", .044}, {"CA", .040}, {"BR", .036}, {"IT", .033}, {"NL", .030},
		{"KR", .029}, {"AU", .027}, {"IN", .026}, {"ES", .024}, {"TR", .022},
		{"PL", .021}, {"SE", .019}, {"MX", .018}, {"TW", .016}, {"CH", .015},
		{"AR", .014}, {"ZA", .012}, {"SG", .010}, {"JP", .004}, {"ZZ", .0377},
	})
}

// honeypotCountryMix plants Table 4b: US 29.50%, CN 9.96%, FR 7.73%,
// GB 6.37%, DE 5.18%; Japan ~14th.
func honeypotCountryMix() *countryMix {
	return newCountryMix([]ccw{
		{"US", .2950}, {"CN", .0996}, {"FR", .0600}, {"GB", .0680}, {"DE", .0560},
		{"CA", .040}, {"RU", .036}, {"BR", .034}, {"NL", .030}, {"IT", .028},
		{"KR", .025}, {"AU", .023}, {"IN", .021}, {"JP", .009}, {"ES", .019},
		{"SE", .016}, {"PL", .015}, {"TR", .014}, {"MX", .013}, {"TW", .011},
		{"CH", .010}, {"AR", .009}, {"ZA", .008}, {"SG", .006}, {"ZZ", .0404},
	})
}

// jointCountryMix shapes the *generic* joint targets so that, combined
// with the Web-hoster joint targets (which are predominantly US and
// OVH/FR), the overall joint-target ranking lands at the paper's §4
// numbers: US first (~24%), CN second (~20%), FR third (~9.5%).
func jointCountryMix() *countryMix {
	return newCountryMix([]ccw{
		{"CN", .400}, {"US", .080}, {"RU", .060}, {"DE", .060}, {"GB", .050},
		{"CA", .030}, {"BR", .030}, {"IT", .025}, {"NL", .025}, {"KR", .020},
		{"AU", .020}, {"IN", .020}, {"ES", .020}, {"TR", .020}, {"PL", .020},
		{"SE", .015}, {"MX", .015}, {"TW", .010}, {"CH", .010}, {"AR", .010},
		{"ZA", .010}, {"SG", .005}, {"JP", .005}, {"ZZ", .040},
	})
}
