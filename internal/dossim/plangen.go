package dossim

import (
	"math"
	"math/rand"

	"doscope/internal/attack"
	"doscope/internal/ipmeta"
	"doscope/internal/netx"
	"doscope/internal/webmodel"
)

// targetRec is one attack target with its planned dataset membership.
type targetRec struct {
	addr  netx.Addr
	pool  int32 // webmodel pool, -1 otherwise
	isWeb bool
	inTel bool
	inHp  bool
	joint bool
	// wide targets (named hoster infrastructure) are attacked in
	// campaigns spread across the whole window rather than clustered
	// around a single home day.
	wide bool
	// mail targets are hoster mail clusters: SMTP-port floods.
	mail       bool
	kTel, kHp  int
	weightBump float64
}

// fig7Peaks plants the four §5 case-study peaks: March 12 2015 (GoDaddy,
// WordPress/Automattic, CenturyLink-routed infrastructure), October 10
// 2015 (Squarespace, OVH, the AWS-hosted reseller), November 4 2016
// (GoDaddy, Wix, Squarespace; high intensity), February 25 2017 (GoDaddy,
// OVH, Network Solutions, EIG).
type peakPool struct {
	name string
	ips  int // how many of the pool's IPs the campaign hits
}

var fig7Peaks = []struct {
	day     int
	pools   []peakPool
	intense bool
}{
	{11, []peakPool{{"GoDaddy", 13}, {"WordPress", 2}, {"CenturyLinkFront", 1}}, false},
	{223, []peakPool{{"Squarespace", 2}, {"OVH", 6}, {"AmazonReseller", 1}}, false},
	{614, []peakPool{{"GoDaddy", 6}, {"Wix", 1}, {"Squarespace", 2}}, true},
	{727, []peakPool{{"GoDaddy", 4}, {"OVH", 5}, {"NetworkSolutions", 2}, {"EIG", 2}}, false},
}

// planAttacks produces the full ground-truth attack schedule.
func planAttacks(rng *rand.Rand, cfg Config, plan *ipmeta.Plan, web *webmodel.Population) []PlannedAttack {
	nTelTargets := scaledInt(fullTelescopeTgts, cfg.Scale, 80)
	nHpTargets := scaledInt(fullHoneypotTgts, cfg.Scale, 80)
	nCommon := scaledInt(fullCommonTargets, cfg.Scale, 16)
	nJoint := scaledInt(fullJointTargets, cfg.Scale, 8)

	days := newDaySampler(rng, cfg.WindowDays)
	webTargets := web.AttackableTargets(cfg.Seed+5, scaledInt(210e3, cfg.Scale, 30))
	mailTargets := web.MailTargets(200)
	// Steps 1-3 add each Web and mail target once, at most nCommon
	// targets in both data sets and at most the per-data-set quotas.
	maxTargets := len(webTargets) + len(mailTargets) + nCommon + nTelTargets + nHpTargets
	seen := make(map[netx.Addr]bool, maxTargets)
	sampler := newAddrSampler(plan, seen)
	targets := make([]targetRec, 0, maxTargets)

	// 1. Web-hosting targets: every attackable hosting IP is attacked at
	// least once over the window (this is what makes 64% of sites land on
	// attacked IPs).
	jointCount, bothCount := 0, 0
	for _, wt := range webTargets {
		rec := targetRec{addr: wt.Addr, pool: wt.Pool, isWeb: true, weightBump: wt.Weight}
		switch {
		case wt.Weight >= 3: // named hoster / front infrastructure
			rec.inTel, rec.inHp = true, true
			rec.joint = rng.Float64() < 0.5
			rec.wide = true
		case wt.Pool >= 0:
			x := rng.Float64()
			switch {
			case x < 0.2:
				rec.inTel, rec.inHp = true, true
				rec.joint = rng.Float64() < 0.45
			case x < 0.7:
				rec.inTel = true
			default:
				rec.inHp = true
			}
		default: // self-hosted single
			x := rng.Float64()
			switch {
			case x < 0.55:
				rec.inTel = true
			case x < 0.9:
				rec.inHp = true
			default:
				rec.inTel, rec.inHp = true, true
				rec.joint = rng.Float64() < 0.3
			}
		}
		if rec.inTel {
			rec.kTel = drawKTel(rng) + int(wt.Weight*(0.5+rng.Float64()))
		}
		if rec.inHp {
			rec.kHp = drawKHp(rng) + int(wt.Weight*(0.25+rng.Float64()/2))
		}
		if rec.inTel && rec.inHp {
			bothCount++
			if rec.joint {
				jointCount++
			}
		}
		seen[rec.addr] = true
		targets = append(targets, rec)
	}

	// 1b. Mail-cluster targets: large hosters' mail servers are frequently
	// attacked (§5/§8 — GoDaddy's e-mail servers serve tens of millions of
	// domains and are regular targets). These are direct SMTP-port floods
	// plus occasional reflection.
	for _, mt := range mailTargets {
		rec := targetRec{addr: mt.Addr, pool: mt.Pool, inTel: true, mail: true}
		rec.kTel = 2 + geom(rng, 3)
		if rng.Float64() < 0.3 {
			rec.inHp = true
			rec.kHp = 1 + geom(rng, 1)
		}
		seen[rec.addr] = true
		targets = append(targets, rec)
	}

	// 2. Non-web "both datasets" targets, with the §4 joint-target AS
	// skew: OVH 12.3%, China Telecom 5.4%, China Unicom 3.1% of joint
	// targets.
	jointMix := jointCountryMix()
	asQuota := []struct {
		name string
		n    int
	}{
		{"OVH", int(0.123 * float64(nCommon))},
		{"China Telecom", int(0.054 * float64(nCommon))},
		{"China Unicom", int(0.031 * float64(nCommon))},
	}
	addBoth := func(addr netx.Addr) {
		rec := targetRec{addr: addr, pool: -1, inTel: true, inHp: true}
		if jointCount < nJoint && rng.Float64() < 0.55 {
			rec.joint = true
			jointCount++
		}
		rec.kTel = drawKTel(rng)
		rec.kHp = drawKHp(rng)
		seen[addr] = true
		targets = append(targets, rec)
		bothCount++
	}
	for _, q := range asQuota {
		asn, ok := plan.ASNByName(q.name)
		if !ok {
			continue
		}
		for i := 0; i < q.n && bothCount < nCommon; i++ {
			addr, ok := genericAddrInAS(rng, plan, asn, seen)
			if !ok {
				break
			}
			addBoth(addr)
		}
	}
	for bothCount < nCommon {
		addr, ok := sampler.pick(rng, jointMix.pick(rng))
		if !ok {
			break
		}
		addBoth(addr)
	}

	// 3. Fill the per-dataset unique-target quotas (Table 1) with
	// single-dataset targets following the Table 4 country mixes.
	telMix := telescopeCountryMix()
	hpMix := honeypotCountryMix()
	telAssigned, hpAssigned := 0, 0
	for _, t := range targets {
		if t.inTel {
			telAssigned++
		}
		if t.inHp {
			hpAssigned++
		}
	}
	for telAssigned < nTelTargets {
		addr, ok := sampler.pick(rng, telMix.pick(rng))
		if !ok {
			break
		}
		seen[addr] = true
		targets = append(targets, targetRec{addr: addr, pool: -1, inTel: true, kTel: drawKTel(rng)})
		telAssigned++
	}
	for hpAssigned < nHpTargets {
		addr, ok := sampler.pick(rng, hpMix.pick(rng))
		if !ok {
			break
		}
		seen[addr] = true
		targets = append(targets, targetRec{addr: addr, pool: -1, inHp: true, kHp: drawKHp(rng)})
		hpAssigned++
	}

	// 4. Schedule events per target. A target takes exactly its kTel and
	// kHp attacks, and steps 5 and 6 add at most one or two per peak IP
	// and two per bulk trigger, so planned is allocated once.
	triggers := web.BulkTriggers()
	n := 2 * len(triggers)
	for _, pk := range fig7Peaks {
		for _, pp := range pk.pools {
			n += pp.ips + (pp.ips+1)/2
		}
	}
	for i := range targets {
		t := &targets[i]
		if t.inTel {
			n += max(t.kTel, 0)
		}
		if t.inHp {
			n += max(t.kHp, 0)
		}
	}
	planned := make([]PlannedAttack, 0, n)
	for i := range targets {
		planned = scheduleTarget(rng, cfg, days, &targets[i], planned)
	}

	// 5. The four Fig. 7 peaks: coordinated multi-IP attacks on large
	// hosters, with the Nov 2016 peak at high intensity (Fig. 5).
	for _, pk := range fig7Peaks {
		if pk.day >= cfg.WindowDays {
			continue
		}
		for _, pp := range pk.pools {
			pool, ok := web.PoolByName(pp.name)
			if !ok {
				continue
			}
			ips := pool.IPs
			if pp.ips < len(ips) {
				ips = ips[:pp.ips]
			}
			for ipIdx, addr := range ips {
				start := attack.DayStart(pk.day) + int64(rng.Intn(40000))
				dur := telescopeDuration(rng, true)
				intensity := telescopeIntensity(rng, true)
				if pk.intense {
					intensity = clampF(intensity*20, 1000, 30000)
				}
				planned = append(planned, PlannedAttack{
					Dataset: attack.SourceTelescope,
					Vector:  attack.VectorTCP, Target: addr,
					Start: start, Duration: dur, Intensity: intensity,
					Ports: []uint16{80}, IsWeb: true, Pool: poolFor(web, pp.name),
				})
				// Half the peak IPs are also hit by joint reflection.
				if ipIdx%2 == 0 {
					hpDur := honeypotDuration(rng)
					hpInt := honeypotIntensity(rng, attack.VectorNTP)
					if pk.intense {
						hpInt = clampF(hpInt*15, 2000, 60000)
					}
					planned = append(planned, PlannedAttack{
						Dataset: attack.SourceHoneypot,
						Vector:  attack.VectorNTP, Target: addr,
						Start: start + int64(rng.Intn(600)), Duration: hpDur,
						Intensity: hpInt, IsWeb: true, Pool: poolFor(web, pp.name),
					})
				}
			}
		}
	}

	// 6. Bulk-migration trigger attacks (Wix: >= 4 h, intense, Nov 4 2016;
	// eNom: long and intense). Durations matter for Fig. 11, which uses
	// honeypot durations only, so the trigger lives in the honeypot set.
	for _, tr := range triggers {
		if tr.Day >= cfg.WindowDays {
			continue
		}
		start := attack.DayStart(tr.Day) + 3600
		dur := tr.MinDurationSec + int64(rng.Intn(7200))
		// The Wix trigger is the most intense reflection attack of the
		// window (its sites form the top intensity percentile of Fig. 10);
		// the eNom trigger is long but modest, so its 101-day migration
		// does not pollute the top band.
		hpIntensity := 600 + rng.Float64()*300
		if tr.PoolName == "Wix" {
			hpIntensity = 120000 + rng.Float64()*40000
		}
		planned = append(planned, PlannedAttack{
			Dataset: attack.SourceHoneypot, Vector: attack.VectorNTP,
			Target: tr.Addr, Start: start, Duration: dur,
			Intensity: hpIntensity,
			IsWeb:     true, Pool: poolFor(web, tr.PoolName),
		})
		planned = append(planned, PlannedAttack{
			Dataset: attack.SourceTelescope, Vector: attack.VectorTCP,
			Target: tr.Addr, Start: start + 300, Duration: dur / 2,
			Intensity: 3000 + rng.Float64()*5000,
			Ports:     []uint16{80}, IsWeb: true, Pool: poolFor(web, tr.PoolName),
		})
	}
	return planned
}

func poolFor(web *webmodel.Population, name string) int32 {
	if _, ok := web.PoolByName(name); !ok {
		return -1
	}
	// PoolByName returns a pointer; recover the index by matching names.
	for i := range web.Pools {
		if web.Pools[i].Name == name {
			return int32(i)
		}
	}
	return -1
}

// scheduleTarget lays the target's events out in time: events cluster on
// campaign days (several same-day repeats), campaigns span a few weeks
// around a home day drawn from the global daily-rate curve.
func scheduleTarget(rng *rand.Rand, cfg Config, days *daySampler, t *targetRec, planned []PlannedAttack) []PlannedAttack {
	home := days.sample(rng)
	// Each set's events are appended contiguously: telescope events are
	// planned[telLo:hpLo], honeypot events planned[hpLo:].
	telLo := len(planned)
	if t.inTel {
		repeat := 1 + geom(rng, 0.8)
		if repeat > 4 {
			repeat = 4
		}
		planned = scheduleSet(rng, cfg, days, t, home, t.kTel, repeat, attack.SourceTelescope, planned)
	}
	hpLo := len(planned)
	if t.inHp {
		repeat := 1 + geom(rng, 0.15)
		if repeat > 3 {
			repeat = 3
		}
		planned = scheduleSet(rng, cfg, days, t, home, t.kHp, repeat, attack.SourceHoneypot, planned)
	}
	// Joint targets get at least one overlapping pair: align one honeypot
	// event inside one telescope event.
	if nTel, nHp := hpLo-telLo, len(planned)-hpLo; t.joint && nTel > 0 && nHp > 0 {
		te := &planned[telLo+rng.Intn(nTel)]
		he := &planned[hpLo+rng.Intn(nHp)]
		span := te.Duration
		if span < 1 {
			span = 1
		}
		he.Start = te.Start + rng.Int63n(span)
	}
	return planned
}

// scheduleSet appends the target's k attacks on one data set to planned.
func scheduleSet(rng *rand.Rand, cfg Config, days *daySampler, t *targetRec, home, k, repeat int, src attack.Source, planned []PlannedAttack) []PlannedAttack {
	if k <= 0 {
		return planned
	}
	m := (k + repeat - 1) / repeat
	for j := 0; j < m; j++ {
		day := home + int(rng.NormFloat64()*21)
		if t.wide {
			day = days.sample(rng)
		}
		if day < 0 {
			day = 0
		}
		if day >= cfg.WindowDays {
			day = cfg.WindowDays - 1
		}
		onDay := repeat
		if j == m-1 {
			onDay = k - repeat*(m-1)
		}
		for e := 0; e < onDay; e++ {
			start := attack.DayStart(day) + int64(rng.Intn(86400))
			var pa PlannedAttack
			if src == attack.SourceTelescope {
				vec := telescopeVector(rng, t.isWeb)
				ports := telescopePorts(rng, vec, t.isWeb, t.joint)
				if t.mail {
					// Mail clusters take SMTP(S)/IMAP floods.
					vec = attack.VectorTCP
					ports = []uint16{25}
					if rng.Float64() < 0.25 {
						ports = []uint16{25, 143, 587}
					}
				}
				pa = PlannedAttack{
					Dataset: src, Vector: vec, Target: t.addr,
					Start: start, Duration: telescopeDuration(rng, t.isWeb),
					Intensity: telescopeIntensity(rng, t.isWeb),
					Ports:     ports,
				}
			} else {
				vec := honeypotVector(rng, t.isWeb, t.joint)
				pa = PlannedAttack{
					Dataset: src, Vector: vec, Target: t.addr,
					Start: start, Duration: honeypotDuration(rng),
					Intensity: honeypotIntensity(rng, vec),
				}
			}
			// A small fraction of attacks on smaller Web hosters are
			// devastating: these sites populate the upper intensity
			// percentiles of §6 and migrate almost immediately (Fig. 10).
			if t.isWeb && !t.wide && rng.Float64() < 0.01 {
				if src == attack.SourceTelescope {
					pa.Intensity = clampF(logNormal(rng, 9.2, 1.0), 5000, 150000)
				} else {
					pa.Intensity = clampF(logNormal(rng, 8.8, 0.8), 2000, 100000)
				}
			}
			pa.IsWeb = t.isWeb
			pa.Pool = t.pool
			planned = append(planned, pa)
		}
	}
	return planned
}

// daySampler draws event days from the global daily-rate curve: a flat
// base with weekly periodicity, mild noise, and slight growth over the
// two years.
type daySampler struct {
	cum []float64
}

func newDaySampler(rng *rand.Rand, windowDays int) *daySampler {
	s := &daySampler{cum: make([]float64, windowDays)}
	total := 0.0
	for d := 0; d < windowDays; d++ {
		w := 1.0 +
			0.15*math.Sin(2*math.Pi*float64(d)/7) +
			0.10*float64(d)/float64(windowDays) +
			0.15*rng.Float64()
		total += w
		s.cum[d] = total
	}
	return s
}

func (s *daySampler) sample(rng *rand.Rand) int {
	x := rng.Float64() * s.cum[len(s.cum)-1]
	lo, hi := 0, len(s.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// addrSampler picks target addresses, reusing already-attacked /24 blocks
// often enough to plant the paper's ~2.9 unique targets per attacked /24
// (6.34M targets in 2.19M blocks, one third of the active /24 space).
type addrSampler struct {
	plan   *ipmeta.Plan
	seen   map[netx.Addr]bool
	used24 map[ipmeta.Country][]netx.Addr
	// reuseP is the probability of landing in an already-attacked block.
	reuseP float64
}

func newAddrSampler(plan *ipmeta.Plan, seen map[netx.Addr]bool) *addrSampler {
	return &addrSampler{
		plan:   plan,
		seen:   seen,
		used24: make(map[ipmeta.Country][]netx.Addr),
		reuseP: 0.65,
	}
}

func (s *addrSampler) pick(rng *rand.Rand, cc string) (netx.Addr, bool) {
	country := ipmeta.CC(cc)
	for tries := 0; tries < 100; tries++ {
		var base netx.Addr
		if blocks := s.used24[country]; len(blocks) > 0 && rng.Float64() < s.reuseP {
			base = blocks[rng.Intn(len(blocks))]
		} else {
			blk, ok := s.plan.RandomActive24(rng, country)
			if !ok {
				return 0, false
			}
			base = blk.Base
			s.used24[country] = append(s.used24[country], base)
		}
		addr := base + netx.Addr(1+rng.Intn(254))
		if !s.seen[addr] {
			return addr, true
		}
	}
	return 0, false
}

func genericAddrInAS(rng *rand.Rand, plan *ipmeta.Plan, asn ipmeta.ASN, seen map[netx.Addr]bool) (netx.Addr, bool) {
	for tries := 0; tries < 100; tries++ {
		blk, ok := plan.RandomActive24InAS(rng, asn)
		if !ok {
			return 0, false
		}
		addr := blk.Base + netx.Addr(1+rng.Intn(254))
		if !seen[addr] {
			return addr, true
		}
	}
	return 0, false
}
