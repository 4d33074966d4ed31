// Package dossim generates the synthetic DoS ecosystem ground truth: two
// years of randomly spoofed and reflection attacks whose marginal
// distributions are calibrated to every statistic the paper reports
// (daily rates, per-target repetition, country mixes, protocol and port
// mixes, duration and intensity tails, joint-attack structure, Web-hoster
// peaks, and the migration behaviour of §6).
//
// The generator emits a list of planned attacks; the event-level path
// converts them directly into sensor events (applying the same acceptance
// filters the classifiers use), while the packet-level path synthesizes
// raw backscatter and reflection traffic and pushes it through the real
// telescope classifier and honeypot fleet. Both paths share the sampling
// code, so their distributions agree by construction.
package dossim

import (
	"fmt"
	"math/rand"
	"sort"

	"doscope/internal/amppot"
	"doscope/internal/attack"
	"doscope/internal/dps"
	"doscope/internal/ipmeta"
	"doscope/internal/netx"
	"doscope/internal/openintel"
	"doscope/internal/stats"
	"doscope/internal/telescope"
	"doscope/internal/webmodel"
)

// Full-scale totals from Table 1, scaled by Config.Scale.
const (
	fullTelescopeEvents = 12.47e6
	fullHoneypotEvents  = 8.43e6
	fullTelescopeTgts   = 2.45e6
	fullHoneypotTgts    = 4.18e6
	fullCommonTargets   = 282e3
	fullJointTargets    = 137e3
)

// Config parameterizes scenario generation.
type Config struct {
	Seed int64
	// Scale multiplies the paper's full-scale totals. Default 0.001
	// (20.9 k events, 210 k domains). At 0.01 (203 k events, 2.1 M
	// domains) Generate with the default Plan and Web takes about 1.8 s
	// on a 2-vCPU host and leaves 256 MB of live heap (peak RSS
	// 330-390 MB), the Web model most of it; both grow about linearly
	// with Scale.
	Scale float64
	// WindowDays defaults to the paper's 731.
	WindowDays int
	// Plan and Web, when nil, are built with sizes matched to Scale.
	Plan *ipmeta.Plan
	Web  *webmodel.Population
	// PacketLevel routes planned attacks through the real telescope
	// classifier and honeypot fleet instead of constructing events
	// directly. Quadratically more expensive; intended for Scale <= 1e-5
	// equivalents (tests, examples).
	PacketLevel bool
	// Telescope and Honeypot, when both non-nil, are used as the
	// measured attack data sets directly (e.g. stores mmap'd from a
	// DOSEVT02 segment cache): attack planning and event synthesis are
	// skipped entirely and Scenario.Planned stays nil, while the Web
	// model (exposures, migrations, History) is still derived from the
	// provided events.
	Telescope *attack.Store
	Honeypot  *attack.Store
	// Telescope darknet used by both paths.
	Darknet netx.Prefix
}

func (c *Config) applyDefaults() {
	if c.Scale == 0 {
		c.Scale = 0.001
	}
	if c.WindowDays == 0 {
		c.WindowDays = attack.WindowDays
	}
	if c.Darknet == (netx.Prefix{}) {
		c.Darknet = netx.MustParsePrefix("44.0.0.0/8")
	}
}

// Scenario is a fully generated world plus the sensor-observed data sets.
type Scenario struct {
	Cfg  Config
	Plan *ipmeta.Plan
	Web  *webmodel.Population
	// Planned is the ground truth (before sensor filtering).
	Planned []PlannedAttack
	// Telescope and Honeypot are the measured attack-event data sets.
	Telescope *attack.Store
	Honeypot  *attack.Store
	// History is the OpenINTEL-equivalent DNS measurement data set,
	// derived after migrations were applied.
	History *openintel.History
	// Exposures record the per-domain attack summaries that drove
	// migration decisions (ground truth for validating §6 analyses).
	Exposures []webmodel.AttackExposure
}

// PlannedAttack is one ground-truth attack the generator scheduled.
type PlannedAttack struct {
	Dataset  attack.Source
	Vector   attack.Vector
	Target   netx.Addr
	Start    int64
	Duration int64
	// Intensity is max backscatter pps at the telescope for direct
	// attacks, or the average reflector request rate for reflection
	// attacks.
	Intensity float64
	Ports     []uint16
	IsWeb     bool
	Pool      int32 // webmodel pool index, -1 otherwise
}

// End returns the planned end time.
func (p *PlannedAttack) End() int64 { return p.Start + p.Duration }

// Generate builds the world, plans all attacks, runs them through the
// sensors, applies migrations, and derives the DNS measurement history.
func Generate(cfg Config) (*Scenario, error) {
	cfg.applyDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	plan := cfg.Plan
	if plan == nil {
		// Grow the address space only once the default /16s would be
		// more than half active, so smaller scales keep their plan.
		n24, n16 := scaledInt(6.5e6, cfg.Scale, 500), 0
		if n24 > ipmeta.DefaultSixteens*256/2 {
			n16 = (2*n24 + 255) / 256
		}
		var err error
		plan, err = ipmeta.BuildPlan(ipmeta.PlanConfig{
			Seed:        cfg.Seed + 1,
			NumSixteens: n16,
			NumActive24: n24,
			Telescope:   cfg.Darknet,
		})
		if err != nil {
			return nil, fmt.Errorf("dossim: building plan: %w", err)
		}
	}
	web := cfg.Web
	if web == nil {
		var err error
		web, err = webmodel.Build(webmodel.Config{
			Seed:       cfg.Seed + 2,
			NumDomains: scaledInt(webmodel.FullScaleDomains, cfg.Scale, 2000),
			Plan:       plan,
			WindowDays: cfg.WindowDays,
		}, nil)
		if err != nil {
			return nil, fmt.Errorf("dossim: building web model: %w", err)
		}
	}

	if err := web.BuildMail(cfg.Seed + 7); err != nil {
		return nil, fmt.Errorf("dossim: building mail model: %w", err)
	}
	sc := &Scenario{Cfg: cfg, Plan: plan, Web: web}
	if cfg.Telescope != nil && cfg.Honeypot != nil {
		// Pre-captured stores: skip planning and synthesis, the
		// dominant cost the segment cache exists to avoid.
		sc.Telescope, sc.Honeypot = cfg.Telescope, cfg.Honeypot
	} else {
		sc.Planned = planAttacks(rng, cfg, plan, web)
		if cfg.PacketLevel {
			tel, hp, err := runPacketLevel(cfg, sc.Planned)
			if err != nil {
				return nil, err
			}
			sc.Telescope, sc.Honeypot = tel, hp
		} else {
			tel, hp := eventsFromPlan(cfg, sc.Planned)
			sc.Telescope, sc.Honeypot = attack.NewStore(tel), attack.NewStore(hp)
		}
	}

	sc.Exposures = computeExposures(sc)
	web.ApplyMigrations(cfg.Seed+3, sc.Exposures)
	det := dps.NewDetector(plan)
	sc.History = openintel.FromWebModel(web, det, cfg.WindowDays)
	return sc, nil
}

func scaledInt(full, scale float64, min int) int {
	n := int(full * scale)
	if n < min {
		n = min
	}
	return n
}

// eventsFromPlan converts planned attacks into sensor events, applying the
// same acceptance rules the packet-level classifiers enforce. Each list
// is in plan order, which is the stores' physical row order.
func eventsFromPlan(cfg Config, planned []PlannedAttack) (tel, hp []attack.Event) {
	telCfg := telescope.DefaultConfig(cfg.Darknet)
	hpCfg := amppot.DefaultConfig()
	// Count the accepted attacks first so each list is allocated once.
	nTel, nHp := 0, 0
	for i := range planned {
		pa := &planned[i]
		if pa.Dataset == attack.SourceTelescope {
			if _, ok := telPackets(telCfg, pa); ok {
				nTel++
			}
		} else if _, ok := hpRequests(hpCfg, pa); ok {
			nHp++
		}
	}
	tel, hp = make([]attack.Event, 0, nTel), make([]attack.Event, 0, nHp)
	for i := range planned {
		pa := &planned[i]
		if pa.Dataset == attack.SourceTelescope {
			packets, ok := telPackets(telCfg, pa)
			if !ok {
				continue
			}
			tel = append(tel, attack.Event{
				Source: attack.SourceTelescope, Vector: pa.Vector,
				Target: pa.Target, Start: pa.Start, End: pa.End(),
				Packets: packets, Bytes: packets * 60,
				MaxPPS: pa.Intensity, Ports: pa.Ports,
			})
			continue
		}
		requests, ok := hpRequests(hpCfg, pa)
		if !ok {
			continue
		}
		dur := pa.Duration
		if dur > hpCfg.MaxEventDuration {
			dur = hpCfg.MaxEventDuration
		}
		if dur < 1 {
			dur = 1
		}
		hp = append(hp, attack.Event{
			Source: attack.SourceHoneypot, Vector: pa.Vector,
			Target: pa.Target, Start: pa.Start, End: pa.Start + dur,
			Packets: requests, Bytes: requests * 40,
			AvgRPS: float64(requests) / float64(dur),
		})
	}
	return tel, hp
}

// telPackets returns the backscatter packets the telescope counts for a
// direct attack, and whether its classifier accepts the event.
func telPackets(cfg telescope.Config, pa *PlannedAttack) (uint64, bool) {
	packets := uint64(pa.Intensity * float64(pa.Duration) * 0.4)
	if packets < cfg.MinPackets {
		packets = cfg.MinPackets
	}
	return packets, cfg.Accept(packets, pa.Duration, pa.Intensity)
}

// hpRequests returns the requests the honeypots log for a reflection
// attack, and whether the fleet accepts the event.
func hpRequests(cfg amppot.Config, pa *PlannedAttack) (uint64, bool) {
	requests := uint64(pa.Intensity * float64(pa.Duration))
	if requests <= cfg.MinRequests {
		requests = cfg.MinRequests + 1
	}
	return requests, cfg.Accept(requests)
}

// computeExposures aggregates attacks per Web-hosting IP and joins them to
// the sites hosted there, producing the inputs of the migration model in
// domain id order.
func computeExposures(sc *Scenario) []webmodel.AttackExposure {
	// One pass over each store collects every intensity, the population
	// the percentiles are taken over (§6, Table 9), and the attacks on
	// addresses that host a site, the only ones ranked.
	type hit struct {
		target netx.Addr
		day    int
		v      float64
		dur    int64
	}
	collect := func(st *attack.Store, intensity func(*attack.Event) float64) (sorted []float64, hits []hit) {
		sorted = make([]float64, 0, st.Len())
		for e := range st.Query().Iter() {
			v := intensity(e)
			sorted = append(sorted, v)
			if sc.Web.HostsAnySite(e.Target) {
				hits = append(hits, hit{target: e.Target, day: e.Day(), v: v, dur: e.Duration()})
			}
		}
		stats.SortFloat64s(sorted)
		return sorted, hits
	}
	telInt, telHits := collect(sc.Telescope, func(e *attack.Event) float64 { return e.MaxPPS })
	hpInt, hpHits := collect(sc.Honeypot, func(e *attack.Event) float64 { return e.AvgRPS })
	pctOf := func(sorted []float64, v float64) float64 {
		if len(sorted) < 2 {
			return 1
		}
		i := sort.SearchFloat64s(sorted, v)
		return float64(i) / float64(len(sorted)-1)
	}

	type ipAgg struct {
		firstDay int
		maxPct   float64
		longest  int64
	}
	aggs := make(map[netx.Addr]*ipAgg)
	consider := func(sorted []float64, hits []hit) {
		for _, h := range hits {
			pct := pctOf(sorted, h.v)
			a := aggs[h.target]
			if a == nil {
				a = &ipAgg{firstDay: h.day}
				aggs[h.target] = a
			}
			if h.day < a.firstDay {
				a.firstDay = h.day
			}
			if pct > a.maxPct {
				a.maxPct = pct
			}
			if h.dur > a.longest {
				a.longest = h.dur
			}
		}
	}
	consider(telInt, telHits)
	consider(hpInt, hpHits)

	// Join forward, in id order: a domain is exposed by the first attack
	// on the address it was born on, if it is alive and still there then.
	var exposures []webmodel.AttackExposure
	for id := range sc.Web.Domains {
		birth := int(sc.Web.Domains[id].BirthDay)
		addr := sc.Web.AddrOf(uint32(id), birth)
		agg := aggs[addr]
		if agg == nil || agg.firstDay < birth || sc.Web.AddrOf(uint32(id), agg.firstDay) != addr {
			continue
		}
		exposures = append(exposures, webmodel.AttackExposure{
			Domain:       uint32(id),
			FirstDay:     agg.firstDay,
			IntensityPct: agg.maxPct,
			LongestSecs:  agg.longest,
		})
	}
	return exposures
}
