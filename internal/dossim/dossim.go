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
	// (20.9 k events, 210 k domains); keep at or below ~0.01 on a laptop.
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
			sc.Telescope, sc.Honeypot = eventsFromPlan(cfg, sc.Planned)
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
// same acceptance rules the packet-level classifiers enforce.
func eventsFromPlan(cfg Config, planned []PlannedAttack) (tel, hp *attack.Store) {
	telCfg := telescope.DefaultConfig(cfg.Darknet)
	hpCfg := amppot.DefaultConfig()
	// Accumulate per-sensor batches and build each store with one
	// AddBatch: per-event Add now publishes a fresh store view every
	// call, which is pure overhead while the stores are still private.
	var telEvs, hpEvs []attack.Event
	for i := range planned {
		pa := &planned[i]
		if pa.Dataset == attack.SourceTelescope {
			packets := uint64(pa.Intensity * float64(pa.Duration) * 0.4)
			if packets < telCfg.MinPackets {
				packets = telCfg.MinPackets
			}
			if !telCfg.Accept(packets, pa.Duration, pa.Intensity) {
				continue
			}
			telEvs = append(telEvs, attack.Event{
				Source: attack.SourceTelescope, Vector: pa.Vector,
				Target: pa.Target, Start: pa.Start, End: pa.End(),
				Packets: packets, Bytes: packets * 60,
				MaxPPS: pa.Intensity, Ports: pa.Ports,
			})
			continue
		}
		requests := uint64(pa.Intensity * float64(pa.Duration))
		if requests <= hpCfg.MinRequests {
			requests = hpCfg.MinRequests + 1
		}
		if !hpCfg.Accept(requests) {
			continue
		}
		dur := pa.Duration
		if dur > hpCfg.MaxEventDuration {
			dur = hpCfg.MaxEventDuration
		}
		if dur < 1 {
			dur = 1
		}
		hpEvs = append(hpEvs, attack.Event{
			Source: attack.SourceHoneypot, Vector: pa.Vector,
			Target: pa.Target, Start: pa.Start, End: pa.Start + dur,
			Packets: requests, Bytes: requests * 40,
			AvgRPS: float64(requests) / float64(dur),
		})
	}
	return attack.NewStore(telEvs), attack.NewStore(hpEvs)
}

// computeExposures aggregates attacks per Web-hosting IP and joins them to
// the sites hosted there, producing the inputs of the migration model in
// domain id order.
func computeExposures(sc *Scenario) []webmodel.AttackExposure {
	// Percentile-normalize intensities within each data set (§6, Table 9).
	telInt := make([]float64, 0, sc.Telescope.Len())
	for e := range sc.Telescope.Query().Iter() {
		telInt = append(telInt, e.MaxPPS)
	}
	hpInt := make([]float64, 0, sc.Honeypot.Len())
	for e := range sc.Honeypot.Query().Iter() {
		hpInt = append(hpInt, e.AvgRPS)
	}
	stats.SortFloat64s(telInt)
	stats.SortFloat64s(hpInt)
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
	consider := func(target netx.Addr, day int, pct float64, dur int64) {
		if !sc.Web.HostsAnySite(target) {
			return
		}
		a := aggs[target]
		if a == nil {
			a = &ipAgg{firstDay: day}
			aggs[target] = a
		}
		if day < a.firstDay {
			a.firstDay = day
		}
		if pct > a.maxPct {
			a.maxPct = pct
		}
		if dur > a.longest {
			a.longest = dur
		}
	}
	for e := range sc.Telescope.Query().Iter() {
		consider(e.Target, e.Day(), pctOf(telInt, e.MaxPPS), e.Duration())
	}
	for e := range sc.Honeypot.Query().Iter() {
		consider(e.Target, e.Day(), pctOf(hpInt, e.AvgRPS), e.Duration())
	}

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
