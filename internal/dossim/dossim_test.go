package dossim

import (
	"math"
	"sync"
	"testing"

	"doscope/internal/attack"
	"doscope/internal/ipmeta"
	"doscope/internal/netx"
	"doscope/internal/stats"
)

var (
	scOnce sync.Once
	scDef  *Scenario
	scErr  error
)

// defaultScenario generates the 1/1000-scale scenario once for all tests.
func defaultScenario(t testing.TB) *Scenario {
	t.Helper()
	scOnce.Do(func() {
		scDef, scErr = Generate(Config{Seed: 42})
	})
	if scErr != nil {
		t.Fatal(scErr)
	}
	return scDef
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / want
}

func TestTable1Shapes(t *testing.T) {
	sc := defaultScenario(t)
	telEvents := float64(sc.Telescope.Len())
	hpEvents := float64(sc.Honeypot.Len())
	if relErr(telEvents, 12470) > 0.25 {
		t.Errorf("telescope events = %.0f, want ~12470 (Table 1 scaled)", telEvents)
	}
	if relErr(hpEvents, 8430) > 0.25 {
		t.Errorf("honeypot events = %.0f, want ~8430", hpEvents)
	}
	telTargets := float64(sc.Telescope.Query().CountDistinctTargets())
	hpTargets := float64(sc.Honeypot.Query().CountDistinctTargets())
	if relErr(telTargets, 2450) > 0.2 {
		t.Errorf("telescope targets = %.0f, want ~2450", telTargets)
	}
	if relErr(hpTargets, 4180) > 0.2 {
		t.Errorf("honeypot targets = %.0f, want ~4180", hpTargets)
	}
	// Combined unique targets and the one-third-of-the-Internet headline.
	seen := make(map[netx.Addr]struct{})
	for _, e := range sc.Telescope.Events() {
		seen[e.Target] = struct{}{}
	}
	telOnly := len(seen)
	common := 0
	for _, e := range sc.Honeypot.Events() {
		if _, ok := seen[e.Target]; ok {
			common++
		}
		seen[e.Target] = struct{}{}
	}
	_ = telOnly
	combined := float64(len(seen))
	if relErr(combined, 6340) > 0.2 {
		t.Errorf("combined targets = %.0f, want ~6340", combined)
	}
	// /24 blocks attacked vs active: about one third (§4 headline).
	s24 := make(map[netx.Addr]struct{})
	for a := range seen {
		s24[a.Slash24()] = struct{}{}
	}
	frac := float64(len(s24)) / float64(sc.Plan.NumActive24())
	if frac < 0.2 || frac > 0.5 {
		t.Errorf("attacked /24 fraction = %.2f, want ~1/3", frac)
	}
}

// byTarget groups a query's events per target, each group in Iter
// order, as stable copies.
func byTarget(q *attack.Query) map[netx.Addr][]*attack.Event {
	out := make(map[netx.Addr][]*attack.Event)
	for e := range q.Iter() {
		out[e.Target] = append(out[e.Target], e.Clone())
	}
	return out
}

func TestCommonAndJointTargets(t *testing.T) {
	sc := defaultScenario(t)
	telByTarget := byTarget(sc.Telescope.Query())
	hpByTarget := byTarget(sc.Honeypot.Query())
	common, joint := 0, 0
	for target, tEvs := range telByTarget {
		hEvs, ok := hpByTarget[target]
		if !ok {
			continue
		}
		common++
		overlap := false
	outer:
		for _, te := range tEvs {
			for _, he := range hEvs {
				if te.Overlaps(he) {
					overlap = true
					break outer
				}
			}
		}
		if overlap {
			joint++
		}
	}
	if relErr(float64(common), 282) > 0.35 {
		t.Errorf("common targets = %d, want ~282", common)
	}
	if relErr(float64(joint), 137) > 0.45 {
		t.Errorf("joint targets = %d, want ~137", joint)
	}
	if joint > common {
		t.Error("joint exceeds common")
	}
}

func TestTable5IPProtocolMix(t *testing.T) {
	sc := defaultScenario(t)
	var counts [4]float64
	total := 0.0
	for _, e := range sc.Telescope.Events() {
		counts[e.Vector]++
		total++
	}
	want := [4]float64{0.794, 0.159, 0.045, 0.002}
	for v, w := range want {
		got := counts[v] / total
		if math.Abs(got-w) > 0.05 {
			t.Errorf("protocol %v share = %.3f, want %.3f", attack.Vector(v), got, w)
		}
	}
}

func TestTable6ReflectionMix(t *testing.T) {
	sc := defaultScenario(t)
	counts := make(map[attack.Vector]float64)
	total := 0.0
	for _, e := range sc.Honeypot.Events() {
		counts[e.Vector]++
		total++
	}
	want := map[attack.Vector]float64{
		attack.VectorNTP:     0.4008,
		attack.VectorDNS:     0.2617,
		attack.VectorCharGen: 0.2237,
		attack.VectorSSDP:    0.0838,
		attack.VectorRIPv1:   0.0227,
	}
	for v, w := range want {
		got := counts[v] / total
		if math.Abs(got-w) > 0.05 {
			t.Errorf("%v share = %.3f, want %.3f", v, got, w)
		}
	}
	if counts[attack.VectorNTP] <= counts[attack.VectorDNS] {
		t.Error("NTP must lead the reflection mix")
	}
}

func TestTable7PortCardinality(t *testing.T) {
	sc := defaultScenario(t)
	single, withPorts := 0.0, 0.0
	for _, e := range sc.Telescope.Events() {
		if len(e.Ports) == 0 {
			continue
		}
		withPorts++
		if e.SinglePort() {
			single++
		}
	}
	got := single / withPorts
	if math.Abs(got-0.606) > 0.08 {
		t.Errorf("single-port share = %.3f, want ~0.606", got)
	}
}

func TestTable8TopPorts(t *testing.T) {
	sc := defaultScenario(t)
	tcp := make(map[uint16]int)
	udp := make(map[uint16]int)
	tcpTotal, udpTotal := 0, 0
	for _, e := range sc.Telescope.Events() {
		if !e.SinglePort() {
			continue
		}
		switch e.Vector {
		case attack.VectorTCP:
			tcp[e.Ports[0]]++
			tcpTotal++
		case attack.VectorUDP:
			udp[e.Ports[0]]++
			udpTotal++
		}
	}
	httpShare := float64(tcp[80]) / float64(tcpTotal)
	if math.Abs(httpShare-0.52) > 0.12 {
		t.Errorf("HTTP share = %.3f, want ~0.50 (Table 8a + Web boost)", httpShare)
	}
	if tcp[443] == 0 || tcp[80] < tcp[443] {
		t.Error("HTTP must dominate HTTPS")
	}
	gameShare := float64(udp[27015]) / float64(udpTotal)
	if gameShare < 0.10 || gameShare > 0.40 {
		t.Errorf("27015/UDP share = %.3f, want ~0.19-0.25", gameShare)
	}
	// Web-port events over TCP: ~69% overall in the paper.
	webPort := 0
	for p, n := range tcp {
		if attack.WebPort(p) {
			webPort += n
		}
	}
	webShare := float64(webPort) / float64(tcpTotal)
	if webShare < 0.55 || webShare > 0.85 {
		t.Errorf("TCP Web-port share = %.3f, want ~0.69", webShare)
	}
}

func TestFigure2Durations(t *testing.T) {
	sc := defaultScenario(t)
	var tel, hp []float64
	for _, e := range sc.Telescope.Events() {
		tel = append(tel, float64(e.Duration()))
	}
	for _, e := range sc.Honeypot.Events() {
		hp = append(hp, float64(e.Duration()))
	}
	telCDF := stats.NewCDF(tel)
	hpCDF := stats.NewCDF(hp)
	if m := telCDF.Median(); m < 250 || m > 900 {
		t.Errorf("telescope median duration = %.0f s, want ~454", m)
	}
	if m := telCDF.Mean(); m < 1700 || m > 4300 {
		t.Errorf("telescope mean duration = %.0f s, want ~2880", m)
	}
	if p90 := telCDF.Quantile(0.9); p90 < 3600 || p90 > 12000 {
		t.Errorf("telescope P90 duration = %.0f s, want >= 5400 (1.5h)", p90)
	}
	if m := hpCDF.Median(); m < 150 || m > 450 {
		t.Errorf("honeypot median duration = %.0f s, want ~255", m)
	}
	if m := hpCDF.Mean(); m < 650 || m > 1700 {
		t.Errorf("honeypot mean duration = %.0f s, want ~1080", m)
	}
	over1h := 1 - hpCDF.At(3600)
	if over1h < 0.03 || over1h > 0.12 {
		t.Errorf("honeypot P(>1h) = %.3f, want ~0.06", over1h)
	}
	if hpCDF.Max() > 86400 {
		t.Errorf("honeypot max duration %.0f exceeds the 24h cap", hpCDF.Max())
	}
}

func TestFigure3And4Intensities(t *testing.T) {
	sc := defaultScenario(t)
	var tel, hp []float64
	for _, e := range sc.Telescope.Events() {
		tel = append(tel, e.MaxPPS)
	}
	for _, e := range sc.Honeypot.Events() {
		hp = append(hp, e.AvgRPS)
	}
	telCDF := stats.NewCDF(tel)
	hpCDF := stats.NewCDF(hp)
	if m := telCDF.Median(); m < 0.5 || m > 3 {
		t.Errorf("telescope median intensity = %.2f pps, want ~1", m)
	}
	if m := telCDF.Mean(); m < 40 || m > 260 {
		t.Errorf("telescope mean intensity = %.1f pps, want ~107", m)
	}
	if low := telCDF.At(2); low < 0.5 || low > 0.8 {
		t.Errorf("P(<=2pps) = %.2f, want ~0.7 (Fig 3)", low)
	}
	if m := hpCDF.Median(); m < 35 || m > 160 {
		t.Errorf("honeypot median intensity = %.1f rps, want ~77", m)
	}
	if m := hpCDF.Mean(); m < 200 || m > 800 {
		t.Errorf("honeypot mean intensity = %.1f rps, want ~413", m)
	}
}

func TestTable4CountryRanking(t *testing.T) {
	sc := defaultScenario(t)
	rank := func(st *attack.Store) map[string]float64 {
		seen := make(map[netx.Addr]bool)
		counts := make(map[string]float64)
		total := 0.0
		for _, e := range st.Events() {
			if seen[e.Target] {
				continue
			}
			seen[e.Target] = true
			if cc, ok := sc.Plan.CountryOf(e.Target); ok {
				counts[cc.String()]++
				total++
			}
		}
		for k := range counts {
			counts[k] /= total
		}
		return counts
	}
	tel := rank(sc.Telescope)
	if math.Abs(tel["US"]-0.2556) > 0.06 {
		t.Errorf("telescope US share = %.3f, want ~0.256", tel["US"])
	}
	if math.Abs(tel["CN"]-0.1047) > 0.05 {
		t.Errorf("telescope CN share = %.3f, want ~0.105", tel["CN"])
	}
	if tel["JP"] > 0.02 {
		t.Errorf("telescope JP share = %.3f, want tiny (ranks ~25th)", tel["JP"])
	}
	hp := rank(sc.Honeypot)
	if math.Abs(hp["US"]-0.295) > 0.06 {
		t.Errorf("honeypot US share = %.3f, want ~0.295", hp["US"])
	}
	if hp["FR"] < 0.04 {
		t.Errorf("honeypot FR share = %.3f, want ~0.077 (OVH effect)", hp["FR"])
	}
}

func TestWebTargetOverrides(t *testing.T) {
	sc := defaultScenario(t)
	rev := sc.History.ReverseIndex()
	tcp, total := 0.0, 0.0
	ntp, hpTotal := 0.0, 0.0
	for _, e := range sc.Telescope.Events() {
		if rev.Slot(e.Target) < 0 {
			continue
		}
		total++
		if e.Vector == attack.VectorTCP {
			tcp++
		}
	}
	for _, e := range sc.Honeypot.Events() {
		if rev.Slot(e.Target) < 0 {
			continue
		}
		hpTotal++
		if e.Vector == attack.VectorNTP {
			ntp++
		}
	}
	if got := tcp / total; math.Abs(got-0.934) > 0.05 {
		t.Errorf("TCP share on Web targets = %.3f, want ~0.934 (§5)", got)
	}
	if got := ntp / hpTotal; math.Abs(got-0.5469) > 0.07 {
		t.Errorf("NTP share on Web targets = %.3f, want ~0.547 (§5)", got)
	}
}

func TestMigrationsApplied(t *testing.T) {
	sc := defaultScenario(t)
	wix, ok := sc.Web.PoolByName("Wix")
	if !ok {
		t.Fatal("no Wix pool")
	}
	migrated := 0
	for _, id := range wix.Sites {
		if sc.Web.Domains[id].MigDay == int32(wix.Bulk.TriggerDay+wix.Bulk.DelayDays) {
			migrated++
		}
	}
	if migrated < len(wix.Sites)*9/10 {
		t.Errorf("Wix bulk migration: %d/%d sites", migrated, len(wix.Sites))
	}
	// Individual migrations exist.
	individual := 0
	for id := range sc.Web.Domains {
		d := &sc.Web.Domains[id]
		if d.Pre == 0 && d.MigDay >= 0 {
			individual++
		}
	}
	if individual < 500 {
		t.Errorf("only %d migrated domains", individual)
	}
	if len(sc.Exposures) == 0 {
		t.Fatal("no exposures computed")
	}
}

func TestExposuresConsistent(t *testing.T) {
	sc := defaultScenario(t)
	for _, ex := range sc.Exposures[:100] {
		if ex.FirstDay < 0 || ex.FirstDay >= sc.Cfg.WindowDays {
			t.Fatalf("exposure day %d out of window", ex.FirstDay)
		}
		if ex.IntensityPct < 0 || ex.IntensityPct > 1 {
			t.Fatalf("exposure pct %f out of range", ex.IntensityPct)
		}
	}
}

// TestExposuresOnFirstAttackedAddress checks the exposure join against
// the measured side: every exposure's domain resolves, on its FirstDay,
// to an address first attacked that day, so the History the analyses
// read places each exposed site where its attack landed. Exposures come
// in increasing domain order, one per domain.
func TestExposuresOnFirstAttackedAddress(t *testing.T) {
	sc := defaultScenario(t)
	first := make(map[netx.Addr]int)
	for _, s := range []*attack.Store{sc.Telescope, sc.Honeypot} {
		for e := range s.Query().Iter() {
			if d, ok := first[e.Target]; !ok || e.Day() < d {
				first[e.Target] = e.Day()
			}
		}
	}
	bad := 0
	for i, ex := range sc.Exposures {
		if i > 0 && ex.Domain <= sc.Exposures[i-1].Domain {
			t.Fatalf("exposure %d: domain %d after %d", i, ex.Domain, sc.Exposures[i-1].Domain)
		}
		addr := sc.Web.AddrOf(ex.Domain, ex.FirstDay)
		if d, ok := first[addr]; !ok || d != ex.FirstDay || !sc.Web.Alive(ex.Domain, ex.FirstDay) {
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d exposures name a domain that is not, on FirstDay, on an address first attacked that day", bad, len(sc.Exposures))
	}
}

func TestEventsWithinWindowAndFilters(t *testing.T) {
	sc := defaultScenario(t)
	for _, e := range sc.Telescope.Events() {
		if e.Day() < 0 || e.Day() >= sc.Cfg.WindowDays {
			t.Fatalf("telescope event day %d out of window", e.Day())
		}
		if e.Duration() < 60 || e.MaxPPS < 0.5 || e.Packets < 25 {
			t.Fatalf("telescope event violates Moore filter: %+v", e)
		}
		if sc.Cfg.Darknet.Contains(e.Target) {
			t.Fatal("target inside the darknet")
		}
	}
	for _, e := range sc.Honeypot.Events() {
		if e.Packets <= 100 {
			t.Fatalf("honeypot event below request threshold: %+v", e)
		}
		if e.Duration() > 86400 {
			t.Fatalf("honeypot event exceeds 24h cap: %+v", e)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Generate(Config{Seed: 7, Scale: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Seed: 7, Scale: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	if a.Telescope.Len() != b.Telescope.Len() || a.Honeypot.Len() != b.Honeypot.Len() {
		t.Fatal("scenario not deterministic")
	}
	ae, be := a.Telescope.Events(), b.Telescope.Events()
	for i := range ae {
		if ae[i].Target != be[i].Target || ae[i].Start != be[i].Start {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestPacketLevelMatchesEventLevel(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level generation is slow")
	}
	plan, err := ipmeta.BuildPlan(ipmeta.PlanConfig{Seed: 9, NumSixteens: 512, NumActive24: 800})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 9, Scale: 2e-5, Plan: plan, PacketLevel: true}
	sc, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every planned telescope attack passes the Moore thresholds by
	// construction, so the classifier must recover nearly all of them
	// (same-victim events that overlap in time merge into one flow).
	plannedTel, plannedHp := 0, 0
	for _, pa := range sc.Planned {
		if pa.Dataset == attack.SourceTelescope {
			plannedTel++
		} else {
			plannedHp++
		}
	}
	gotTel, gotHp := sc.Telescope.Len(), sc.Honeypot.Len()
	if gotTel < plannedTel*70/100 || gotTel > plannedTel {
		t.Errorf("telescope recovered %d of %d planned", gotTel, plannedTel)
	}
	if gotHp < plannedHp*70/100 || gotHp > plannedHp {
		t.Errorf("honeypot recovered %d of %d planned", gotHp, plannedHp)
	}
	// Recovered target sets must match the planned ones.
	plannedTargets := make(map[netx.Addr]bool)
	for _, pa := range sc.Planned {
		if pa.Dataset == attack.SourceTelescope {
			plannedTargets[pa.Target] = true
		}
	}
	for _, e := range sc.Telescope.Events() {
		if !plannedTargets[e.Target] {
			t.Fatalf("classifier invented target %v", e.Target)
		}
	}
	recovered := make(map[netx.Addr]bool)
	for _, e := range sc.Telescope.Events() {
		recovered[e.Target] = true
	}
	missing := 0
	for target := range plannedTargets {
		if !recovered[target] {
			missing++
		}
	}
	if missing > len(plannedTargets)/20 {
		t.Errorf("%d of %d planned telescope targets unrecovered", missing, len(plannedTargets))
	}
	// Vector mix survives the packet round trip.
	tcp, total := 0.0, 0.0
	for _, e := range sc.Telescope.Events() {
		total++
		if e.Vector == attack.VectorTCP {
			tcp++
		}
	}
	if got := tcp / total; got < 0.70 || got > 0.95 {
		t.Errorf("packet-level TCP share = %.3f", got)
	}
}

// TestGenerateWithInjectedStores checks the segment-cache path: Generate
// with pre-captured stores must skip attack planning, use the stores
// as-is, and still derive the Web model from their events.
func TestGenerateWithInjectedStores(t *testing.T) {
	base, err := Generate(Config{Seed: 3, Scale: 0.0002})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Generate(Config{
		Seed: 3, Scale: 0.0002,
		Telescope: base.Telescope, Honeypot: base.Honeypot,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Telescope != base.Telescope || sc.Honeypot != base.Honeypot {
		t.Fatal("injected stores were not used as-is")
	}
	if sc.Planned != nil {
		t.Fatal("attack planning ran despite injected stores")
	}
	if sc.History == nil || sc.History.NumDomains() == 0 {
		t.Fatal("Web history not derived for injected stores")
	}
	if len(sc.Exposures) != len(base.Exposures) {
		t.Fatalf("exposures differ: %d vs %d", len(sc.Exposures), len(base.Exposures))
	}
}
