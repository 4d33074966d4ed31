package webmodel

import (
	"testing"

	"doscope/internal/dps"
	"doscope/internal/ipmeta"
	"doscope/internal/netx"
)

func testPlan(t testing.TB) *ipmeta.Plan {
	t.Helper()
	plan, err := ipmeta.BuildPlan(ipmeta.PlanConfig{Seed: 1, NumSixteens: 512, NumActive24: 3000})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func testPopulation(t testing.TB, n int) *Population {
	t.Helper()
	p, err := Build(Config{Seed: 7, NumDomains: n, Plan: testPlan(t)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildBasics(t *testing.T) {
	p := testPopulation(t, 50000)
	if p.NumDomains() != 50000 {
		t.Fatalf("NumDomains = %d", p.NumDomains())
	}
	if len(p.Pools) < 300 {
		t.Errorf("pools = %d, want several hundred", len(p.Pools))
	}
	if len(p.SingleIPs) == 0 {
		t.Error("no self-hosted singles")
	}
	// TLD mix should be roughly 83/10/7.
	var counts [NumTLDs]int
	for i := range p.Domains {
		counts[p.Domains[i].TLD]++
	}
	comFrac := float64(counts[TLDCom]) / float64(p.NumDomains())
	if comFrac < 0.78 || comFrac < float64(counts[TLDNet])/float64(p.NumDomains()) {
		t.Errorf(".com fraction = %.2f", comFrac)
	}
}

func TestDomainNames(t *testing.T) {
	p := testPopulation(t, 5000)
	if name, want := p.DomainName(0), "w0000000."+p.Domains[0].TLD.String(); name != want {
		t.Errorf("DomainName(0) = %q, want %q", name, want)
	}
}

func TestNamedPoolsExist(t *testing.T) {
	p := testPopulation(t, 50000)
	for _, name := range []string{"GoDaddy", "Wix", "OVH", "DOSarrestFront", "eNom", "CloudFlareFront"} {
		pool, ok := p.PoolByName(name)
		if !ok {
			t.Errorf("pool %q missing", name)
			continue
		}
		if len(pool.IPs) == 0 || len(pool.Sites) == 0 {
			t.Errorf("pool %q empty: %d IPs, %d sites", name, len(pool.IPs), len(pool.Sites))
		}
	}
	gd, _ := p.PoolByName("GoDaddy")
	if len(gd.IPs) != 20 {
		t.Errorf("GoDaddy IPs = %d, want 20 (paper §5 peak 1)", len(gd.IPs))
	}
}

func TestFrontPoolsArePreexisting(t *testing.T) {
	p := testPopulation(t, 50000)
	pool, _ := p.PoolByName("DOSarrestFront")
	for _, id := range pool.Sites {
		if p.Domains[id].Pre != dps.DOSarrest {
			t.Fatalf("front pool site %d has Pre=%v", id, p.Domains[id].Pre)
		}
	}
}

// sitesOn counts the domains AddrOf places on addr on a day, by brute
// force over the whole population.
func sitesOn(p *Population, addr netx.Addr, day int) int {
	n := 0
	for id := range p.Domains {
		if p.Alive(uint32(id), day) && p.AddrOf(uint32(id), day) == addr {
			n++
		}
	}
	return n
}

// TestAddrOfPlacement checks AddrOf against pool arithmetic for every
// domain, before and after any migration: the site at position i of its
// pool sits on IPs[i % len(IPs)] unless a DPS other than the pool's own
// front protects it, which moves it to that provider's front address; a
// single sits on its own IP until then.
func TestAddrOfPlacement(t *testing.T) {
	p := testPopulation(t, 30000)
	p.ApplyMigrations(3, nil)
	for id := range p.Domains {
		d := &p.Domains[id]
		days := []int{0, int(d.BirthDay), 730}
		if d.MigDay >= 0 {
			days = append(days, int(d.MigDay)-1, int(d.MigDay))
		}
		for _, day := range days {
			var want netx.Addr
			prov := d.Protected(day)
			switch {
			case d.Pool >= 0 && (prov == dps.None || p.Pools[d.Pool].Front == prov):
				pool := &p.Pools[d.Pool]
				want = pool.IPs[(id-int(pool.Sites[0]))%len(pool.IPs)]
			case prov != dps.None:
				want = p.providerFrontAddr[prov]
			default:
				want = p.SingleIPs[d.SingleIP]
			}
			if got := p.AddrOf(uint32(id), day); got != want {
				t.Fatalf("domain %d day %d: AddrOf = %v, want %v", id, day, got, want)
			}
		}
	}
}

func TestCoHostingDistribution(t *testing.T) {
	p := testPopulation(t, 100000)
	day := 365
	// Singles host exactly one site; mega pools host thousands.
	n := sitesOn(p, p.SingleIPs[0], day)
	if n > 1 {
		t.Errorf("single IP hosts %d sites", n)
	}
	gd, _ := p.PoolByName("GoDaddy")
	perIP := sitesOn(p, gd.IPs[0], day)
	want := len(gd.Sites) / len(gd.IPs)
	if perIP < want/2 || perIP > want*2 {
		t.Errorf("GoDaddy co-hosting = %d, want ~%d", perIP, want)
	}
	dos, _ := p.PoolByName("DOSarrestFront")
	dosCount := sitesOn(p, dos.IPs[0], day)
	if dosCount <= perIP {
		t.Errorf("DOSarrest front (%d) should exceed GoDaddy shard (%d): paper's max co-hosting group", dosCount, perIP)
	}
}

func TestBirthDayGating(t *testing.T) {
	p := testPopulation(t, 20000)
	var newborn uint32
	found := false
	for id := range p.Domains {
		if p.Domains[id].BirthDay > 200 {
			newborn, found = uint32(id), true
			break
		}
	}
	if !found {
		t.Fatal("no newborn domain found")
	}
	if p.Alive(newborn, 100) {
		t.Error("domain alive before birth")
	}
	bd := int(p.Domains[newborn].BirthDay)
	if !p.Alive(newborn, bd) {
		t.Error("domain not alive on birth day")
	}
	if p.Alive(newborn, bd-1) {
		t.Error("domain alive the day before its birth")
	}
}

func TestDNSStateDetection(t *testing.T) {
	plan := testPlan(t)
	p, err := Build(Config{Seed: 7, NumDomains: 50000, Plan: plan}, nil)
	if err != nil {
		t.Fatal(err)
	}
	det := dps.NewDetector(plan)
	day := 50

	// Front pool sites must detect via the A record (BGP diversion).
	pool, _ := p.PoolByName("DOSarrestFront")
	st := p.DNSStateOf(pool.Sites[0], day)
	if got := det.Detect(st); got != dps.DOSarrest {
		t.Errorf("front detection = %v (state %+v)", got, st)
	}

	// Unprotected pool sites must not detect.
	gd, _ := p.PoolByName("GoDaddy")
	st = p.DNSStateOf(gd.Sites[0], day)
	if got := det.Detect(st); got != dps.None {
		t.Errorf("GoDaddy site detected as %v", got)
	}

	// CNAME platform sites expand through the hoster CNAME pre-migration.
	wix, _ := p.PoolByName("Wix")
	st = p.DNSStateOf(wix.Sites[0], day)
	if st.CNAME == "" {
		t.Error("Wix site has no CNAME")
	}
	if got := det.Detect(st); got != dps.None {
		t.Errorf("pre-migration Wix site detected as %v", got)
	}
}

func TestApplyMigrationsBulk(t *testing.T) {
	p := testPopulation(t, 50000)
	p.ApplyMigrations(3, nil)
	wix, _ := p.PoolByName("Wix")
	migDay := int32(wix.Bulk.TriggerDay + wix.Bulk.DelayDays)
	for _, id := range wix.Sites {
		d := &p.Domains[id]
		if d.MigDay != migDay || d.MigTo != dps.Incapsula {
			t.Fatalf("Wix site %d: MigDay=%d MigTo=%v", id, d.MigDay, d.MigTo)
		}
	}
	// After migration the sites resolve into Incapsula's network and the
	// detector sees the provider CNAME.
	det := dps.NewDetector(p.cfg.Plan)
	id := wix.Sites[0]
	after := int(migDay) + 1
	if got := det.Detect(p.DNSStateOf(id, after)); got != dps.Incapsula {
		t.Errorf("post-migration detection = %v", got)
	}
	if got := det.Detect(p.DNSStateOf(id, int(migDay)-2)); got != dps.None {
		t.Errorf("pre-migration detection = %v", got)
	}
	// And they no longer resolve on the old Wix IP.
	if n := sitesOn(p, wix.IPs[0], after); n != 0 {
		t.Errorf("%d sites still on Wix IP after bulk migration", n)
	}
}

func TestApplyMigrationsIndividual(t *testing.T) {
	p := testPopulation(t, 50000)
	pool, ok := p.PoolByName("large-0")
	if !ok {
		t.Fatal("no large-0 pool")
	}
	var exposures []AttackExposure
	for _, id := range pool.Sites {
		exposures = append(exposures, AttackExposure{Domain: id, FirstDay: 100, IntensityPct: 0.9995})
	}
	p.ApplyMigrations(3, exposures)
	migrated, fast := 0, 0
	for _, id := range pool.Sites {
		d := &p.Domains[id]
		if d.Pre == dps.None && d.MigDay >= 0 {
			migrated++
			if d.MigDay <= 101 {
				fast++
			}
		}
	}
	frac := float64(migrated) / float64(len(pool.Sites))
	if frac < 0.015 || frac > 0.08 {
		t.Errorf("migration fraction = %.3f, want ~0.0376 (mid co-hosting band)", frac)
	}
	if migrated > 0 {
		fastFrac := float64(fast) / float64(migrated)
		if fastFrac < 0.65 {
			t.Errorf("top-intensity next-day migration = %.2f, want ~0.81 (Fig 10)", fastFrac)
		}
	}
	// Exposures for preexisting sites must be ignored.
	dos, _ := p.PoolByName("DOSarrestFront")
	p.ApplyMigrations(3, []AttackExposure{{Domain: dos.Sites[0], FirstDay: 10, IntensityPct: 1}})
	if p.Domains[dos.Sites[0]].MigDay >= 0 {
		t.Error("preexisting site migrated")
	}
}

func TestMigrationDelayDistribution(t *testing.T) {
	p := testPopulation(t, 50000)
	p.cfg.MigrationProb = 1.0 // isolate the delay distribution
	gd, _ := p.PoolByName("GoDaddy")
	var exposures []AttackExposure
	for _, id := range gd.Sites {
		exposures = append(exposures, AttackExposure{Domain: id, FirstDay: 50, IntensityPct: 0.5})
	}
	p.ApplyMigrations(3, exposures)
	within1, within6, total := 0, 0, 0
	for _, id := range gd.Sites {
		d := &p.Domains[id]
		if d.Pre != dps.None || d.MigDay < 0 {
			continue
		}
		total++
		delay := int(d.MigDay) - 50
		if delay <= 1 {
			within1++
		}
		if delay <= 6 {
			within6++
		}
	}
	if total == 0 {
		t.Fatal("nothing migrated")
	}
	// The sampled distribution is deliberately slower than the paper's
	// measured Figure 10 "All" curve (23.2% within a day): the measured
	// delay is taken from the attack nearest the migration, which
	// compresses delays for repeatedly attacked targets; the generator
	// compensates by sampling a slower base distribution.
	f1 := float64(within1) / float64(total)
	f6 := float64(within6) / float64(total)
	if f1 > 0.12 {
		t.Errorf("P(<=1d) = %.3f, want small (ordinary-intensity band)", f1)
	}
	if f6 < 0.03 || f6 > 0.25 {
		t.Errorf("P(<=6d) = %.3f", f6)
	}
	// Top-intensity exposures migrate next day in the vast majority.
	p2 := testPopulation(t, 50000)
	p2.cfg.MigrationProb = 1.0
	gd2, _ := p2.PoolByName("GoDaddy")
	var hot []AttackExposure
	for _, id := range gd2.Sites {
		hot = append(hot, AttackExposure{Domain: id, FirstDay: 50, IntensityPct: 0.9995})
	}
	p2.ApplyMigrations(3, hot)
	fast, tot := 0, 0
	for _, id := range gd2.Sites {
		d := &p2.Domains[id]
		if d.Pre != dps.None || d.MigDay < 0 {
			continue
		}
		tot++
		if int(d.MigDay)-50 <= 1 {
			fast++
		}
	}
	if tot == 0 {
		t.Fatal("nothing migrated in hot band")
	}
	if frac := float64(fast) / float64(tot); frac < 0.65 {
		t.Errorf("top-band next-day fraction = %.2f, want ~0.81", frac)
	}
}

func TestTaxonomyMassesAtBuild(t *testing.T) {
	p := testPopulation(t, 100000)
	attackedSites, preOnAttacked, quietPre, quietMig := 0, 0, 0, 0
	quiet := 0
	for id := range p.Domains {
		d := &p.Domains[id]
		pool, _ := p.site(uint32(id))
		attacked := pool != nil && pool.Attacked
		if attacked {
			attackedSites++
			if d.Pre != dps.None {
				preOnAttacked++
			}
		} else {
			quiet++
			if d.Pre != dps.None {
				quietPre++
			} else if d.MigDay >= 0 {
				quietMig++
			}
		}
	}
	attackedFrac := float64(attackedSites) / float64(p.NumDomains())
	if attackedFrac < 0.55 || attackedFrac > 0.72 {
		t.Errorf("attacked-intent site fraction = %.3f, want ~0.64", attackedFrac)
	}
	preFrac := float64(preOnAttacked) / float64(attackedSites)
	if preFrac < 0.13 || preFrac > 0.25 {
		t.Errorf("preexisting|attacked = %.3f, want ~0.186", preFrac)
	}
	quietPreFrac := float64(quietPre) / float64(quiet)
	if quietPreFrac < 0.004 || quietPreFrac > 0.02 {
		t.Errorf("preexisting|quiet = %.4f, want ~0.0089", quietPreFrac)
	}
	quietMigFrac := float64(quietMig) / float64(quiet)
	if quietMigFrac < 0.02 || quietMigFrac > 0.05 {
		t.Errorf("migrating|quiet = %.4f, want ~0.033", quietMigFrac)
	}
}

func TestAttackableTargetsAndTriggers(t *testing.T) {
	p := testPopulation(t, 50000)
	targets := p.AttackableTargets(5, 200)
	if len(targets) < 300 {
		t.Fatalf("targets = %d", len(targets))
	}
	singles := 0
	for _, tgt := range targets {
		if tgt.Pool == -1 {
			singles++
		}
	}
	if singles != 200 {
		t.Errorf("single targets = %d, want 200", singles)
	}
	trigs := p.BulkTriggers()
	if len(trigs) != 2 {
		t.Fatalf("bulk triggers = %d, want 2 (Wix, eNom)", len(trigs))
	}
	for _, tr := range trigs {
		if tr.Day <= 0 || tr.MinDurationSec < 4*3600 {
			t.Errorf("trigger %+v", tr)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := testPopulation(t, 20000)
	b := testPopulation(t, 20000)
	for i := range a.Domains {
		if a.Domains[i] != b.Domains[i] {
			t.Fatalf("domain %d differs", i)
		}
	}
	for i := range a.SingleIPs {
		if a.SingleIPs[i] != b.SingleIPs[i] {
			t.Fatalf("single IP %d differs", i)
		}
	}
}

func TestHostsAnySite(t *testing.T) {
	p := testPopulation(t, 20000)
	gd, _ := p.PoolByName("GoDaddy")
	if !p.HostsAnySite(gd.IPs[0]) {
		t.Error("pool IP not recognized")
	}
	if !p.HostsAnySite(p.SingleIPs[0]) {
		t.Error("single IP not recognized")
	}
	if p.HostsAnySite(0xdeadbeef) {
		t.Error("random address hosts a site")
	}
	if err := p.BuildMail(9); err != nil {
		t.Fatal(err)
	}
	if p.HostsAnySite(gd.MailIPs[0]) {
		t.Error("mail-cluster address hosts a site")
	}
	if !p.HostsAnySite(gd.IPs[0]) || !p.HostsAnySite(p.SingleIPs[len(p.SingleIPs)-1]) {
		t.Error("Web address lost after BuildMail")
	}
}
