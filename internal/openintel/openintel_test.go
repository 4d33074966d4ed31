package openintel

import (
	"math/rand"
	"net"
	"slices"
	"testing"

	"doscope/internal/dnsserver"
	"doscope/internal/dps"
	"doscope/internal/ipmeta"
	"doscope/internal/netx"
	"doscope/internal/webmodel"
)

func testWorld(t testing.TB) (*ipmeta.Plan, *webmodel.Population) {
	t.Helper()
	plan, err := ipmeta.BuildPlan(ipmeta.PlanConfig{Seed: 1, NumSixteens: 512, NumActive24: 3000})
	if err != nil {
		t.Fatal(err)
	}
	pop, err := webmodel.Build(webmodel.Config{Seed: 7, NumDomains: 30000, Plan: plan}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pop.ApplyMigrations(3, []webmodel.AttackExposure{})
	return plan, pop
}

// segmentAt returns the segment of a domain's history covering a day.
func segmentAt(h *History, id uint32, day int) (Segment, bool) {
	for _, s := range h.Segments[id] {
		if int(s.From) <= day && day <= int(s.To) {
			return s, true
		}
	}
	return Segment{}, false
}

func TestFromWebModelHistory(t *testing.T) {
	plan, pop := testWorld(t)
	det := dps.NewDetector(plan)
	h := FromWebModel(pop, det, 731)
	if h.NumDomains() != pop.NumDomains() {
		t.Fatalf("history domains = %d", h.NumDomains())
	}

	// Front-pool sites must be preexisting for their whole lifetime.
	front, _ := pop.PoolByName("CloudFlareFront")
	id := front.Sites[0]
	if !h.Preexisting(id) {
		t.Error("front site not preexisting")
	}
	day, prov, ok := h.FirstProtectedDay(id)
	if !ok || prov != dps.CloudFlare || day != h.BirthDay(id) {
		t.Errorf("FirstProtectedDay = %d,%v,%v", day, prov, ok)
	}

	// Bulk-migrated Wix sites flip provider at the migration day. Pick a
	// site that existed before the trigger: sites born after the bulk
	// migration are first seen already protected and correctly measure as
	// preexisting instead.
	wix, _ := pop.PoolByName("Wix")
	var wid uint32
	foundOld := false
	for _, id := range wix.Sites {
		if pop.Domains[id].BirthDay == 0 {
			wid, foundOld = id, true
			break
		}
	}
	if !foundOld {
		t.Fatal("no day-0 Wix site")
	}
	migDay := int(pop.Domains[wid].MigDay)
	if migDay < 0 {
		t.Fatal("wix site did not migrate")
	}
	before, _ := segmentAt(h, wid, migDay-1)
	after, _ := segmentAt(h, wid, migDay)
	if before.Provider != dps.None {
		t.Errorf("provider before migration = %v", before.Provider)
	}
	if after.Provider != dps.Incapsula {
		t.Errorf("provider at migration = %v", after.Provider)
	}
	if h.Preexisting(wid) {
		t.Error("migrated site flagged preexisting")
	}
	// The address must move on migration.
	if before.Addr == after.Addr {
		t.Error("address did not move on migration")
	}

	// Unprotected GoDaddy sites never protected.
	gd, _ := pop.PoolByName("GoDaddy")
	if _, _, ok := h.FirstProtectedDay(gd.Sites[0]); ok {
		t.Error("GoDaddy site reported protected")
	}
}

func TestHistoryAddrBeforeBirth(t *testing.T) {
	plan, pop := testWorld(t)
	h := FromWebModel(pop, dps.NewDetector(plan), 731)
	for id := uint32(0); id < uint32(pop.NumDomains()); id++ {
		if b := h.BirthDay(id); b > 0 {
			if _, ok := segmentAt(h, id, b-1); ok {
				t.Fatalf("domain %d resolves before birth", id)
			}
			return
		}
	}
	t.Skip("no newborn domain in sample")
}

func TestReverseIndex(t *testing.T) {
	plan, pop := testWorld(t)
	h := FromWebModel(pop, dps.NewDetector(plan), 731)
	rev := h.ReverseIndex()
	if h.ReverseIndex() != rev {
		t.Fatal("ReverseIndex rebuilt on the second call")
	}
	day := 100
	gd, _ := pop.PoolByName("GoDaddy")
	addr := gd.IPs[0]
	slot := rev.Slot(addr)
	if slot < 0 {
		t.Fatal("no slot for hosting IP")
	}
	if rev.Slot(0x01010101) >= 0 {
		t.Error("slot for random IP")
	}
	n := 0
	// Every domain the index reports must indeed resolve there.
	for _, hs := range rev.Hostings(slot) {
		if int(hs.From) > day || day > int(hs.To) {
			continue
		}
		n++
		if s, ok := segmentAt(h, hs.ID, day); !ok || s.Addr != addr {
			t.Fatalf("index lists domain %d not actually on %v", hs.ID, addr)
		}
	}
	// Ground truth: every domain the Web model places there.
	want := 0
	for id := uint32(0); id < uint32(pop.NumDomains()); id++ {
		if pop.Alive(id, day) && pop.AddrOf(id, day) == addr {
			want++
		}
	}
	if n != want {
		t.Errorf("reverse index count = %d, ground truth = %d", n, want)
	}
	if n == 0 {
		t.Error("no sites on GoDaddy IP")
	}
}

// TestAddrOfMatchesReverseIndex checks, for every domain, that the
// address AddrOf gives is one whose reverse-index hostings list the
// domain, and that a pool site sits on IPs[pos % len(IPs)] where pos is
// its position in the pool, unless a DPS other than the pool's front
// moved it. The days are day 0, the birth day, both sides of any
// migration day and the last window day.
func TestAddrOfMatchesReverseIndex(t *testing.T) {
	plan, pop := testWorld(t)
	h := FromWebModel(pop, dps.NewDetector(plan), 731)
	rev := h.ReverseIndex()
	for id := uint32(0); id < uint32(pop.NumDomains()); id++ {
		d := &pop.Domains[id]
		days := []int{0, int(d.BirthDay), 730}
		if d.MigDay >= 0 {
			days = append(days, int(d.MigDay)-1, int(d.MigDay))
		}
		for _, day := range days {
			if !pop.Alive(id, day) {
				continue
			}
			addr := pop.AddrOf(id, day)
			listed := false
			for _, hs := range rev.Hostings(rev.Slot(addr)) {
				if hs.ID == id && int(hs.From) <= day && day <= int(hs.To) {
					listed = true
				}
			}
			if !listed {
				t.Fatalf("domain %d day %d: AddrOf = %v, whose hostings do not list it", id, day, addr)
			}
			if d.Pool < 0 {
				continue
			}
			pool := &pop.Pools[d.Pool]
			if prov := d.Protected(day); prov != dps.None && prov != pool.Front {
				continue
			}
			if want := pool.IPs[int(id-pool.Sites[0])%len(pool.IPs)]; addr != want {
				t.Fatalf("domain %d day %d: pool %s site at position %d sits on %v, want %v",
					id, day, pool.Name, id-pool.Sites[0], addr, want)
			}
		}
	}
}

func TestDataPointsPositive(t *testing.T) {
	plan, pop := testWorld(t)
	h := FromWebModel(pop, dps.NewDetector(plan), 731)
	dp := h.DataPoints()
	// ~2 data points per domain-day; most domains alive the whole window.
	min := uint64(pop.NumDomains()) * 731
	if dp < min {
		t.Errorf("DataPoints = %d, want >= %d", dp, min)
	}
}

// TestWireWalkMatchesModel is the key integration test: serve a sample of
// the synthetic population through the real UDP DNS server, measure it
// with the real wire walker, and verify the measurements agree with the
// model-derived history.
func TestWireWalkMatchesModel(t *testing.T) {
	plan, pop := testWorld(t)
	det := dps.NewDetector(plan)
	h := FromWebModel(pop, det, 731)

	day := 650 // after the Wix bulk migration
	// Sample: front site, Wix site (post-migration), GoDaddy site, single.
	var ids []uint32
	for _, name := range []string{"CloudFlareFront", "Wix", "GoDaddy", "DOSarrestFront"} {
		pool, ok := pop.PoolByName(name)
		if !ok {
			t.Fatalf("missing pool %s", name)
		}
		ids = append(ids, pool.Sites[0], pool.Sites[1])
	}
	for id := uint32(0); id < uint32(pop.NumDomains()) && len(ids) < 12; id++ {
		if pop.Domains[id].Pool == -1 && pop.Alive(id, day) {
			ids = append(ids, id)
		}
	}

	zones, err := ZonesForDay(pop, day, ids)
	if err != nil {
		t.Fatal(err)
	}
	srv := dnsserver.New()
	for _, z := range zones {
		srv.AddZone(z)
	}
	conn, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(conn) }()
	defer conn.Close()

	walker := &Walker{Resolver: NewWireResolver(conn.LocalAddr().String())}
	var names []string
	for _, id := range ids {
		names = append(names, pop.DomainName(id))
	}
	observations, err := walker.Measure(names, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, obs := range observations {
		id := ids[i]
		if !pop.Alive(id, day) {
			continue
		}
		gotProv := DetectProvider(det, obs, plan)
		want, _ := segmentAt(h, id, day)
		if gotProv != want.Provider {
			t.Errorf("domain %s: wire detection %v, model %v (obs %+v)", obs.Domain, gotProv, want.Provider, obs)
		}
		if obs.HasAddr && obs.WWWAddr != want.Addr {
			t.Errorf("domain %s: wire addr %v, model %v", obs.Domain, obs.WWWAddr, want.Addr)
		}
		if obs.DataPoints == 0 {
			t.Errorf("domain %s: no data points", obs.Domain)
		}
	}
}

func TestWireResolverRetriesExhausted(t *testing.T) {
	r := NewWireResolver("127.0.0.1:1") // nothing listens there
	r.Timeout = 50 * 1e6                // 50ms
	r.Retries = 1
	if _, err := r.Query("www.example.com", 1); err == nil {
		t.Error("query against dead server succeeded")
	}
}

// TestReverseIndexMatchesScan checks the flat reverse index against a
// brute-force scan of History.Segments: exhaustively over every address
// and day of a random history whose addresses are shared by many domains
// and revisited by the same domain, and on sampled addresses and days of
// a Web-model history.
func TestReverseIndexMatchesScan(t *testing.T) {
	const days = 60
	rng := rand.New(rand.NewSource(3))
	random := &History{WindowDays: days, Segments: make([][]Segment, 400)}
	for id := range random.Segments {
		from := int32(rng.Intn(days))
		for from < days && rng.Intn(4) > 0 {
			to := from + int32(rng.Intn(days/4))
			if to >= days {
				to = days - 1
			}
			random.Segments[id] = append(random.Segments[id], Segment{From: from, To: to, Addr: netx.Addr(1 + rng.Intn(12))})
			from = to + 1
		}
	}
	plan, pop := testWorld(t)
	model := FromWebModel(pop, dps.NewDetector(plan), 731)

	check := func(h *History, addrs []netx.Addr, dayList []int) {
		t.Helper()
		rev := h.ReverseIndex()
		for _, addr := range addrs {
			slot := rev.Slot(addr)
			hosted := false
			for _, day := range dayList {
				var want, got []uint32
				for id, segs := range h.Segments {
					for _, s := range segs {
						if s.Addr == addr {
							hosted = true
							if int(s.From) <= day && day <= int(s.To) {
								want = append(want, uint32(id))
							}
						}
					}
				}
				for _, hs := range rev.Hostings(slot) {
					if int(hs.From) <= day && day <= int(hs.To) {
						got = append(got, hs.ID)
					}
				}
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Fatalf("sites on %v day %d: index %v, scan %v", addr, day, got, want)
				}
			}
			if (slot >= 0) != hosted {
				t.Fatalf("Slot(%v) = %d, scan says hosted = %v", addr, slot, hosted)
			}
		}
	}

	var all []int
	for d := -1; d <= days; d++ {
		all = append(all, d)
	}
	check(random, []netx.Addr{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, all)

	var addrs []netx.Addr
	for id := 0; id < model.NumDomains(); id += 997 {
		for _, s := range model.Segments[id] {
			addrs = append(addrs, s.Addr)
		}
	}
	gd, _ := pop.PoolByName("GoDaddy")
	addrs = append(addrs, gd.IPs[0], 0x01010101)
	check(model, addrs, []int{0, 1, 100, 365, 500, 730})
}
