package webmodel

import (
	"slices"
	"testing"

	"doscope/internal/netx"
)

func testMailPopulation(t *testing.T) *Population {
	t.Helper()
	p := testPopulation(t, 50000)
	if err := p.BuildMail(9); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildMailAllocatesClusters(t *testing.T) {
	p := testMailPopulation(t)
	for i := range p.Pools {
		pool := &p.Pools[i]
		if len(pool.MailIPs) == 0 {
			t.Fatalf("pool %s has no mail cluster", pool.Name)
		}
		if len(pool.Sites) > 5000 && len(pool.MailIPs) < 2 {
			t.Errorf("mega pool %s has only %d mail IPs", pool.Name, len(pool.MailIPs))
		}
		// Mail IPs live in the hoster's own network.
		for _, addr := range pool.MailIPs {
			if asn, _ := p.cfg.Plan.ASOf(addr); asn != pool.ASN {
				// Customer more-specifics may resolve differently; the
				// country must still match.
				cc, _ := p.cfg.Plan.CountryOf(addr)
				if cc != pool.Country {
					t.Errorf("pool %s mail IP %v outside hoster network", pool.Name, addr)
				}
			}
		}
	}
	// Idempotent.
	before := len(p.Pools[0].MailIPs)
	if err := p.BuildMail(9); err != nil {
		t.Fatal(err)
	}
	if len(p.Pools[0].MailIPs) != before {
		t.Error("BuildMail not idempotent")
	}
}

func TestMailAddrConsistency(t *testing.T) {
	p := testMailPopulation(t)
	day := 100
	for id := uint32(0); id < uint32(len(p.Domains)); id++ {
		if !p.Alive(id, day) {
			continue
		}
		addr, ok := p.MailAddrOf(id, day)
		if !ok {
			t.Fatalf("domain %d has no mail address", id)
		}
		if !slices.Contains(p.MailDomains(p.MailSlot(addr), day), id) {
			t.Fatalf("domain %d not listed on its own mail address %v", id, addr)
		}
	}
}

// walkMailDomains is the per-call pool walk the mail index replaced,
// kept as its oracle: site i of the pool owning the mail address addr
// has its mail at MailIPs[i % len(MailIPs)], and a self-hosted single
// runs mail on its own IP.
func walkMailDomains(p *Population, mailPool map[netx.Addr]int, single map[netx.Addr]uint32, addr netx.Addr, day int) []uint32 {
	var out []uint32
	if pi, ok := mailPool[addr]; ok {
		pool := &p.Pools[pi]
		n := len(pool.MailIPs)
		for i, id := range pool.Sites {
			if pool.MailIPs[i%n] == addr && int(p.Domains[id].BirthDay) <= day {
				out = append(out, id)
			}
		}
	}
	if id, ok := single[addr]; ok && int(p.Domains[id].BirthDay) <= day {
		out = append(out, id)
	}
	return out
}

// TestMailDomainsMatchWalk checks the mail index against the pool walk
// for every mail-serving address: on day 0, on both sides of each birth
// day of the address's domains, and on the last window day.
func TestMailDomainsMatchWalk(t *testing.T) {
	p := testMailPopulation(t)
	last := p.cfg.WindowDays - 1
	mailPool := make(map[netx.Addr]int)
	var addrs []netx.Addr
	for pi := range p.Pools {
		for _, a := range p.Pools[pi].MailIPs {
			mailPool[a] = pi
			addrs = append(addrs, a)
		}
	}
	single := make(map[netx.Addr]uint32)
	for id := range p.Domains {
		if k := p.Domains[id].SingleIP; k >= 0 {
			single[p.SingleIPs[k]] = uint32(id)
		}
	}
	addrs = append(addrs, p.SingleIPs...)
	for _, a := range addrs {
		slot := p.MailSlot(a)
		if slot < 0 {
			t.Fatalf("mail address %v has no slot", a)
		}
		days := []int{0, last}
		for _, id := range walkMailDomains(p, mailPool, single, a, last) {
			if b := int(p.Domains[id].BirthDay); b > 0 {
				days = append(days, b-1, b)
			}
		}
		slices.Sort(days)
		for _, day := range slices.Compact(days) {
			got := slices.Clone(p.MailDomains(slot, day))
			want := walkMailDomains(p, mailPool, single, a, day)
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("address %v day %d: index lists %d domains, walk %d", a, day, len(got), len(want))
			}
		}
	}
	for _, a := range []netx.Addr{0, p.Pools[0].IPs[0]} {
		if s := p.MailSlot(a); s != -1 {
			t.Errorf("MailSlot(%v) = %d for an address serving no mail, want -1", a, s)
		}
	}
}

func TestMailBeforeBirth(t *testing.T) {
	p := testMailPopulation(t)
	for id := range p.Domains {
		if b := int(p.Domains[id].BirthDay); b > 10 {
			if _, ok := p.MailAddrOf(uint32(id), b-1); ok {
				t.Fatal("mail resolves before domain birth")
			}
			return
		}
	}
	t.Skip("no newborn in sample")
}

func TestMailTargets(t *testing.T) {
	p := testMailPopulation(t)
	targets := p.MailTargets(200)
	if len(targets) == 0 {
		t.Fatal("no mail targets")
	}
	seenGoDaddy := false
	for _, mt := range targets {
		if mt.Domains < 200 {
			t.Errorf("mail target %v below threshold: %d", mt.Addr, mt.Domains)
		}
		if p.Pools[mt.Pool].Name == "GoDaddy" {
			seenGoDaddy = true
		}
	}
	if !seenGoDaddy {
		t.Error("GoDaddy mail cluster missing (paper §5 calls it out)")
	}
	// Quiet pools must not appear.
	for _, mt := range targets {
		if !p.Pools[mt.Pool].Attacked {
			t.Errorf("quiet pool %s in mail targets", p.Pools[mt.Pool].Name)
		}
	}
}

func TestMailSeparateFromWebIPs(t *testing.T) {
	p := testMailPopulation(t)
	for i := range p.Pools {
		pool := &p.Pools[i]
		for _, m := range pool.MailIPs {
			for _, w := range pool.IPs {
				if m == w {
					t.Fatalf("pool %s mail IP collides with Web IP %v", pool.Name, m)
				}
			}
		}
	}
}
