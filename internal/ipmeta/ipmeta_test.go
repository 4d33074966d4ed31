package ipmeta

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"doscope/internal/netx"
)

func TestGeoDBLookup(t *testing.T) {
	db, err := NewGeoDB([]GeoRange{
		{netx.MustParseAddr("10.0.0.0"), netx.MustParseAddr("10.0.255.255"), CC("US")},
		{netx.MustParseAddr("10.2.0.0"), netx.MustParseAddr("10.2.0.255"), CC("DE")},
		{netx.MustParseAddr("192.168.0.0"), netx.MustParseAddr("192.168.255.255"), CC("FR")},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		addr string
		want string
		ok   bool
	}{
		{"10.0.0.0", "US", true},
		{"10.0.255.255", "US", true},
		{"10.1.0.0", "", false},
		{"10.2.0.128", "DE", true},
		{"10.2.1.0", "", false},
		{"192.168.77.1", "FR", true},
		{"9.255.255.255", "", false},
		{"255.255.255.255", "", false},
	}
	for _, c := range cases {
		cc, ok := db.Lookup(netx.MustParseAddr(c.addr))
		if ok != c.ok || (ok && cc.String() != c.want) {
			t.Errorf("Lookup(%s) = %v,%v want %v,%v", c.addr, cc, ok, c.want, c.ok)
		}
	}
}

func TestGeoDBRejectsOverlap(t *testing.T) {
	_, err := NewGeoDB([]GeoRange{
		{netx.MustParseAddr("10.0.0.0"), netx.MustParseAddr("10.0.255.255"), CC("US")},
		{netx.MustParseAddr("10.0.128.0"), netx.MustParseAddr("10.1.0.0"), CC("DE")},
	})
	if err == nil {
		t.Fatal("overlapping ranges accepted")
	}
	_, err = NewGeoDB([]GeoRange{
		{netx.MustParseAddr("10.1.0.0"), netx.MustParseAddr("10.0.0.0"), CC("US")},
	})
	if err == nil {
		t.Fatal("inverted range accepted")
	}
}

func TestPrefixTrieBasic(t *testing.T) {
	var trie PrefixTrie
	trie.Insert(netx.MustParsePrefix("10.0.0.0/8"), 100)
	trie.Insert(netx.MustParsePrefix("10.1.0.0/16"), 200)
	trie.Insert(netx.MustParsePrefix("10.1.2.0/24"), 300)

	cases := []struct {
		addr string
		want ASN
		ok   bool
	}{
		{"10.0.0.1", 100, true},
		{"10.1.0.1", 200, true},
		{"10.1.2.3", 300, true},
		{"10.255.0.0", 100, true},
		{"11.0.0.0", 0, false},
	}
	for _, c := range cases {
		got, ok := trie.Lookup(netx.MustParseAddr(c.addr))
		if ok != c.ok || got != c.want {
			t.Errorf("Lookup(%s) = %v,%v want %v,%v", c.addr, got, ok, c.want, c.ok)
		}
	}
	if trie.Len() != 3 {
		t.Errorf("Len = %d", trie.Len())
	}
}

func TestPrefixTrieReplace(t *testing.T) {
	var trie PrefixTrie
	p := netx.MustParsePrefix("192.0.2.0/24")
	trie.Insert(p, 1)
	trie.Insert(p, 2)
	if got, _ := trie.Lookup(netx.MustParseAddr("192.0.2.5")); got != 2 {
		t.Errorf("after replace Lookup = %d", got)
	}
	if trie.Len() != 1 {
		t.Errorf("Len = %d after replacing same prefix", trie.Len())
	}
}

func TestPrefixTrieDefaultRoute(t *testing.T) {
	var trie PrefixTrie
	trie.Insert(netx.MustParsePrefix("0.0.0.0/0"), 7)
	if got, ok := trie.Lookup(netx.MustParseAddr("203.0.113.99")); !ok || got != 7 {
		t.Errorf("default route lookup = %v,%v", got, ok)
	}
}

func TestPrefixTrieHostRoute(t *testing.T) {
	var trie PrefixTrie
	trie.Insert(netx.MustParsePrefix("203.0.113.7/32"), 9)
	if got, ok := trie.Lookup(netx.MustParseAddr("203.0.113.7")); !ok || got != 9 {
		t.Errorf("host route lookup = %v,%v", got, ok)
	}
	if _, ok := trie.Lookup(netx.MustParseAddr("203.0.113.8")); ok {
		t.Error("host route matched wrong address")
	}
}

// TestTrieMatchesLinear cross-checks the radix trie against the linear
// reference implementation on random prefix sets.
func TestTrieMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		var trie PrefixTrie
		var lin LinearPfx2AS
		n := 1 + local.Intn(50)
		for i := 0; i < n; i++ {
			bits := local.Intn(33)
			p := netx.PrefixFrom(netx.Addr(local.Uint32()), bits)
			asn := ASN(local.Intn(1000))
			trie.Insert(p, asn)
			lin.Insert(p, asn)
		}
		for i := 0; i < 200; i++ {
			a := netx.Addr(rng.Uint32())
			ta, tok := trie.Lookup(a)
			la, lok := lin.Lookup(a)
			if tok != lok || ta != la {
				t.Logf("mismatch at %v: trie=%v,%v linear=%v,%v", a, ta, tok, la, lok)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func testPlan(t testing.TB) *Plan {
	t.Helper()
	p, err := BuildPlan(PlanConfig{Seed: 1, NumSixteens: 512, NumActive24: 2000})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPlanActiveCapacity checks NumActive24 against the /24s the /16s
// hold: filling every one builds, and one more is an error rather than
// a sampler that can never finish.
func TestPlanActiveCapacity(t *testing.T) {
	const n16 = 128
	build := func(n24 int) (*Plan, error) {
		type result struct {
			p   *Plan
			err error
		}
		done := make(chan result, 1)
		go func() {
			p, err := BuildPlan(PlanConfig{Seed: 1, NumSixteens: n16, NumActive24: n24})
			done <- result{p, err}
		}()
		select {
		case r := <-done:
			return r.p, r.err
		case <-time.After(30 * time.Second):
			t.Fatalf("BuildPlan(NumActive24 %d) still running after 30s", n24)
			return nil, nil
		}
	}
	p, err := build(256 * n16)
	if err != nil {
		t.Fatalf("a full plan: %v", err)
	}
	if len(p.Active24s) != 256*n16 {
		t.Errorf("full plan has %d active /24s, want %d", len(p.Active24s), 256*n16)
	}
	if _, err := build(256*n16 + 1); err == nil {
		t.Error("one /24 more than the /16s hold: no error")
	}
}

func TestPlanBasics(t *testing.T) {
	p := testPlan(t)
	if p.NumActive24() < 2000 {
		t.Errorf("NumActive24 = %d, want >= 2000", p.NumActive24())
	}
	if len(p.ASes) < 100 {
		t.Errorf("only %d ASes", len(p.ASes))
	}
	// Every named AS must exist and be reachable by name.
	for _, name := range []string{"OVH", "GoDaddy", "Google Cloud", "Amazon AWS", "China Telecom", "CloudFlare"} {
		asn, ok := p.ASNByName(name)
		if !ok {
			t.Errorf("missing named AS %q", name)
			continue
		}
		as, ok := p.ASByNum(asn)
		if !ok || as.Name != name {
			t.Errorf("ASByNum(%d) = %v, %v", asn, as, ok)
		}
	}
	if asn, _ := p.ASNByName("OVH"); asn != 12276 {
		t.Errorf("OVH ASN = %d, want 12276 (paper §4)", asn)
	}
}

func TestPlanConsistency(t *testing.T) {
	p := testPlan(t)
	rng := rand.New(rand.NewSource(7))
	// Sampled addresses must geolocate to the AS's country and LPM back to
	// an AS (possibly a more-specific customer carved from the block).
	for i := 0; i < 2000; i++ {
		as := &p.ASes[rng.Intn(len(p.ASes))]
		addr, ok := p.RandomAddrInAS(rng, as.Num)
		if !ok {
			t.Fatalf("RandomAddrInAS(%d) failed", as.Num)
		}
		cc, ok := p.CountryOf(addr)
		if !ok || cc != as.Country {
			t.Fatalf("CountryOf(%v) = %v,%v want %v", addr, cc, ok, as.Country)
		}
		if _, ok := p.ASOf(addr); !ok {
			t.Fatalf("ASOf(%v) not found", addr)
		}
	}
}

func TestPlanTelescopeUnallocated(t *testing.T) {
	p := testPlan(t)
	inside := p.Telescope.First() + 12345
	if _, ok := p.CountryOf(inside); ok {
		t.Error("telescope space geolocates")
	}
	if _, ok := p.ASOf(inside); ok {
		t.Error("telescope space has an origin AS")
	}
	for _, a := range p.Active24s {
		if p.Telescope.Contains(a.Base) {
			t.Fatalf("active /24 %v inside telescope", a.Base)
		}
	}
}

func TestPlanActiveSampling(t *testing.T) {
	p := testPlan(t)
	rng := rand.New(rand.NewSource(3))
	blk, ok := p.RandomActive24(rng, CC("US"))
	if !ok {
		t.Fatal("no active /24 in US")
	}
	if cc, _ := p.CountryOf(blk.Base); cc != CC("US") {
		t.Errorf("US active block geolocates to %v", cc)
	}
	if blk.Base&0xff != 0 {
		t.Errorf("active base %v not /24-aligned", blk.Base)
	}
	ovh, _ := p.ASNByName("OVH")
	blk2, ok := p.RandomActive24InAS(rng, ovh)
	if !ok {
		t.Fatal("no active /24 in OVH")
	}
	if asn, _ := p.ASOf(blk2.Base); asn != ovh {
		t.Errorf("OVH active block maps to AS%d", asn)
	}
	if _, ok := p.RandomActive24(rng, CC("XX")); ok {
		t.Error("nonexistent country returned a block")
	}
}

func TestPlanDeterminism(t *testing.T) {
	a := testPlan(t)
	b := testPlan(t)
	if len(a.ASes) != len(b.ASes) || a.NumActive24() != b.NumActive24() {
		t.Fatal("plan not deterministic in sizes")
	}
	for i := range a.Active24s {
		if a.Active24s[i] != b.Active24s[i] {
			t.Fatalf("active block %d differs", i)
		}
	}
}

func TestPlanCountriesCovered(t *testing.T) {
	p := testPlan(t)
	for _, cc := range []string{"US", "CN", "RU", "FR", "DE", "GB", "JP"} {
		if len(p.activeByCountry[CC(cc)]) == 0 {
			t.Errorf("no active blocks in %s", cc)
		}
	}
}

func BenchmarkTrieLookup(b *testing.B) {
	p, err := BuildPlan(PlanConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	addrs := make([]netx.Addr, 1024)
	for i := range addrs {
		as := &p.ASes[rng.Intn(len(p.ASes))]
		addrs[i], _ = p.RandomAddrInAS(rng, as.Num)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Trie.Lookup(addrs[i%len(addrs)])
	}
}

func BenchmarkGeoLookup(b *testing.B) {
	p, err := BuildPlan(PlanConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	addrs := make([]netx.Addr, 1024)
	for i := range addrs {
		as := &p.ASes[rng.Intn(len(p.ASes))]
		addrs[i], _ = p.RandomAddrInAS(rng, as.Num)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Geo.Lookup(addrs[i%len(addrs)])
	}
}

func TestEveryASHasActiveBlock(t *testing.T) {
	// Customer ASes carved out of parent blocks must still receive their
	// guaranteed active /24 (regression: base collisions used to leave
	// them empty, breaking downstream IP allocation).
	for seed := int64(0); seed < 20; seed++ {
		p, err := BuildPlan(PlanConfig{Seed: seed, NumActive24: 1300})
		if err != nil {
			t.Fatal(err)
		}
		for i := range p.ASes {
			if len(p.activeByASN[p.ASes[i].Num]) == 0 {
				t.Fatalf("seed %d: AS%d has no active /24", seed, p.ASes[i].Num)
			}
		}
	}
}
