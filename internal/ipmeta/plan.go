package ipmeta

import (
	"fmt"
	"math/rand"
	"slices"

	"doscope/internal/netx"
)

// AS describes one autonomous system in the synthetic address plan.
type AS struct {
	Num      ASN
	Name     string // non-empty for named organizations
	Country  Country
	Prefixes []netx.Prefix
}

// NumAddrs returns the total number of addresses announced by the AS.
func (a *AS) NumAddrs() uint64 {
	var n uint64
	for _, p := range a.Prefixes {
		n += p.NumAddrs()
	}
	return n
}

// Active24 is a /24 block inferred to be actively used; attack targets are
// sampled from active blocks only, mirroring the paper's comparison of
// attacked /24s against the ~6.5M /24s estimated active on the Internet.
type Active24 struct {
	Base    netx.Addr // first address of the /24
	AS      ASN
	Country Country
}

// Plan is a synthetic Internet address plan: countries, ASNs, announced
// prefixes, active /24 blocks, and the derived geolocation database and
// prefix-to-AS trie.
type Plan struct {
	ASes      []AS
	Active24s []Active24
	Geo       *GeoDB
	Trie      *PrefixTrie
	Telescope netx.Prefix // the darknet /8, never allocated

	asIndex         map[ASN]int32
	asByName        map[string]ASN
	activeByCountry map[Country][]int32
	activeByASN     map[ASN][]int32
}

// PlanConfig parameterizes BuildPlan.
// DefaultSixteens is PlanConfig.NumSixteens when left zero.
const DefaultSixteens = 2048

type PlanConfig struct {
	Seed        int64
	NumSixteens int         // /16 blocks to allocate across countries (default DefaultSixteens)
	NumActive24 int         // active /24 blocks (default 6500 ≈ 6.5M scaled 1/1000)
	Telescope   netx.Prefix // darknet prefix to keep unallocated (default 44.0.0.0/8)
}

// CountryShare is a country's share of allocated address space.
type CountryShare struct {
	CC    Country
	Share float64
}

// DefaultCountryShares approximates published IPv4 space-usage estimates
// (cf. the paper's discussion of [26, 27]): the US holds the largest share,
// Japan ranks third. Attack-target country mixes are planted separately by
// the simulator; this table only shapes where address space lives.
func DefaultCountryShares() []CountryShare {
	return []CountryShare{
		{CC("US"), 0.300}, {CC("CN"), 0.080}, {CC("JP"), 0.062},
		{CC("DE"), 0.045}, {CC("GB"), 0.045}, {CC("KR"), 0.035},
		{CC("FR"), 0.032}, {CC("CA"), 0.030}, {CC("BR"), 0.028},
		{CC("IT"), 0.025}, {CC("RU"), 0.025}, {CC("AU"), 0.022},
		{CC("NL"), 0.020}, {CC("IN"), 0.020}, {CC("ES"), 0.018},
		{CC("MX"), 0.015}, {CC("SE"), 0.013}, {CC("TW"), 0.013},
		{CC("PL"), 0.012}, {CC("CH"), 0.011}, {CC("TR"), 0.010},
		{CC("AR"), 0.009}, {CC("ZA"), 0.007}, {CC("SG"), 0.006},
		{CC("ZZ"), 0.117}, // rest of world
	}
}

// namedAS fixes the organizations the paper names, with paper-consistent
// AS numbers where the paper states them (OVH appears as AS12276 in §4).
type namedAS struct {
	num      ASN
	name     string
	cc       string
	sixteens int
}

func namedASes() []namedAS {
	return []namedAS{
		{12276, "OVH", "FR", 4},
		{4134, "China Telecom", "CN", 8},
		{4837, "China Unicom", "CN", 6},
		{26496, "GoDaddy", "US", 4},
		{15169, "Google Cloud", "US", 8},
		{16509, "Amazon AWS", "US", 8},
		{2635, "Automattic", "US", 1},
		{53831, "Squarespace", "US", 1},
		{21740, "eNom", "US", 1},
		{46606, "Endurance (EIG)", "US", 2},
		{29169, "Gandi", "FR", 1},
		{19871, "Network Solutions", "US", 1},
		// DPS provider scrubbing infrastructure.
		{12222, "Akamai", "US", 2},
		{209, "CenturyLink", "US", 2},
		{13335, "CloudFlare", "US", 2},
		{19324, "DOSarrest", "US", 1},
		{55002, "F5 Networks", "US", 1},
		{19551, "Incapsula", "US", 2},
		{3356, "Level 3", "US", 2},
		{19905, "Neustar", "US", 2},
		{26134, "Verisign", "US", 1},
		{197068, "VirtualRoad", "SE", 1},
	}
}

// BuildPlan constructs a deterministic synthetic Internet for the given
// configuration.
func BuildPlan(cfg PlanConfig) (*Plan, error) {
	if cfg.NumSixteens == 0 {
		cfg.NumSixteens = DefaultSixteens
	}
	if cfg.NumActive24 == 0 {
		cfg.NumActive24 = 6500
	}
	if cfg.Telescope == (netx.Prefix{}) {
		cfg.Telescope = netx.MustParsePrefix("44.0.0.0/8")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	shares := DefaultCountryShares()

	// Allocate /16 counts per country.
	type alloc struct {
		cc  Country
		n16 int
	}
	allocs := make([]alloc, 0, len(shares))
	total := 0
	for _, s := range shares {
		n := int(s.Share*float64(cfg.NumSixteens) + 0.5)
		if n < 2 {
			n = 2
		}
		allocs = append(allocs, alloc{s.CC, n})
		total += n
	}
	if total > cfg.NumSixteens {
		// Trim the rest-of-world bucket to fit.
		allocs[len(allocs)-1].n16 -= total - cfg.NumSixteens
		if allocs[len(allocs)-1].n16 < 2 {
			return nil, fmt.Errorf("ipmeta: NumSixteens %d too small", cfg.NumSixteens)
		}
	}
	// The active /24s are drawn from the allocated /16s; asking for more
	// than they hold would leave sampleActive drawing forever.
	if held := 256 * min(total, cfg.NumSixteens); cfg.NumActive24 > held {
		return nil, fmt.Errorf("ipmeta: NumActive24 %d exceeds the %d /24s in %d /16s", cfg.NumActive24, held, held/256)
	}

	// Walk /16 blocks across usable /8s, skipping reserved space and the
	// telescope.
	telescopeOctet := byte(uint32(cfg.Telescope.Addr()) >> 24)
	var blocks []netx.Addr // /16 base addresses, allocated in order
	for o8 := 1; o8 <= 223 && len(blocks) < cfg.NumSixteens; o8++ {
		if byte(o8) == telescopeOctet || o8 == 127 {
			continue
		}
		for o16 := 0; o16 < 256 && len(blocks) < cfg.NumSixteens; o16++ {
			blocks = append(blocks, netx.AddrFrom4(byte(o8), byte(o16), 0, 0))
		}
	}
	if len(blocks) < cfg.NumSixteens {
		return nil, fmt.Errorf("ipmeta: cannot place %d /16s", cfg.NumSixteens)
	}

	p := &Plan{
		Telescope:       cfg.Telescope,
		asIndex:         make(map[ASN]int32),
		asByName:        make(map[string]ASN),
		activeByCountry: make(map[Country][]int32),
		activeByASN:     make(map[ASN][]int32),
	}

	// Hand consecutive /16 runs to each country; named ASes first, then
	// generic ASes of Zipf-ish size.
	named := namedASes()
	namedByCC := make(map[Country][]namedAS)
	for _, n := range named {
		namedByCC[CC(n.cc)] = append(namedByCC[CC(n.cc)], n)
	}
	cursor := 0
	genericASN := ASN(60000)
	var geoRanges []GeoRange
	for _, al := range allocs {
		remaining := al.n16
		take := func(n int) []netx.Prefix {
			if n > remaining {
				n = remaining
			}
			prefixes := make([]netx.Prefix, 0, n)
			for i := 0; i < n; i++ {
				prefixes = append(prefixes, netx.PrefixFrom(blocks[cursor], 16))
				cursor++
			}
			remaining -= n
			return prefixes
		}
		for _, n := range namedByCC[al.cc] {
			prefixes := take(n.sixteens)
			if len(prefixes) == 0 {
				continue
			}
			p.addAS(AS{Num: n.num, Name: n.name, Country: al.cc, Prefixes: prefixes})
		}
		for remaining > 0 {
			size := 1 + rng.Intn(4) // 1..4 /16s per generic AS
			prefixes := take(size)
			p.addAS(AS{Num: genericASN, Country: al.cc, Prefixes: prefixes})
			genericASN++
		}
	}

	// Derived structures: geo ranges (one per announced /16) and the LPM
	// trie. A small fraction of generic ASes delegate a more-specific /20
	// to a customer ASN, so longest-prefix matching is exercised for real.
	for i := range p.ASes {
		as := &p.ASes[i]
		for _, pre := range as.Prefixes {
			geoRanges = append(geoRanges, GeoRange{First: pre.First(), Last: pre.Last(), Country: as.Country})
			p.Trie.Insert(pre, as.Num)
		}
	}
	moreSpecifics := 0
	for i := range p.ASes {
		as := &p.ASes[i]
		if as.Name == "" && rng.Float64() < 0.05 {
			sub := netx.PrefixFrom(as.Prefixes[0].Addr(), 20)
			cust := AS{Num: genericASN, Country: as.Country, Prefixes: []netx.Prefix{sub}}
			genericASN++
			p.addAS(cust)
			p.Trie.Insert(sub, cust.Num)
			moreSpecifics++
		}
	}
	_ = moreSpecifics

	geo, err := NewGeoDB(geoRanges)
	if err != nil {
		return nil, err
	}
	p.Geo = geo

	// Sample active /24 blocks: every AS gets at least one; hoster-named
	// ASes are guaranteed several since Web hosting concentrates there.
	p.sampleActive(rng, cfg.NumActive24)
	return p, nil
}

func (p *Plan) addAS(as AS) {
	if p.Trie == nil {
		p.Trie = &PrefixTrie{}
	}
	p.asIndex[as.Num] = int32(len(p.ASes))
	if as.Name != "" {
		p.asByName[as.Name] = as.Num
	}
	p.ASes = append(p.ASes, as)
}

func (p *Plan) sampleActive(rng *rand.Rand, want int) {
	// A sampled block is kept as base<<32 | its AS's index in p.ASes.
	// Bases are distinct, so sorting the keys sorts the blocks by base.
	seen := make(map[netx.Addr]struct{}, want)
	keys := make([]uint64, 0, want)
	add := func(base netx.Addr, asi int) bool {
		if _, ok := seen[base]; ok {
			return false
		}
		seen[base] = struct{}{}
		keys = append(keys, uint64(base)<<32|uint64(asi))
		return true
	}
	// Guaranteed floor per AS (named ASes get a denser floor). Retry on
	// base collisions: a customer AS carved out of a parent block must
	// still end up with at least one active /24 of its own.
	for i := range p.ASes {
		as := &p.ASes[i]
		floor := 1
		if as.Name != "" {
			floor = 8
		}
		for j := 0; j < floor; j++ {
			for tries := 0; tries < 64; tries++ {
				pre := as.Prefixes[rng.Intn(len(as.Prefixes))]
				off := netx.Addr(rng.Int63n(int64(pre.NumAddrs()))) &^ 0xff
				if add(pre.First()+off, i) {
					break
				}
			}
		}
	}
	// Fill the remainder proportional to AS size.
	cum := make([]uint64, len(p.ASes))
	var totalAddrs uint64
	for i := range p.ASes {
		totalAddrs += p.ASes[i].NumAddrs()
		cum[i] = totalAddrs
	}
	for len(keys) < want {
		x := uint64(rng.Int63n(int64(totalAddrs)))
		i, _ := slices.BinarySearch(cum, x+1) // the first AS with cum > x
		pre := p.ASes[i].Prefixes[rng.Intn(len(p.ASes[i].Prefixes))]
		off := netx.Addr(rng.Int63n(int64(pre.NumAddrs()))) &^ 0xff
		_ = add(pre.First()+off, i)
	}
	slices.Sort(keys)
	// Materialize the blocks in base order and index them by country
	// and AS.
	p.Active24s = make([]Active24, len(keys))
	for i, k := range keys {
		as := &p.ASes[uint32(k)]
		p.Active24s[i] = Active24{Base: netx.Addr(k >> 32), AS: as.Num, Country: as.Country}
		p.activeByCountry[as.Country] = append(p.activeByCountry[as.Country], int32(i))
		p.activeByASN[as.Num] = append(p.activeByASN[as.Num], int32(i))
	}
}

// CountryOf returns the country an address geolocates to ("ZZ" semantics
// are up to the caller; ok is false outside allocated space).
func (p *Plan) CountryOf(a netx.Addr) (Country, bool) { return p.Geo.Lookup(a) }

// ASOf returns the origin AS for an address by longest prefix match.
func (p *Plan) ASOf(a netx.Addr) (ASN, bool) { return p.Trie.Lookup(a) }

// ASByNum returns the AS record for a number.
func (p *Plan) ASByNum(n ASN) (*AS, bool) {
	i, ok := p.asIndex[n]
	if !ok {
		return nil, false
	}
	return &p.ASes[i], true
}

// ASNByName resolves a named organization ("OVH", "GoDaddy", ...).
func (p *Plan) ASNByName(name string) (ASN, bool) {
	n, ok := p.asByName[name]
	return n, ok
}

// NumActive24 returns the number of active /24 blocks.
func (p *Plan) NumActive24() int { return len(p.Active24s) }

// RandomActive24 picks a uniformly random active /24 in the given country.
func (p *Plan) RandomActive24(rng *rand.Rand, cc Country) (Active24, bool) {
	idxs := p.activeByCountry[cc]
	if len(idxs) == 0 {
		return Active24{}, false
	}
	return p.Active24s[idxs[rng.Intn(len(idxs))]], true
}

// RandomActive24InAS picks a uniformly random active /24 in the given AS.
func (p *Plan) RandomActive24InAS(rng *rand.Rand, asn ASN) (Active24, bool) {
	idxs := p.activeByASN[asn]
	if len(idxs) == 0 {
		return Active24{}, false
	}
	return p.Active24s[idxs[rng.Intn(len(idxs))]], true
}

// RandomAddrInAS picks a random address announced by the AS.
func (p *Plan) RandomAddrInAS(rng *rand.Rand, asn ASN) (netx.Addr, bool) {
	as, ok := p.ASByNum(asn)
	if !ok || len(as.Prefixes) == 0 {
		return 0, false
	}
	pre := as.Prefixes[rng.Intn(len(as.Prefixes))]
	return pre.First() + netx.Addr(rng.Int63n(int64(pre.NumAddrs()))), true
}
