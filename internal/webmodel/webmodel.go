// Package webmodel generates the synthetic Web hosting ecosystem that
// substitutes for the OpenINTEL view of .com/.net/.org: domains with www
// labels, hosting pools (from single self-hosted sites to mega hosters
// sharding millions of sites over a handful of IPs), DPS-fronted pools,
// and the migration behaviour the paper studies in §6.
//
// The default tier table is calibrated so that, at any scale, the paper's
// §5/§6 masses hold: ~64% of sites live on IPs the simulator will attack,
// preexisting DPS customers concentrate on attacked infrastructure
// (18.6% vs 0.89%), and the Figure 6 co-hosting distribution spans
// single-site IPs up to a DOSarrest-routed IP hosting the maximum number
// of sites.
package webmodel

import (
	"fmt"
	"math/rand"
	"sort"

	"doscope/internal/dps"
	"doscope/internal/ipmeta"
	"doscope/internal/netx"
)

// TLD identifies the generic TLDs the paper measures.
type TLD uint8

// The three gTLDs.
const (
	TLDCom TLD = iota
	TLDNet
	TLDOrg
	NumTLDs = int(TLDOrg) + 1
)

// String returns the zone name.
func (t TLD) String() string {
	switch t {
	case TLDCom:
		return "com"
	case TLDNet:
		return "net"
	case TLDOrg:
		return "org"
	}
	return "tld?"
}

// tldWeights follow Table 2: 173.7M / 21.6M / 14.7M Web sites.
var tldWeights = [NumTLDs]float64{173.7, 21.6, 14.7}

// FullScaleDomains is the paper's Web-site population (Table 2).
const FullScaleDomains = 210e6

// Domain is one Web site (a registered domain with a www label).
type Domain struct {
	TLD      TLD
	BirthDay uint16
	// Pool is the hosting pool index, or -1 for self-hosted singles.
	Pool int32
	// SingleIP indexes Population.SingleIPs when Pool == -1.
	SingleIP int32
	// Pre is the preexisting DPS provider (None if unprotected at birth).
	Pre dps.Provider
	// MigDay is the day the site first appears protected (migration), -1
	// if never; MigTo is the adopted provider.
	MigDay int32
	MigTo  dps.Provider
}

// Protected reports the provider in effect on the given day.
func (d *Domain) Protected(day int) dps.Provider {
	if d.Pre != dps.None {
		return d.Pre
	}
	if d.MigDay >= 0 && int(d.MigDay) <= day {
		return d.MigTo
	}
	return dps.None
}

// Pool is a hosting pool: one hoster's shared infrastructure. Build gives
// each pool a consecutive run of domain ids, Sites; the site at position
// i of that run is served by IPs[i % len(IPs)] (sharding) and has its
// mail at MailIPs[i % len(MailIPs)]. Population.site is the one place
// that computes the position.
type Pool struct {
	Name    string
	Tier    string
	ASN     ipmeta.ASN
	Country ipmeta.Country
	NS      string // hoster name-server target
	// CNAMEHost, when set, makes www labels expand through a hoster CNAME
	// (Wix-style platforms).
	CNAMEHost string
	// Front is the DPS provider fronting the whole pool (preexisting
	// protection detected via the A record's origin AS).
	Front dps.Provider
	IPs   []netx.Addr
	// MailIPs is the pool's shared mail cluster (see mail.go).
	MailIPs []netx.Addr
	Sites   []uint32
	// Attacked marks pools the simulator will target; Weight shapes how
	// often (per IP).
	Attacked bool
	Weight   float64
	Bulk     *BulkMigration
}

// BulkMigration models hoster-level migrations (Wix to Incapsula next-day
// after the Nov 4, 2016 attack; eNom to Verisign after 101 days).
type BulkMigration struct {
	// TriggerDay is the day the simulator plants the triggering attack.
	TriggerDay int
	// MinDurationSec forces the trigger attack to be at least this long
	// (Fig. 11 conditions on >= 4h attacks).
	MinDurationSec int64
	DelayDays      int
	To             dps.Provider
}

// Config parameterizes Build.
type Config struct {
	Seed       int64
	NumDomains int // default 210_000 (1/1000 scale)
	Plan       *ipmeta.Plan
	// NewbornFraction of domains appear during the window rather than on
	// day 0. Default 0.15.
	NewbornFraction float64
	// BackgroundMigrationRate is the no-attack-observed migration rate
	// (Fig. 8: 3.32%). Default 0.0332.
	BackgroundMigrationRate float64
	// PreexistingQuietRate is the preexisting-DPS rate among never-attacked
	// sites (Fig. 8: 0.89%). Default 0.0089.
	PreexistingQuietRate float64
	// MigrationProb is the per-site probability of migrating after an
	// attack exposure (individual migrations; bulk migrations add the
	// rest of the paper's 4.31%). Default 0.0376.
	MigrationProb float64
	// WindowDays is the observation window length. Default 731.
	WindowDays int
}

func (c *Config) applyDefaults() {
	if c.NumDomains == 0 {
		c.NumDomains = 210_000
	}
	if c.NewbornFraction == 0 {
		c.NewbornFraction = 0.15
	}
	if c.BackgroundMigrationRate == 0 {
		c.BackgroundMigrationRate = 0.0332
	}
	if c.PreexistingQuietRate == 0 {
		c.PreexistingQuietRate = 0.0089
	}
	if c.MigrationProb == 0 {
		c.MigrationProb = 0.0376
	}
	if c.WindowDays == 0 {
		c.WindowDays = 731
	}
}

// TierSpec declares one row of the hosting tier table with full-scale site
// counts; Build scales them by NumDomains/FullScaleDomains.
type TierSpec struct {
	Name      string
	ASName    string // named AS in the plan ("" = generic AS by country)
	Country   string // used for generic pools; cycled when empty
	Pools     int
	IPsPer    int
	SitesFull float64 // sites per pool at full scale
	Front     dps.Provider
	CNAMEHost string
	Attacked  bool
	Weight    float64
	Bulk      *BulkMigration
}

// DefaultTiers is the calibrated hosting tier table (see package comment).
func DefaultTiers() []TierSpec {
	return []TierSpec{
		{Name: "GoDaddy", ASName: "GoDaddy", Country: "US", Pools: 1, IPsPer: 20, SitesFull: 32e6, Attacked: true, Weight: 30},
		{Name: "Wix", ASName: "Amazon AWS", Country: "US", Pools: 1, IPsPer: 1, SitesFull: 0.5e6, CNAMEHost: "wix-sites.com", Attacked: true, Weight: 10,
			Bulk: &BulkMigration{TriggerDay: 614, MinDurationSec: 4 * 3600, DelayDays: 1, To: dps.Incapsula}},
		{Name: "WordPress", ASName: "Automattic", Country: "US", Pools: 1, IPsPer: 2, SitesFull: 5e6, Attacked: true, Weight: 10},
		{Name: "Google", ASName: "Google Cloud", Country: "US", Pools: 1, IPsPer: 5, SitesFull: 10e6, Attacked: true, Weight: 15},
		{Name: "AmazonReseller", ASName: "Amazon AWS", Country: "US", Pools: 1, IPsPer: 3, SitesFull: 9e6, CNAMEHost: "reseller-pages.com", Attacked: true, Weight: 10},
		{Name: "Squarespace", ASName: "Squarespace", Country: "US", Pools: 1, IPsPer: 2, SitesFull: 4e6, Attacked: true, Weight: 8},
		{Name: "eNom", ASName: "eNom", Country: "US", Pools: 1, IPsPer: 1, SitesFull: 0.13e6, Attacked: true, Weight: 2,
			Bulk: &BulkMigration{TriggerDay: 350, MinDurationSec: 5 * 3600, DelayDays: 101, To: dps.Verisign}},
		{Name: "EIG", ASName: "Endurance (EIG)", Country: "US", Pools: 1, IPsPer: 10, SitesFull: 13e6, Attacked: true, Weight: 12},
		{Name: "OVH", ASName: "OVH", Country: "FR", Pools: 1, IPsPer: 15, SitesFull: 13e6, Attacked: true, Weight: 25},
		{Name: "NetworkSolutions", ASName: "Network Solutions", Country: "US", Pools: 1, IPsPer: 5, SitesFull: 6.5e6, Attacked: true, Weight: 6},
		{Name: "Gandi", ASName: "Gandi", Country: "FR", Pools: 1, IPsPer: 3, SitesFull: 2.5e6, Attacked: true, Weight: 4},
		// DPS-fronted pools: preexisting customers, attacked but mitigated.
		{Name: "CloudFlareFront", ASName: "CloudFlare", Country: "US", Pools: 1, IPsPer: 2, SitesFull: 9e6, Front: dps.CloudFlare, Attacked: true, Weight: 8},
		{Name: "AkamaiFront", ASName: "Akamai", Country: "US", Pools: 1, IPsPer: 2, SitesFull: 5.5e6, Front: dps.Akamai, Attacked: true, Weight: 5},
		{Name: "NeustarFront", ASName: "Neustar", Country: "US", Pools: 1, IPsPer: 2, SitesFull: 4.3e6, Front: dps.Neustar, Attacked: true, Weight: 4},
		{Name: "DOSarrestFront", ASName: "DOSarrest", Country: "US", Pools: 1, IPsPer: 1, SitesFull: 3.6e6, Front: dps.DOSarrest, Attacked: true, Weight: 4},
		{Name: "IncapsulaFront", ASName: "Incapsula", Country: "US", Pools: 1, IPsPer: 1, SitesFull: 1.5e6, Front: dps.Incapsula, Attacked: true, Weight: 3},
		{Name: "F5Front", ASName: "F5 Networks", Country: "US", Pools: 1, IPsPer: 1, SitesFull: 0.5e6, Front: dps.F5, Attacked: true, Weight: 1},
		{Name: "VerisignFront", ASName: "Verisign", Country: "US", Pools: 1, IPsPer: 1, SitesFull: 0.3e6, Front: dps.Verisign, Attacked: true, Weight: 1},
		{Name: "CenturyLinkFront", ASName: "CenturyLink", Country: "US", Pools: 1, IPsPer: 1, SitesFull: 0.15e6, Front: dps.CenturyLink, Attacked: true, Weight: 1},
		{Name: "Level3Front", ASName: "Level 3", Country: "US", Pools: 1, IPsPer: 1, SitesFull: 0.05e6, Front: dps.Level3, Attacked: true, Weight: 0.5},
		{Name: "VirtualRoadFront", ASName: "VirtualRoad", Country: "SE", Pools: 1, IPsPer: 1, SitesFull: 0.00006e6, Front: dps.VirtualRoad, Attacked: true, Weight: 0.2},
		// Generic hosting, attacked and quiet.
		{Name: "large", Pools: 12, IPsPer: 1, SitesFull: 0.6e6, Attacked: true, Weight: 2},
		{Name: "large-quiet", Pools: 8, IPsPer: 1, SitesFull: 0.6e6},
		{Name: "medium", Pools: 110, IPsPer: 1, SitesFull: 0.05e6, Attacked: true, Weight: 0.5},
		{Name: "small", Pools: 199, IPsPer: 1, SitesFull: 0.008e6, Attacked: true, Weight: 0.2},
		{Name: "small-quiet", Pools: 51, IPsPer: 1, SitesFull: 0.008e6},
	}
}

// genericCountries cycles hosting countries for generic pools.
var genericCountries = []string{
	"US", "US", "US", "US", "DE", "GB", "FR", "NL", "CA", "CN", "CN", "RU", "JP", "US", "DE", "GB",
}

// Population is the generated ecosystem.
type Population struct {
	cfg     Config
	Domains []Domain
	Pools   []Pool
	// SingleIPs holds the self-hosted sites' addresses.
	SingleIPs []netx.Addr

	poolByName map[string]int32
	// addrs holds every address Build and BuildMail allocated: a pool
	// Web IP maps to -1, self-hosted single k's IP to k and the pools'
	// j-th mail-cluster address to len(SingleIPs)+j. The non-negative
	// values are mail slots (a single runs mail on its Web IP); mailOff,
	// mailIDs and mailBirth are the per-slot domain lists built by
	// indexMail (nil before BuildMail), with each domain's birth day
	// alongside its id.
	addrs     map[netx.Addr]int32
	mailOff   []int32
	mailIDs   []uint32
	mailBirth []uint16
	// providerFrontAddr receives individually migrated sites' A records.
	providerFrontAddr [dps.NumProviders + 1]netx.Addr
	// providerASNs is the set of DPS provider networks; self-hosted
	// singles never allocate addresses there (a site on provider space
	// would be detected as a customer).
	providerASNs map[ipmeta.ASN]bool
}

// Build generates a deterministic population.
func Build(cfg Config, tiers []TierSpec) (*Population, error) {
	cfg.applyDefaults()
	if cfg.Plan == nil {
		return nil, fmt.Errorf("webmodel: Config.Plan is required")
	}
	if tiers == nil {
		tiers = DefaultTiers()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := &Population{
		cfg:        cfg,
		poolByName: make(map[string]int32),
		addrs:      make(map[netx.Addr]int32),
	}
	scale := float64(cfg.NumDomains) / FullScaleDomains

	// Create pools and allocate their IPs.
	genericASNsByCC := indexGenericASNs(cfg.Plan)
	gcIdx := 0
	poolSites := 0
	for _, tier := range tiers {
		for k := 0; k < tier.Pools; k++ {
			sites := int(tier.SitesFull * scale)
			if sites < 1 {
				sites = 1
			}
			cc := tier.Country
			if cc == "" {
				cc = genericCountries[gcIdx%len(genericCountries)]
				gcIdx++
			}
			pool := Pool{
				Name:      tier.Name,
				Tier:      tier.Name,
				Country:   ipmeta.CC(cc),
				CNAMEHost: tier.CNAMEHost,
				Front:     tier.Front,
				Attacked:  tier.Attacked,
				Weight:    tier.Weight,
				Bulk:      tier.Bulk,
			}
			if tier.Pools > 1 {
				pool.Name = fmt.Sprintf("%s-%d", tier.Name, k)
			}
			if tier.ASName != "" {
				asn, ok := cfg.Plan.ASNByName(tier.ASName)
				if !ok {
					return nil, fmt.Errorf("webmodel: unknown AS %q", tier.ASName)
				}
				pool.ASN = asn
			} else {
				asns := genericASNsByCC[ipmeta.CC(cc)]
				if len(asns) == 0 {
					return nil, fmt.Errorf("webmodel: no generic AS in %s", cc)
				}
				pool.ASN = asns[rng.Intn(len(asns))]
			}
			pool.NS = fmt.Sprintf("ns1.%s-dns.net", sanitize(pool.Name))
			for len(pool.IPs) < tier.IPsPer {
				addr, ok := p.allocIPInAS(rng, cfg.Plan, pool.ASN)
				if !ok {
					return nil, fmt.Errorf("webmodel: cannot allocate IP in AS%d", pool.ASN)
				}
				p.addrs[addr] = -1
				pool.IPs = append(pool.IPs, addr)
			}
			pool.Sites = make([]uint32, 0, sites)
			poolSites += sites
			p.poolByName[pool.Name] = int32(len(p.Pools))
			p.Pools = append(p.Pools, pool)
		}
	}
	if poolSites > cfg.NumDomains {
		return nil, fmt.Errorf("webmodel: tier table wants %d sites but only %d domains", poolSites, cfg.NumDomains)
	}

	// Provider front addresses for individually migrated sites.
	p.providerASNs = make(map[ipmeta.ASN]bool)
	for _, prov := range dps.All() {
		asn, ok := cfg.Plan.ASNByName(dps.ASName(prov))
		if !ok {
			return nil, fmt.Errorf("webmodel: provider AS %q missing", dps.ASName(prov))
		}
		addr, ok := cfg.Plan.RandomAddrInAS(rng, asn)
		if !ok {
			return nil, fmt.Errorf("webmodel: no address in provider AS %q", dps.ASName(prov))
		}
		p.providerFrontAddr[prov] = addr
		p.providerASNs[asn] = true
	}

	// Create domains: fill pools first, the remainder self-hosts.
	p.Domains = make([]Domain, cfg.NumDomains)
	id := uint32(0)
	for pi := range p.Pools {
		pool := &p.Pools[pi]
		for len(pool.Sites) < cap(pool.Sites) {
			pool.Sites = append(pool.Sites, id)
			p.Domains[id].Pool = int32(pi)
			p.Domains[id].SingleIP = -1
			id++
		}
	}
	for ; id < uint32(cfg.NumDomains); id++ {
		addr := p.allocSingleIP(rng, cfg.Plan)
		p.Domains[id].Pool = -1
		p.Domains[id].SingleIP = int32(len(p.SingleIPs))
		p.addrs[addr] = int32(len(p.SingleIPs))
		p.SingleIPs = append(p.SingleIPs, addr)
	}

	// TLDs, birth days, preexisting flags and background migrations.
	totalW := tldWeights[0] + tldWeights[1] + tldWeights[2]
	for i := range p.Domains {
		d := &p.Domains[i]
		x := rng.Float64() * totalW
		switch {
		case x < tldWeights[0]:
			d.TLD = TLDCom
		case x < tldWeights[0]+tldWeights[1]:
			d.TLD = TLDNet
		default:
			d.TLD = TLDOrg
		}
		if rng.Float64() < cfg.NewbornFraction {
			d.BirthDay = uint16(rng.Intn(cfg.WindowDays))
		}
		d.MigDay = -1
		pool, _ := p.site(uint32(i))
		if pool != nil && pool.Front != dps.None {
			d.Pre = pool.Front
			continue
		}
		attacked := pool != nil && pool.Attacked
		if !attacked {
			// Quiet infrastructure: background preexisting use and
			// background (no-attack-observed) migration.
			if rng.Float64() < cfg.PreexistingQuietRate {
				d.Pre = backgroundProvider(rng)
			} else if rng.Float64() < cfg.BackgroundMigrationRate {
				lo := int(d.BirthDay) + 1
				if lo >= cfg.WindowDays {
					continue
				}
				d.MigDay = int32(lo + rng.Intn(cfg.WindowDays-lo))
				d.MigTo = backgroundProvider(rng)
			}
		}
	}
	return p, nil
}

func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'A' && c <= 'Z':
			out = append(out, c-'A'+'a')
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-':
			out = append(out, c)
		}
	}
	return string(out)
}

func indexGenericASNs(plan *ipmeta.Plan) map[ipmeta.Country][]ipmeta.ASN {
	out := make(map[ipmeta.Country][]ipmeta.ASN)
	for i := range plan.ASes {
		as := &plan.ASes[i]
		if as.Name == "" {
			out[as.Country] = append(out[as.Country], as.Num)
		}
	}
	return out
}

func (p *Population) allocIPInAS(rng *rand.Rand, plan *ipmeta.Plan, asn ipmeta.ASN) (netx.Addr, bool) {
	free := func(addr netx.Addr) bool {
		_, used := p.addrs[addr]
		return !used
	}
	for tries := 0; tries < 500; tries++ {
		blk, ok := plan.RandomActive24InAS(rng, asn)
		if !ok {
			return 0, false
		}
		addr := blk.Base + netx.Addr(1+rng.Intn(254))
		if free(addr) {
			return addr, true
		}
	}
	// Random probing failed (a small, densely allocated AS): scan a block
	// sequentially so allocation degrades gracefully instead of failing.
	for tries := 0; tries < 20; tries++ {
		blk, ok := plan.RandomActive24InAS(rng, asn)
		if !ok {
			return 0, false
		}
		for host := netx.Addr(1); host <= 254; host++ {
			if addr := blk.Base + host; free(addr) {
				return addr, true
			}
		}
	}
	return 0, false
}

func (p *Population) allocSingleIP(rng *rand.Rand, plan *ipmeta.Plan) netx.Addr {
	for {
		blk := plan.Active24s[rng.Intn(len(plan.Active24s))]
		if p.providerASNs[blk.AS] {
			continue // provider space would read as DPS use
		}
		addr := blk.Base + netx.Addr(1+rng.Intn(254))
		if _, used := p.addrs[addr]; used {
			continue
		}
		return addr
	}
}

// site places a domain: the pool hosting it and its position in the
// pool's run of ids, or a nil pool for a self-hosted single. Web and mail
// addresses are both picked by this position.
func (p *Population) site(id uint32) (*Pool, int) {
	pi := p.Domains[id].Pool
	if pi < 0 {
		return nil, 0
	}
	pool := &p.Pools[pi]
	return pool, int(id - pool.Sites[0])
}

// backgroundProvider draws the provider for organic (non-attack-driven)
// DPS adoption, CloudFlare-heavy like the real market.
func backgroundProvider(rng *rand.Rand) dps.Provider {
	return weightedProvider(rng)
}

var migrationWeights = []struct {
	p dps.Provider
	w float64
}{
	{dps.CloudFlare, 0.30}, {dps.Incapsula, 0.15}, {dps.Akamai, 0.12},
	{dps.Neustar, 0.12}, {dps.Verisign, 0.08}, {dps.DOSarrest, 0.08},
	{dps.F5, 0.06}, {dps.CenturyLink, 0.04}, {dps.Level3, 0.03},
	{dps.VirtualRoad, 0.02},
}

func weightedProvider(rng *rand.Rand) dps.Provider {
	x := rng.Float64()
	for _, mw := range migrationWeights {
		if x < mw.w {
			return mw.p
		}
		x -= mw.w
	}
	return dps.CloudFlare
}

// --- accessors ----------------------------------------------------------

// NumDomains returns the population size.
func (p *Population) NumDomains() int { return len(p.Domains) }

// DomainName renders the registered name of a domain id.
func (p *Population) DomainName(id uint32) string {
	return fmt.Sprintf("w%07d.%s", id, p.Domains[id].TLD)
}

// PoolByName returns a pool by its unique name.
func (p *Population) PoolByName(name string) (*Pool, bool) {
	i, ok := p.poolByName[name]
	if !ok {
		return nil, false
	}
	return &p.Pools[i], true
}

// AddrOf returns the A-record address of a domain on a day. It is the
// Web model's only placement rule: the measured History and the
// generator's exposure join both read it.
func (p *Population) AddrOf(id uint32, day int) netx.Addr {
	d := &p.Domains[id]
	pool, pos := p.site(id)
	if prov := d.Protected(day); prov != dps.None && (pool == nil || pool.Front != prov) {
		return p.providerFrontAddr[prov]
	}
	// A DPS-fronted pool's IPs already sit in provider space.
	if pool != nil {
		return pool.IPs[pos%len(pool.IPs)]
	}
	return p.SingleIPs[d.SingleIP]
}

// DNSStateOf returns the detection-relevant DNS view of a domain on a day.
func (p *Population) DNSStateOf(id uint32, day int) dps.DNSState {
	d := &p.Domains[id]
	pool, _ := p.site(id)
	var st dps.DNSState
	prov := d.Protected(day)
	switch {
	case prov != dps.None && pool != nil && pool.Front == prov:
		// Fronted pool: hoster NS, no CNAME; detection must use the A
		// record's origin AS (BGP-style diversion).
		st.NS = []string{pool.NS}
	case prov != dps.None && pool != nil && pool.CNAMEHost != "":
		// Platform migrates by swinging its CNAME to the provider.
		st.NS = []string{pool.NS}
		st.CNAME = dps.CNAMETarget(prov, fmt.Sprintf("u%d", id))
	case prov != dps.None:
		// DNS-based diversion: the domain's NS moves to the provider.
		st.NS = []string{dps.NameServer(prov)}
	case pool != nil && pool.CNAMEHost != "":
		st.NS = []string{pool.NS}
		st.CNAME = fmt.Sprintf("u%d.%s", id, pool.CNAMEHost)
	case pool != nil:
		st.NS = []string{pool.NS}
	default:
		st.NS = []string{fmt.Sprintf("ns1.w%07d.%s", id, d.TLD)}
	}
	if asn, ok := p.cfg.Plan.ASOf(p.AddrOf(id, day)); ok {
		st.AASN = asn
	}
	return st
}

// Alive reports whether the domain exists in the DNS on the given day.
func (p *Population) Alive(id uint32, day int) bool {
	return int(p.Domains[id].BirthDay) <= day
}

// HostsAnySite reports whether addr is a pool Web IP or a self-hosted
// single's IP, the addresses whose attacks expose sites (used to decide
// which attack targets are "Web targets").
func (p *Population) HostsAnySite(addr netx.Addr) bool {
	v, ok := p.addrs[addr]
	return ok && v < int32(len(p.SingleIPs))
}

// --- attack wiring --------------------------------------------------------

// WebTarget is an attackable Web-hosting IP exposed to the simulator.
type WebTarget struct {
	Addr   netx.Addr
	Weight float64
	Pool   int32 // -1 for singles
}

// AttackableTargets lists pool IPs marked for attack plus a deterministic
// sample of single-site IPs (the paper's Fig. 6 n=1 bin).
func (p *Population) AttackableTargets(seed int64, singles int) []WebTarget {
	rng := rand.New(rand.NewSource(seed))
	var out []WebTarget
	for pi := range p.Pools {
		pool := &p.Pools[pi]
		if !pool.Attacked {
			continue
		}
		for _, addr := range pool.IPs {
			out = append(out, WebTarget{Addr: addr, Weight: pool.Weight, Pool: int32(pi)})
		}
	}
	if singles > len(p.SingleIPs) {
		singles = len(p.SingleIPs)
	}
	perm := rng.Perm(len(p.SingleIPs))[:singles]
	sort.Ints(perm)
	for _, i := range perm {
		out = append(out, WebTarget{Addr: p.SingleIPs[i], Weight: 0.1, Pool: -1})
	}
	return out
}

// BulkTrigger describes an attack the simulator must plant to fire a
// hoster-level migration.
type BulkTrigger struct {
	PoolName       string
	Addr           netx.Addr
	Day            int
	MinDurationSec int64
}

// BulkTriggers lists required planted attacks.
func (p *Population) BulkTriggers() []BulkTrigger {
	var out []BulkTrigger
	for pi := range p.Pools {
		pool := &p.Pools[pi]
		if pool.Bulk == nil {
			continue
		}
		out = append(out, BulkTrigger{
			PoolName:       pool.Name,
			Addr:           pool.IPs[0],
			Day:            pool.Bulk.TriggerDay,
			MinDurationSec: pool.Bulk.MinDurationSec,
		})
	}
	return out
}

// AttackExposure summarizes a domain's attack history for the migration
// decision: when it was first attacked and how intense its worst attack
// was (as a percentile of the normalized intensity distribution).
type AttackExposure struct {
	Domain        uint32
	FirstDay      int
	IntensityPct  float64 // 0..1 percentile of the worst attack
	LongestSecs   int64
	TriggeredBulk bool
}

// ApplyMigrations decides, per exposed domain, whether and when it
// migrates to a DPS. Bulk pools migrate wholesale DelayDays after their
// trigger. Individual sites migrate with probability MigrationProb and a
// delay that shrinks sharply with attack intensity (Fig. 10).
func (p *Population) ApplyMigrations(seed int64, exposures []AttackExposure) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	// Bulk migrations.
	for pi := range p.Pools {
		pool := &p.Pools[pi]
		if pool.Bulk == nil {
			continue
		}
		day := int32(pool.Bulk.TriggerDay + pool.Bulk.DelayDays)
		for _, id := range pool.Sites {
			d := &p.Domains[id]
			if d.Pre != dps.None {
				continue
			}
			d.MigDay = day
			d.MigTo = pool.Bulk.To
		}
	}
	// Individual migrations. The probability scales inversely with
	// co-hosting: a mega-hoster's shared-hosting customer cannot move
	// the infrastructure DNS and rarely shows up as migrating (the paper
	// verifies that few migrating sites in the top intensity percentiles
	// were hosted in large numbers), while small-hoster and self-hosted
	// sites migrate far more readily.
	for _, ex := range exposures {
		d := &p.Domains[ex.Domain]
		if d.Pre != dps.None || d.MigDay >= 0 {
			continue
		}
		pool, _ := p.site(ex.Domain)
		if pool != nil && (pool.Bulk != nil || pool.Front != dps.None) {
			continue
		}
		prob := p.cfg.MigrationProb
		cohost := 1
		if pool != nil && len(pool.IPs) > 0 {
			cohost = len(pool.Sites) / len(pool.IPs)
		}
		switch {
		case cohost > 1000:
			prob *= 0.1
		case cohost > 100:
			prob *= 1.0
		default:
			prob *= 8
		}
		if prob > 0.5 {
			prob = 0.5
		}
		if rng.Float64() >= prob {
			continue
		}
		delay := migrationDelayDays(rng, ex.IntensityPct)
		day := ex.FirstDay + delay
		if day >= p.cfg.WindowDays {
			// Migration falls outside the window: invisible to the study.
			continue
		}
		d.MigDay = int32(day)
		d.MigTo = weightedProvider(rng)
	}
}

// migrationDelayDays samples the attack-to-migration delay, calibrated to
// Figure 10: almost all of the top 0.1% by intensity migrate within a day
// or two; the bulk of ordinary victims take one to several weeks.
func migrationDelayDays(rng *rand.Rand, pct float64) int {
	type band struct {
		pFast   float64 // P(delay == 1 day)
		pMedium float64 // P(2..6 days)
	}
	var b band
	switch {
	case pct >= 0.999:
		b = band{0.807, 0.179}
	case pct >= 0.99:
		b = band{0.50, 0.271}
	case pct >= 0.95:
		b = band{0.40, 0.271}
	default:
		// Slightly slower than the paper's 23.2%/29.9% because the
		// measured delay compresses toward the most recent attack when
		// targets are attacked repeatedly.
		b = band{0.03, 0.05}
	}
	x := rng.Float64()
	switch {
	case x < b.pFast:
		return 1
	case x < b.pFast+b.pMedium:
		return 2 + rng.Intn(5)
	default:
		// Heavy tail: one to many weeks.
		return 7 + int(rng.ExpFloat64()*70)
	}
}
