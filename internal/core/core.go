// Package core implements the paper's primary contribution: the data
// fusion framework that integrates the telescope and honeypot attack
// event data sets with target metadata (geolocation, prefix-to-AS), the
// active DNS measurement history, and the DPS-use data set, and derives
// every analysis of §4 (attack events), §5 (effect on the Web) and §6
// (DPS migration) — one method per table and figure.
//
// All analyses consume the attack stores through the attack.Query API:
// filters push down to shard/index pruning. Per-site, per-target and
// per-day state is kept in dense slices indexed by site id, in sorted
// target sets cached per store version, or in maps that hold one day at
// a time.
package core

import (
	"cmp"
	"slices"
	"sort"

	"doscope/internal/attack"
	"doscope/internal/ipmeta"
	"doscope/internal/netx"
	"doscope/internal/openintel"
)

// Dataset bundles the fused data sources. Telescope and Honeypot are
// required; Plan enables geo/ASN enrichment; History enables the §5/§6
// Web analyses.
type Dataset struct {
	Telescope  *attack.Store
	Honeypot   *attack.Store
	Plan       *ipmeta.Plan
	History    *openintel.History
	WindowDays int
	// MailIdx, when set, enables the §8 mail-infrastructure analysis.
	MailIdx MailIndex

	// lazily computed caches, memoized behind the attack stores' version
	// counters: refreshCaches drops them when either store has been
	// mutated (Store.Version counts Add and AddBatch mutations) since
	// they were built, so chained analyses (Figure5/Figure6/Figure7 in
	// one run) reuse the web join and intensity stats while live ingest
	// stays correct. Version bumps are cheap on the store side — Add no
	// longer invalidates its own indexes — so checking here per call
	// costs two loads.
	rev        *openintel.ReverseIndex
	telVer     uint64
	hpVer      uint64
	versioned  bool
	statsDone  bool
	telPct     []float64 // sorted telescope intensities
	hpPct      []float64 // sorted honeypot intensities
	telMean    float64
	hpMean     float64
	join       *webJoin
	migrations *migrationStudy
	// targets holds each source's distinct targets in ascending order;
	// nil until built (a built empty set is a non-nil empty slice).
	targets [attack.NumSources][]netx.Addr
}

// storeVersion reads a store's mutation counter, tolerating nil stores.
func storeVersion(s *attack.Store) uint64 {
	if s == nil {
		return 0
	}
	return s.Version()
}

// refreshCaches invalidates every store-derived cache if either attack
// store changed since the caches were built. Analyses call it before
// consulting a memoized intermediate.
func (ds *Dataset) refreshCaches() {
	tv, hv := storeVersion(ds.Telescope), storeVersion(ds.Honeypot)
	if ds.versioned && tv == ds.telVer && hv == ds.hpVer {
		return
	}
	ds.versioned, ds.telVer, ds.hpVer = true, tv, hv
	ds.statsDone = false
	ds.telPct, ds.hpPct = nil, nil
	ds.telMean, ds.hpMean = 0, 0
	ds.join = nil
	ds.migrations = nil
	ds.targets = [attack.NumSources][]netx.Addr{}
}

// New creates a Dataset.
func New(tel, hp *attack.Store, plan *ipmeta.Plan, hist *openintel.History, windowDays int) *Dataset {
	if windowDays == 0 {
		windowDays = attack.WindowDays
	}
	return &Dataset{
		Telescope:  tel,
		Honeypot:   hp,
		Plan:       plan,
		History:    hist,
		WindowDays: windowDays,
	}
}

// All starts a query spanning both attack data sets.
func (ds *Dataset) All() *attack.Query {
	return attack.QueryStores(ds.Telescope, ds.Honeypot)
}

// source returns the store of one sensor.
func (ds *Dataset) source(src attack.Source) *attack.Store {
	if src == attack.SourceTelescope {
		return ds.Telescope
	}
	return ds.Honeypot
}

// intensityStats caches the per-dataset sorted intensity arrays and means:
// the Web join's normalization, Figures 3 and 4, and the medium+
// threshold. Must be called before any parallel fold whose accumulator
// consults MediumPlus.
func (ds *Dataset) intensityStats() {
	ds.refreshCaches()
	if ds.statsDone {
		return
	}
	ds.statsDone = true
	for e := range ds.Telescope.Query().Iter() {
		ds.telPct = append(ds.telPct, e.MaxPPS)
		ds.telMean += e.MaxPPS
	}
	if n := len(ds.telPct); n > 0 {
		ds.telMean /= float64(n)
	}
	for e := range ds.Honeypot.Query().Iter() {
		ds.hpPct = append(ds.hpPct, e.AvgRPS)
		ds.hpMean += e.AvgRPS
	}
	if n := len(ds.hpPct); n > 0 {
		ds.hpMean /= float64(n)
	}
	sort.Float64s(ds.telPct)
	sort.Float64s(ds.hpPct)
}

// MediumPlus reports whether the event's intensity is at least the mean of
// all intensities in its data set (§4, Figure 5's definition).
func (ds *Dataset) MediumPlus(e *attack.Event) bool {
	ds.intensityStats()
	if e.Source == attack.SourceTelescope {
		return e.MaxPPS >= ds.telMean
	}
	return e.AvgRPS >= ds.hpMean
}

// reverseIndex caches the History reverse index.
func (ds *Dataset) reverseIndex() *openintel.ReverseIndex {
	if ds.rev == nil && ds.History != nil {
		ds.rev = ds.History.BuildReverseIndex()
	}
	return ds.rev
}

// sortedTargets returns the distinct target addresses of one source in
// ascending order, built once per store version.
func (ds *Dataset) sortedTargets(src attack.Source) []netx.Addr {
	ds.refreshCaches()
	if t := ds.targets[src]; t != nil {
		return t
	}
	st := ds.source(src)
	t := make([]netx.Addr, 0, st.Len())
	for e := range st.Query().Iter() {
		t = append(t, e.Target)
	}
	slices.Sort(t)
	t = slices.Compact(t)
	ds.targets[src] = t
	return t
}

// blocks returns the distinct blocks of ascending addresses, ascending.
func blocks(addrs []netx.Addr, block func(netx.Addr) netx.Addr) []netx.Addr {
	var out []netx.Addr
	for _, a := range addrs {
		if b := block(a); len(out) == 0 || out[len(out)-1] != b {
			out = append(out, b)
		}
	}
	return out
}

// unionLen returns the size of the union of two ascending, duplicate-free
// slices, by a sorted merge.
func unionLen[T cmp.Ordered](a, b []T) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			i++
			j++
		}
		n++
	}
	return n + len(a) - i + len(b) - j
}
