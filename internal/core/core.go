// Package core implements the paper's primary contribution: the data
// fusion framework that integrates the telescope and honeypot attack
// event data sets with target metadata (geolocation, prefix-to-AS), the
// active DNS measurement history, and the DPS-use data set, and derives
// every analysis of §4 (attack events), §5 (effect on the Web) and §6
// (DPS migration) — one method per table and figure.
//
// The event-walking analyses read one per-Dataset event digest instead
// of the stores: built from a single start-ordered pass over both
// stores per store version, it holds each event's dense target id, day,
// source, vector, interval, intensity and port summary, and per distinct
// target (in address order) its address, source bitmask, origin AS and
// reverse-index slot. Per-site, per-target and per-day state is kept in
// dense slices indexed by site id, target id or block id. Table 5 and 6
// are answered by the stores' count index.
package core

import (
	"doscope/internal/attack"
	"doscope/internal/ipmeta"
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
	// one run) reuse the digest and the web join while live ingest stays
	// correct. Version bumps are cheap on the store side — Add no longer
	// invalidates its own indexes — so checking here per call costs two
	// loads.
	telVer     uint64
	hpVer      uint64
	versioned  bool
	dig        *digest
	join       *webJoin
	migrations *migrationStudy
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
	ds.dig = nil
	ds.join = nil
	ds.migrations = nil
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

// MediumPlus reports whether the event's intensity is at least the mean of
// all intensities in its data set (§4, Figure 5's definition).
func (ds *Dataset) MediumPlus(e *attack.Event) bool {
	return e.Intensity() >= ds.digest().mean[e.Source.Sensor()]
}
