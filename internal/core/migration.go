package core

import (
	"sort"

	"doscope/internal/stats"
)

// Figure8Result is the Web-site taxonomy tree of Figure 8 (counts of Web
// sites per class).
type Figure8Result struct {
	Total int

	Attacked             int
	AttackedPreexisting  int
	AttackedNonPre       int
	AttackedMigrating    int
	AttackedNonMigrating int
	NoAttack             int
	NoAttackPreexisting  int
	NoAttackNonPre       int
	NoAttackMigrating    int
	NoAttackNonMigrating int
}

// migrationStudy caches the per-site §6 classification.
type migrationStudy struct {
	taxonomy Figure8Result
	// Delays (days, >=1) from the last attack before the first DPS
	// sighting to that sighting, for attacked migrating sites.
	delays []int
	// maxPct of each attacked migrating site (intensity percentile of its
	// worst attack, for the Figure 10 bands).
	delayPct []float64
	// longHp flags migrating sites whose longest honeypot attack was >= 4h
	// (Figure 11).
	longHp []bool
	// Attack frequencies for Figure 9, ascending.
	freqAll, freqMigrating []float64
}

func (ds *Dataset) migrationResult() *migrationStudy {
	ds.refreshCaches()
	if ds.migrations != nil {
		return ds.migrations
	}
	j := ds.webJoinResult()
	m := &migrationStudy{}
	ds.migrations = m
	if ds.History == nil {
		return m
	}

	// Site-level intensity percentile over attacked sites.
	pctOf := func(v float64) float64 {
		if len(j.siteNorm) < 2 {
			return 1
		}
		// Upper bound (first index > v) so a block of sites tied at the
		// maximum — a bulk-migrating hoster — counts as the top
		// percentile rather than being pushed below the band cut.
		i := sort.Search(len(j.siteNorm), func(k int) bool { return j.siteNorm[k] > v })
		return float64(i) / float64(len(j.siteNorm))
	}

	// Per-site attack counts are small integers with few distinct
	// values: Figure 9's samples come out of a tally already sorted.
	var tallyAll, tallyMigrating []int32
	for id, s := range j.sites {
		if len(ds.History.Segments[id]) == 0 {
			continue // never observed
		}
		m.taxonomy.Total++
		// For a site not protected from its first observation, adoption
		// is its first DPS sighting; pre is decided first in every case.
		pre := ds.History.Preexisting(uint32(id))
		adopted := s.adoption >= 0
		if s.attacks > 0 {
			m.taxonomy.Attacked++
			tallyAll = tally(tallyAll, s.attacks)
			switch {
			case pre || (adopted && s.adoption <= s.firstDay):
				// Protected when (first) attacked: a preexisting customer
				// from the study's perspective.
				m.taxonomy.AttackedPreexisting++
			case adopted: // adoption > firstDay
				m.taxonomy.AttackedNonPre++
				m.taxonomy.AttackedMigrating++
				// Migration delay is measured from the last attack
				// preceding the DPS sighting: repeatedly attacked sites
				// migrate in reaction to the attack closest to the
				// migration, not to the first one years earlier. The
				// first attack precedes adoption here, so lastBefore is
				// set and the delay is at least one day.
				m.delays = append(m.delays, int(s.adoption-s.lastBefore))
				m.delayPct = append(m.delayPct, pctOf(s.maxNorm))
				m.longHp = append(m.longHp, s.longestHp >= 4*3600)
				tallyMigrating = tally(tallyMigrating, s.attacks)
			default:
				m.taxonomy.AttackedNonPre++
				m.taxonomy.AttackedNonMigrating++
			}
		} else {
			m.taxonomy.NoAttack++
			switch {
			case pre:
				m.taxonomy.NoAttackPreexisting++
			case adopted:
				m.taxonomy.NoAttackNonPre++
				m.taxonomy.NoAttackMigrating++
			default:
				m.taxonomy.NoAttackNonPre++
				m.taxonomy.NoAttackNonMigrating++
			}
		}
	}
	m.freqAll, m.freqMigrating = untally(tallyAll), untally(tallyMigrating)
	return m
}

// tally counts one more occurrence of v in t, which is indexed by value.
func tally(t []int32, v int32) []int32 {
	if int(v) >= len(t) {
		t = append(t, make([]int32, int(v)+1-len(t))...)
	}
	t[v]++
	return t
}

// untally returns the values counted in t in ascending order.
func untally(t []int32) []float64 {
	n := 0
	for _, c := range t {
		n += int(c)
	}
	out := make([]float64, 0, n)
	for v, c := range t {
		for range c {
			out = append(out, float64(v))
		}
	}
	return out
}

// Figure8 reproduces the taxonomy tree of Figure 8.
func (ds *Dataset) Figure8() Figure8Result {
	return ds.migrationResult().taxonomy
}

// Figure9Result holds the attack-frequency CDFs of Figure 9.
type Figure9Result struct {
	All       *stats.CDF
	Migrating *stats.CDF
	// AtMost5All / AtMost5Migrating are the annotated 92.35% / 97.83%.
	AtMost5All       float64
	AtMost5Migrating float64
}

// Figure9 reproduces Figure 9: attack-frequency distributions for all
// attacked Web sites versus those that migrated after an attack.
func (ds *Dataset) Figure9() Figure9Result {
	m := ds.migrationResult()
	res := Figure9Result{
		All:       stats.SortedCDF(m.freqAll),
		Migrating: stats.SortedCDF(m.freqMigrating),
	}
	res.AtMost5All = res.All.At(5)
	res.AtMost5Migrating = res.Migrating.At(5)
	return res
}

// MigrationDelayCDF is one curve of Figure 10 / Figure 11.
type MigrationDelayCDF struct {
	Label   string
	Days    *stats.CDF
	Within1 float64
	Within6 float64
	Sites   int
}

func delayCDF(label string, delays []int) MigrationDelayCDF {
	f := make([]float64, len(delays))
	for i, d := range delays {
		f[i] = float64(d)
	}
	stats.SortFloat64s(f)
	c := stats.SortedCDF(f)
	return MigrationDelayCDF{
		Label: label, Days: c,
		Within1: c.At(1), Within6: c.At(6), Sites: len(delays),
	}
}

// Figure10 reproduces Figure 10: days to migration for all migrating
// sites and for the top 5%/1%/0.1% by attack intensity.
func (ds *Dataset) Figure10() []MigrationDelayCDF {
	m := ds.migrationResult()
	bands := []struct {
		label string
		min   float64
	}{
		{"All", 0}, {"Top 5%", 0.95}, {"Top 1%", 0.99}, {"Top 0.1%", 0.999},
	}
	var out []MigrationDelayCDF
	for _, b := range bands {
		var sel []int
		for i, d := range m.delays {
			if m.delayPct[i] >= b.min {
				sel = append(sel, d)
			}
		}
		out = append(out, delayCDF(b.label, sel))
	}
	return out
}

// Figure11 reproduces Figure 11: days to migration for sites whose
// longest honeypot-observed attack lasted at least four hours.
func (ds *Dataset) Figure11() MigrationDelayCDF {
	m := ds.migrationResult()
	var sel []int
	for i, d := range m.delays {
		if m.longHp[i] {
			sel = append(sel, d)
		}
	}
	c := delayCDF(">=4h attacks", sel)
	c.Within6 = c.Days.At(5) // the paper annotates <=5 days (76%)
	return c
}
