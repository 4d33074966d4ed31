// Corpus for the nodeprecated analyzer: type-aware detection of the
// deprecated (*attack.Store).Events snapshot API.
package nodep

import "lintdata/attack"

func snapshots(s *attack.Store) int {
	evs := s.Events() // want `deprecated`
	return len(evs)
}

// A renamed receiver no longer dodges the check — the old Makefile
// grep only matched variables literally named st or store.
func renamed(db *attack.Store) int {
	return len(db.Events()) // want `deprecated`
}

// ---- negative corpus ----

// The Query pipeline is the replacement.
func modern(s *attack.Store) int {
	n := 0
	for e := range s.Query().Iter() {
		_ = e.Start
		n++
	}
	return n
}

// An unrelated method that happens to share the name is not flagged.
type metrics struct{}

func (m *metrics) Events() int { return 0 }

func unrelated(m *metrics) int {
	return m.Events()
}

// A documented exception can be suppressed.
func suppressed(s *attack.Store) int {
	//dosvet:ignore nodeprecated migration shim, tracked in ROADMAP
	return len(s.Events())
}
