package attack_test

import (
	"fmt"
	"os"
	"path/filepath"

	"doscope/internal/attack"
	"doscope/internal/netx"
)

// exampleStore builds the small fixed store the examples query: two NTP
// reflection events and one TCP backscatter event in the first window
// days, plus a later DNS event.
func exampleStore() *attack.Store {
	day := func(d int) int64 { return attack.DayStart(d) }
	return attack.NewStore([]attack.Event{
		{Source: attack.SourceHoneypot, Vector: attack.VectorNTP,
			Target: netx.AddrFrom4(203, 0, 113, 5), Start: day(0), End: day(0) + 600, AvgRPS: 120},
		{Source: attack.SourceHoneypot, Vector: attack.VectorNTP,
			Target: netx.AddrFrom4(203, 0, 113, 9), Start: day(2), End: day(2) + 60, AvgRPS: 80},
		{Source: attack.SourceTelescope, Vector: attack.VectorTCP,
			Target: netx.AddrFrom4(198, 51, 100, 7), Start: day(2) + 30, End: day(2) + 90,
			MaxPPS: 400, Ports: []uint16{80}},
		{Source: attack.SourceHoneypot, Vector: attack.VectorDNS,
			Target: netx.AddrFrom4(203, 0, 113, 5), Start: day(40), End: day(40) + 300, AvgRPS: 60},
	})
}

// ExampleQuery chains filters and executes a counting terminal: the
// count is answered from the per-day index without materializing an
// event.
func ExampleQuery() {
	st := exampleStore()
	n := st.Query().
		Source(attack.SourceHoneypot).
		Vectors(attack.VectorNTP).
		Days(0, 30).
		Count()
	fmt.Println("NTP reflection events in the first month:", n)
	// Output:
	// NTP reflection events in the first month: 2
}

// ExampleOpenSegmentFile persists a store as a DOSEVT02 segment and
// serves it back from an mmap: opening is O(1) in the event count, and
// the reopened store answers the same queries as the original.
func ExampleOpenSegmentFile() {
	st := exampleStore()
	path := filepath.Join(os.TempDir(), "example.seg")
	f, err := os.Create(path)
	if err != nil {
		panic(err)
	}
	if err := st.WriteSegment(f); err != nil {
		panic(err)
	}
	if err := f.Close(); err != nil {
		panic(err)
	}
	defer os.Remove(path)

	seg, closer, err := attack.OpenSegmentFile(path)
	if err != nil {
		panic(err)
	}
	defer closer.Close()
	fmt.Println("events:", seg.Len())
	fmt.Println("reflection:", seg.Query().Source(attack.SourceHoneypot).Count())
	// Output:
	// events: 4
	// reflection: 3
}
