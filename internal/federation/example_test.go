package federation_test

import (
	"fmt"
	"net"

	"doscope/internal/attack"
	"doscope/internal/federation"
	"doscope/internal/netx"
)

// ExampleRemoteStore serves a store as a federation site and joins it
// with a local store in one federated counting plan: the remote site
// ships back an 8-byte index partial, not its events.
func ExampleRemoteStore() {
	day := func(d int) int64 { return attack.DayStart(d) }
	siteStore := attack.NewStore([]attack.Event{
		{Source: attack.SourceHoneypot, Vector: attack.VectorNTP,
			Target: netx.AddrFrom4(203, 0, 113, 5), Start: day(1), End: day(1) + 60, AvgRPS: 90},
		{Source: attack.SourceHoneypot, Vector: attack.VectorDNS,
			Target: netx.AddrFrom4(203, 0, 113, 6), Start: day(2), End: day(2) + 60, AvgRPS: 70},
	})
	local := attack.NewStore([]attack.Event{
		{Source: attack.SourceTelescope, Vector: attack.VectorTCP,
			Target: netx.AddrFrom4(198, 51, 100, 7), Start: day(1), End: day(1) + 120,
			MaxPPS: 500, Ports: []uint16{443}},
	})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	defer l.Close()
	go federation.NewServer(siteStore).Serve(l)

	remote := federation.Dial(l.Addr().String())
	defer remote.Close()

	// Every terminal reports each backend's outcome; StatusErr is
	// non-nil when any backend did not answer.
	n, statuses, _ := attack.QueryBackends(local, remote).Days(0, 30).Count()
	if err := attack.StatusErr(statuses); err != nil {
		panic(err)
	}
	fmt.Println("events across both backends:", n)

	reflections, statuses, _ := attack.QueryBackends(local, remote).Source(attack.SourceHoneypot).Count()
	if err := attack.StatusErr(statuses); err != nil {
		panic(err)
	}
	fmt.Println("reflection events:", reflections)
	// Output:
	// events across both backends: 3
	// reflection events: 2
}
