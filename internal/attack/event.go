// Package attack defines the attack-event schema shared by the telescope
// and honeypot substrates and consumed by the fusion pipeline, together
// with an indexed store and CSV/binary persistence.
//
// The schema mirrors the union of what the two sensors can observe: the
// telescope sees randomly spoofed (direct) attacks with an IP protocol,
// target ports and a max packet rate; the honeypots see reflection attacks
// with an amplification vector and an average request rate.
package attack

import (
	"fmt"
	"slices"
	"time"

	"doscope/internal/netx"
)

// Measurement window used throughout the reproduction: March 1, 2015 to
// February 28, 2017 inclusive (731 days), the paper's observation period.
const (
	WindowStart int64 = 1425168000 // 2015-03-01T00:00:00Z
	WindowDays        = 731
	WindowEnd   int64 = WindowStart + WindowDays*86400
)

// DayOf maps a unix timestamp to a day index within the window; times
// before the window map to negative values (floor division, so even
// times less than a day before the window are day -1, not day 0).
func DayOf(t int64) int {
	d := t - WindowStart
	if d < 0 {
		d -= 86399
	}
	return int(d / 86400)
}

// DayStart returns the unix timestamp of midnight starting the given day
// index.
func DayStart(day int) int64 { return WindowStart + int64(day)*86400 }

// Date returns the calendar time of a unix timestamp.
func Date(t int64) time.Time { return time.Unix(t, 0).UTC() }

// Source identifies the sensor that observed an event.
type Source uint8

// Sensors.
const (
	SourceTelescope Source = iota
	SourceHoneypot
	NumSources = int(SourceHoneypot) + 1
)

// String names the sensor.
func (s Source) String() string {
	switch s {
	case SourceTelescope:
		return "telescope"
	case SourceHoneypot:
		return "honeypot"
	}
	return fmt.Sprintf("source-%d", uint8(s))
}

// Vector is the attack vector: an IP protocol for randomly spoofed
// attacks, or an amplification protocol for reflection attacks.
type Vector uint8

// Telescope (randomly spoofed) vectors.
const (
	VectorTCP Vector = iota
	VectorUDP
	VectorICMP
	VectorOtherIP
	// Honeypot (reflection) vectors; the eight protocols AmpPot emulates.
	VectorNTP
	VectorDNS
	VectorCharGen
	VectorSSDP
	VectorRIPv1
	VectorQOTD
	VectorMSSQL
	VectorTFTP
	NumVectors = int(VectorTFTP) + 1
)

// String names the vector as the paper prints it.
func (v Vector) String() string {
	switch v {
	case VectorTCP:
		return "TCP"
	case VectorUDP:
		return "UDP"
	case VectorICMP:
		return "ICMP"
	case VectorOtherIP:
		return "Other"
	case VectorNTP:
		return "NTP"
	case VectorDNS:
		return "DNS"
	case VectorCharGen:
		return "CharGen"
	case VectorSSDP:
		return "SSDP"
	case VectorRIPv1:
		return "RIPv1"
	case VectorQOTD:
		return "QOTD"
	case VectorMSSQL:
		return "MSSQL"
	case VectorTFTP:
		return "TFTP"
	}
	return fmt.Sprintf("vector-%d", uint8(v))
}

// IsReflection reports whether the vector is an amplification protocol.
func (v Vector) IsReflection() bool { return v >= VectorNTP }

// ParseVector inverts String.
func ParseVector(s string) (Vector, error) {
	for v := Vector(0); int(v) < NumVectors; v++ {
		if v.String() == s {
			return v, nil
		}
	}
	return 0, fmt.Errorf("attack: unknown vector %q", s)
}

// Event is one inferred DoS attack event.
type Event struct {
	Source Source
	Vector Vector
	Target netx.Addr
	// Start and End are unix timestamps delimiting the observed attack.
	Start, End int64
	// Packets and Bytes observed by the sensor.
	Packets, Bytes uint64
	// MaxPPS is the maximum per-minute packet rate observed at the
	// telescope (multiply by 256 to estimate the rate at the victim).
	// Zero for honeypot events.
	MaxPPS float64
	// AvgRPS is the average reflector request rate for honeypot events.
	// Zero for telescope events.
	AvgRPS float64
	// Ports holds the distinct targeted ports for telescope events,
	// sorted ascending, truncated to MaxTrackedPorts.
	Ports []uint16
}

// MaxTrackedPorts bounds the per-event distinct-port list; the telescope
// classifier only needs single- vs multi-port discrimination plus the
// top-port identity, matching the paper's Table 7/8 analyses.
const MaxTrackedPorts = 16

// Clone returns a deep copy of e that is safe to retain indefinitely.
// The *Event yielded by Iter/IterByStart is a per-iteration scratch
// whose struct is reused on the next yield and whose Ports alias the
// store's arena — Clone is
// the one blessed way to keep an event past its callback (the
// scratchescape analyzer in internal/lint enforces this).
func (e *Event) Clone() *Event {
	cp := *e
	cp.Ports = slices.Clone(e.Ports)
	return &cp
}

// Duration returns End-Start in seconds.
func (e *Event) Duration() int64 { return e.End - e.Start }

// Day returns the day index of the event start (multi-day attacks count
// toward the day they began, following the paper's convention).
func (e *Event) Day() int { return DayOf(e.Start) }

// Intensity returns the sensor-specific intensity attribute: MaxPPS for
// telescope events, AvgRPS for honeypot events.
func (e *Event) Intensity() float64 {
	if e.Source == SourceTelescope {
		return e.MaxPPS
	}
	return e.AvgRPS
}

// SinglePort reports whether the event targeted exactly one port.
func (e *Event) SinglePort() bool { return len(e.Ports) == 1 }

// Overlaps reports whether two events intersect in time.
func (e *Event) Overlaps(o *Event) bool {
	return e.Start <= o.End && o.Start <= e.End
}

// EstimatedVictimPPS estimates the packet rate at the victim. For
// telescope events the /8 darknet sees 1/256 of uniformly spoofed
// backscatter, so the observed max rate is multiplied by 256.
func (e *Event) EstimatedVictimPPS() float64 {
	if e.Source == SourceTelescope {
		return e.MaxPPS * 256
	}
	return e.AvgRPS
}
