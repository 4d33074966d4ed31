package attack

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"doscope/internal/netx"
)

func sampleEvents() []Event {
	return []Event{
		{
			Source: SourceTelescope, Vector: VectorTCP,
			Target: netx.MustParseAddr("203.0.113.7"),
			Start:  WindowStart + 100, End: WindowStart + 400,
			Packets: 500, Bytes: 20000, MaxPPS: 12.5,
			Ports: []uint16{80},
		},
		{
			Source: SourceHoneypot, Vector: VectorNTP,
			Target: netx.MustParseAddr("203.0.113.7"),
			Start:  WindowStart + 300, End: WindowStart + 900,
			Packets: 10000, Bytes: 4_000_000, AvgRPS: 77,
		},
		{
			Source: SourceTelescope, Vector: VectorUDP,
			Target: netx.MustParseAddr("198.51.100.9"),
			Start:  WindowStart + 86400*3, End: WindowStart + 86400*3 + 60,
			Packets: 30, Bytes: 1200, MaxPPS: 0.6,
			Ports: []uint16{27015, 27016},
		},
	}
}

func TestEventAccessors(t *testing.T) {
	evs := sampleEvents()
	e := &evs[0]
	if e.Duration() != 300 {
		t.Errorf("Duration = %d", e.Duration())
	}
	if e.Day() != 0 {
		t.Errorf("Day = %d", e.Day())
	}
	if evs[2].Day() != 3 {
		t.Errorf("Day = %d", evs[2].Day())
	}
	if e.Intensity() != 12.5 {
		t.Errorf("telescope Intensity = %v", e.Intensity())
	}
	if evs[1].Intensity() != 77 {
		t.Errorf("honeypot Intensity = %v", evs[1].Intensity())
	}
	if e.EstimatedVictimPPS() != 12.5*256 {
		t.Errorf("EstimatedVictimPPS = %v", e.EstimatedVictimPPS())
	}
	if !e.SinglePort() || evs[2].SinglePort() {
		t.Error("SinglePort classification wrong")
	}
	if !e.TargetsWeb() {
		t.Error("port-80 TCP event should target Web")
	}
	if evs[2].TargetsWeb() {
		t.Error("UDP event cannot target Web per Table 8 semantics")
	}
}

func TestOverlaps(t *testing.T) {
	evs := sampleEvents()
	if !evs[0].Overlaps(&evs[1]) || !evs[1].Overlaps(&evs[0]) {
		t.Error("overlapping events not detected")
	}
	if evs[0].Overlaps(&evs[2]) {
		t.Error("disjoint events reported overlapping")
	}
	// Touching endpoints count as overlap (instantaneous joint attack).
	a := Event{Start: 100, End: 200}
	b := Event{Start: 200, End: 300}
	if !a.Overlaps(&b) {
		t.Error("touching events should overlap")
	}
}

func TestDayHelpers(t *testing.T) {
	if DayOf(WindowStart) != 0 {
		t.Error("DayOf(WindowStart) != 0")
	}
	if DayOf(WindowEnd-1) != WindowDays-1 {
		t.Errorf("DayOf(WindowEnd-1) = %d", DayOf(WindowEnd-1))
	}
	if DayStart(1)-DayStart(0) != 86400 {
		t.Error("DayStart spacing wrong")
	}
	d := Date(WindowStart)
	if d.Year() != 2015 || d.Month() != 3 || d.Day() != 1 {
		t.Errorf("window start = %v", d)
	}
	end := Date(WindowEnd - 86400)
	if end.Year() != 2017 || end.Month() != 2 || end.Day() != 28 {
		t.Errorf("window last day = %v (want 2017-02-28)", end)
	}
}

func TestVectorStringRoundTrip(t *testing.T) {
	for v := Vector(0); int(v) < NumVectors; v++ {
		got, err := ParseVector(v.String())
		if err != nil || got != v {
			t.Errorf("ParseVector(%q) = %v, %v", v.String(), got, err)
		}
	}
	if _, err := ParseVector("bogus"); err == nil {
		t.Error("ParseVector accepted bogus vector")
	}
}

func TestVectorIsReflection(t *testing.T) {
	for _, v := range []Vector{VectorTCP, VectorUDP, VectorICMP, VectorOtherIP} {
		if v.IsReflection() {
			t.Errorf("%v misclassified as reflection", v)
		}
	}
	for _, v := range []Vector{VectorNTP, VectorDNS, VectorCharGen, VectorSSDP, VectorRIPv1, VectorQOTD, VectorMSSQL, VectorTFTP} {
		if !v.IsReflection() {
			t.Errorf("%v misclassified as direct", v)
		}
	}
}

func TestStoreSortingAndStats(t *testing.T) {
	evs := sampleEvents()
	// Insert in reverse order; store must sort by start time.
	s := &Store{}
	for i := len(evs) - 1; i >= 0; i-- {
		s.Add(evs[i])
	}
	got := s.Events()
	for i := 1; i < len(got); i++ {
		if got[i].Start < got[i-1].Start {
			t.Fatal("events not sorted by start")
		}
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	if n := s.Query().CountDistinctTargets(); n != 2 {
		t.Errorf("CountDistinctTargets = %d", n)
	}
	for _, bits := range []int{24, 16, 8} {
		if n := s.Query().CountDistinctBlocks(bits); n != 2 {
			t.Errorf("CountDistinctBlocks(%d) = %d", bits, n)
		}
	}
	byTarget := s.Query().GroupByTarget()
	if len(byTarget[netx.MustParseAddr("203.0.113.7")]) != 2 {
		t.Error("GroupByTarget grouping wrong")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := NewStore(sampleEvents())
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Events(), got.Events()) {
		t.Fatalf("round trip mismatch:\n%v\n%v", s.Events(), got.Events())
	}
}

func TestCSVRejectsGarbage(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("nope\n")); err == nil {
		t.Error("garbage CSV accepted")
	}
	bad := "source,vector,target,start,end,packets,bytes,max_pps,avg_rps,ports\n" +
		"telescope,TCP,not-an-ip,0,0,0,0,0,0,\n"
	if _, err := ReadCSV(bytes.NewBufferString(bad)); err == nil {
		t.Error("bad target accepted")
	}
}

// FuzzReadCSV feeds arbitrary text to the CSV reader: it must never
// panic, and a store it accepts must survive WriteCSV and a second
// ReadCSV with the same events in the same order (floats compared bit
// for bit, so NaN and -0 round-trip too).
func FuzzReadCSV(f *testing.F) {
	var buf bytes.Buffer
	if err := NewStore(sampleEvents()).WriteCSV(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(strings.Join(csvHeader, ",") + "\n")
	f.Add(strings.Join(csvHeader, ",") + "\nhoneypot,NTP,198.51.100.1,-5,1e3,0,0,NaN,-0,80;;443;\n")
	f.Add("nope\n")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ReadCSV(strings.NewReader(text))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := s.WriteCSV(&out); err != nil {
			t.Fatalf("WriteCSV of an accepted store: %v", err)
		}
		again, err := ReadCSV(&out)
		if err != nil {
			t.Fatalf("ReadCSV rejects WriteCSV's output: %v\n%s", err, out.String())
		}
		a, b := s.Query().Events(), again.Query().Events()
		if len(a) != len(b) {
			t.Fatalf("%d events read, %d after the round trip", len(a), len(b))
		}
		for i := range a {
			x, y := a[i], b[i]
			if math.Float64bits(x.MaxPPS) != math.Float64bits(y.MaxPPS) || math.Float64bits(x.AvgRPS) != math.Float64bits(y.AvgRPS) ||
				!slices.Equal(x.Ports, y.Ports) {
				t.Fatalf("event %d: %+v, after the round trip %+v", i, x, y)
			}
			x.MaxPPS, x.AvgRPS, x.Ports = 0, 0, nil
			y.MaxPPS, y.AvgRPS, y.Ports = 0, 0, nil
			if !reflect.DeepEqual(x, y) {
				t.Fatalf("event %d: %+v, after the round trip %+v", i, a[i], b[i])
			}
		}
	})
}

// TestBinaryRoundTrip: a DOSEVT02 segment reproduces the store's event
// sequence exactly.
func TestBinaryRoundTrip(t *testing.T) {
	s := NewStore(sampleEvents())
	got, err := OpenSegment(segmentBytes(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Events(), got.Events()) {
		t.Fatalf("round trip mismatch")
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		events := make([]Event, int(n)%64)
		for i := range events {
			e := Event{
				Source:  Source(rng.Intn(2)),
				Vector:  Vector(rng.Intn(NumVectors)),
				Target:  netx.Addr(rng.Uint32()),
				Start:   WindowStart + rng.Int63n(WindowDays*86400),
				Packets: rng.Uint64() % 1e9,
				Bytes:   rng.Uint64() % 1e12,
				MaxPPS:  rng.Float64() * 1e5,
				AvgRPS:  rng.Float64() * 1e5,
			}
			e.End = e.Start + rng.Int63n(86400)
			for j := 0; j < rng.Intn(5); j++ {
				e.Ports = append(e.Ports, uint16(rng.Intn(65536)))
			}
			events[i] = e
		}
		s := NewStore(events)
		got, err := OpenSegment(segmentBytes(t, s))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(s.Events(), got.Events())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryRejectsBadMagic: a segment image under a foreign magic is
// refused, not misread.
func TestBinaryRejectsBadMagic(t *testing.T) {
	img := segmentBytes(t, NewStore(sampleEvents()))
	copy(img, "NOTMAGIC")
	if _, err := OpenSegment(img); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestServiceName(t *testing.T) {
	cases := []struct {
		v    Vector
		port uint16
		want string
	}{
		{VectorTCP, 80, "HTTP"},
		{VectorTCP, 443, "HTTPS"},
		{VectorTCP, 3306, "MySQL"},
		{VectorTCP, 53, "DNS"},
		{VectorTCP, 1723, "VPN PPTP"},
		{VectorUDP, 3306, "MySQL"},
		{VectorUDP, 27015, "27015"},
		{VectorUDP, 123, "NTP"},
		{VectorTCP, 27015, "27015"},
	}
	for _, c := range cases {
		if got := ServiceName(c.v, c.port); got != c.want {
			t.Errorf("ServiceName(%v,%d) = %q, want %q", c.v, c.port, got, c.want)
		}
	}
}

func TestWebPort(t *testing.T) {
	if !WebPort(80) || !WebPort(443) || WebPort(25) {
		t.Error("WebPort classification wrong")
	}
}
