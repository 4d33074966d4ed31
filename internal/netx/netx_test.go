package netx

import (
	"net/netip"
	"testing"
	"testing/quick"
)

func TestAddrFrom4(t *testing.T) {
	a := AddrFrom4(192, 0, 2, 1)
	if got := a.String(); got != "192.0.2.1" {
		t.Fatalf("String() = %q, want 192.0.2.1", got)
	}
	o0, o1, o2, o3 := a.Octets()
	if o0 != 192 || o1 != 0 || o2 != 2 || o3 != 1 {
		t.Fatalf("Octets() = %d.%d.%d.%d", o0, o1, o2, o3)
	}
}

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in   string
		want Addr
		ok   bool
	}{
		{"0.0.0.0", 0, true},
		{"255.255.255.255", 0xffffffff, true},
		{"10.1.2.3", AddrFrom4(10, 1, 2, 3), true},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"256.0.0.1", 0, false},
		{"a.b.c.d", 0, false},
		{"", 0, false},
		{"1..2.3", 0, false},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseAddr(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseAddr(%q) succeeded, want error", c.in)
		}
	}
}

func TestAddrStringParseRoundTrip(t *testing.T) {
	f := func(u uint32) bool {
		a := Addr(u)
		back, err := ParseAddr(a.String())
		return err == nil && back == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddrNetipRoundTrip(t *testing.T) {
	f := func(u uint32) bool {
		a := Addr(u)
		na := a.Netip()
		back, ok := AddrFromNetip(na)
		return ok && back == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddrFromNetipRejectsIPv6(t *testing.T) {
	if _, ok := AddrFromNetip(netip.MustParseAddr("2001:db8::1")); ok {
		t.Fatal("AddrFromNetip accepted an IPv6 address")
	}
}

func TestAddrFromSlice(t *testing.T) {
	if a, ok := AddrFromSlice([]byte{1, 2, 3, 4}); !ok || a != AddrFrom4(1, 2, 3, 4) {
		t.Fatalf("AddrFromSlice = %v, %v", a, ok)
	}
	if _, ok := AddrFromSlice([]byte{1, 2, 3}); ok {
		t.Fatal("AddrFromSlice accepted a 3-byte slice")
	}
}

func TestMasks(t *testing.T) {
	a := MustParseAddr("10.20.30.40")
	if got := a.Slash24(); got != MustParseAddr("10.20.30.0") {
		t.Errorf("Slash24 = %v", got)
	}
	if got := a.Slash16(); got != MustParseAddr("10.20.0.0") {
		t.Errorf("Slash16 = %v", got)
	}
	if got := a.Mask(0); got != 0 {
		t.Errorf("Mask(0) = %v", got)
	}
	if got := a.Mask(32); got != a {
		t.Errorf("Mask(32) = %v", got)
	}
	if got := a.Mask(40); got != a {
		t.Errorf("Mask(40) = %v, want clamp to /32", got)
	}
	if got := a.Mask(-3); got != 0 {
		t.Errorf("Mask(-3) = %v, want clamp to /0", got)
	}
}

func TestMaskConsistentWithSlash(t *testing.T) {
	f := func(u uint32) bool {
		a := Addr(u)
		return a.Mask(24) == a.Slash24() && a.Mask(16) == a.Slash16()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParsePrefix(t *testing.T) {
	p := MustParsePrefix("192.0.2.77/24")
	if p.Addr() != MustParseAddr("192.0.2.0") {
		t.Errorf("prefix address not masked: %v", p.Addr())
	}
	if p.Bits() != 24 {
		t.Errorf("Bits = %d", p.Bits())
	}
	if p.String() != "192.0.2.0/24" {
		t.Errorf("String = %q", p.String())
	}
	for _, bad := range []string{"192.0.2.0", "192.0.2.0/33", "192.0.2.0/-1", "x/24", "192.0.2.0/a"} {
		if _, err := ParsePrefix(bad); err == nil {
			t.Errorf("ParsePrefix(%q) succeeded, want error", bad)
		}
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("10.0.0.0/8")
	if !p.Contains(MustParseAddr("10.255.255.255")) {
		t.Error("prefix should contain last address")
	}
	if p.Contains(MustParseAddr("11.0.0.0")) {
		t.Error("prefix should not contain 11.0.0.0")
	}
	all := MustParsePrefix("0.0.0.0/0")
	if !all.Contains(MustParseAddr("203.0.113.9")) {
		t.Error("/0 should contain everything")
	}
}

func TestPrefixFirstLastNum(t *testing.T) {
	p := MustParsePrefix("192.0.2.0/24")
	if p.First() != MustParseAddr("192.0.2.0") || p.Last() != MustParseAddr("192.0.2.255") {
		t.Errorf("First/Last = %v/%v", p.First(), p.Last())
	}
	if p.NumAddrs() != 256 {
		t.Errorf("NumAddrs = %d", p.NumAddrs())
	}
	host := MustParsePrefix("192.0.2.7/32")
	if host.First() != host.Last() || host.NumAddrs() != 1 {
		t.Errorf("host prefix First/Last/Num = %v/%v/%d", host.First(), host.Last(), host.NumAddrs())
	}
}

func TestPrefixOverlaps(t *testing.T) {
	a := MustParsePrefix("10.0.0.0/8")
	b := MustParsePrefix("10.1.0.0/16")
	c := MustParsePrefix("11.0.0.0/8")
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("nested prefixes must overlap in both directions")
	}
	if a.Overlaps(c) || c.Overlaps(a) {
		t.Error("disjoint prefixes must not overlap")
	}
}

func TestPrefixContainsConsistentWithRange(t *testing.T) {
	f := func(u uint32, bits uint8) bool {
		b := int(bits % 33)
		p := PrefixFrom(Addr(u), b)
		lo, hi := p.First(), p.Last()
		// An address inside [lo,hi] must be contained; the neighbours
		// outside must not (when they exist).
		if !p.Contains(lo) || !p.Contains(hi) {
			return false
		}
		if lo > 0 && p.Contains(lo-1) {
			return false
		}
		if hi < 0xffffffff && p.Contains(hi+1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAppendToNoGarbage(t *testing.T) {
	buf := make([]byte, 0, 32)
	buf = MustParseAddr("1.2.3.4").AppendTo(buf)
	if string(buf) != "1.2.3.4" {
		t.Fatalf("AppendTo = %q", buf)
	}
	buf = append(buf, ':')
	buf = MustParseAddr("5.6.7.8").AppendTo(buf)
	if string(buf) != "1.2.3.4:5.6.7.8" {
		t.Fatalf("AppendTo chained = %q", buf)
	}
}
