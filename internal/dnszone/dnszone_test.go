package dnszone

import (
	"testing"

	"doscope/internal/dnswire"
	"doscope/internal/netx"
)

func buildZone(t *testing.T) *Zone {
	t.Helper()
	z := New("com")
	adds := []dnswire.RR{
		{Name: "example.com", Type: dnswire.TypeNS, Target: "ns1.dns-host.com", TTL: 86400},
		{Name: "www.example.com", Type: dnswire.TypeA, Addr: netx.MustParseAddr("203.0.113.10"), TTL: 300},
		{Name: "example.com", Type: dnswire.TypeMX, Pref: 10, Target: "mail.example.com", TTL: 3600},
		{Name: "cdn.example.com", Type: dnswire.TypeCNAME, Target: "edge.provider.com", TTL: 300},
		{Name: "edge.provider.com", Type: dnswire.TypeA, Addr: netx.MustParseAddr("198.51.100.1"), TTL: 300},
		{Name: "alias.example.com", Type: dnswire.TypeCNAME, Target: "www.example.com", TTL: 300},
		{Name: "external.example.com", Type: dnswire.TypeCNAME, Target: "host.example.net", TTL: 300},
	}
	for _, rr := range adds {
		if err := z.Add(rr); err != nil {
			t.Fatal(err)
		}
	}
	return z
}

func TestLookupA(t *testing.T) {
	z := buildZone(t)
	ans, rcode := z.Lookup("www.example.com", dnswire.TypeA)
	if rcode != dnswire.RCodeNoError || len(ans) != 1 || ans[0].Addr != netx.MustParseAddr("203.0.113.10") {
		t.Fatalf("ans=%v rcode=%v", ans, rcode)
	}
}

func TestLookupCaseInsensitive(t *testing.T) {
	z := buildZone(t)
	ans, rcode := z.Lookup("WWW.EXAMPLE.COM.", dnswire.TypeA)
	if rcode != dnswire.RCodeNoError || len(ans) != 1 {
		t.Fatalf("case-insensitive lookup failed: %v %v", ans, rcode)
	}
}

func TestLookupCNAMEChain(t *testing.T) {
	z := buildZone(t)
	ans, rcode := z.Lookup("alias.example.com", dnswire.TypeA)
	if rcode != dnswire.RCodeNoError || len(ans) != 2 {
		t.Fatalf("chain ans=%v rcode=%v", ans, rcode)
	}
	if ans[0].Type != dnswire.TypeCNAME || ans[1].Type != dnswire.TypeA {
		t.Errorf("chain order wrong: %v", ans)
	}
}

func TestLookupCNAMELeavingZone(t *testing.T) {
	z := buildZone(t)
	ans, rcode := z.Lookup("external.example.com", dnswire.TypeA)
	if rcode != dnswire.RCodeNoError || len(ans) != 1 || ans[0].Type != dnswire.TypeCNAME {
		t.Fatalf("out-of-zone chain: ans=%v rcode=%v", ans, rcode)
	}
	if ans[0].Target != "host.example.net" {
		t.Errorf("target = %q", ans[0].Target)
	}
}

func TestLookupNXDomainVsNoData(t *testing.T) {
	z := buildZone(t)
	if _, rcode := z.Lookup("missing.example.com", dnswire.TypeA); rcode != dnswire.RCodeNXDomain {
		t.Errorf("missing name rcode = %v, want NXDOMAIN", rcode)
	}
	// www.example.com exists but has no MX: NODATA (NoError, no answers).
	ans, rcode := z.Lookup("www.example.com", dnswire.TypeMX)
	if rcode != dnswire.RCodeNoError || len(ans) != 0 {
		t.Errorf("NODATA: ans=%v rcode=%v", ans, rcode)
	}
}

func TestLookupANY(t *testing.T) {
	z := buildZone(t)
	ans, rcode := z.Lookup("example.com", dnswire.TypeANY)
	if rcode != dnswire.RCodeNoError || len(ans) != 2 {
		t.Fatalf("ANY: ans=%v rcode=%v", ans, rcode)
	}
}

func TestCNAMELoopBounded(t *testing.T) {
	z := New("com")
	_ = z.Add(dnswire.RR{Name: "a.loop.com", Type: dnswire.TypeCNAME, Target: "b.loop.com"})
	_ = z.Add(dnswire.RR{Name: "b.loop.com", Type: dnswire.TypeCNAME, Target: "a.loop.com"})
	ans, rcode := z.Lookup("a.loop.com", dnswire.TypeA)
	if rcode != dnswire.RCodeNoError {
		t.Errorf("rcode = %v", rcode)
	}
	if len(ans) > maxCNAMEChain+1 {
		t.Errorf("loop not bounded: %d answers", len(ans))
	}
}

func TestAddOutsideZoneRejected(t *testing.T) {
	z := New("com")
	if err := z.Add(dnswire.RR{Name: "host.example.net", Type: dnswire.TypeA}); err == nil {
		t.Error("out-of-zone record accepted")
	}
}

func TestCountsAndNames(t *testing.T) {
	z := buildZone(t)
	if z.NumRecords() != 7 {
		t.Errorf("NumRecords = %d", z.NumRecords())
	}
	names := z.Names()
	if len(names) != 6 {
		t.Errorf("Names() length %d, want 6", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("Names() not sorted")
		}
	}
}
