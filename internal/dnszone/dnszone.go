// Package dnszone models authoritative DNS zone content for the TLDs the
// measurement platform walks (.com, .net, .org in the paper). A Zone is a
// point-in-time view; the webmodel package materializes a Zone for any
// given day of the measurement window.
package dnszone

import (
	"fmt"
	"sort"
	"strings"

	"doscope/internal/dnswire"
)

// Zone holds the records of one origin (e.g. "com").
type Zone struct {
	Origin string
	soa    dnswire.RR
	rrs    map[rrKey][]dnswire.RR
	names  map[string]int // name -> number of rrsets (for NXDOMAIN vs NODATA)
}

type rrKey struct {
	name string
	typ  dnswire.Type
}

// New creates a zone with a synthetic SOA.
func New(origin string) *Zone {
	origin = dnswire.NormalizeName(origin)
	z := &Zone{
		Origin: origin,
		rrs:    make(map[rrKey][]dnswire.RR),
		names:  make(map[string]int),
	}
	z.soa = dnswire.RR{
		Name: origin, Type: dnswire.TypeSOA, Class: dnswire.ClassIN, TTL: 900,
		SOA: &dnswire.SOAData{
			MName: "a.gtld-servers." + origin, RName: "hostmaster." + origin,
			Serial: 1, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 86400,
		},
	}
	return z
}

// SOA returns the zone's SOA record.
func (z *Zone) SOA() dnswire.RR { return z.soa }

// Contains reports whether a name belongs to this zone.
func (z *Zone) Contains(name string) bool {
	name = dnswire.NormalizeName(name)
	return name == z.Origin || strings.HasSuffix(name, "."+z.Origin)
}

// Add inserts a record; the name must belong to the zone.
func (z *Zone) Add(rr dnswire.RR) error {
	rr.Name = dnswire.NormalizeName(rr.Name)
	rr.Target = dnswire.NormalizeName(rr.Target)
	if !z.Contains(rr.Name) {
		return fmt.Errorf("dnszone: %q outside zone %q", rr.Name, z.Origin)
	}
	if rr.Class == 0 {
		rr.Class = dnswire.ClassIN
	}
	key := rrKey{rr.Name, rr.Type}
	if len(z.rrs[key]) == 0 {
		z.names[rr.Name]++
	}
	z.rrs[key] = append(z.rrs[key], rr)
	return nil
}

// NumRecords returns the total record count.
func (z *Zone) NumRecords() int {
	n := 0
	for _, set := range z.rrs {
		n += len(set)
	}
	return n
}

// Names returns all names in the zone, sorted (for deterministic walks).
func (z *Zone) Names() []string {
	out := make([]string, 0, len(z.names))
	for n := range z.names {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// maxCNAMEChain bounds in-zone CNAME chasing.
const maxCNAMEChain = 8

// Lookup resolves a query against the zone, chasing CNAME chains that stay
// in-zone, and returns the answer section plus the response code.
func (z *Zone) Lookup(name string, t dnswire.Type) ([]dnswire.RR, dnswire.RCode) {
	name = dnswire.NormalizeName(name)
	var answers []dnswire.RR
	cur := name
	for hop := 0; hop < maxCNAMEChain; hop++ {
		if t == dnswire.TypeANY {
			found := false
			for _, typ := range []dnswire.Type{dnswire.TypeA, dnswire.TypeNS, dnswire.TypeCNAME, dnswire.TypeMX, dnswire.TypeTXT} {
				if set := z.rrs[rrKey{cur, typ}]; len(set) > 0 {
					answers = append(answers, set...)
					found = true
				}
			}
			if found {
				return answers, dnswire.RCodeNoError
			}
		} else if set := z.rrs[rrKey{cur, t}]; len(set) > 0 {
			return append(answers, set...), dnswire.RCodeNoError
		}
		// No direct match: follow a CNAME if present.
		cnames := z.rrs[rrKey{cur, dnswire.TypeCNAME}]
		if len(cnames) == 0 {
			break
		}
		answers = append(answers, cnames[0])
		next := cnames[0].Target
		if !z.Contains(next) {
			// Chain leaves the zone: return what we have; the resolver
			// follows up elsewhere.
			return answers, dnswire.RCodeNoError
		}
		cur = next
	}
	if z.names[cur] > 0 || len(answers) > 0 {
		return answers, dnswire.RCodeNoError // NODATA
	}
	return nil, dnswire.RCodeNXDomain
}
