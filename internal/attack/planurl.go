package attack

import (
	"encoding/base64"
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"doscope/internal/netx"
)

// This file maps plans to and from their two user-facing text forms: a
// base64 string of the 20-byte wire encoding (what doscope -plan prints
// and the HTTP API's plan= parameter carries, for parity with DOSFED01),
// and a set of human-readable URL query parameters (source=, vectors=,
// days=, prefix=). Both directions validate through the same domain
// checks as DecodePlan, so a URL can never compile into a query the
// wire protocol would reject.

// EncodeString returns the plan as unpadded URL-safe base64 of its
// 20-byte wire encoding — safe to paste into a query string or ship as
// the plan= parameter.
func (p Plan) EncodeString() string {
	return base64.RawURLEncoding.EncodeToString(p.AppendBinary(nil))
}

// DecodePlanString inverts EncodeString, applying DecodePlan's full
// domain validation.
func DecodePlanString(s string) (Plan, error) {
	b, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return Plan{}, fmt.Errorf("attack: plan base64: %v", err)
	}
	return DecodePlan(b)
}

// Plan URL parameter names. PlanFromValues reads exactly these keys and
// ignores everything else, so endpoint-specific parameters (limit,
// cursor, ...) can share the query string.
const (
	ParamPlan    = "plan"    // base64 20-byte plan (exclusive with the rest)
	ParamSource  = "source"  // "telescope" or "honeypot"
	ParamVectors = "vectors" // comma-separated vector names
	ParamDays    = "days"    // "lo..hi" (or "lo-hi" for in-window ranges)
	ParamPrefix  = "prefix"  // CIDR, e.g. "198.51.100.0/24"
)

// Values renders the plan as its canonical URL query parameters — the
// inverse of PlanFromValues. The zero-filter plan renders as no
// parameters at all.
func (p Plan) Values() url.Values {
	v := url.Values{}
	if p.Source >= 0 {
		v.Set(ParamSource, Source(p.Source).String())
	}
	if p.VecMask != 0 {
		var names []string
		for vec := 0; vec < 32; vec++ {
			if p.VecMask&(1<<vec) != 0 {
				names = append(names, Vector(vec).String())
			}
		}
		v.Set(ParamVectors, strings.Join(names, ","))
	}
	if p.HasDays {
		v.Set(ParamDays, fmt.Sprintf("%d..%d", p.DayLo, p.DayHi))
	}
	if p.HasPrefix {
		v.Set(ParamPrefix, fmt.Sprintf("%s/%d", p.Prefix, p.PrefixBits))
	}
	return v
}

// ParseSource inverts Source.String.
func ParseSource(s string) (Source, error) {
	for src := Source(0); int(src) < NumSources; src++ {
		if src.String() == s {
			return src, nil
		}
	}
	return 0, fmt.Errorf("attack: unknown source %q", s)
}

// parseDayRange parses "lo..hi" (any int32 bounds, negatives included)
// or "lo-hi" / "d" shorthand for non-negative in-window ranges.
func parseDayRange(s string) (lo, hi int32, err error) {
	var loStr, hiStr string
	if l, h, ok := strings.Cut(s, ".."); ok {
		loStr, hiStr = l, h
	} else if l, h, ok := strings.Cut(s, "-"); ok && l != "" {
		// "lo-hi" only for non-negative bounds; a leading '-' would make
		// the split ambiguous, which is what ".." exists for.
		loStr, hiStr = l, h
	} else {
		loStr, hiStr = s, s
	}
	l64, err := strconv.ParseInt(strings.TrimSpace(loStr), 10, 32)
	if err != nil {
		return 0, 0, fmt.Errorf("attack: days %q: bad lower bound", s)
	}
	h64, err := strconv.ParseInt(strings.TrimSpace(hiStr), 10, 32)
	if err != nil {
		return 0, 0, fmt.Errorf("attack: days %q: bad upper bound", s)
	}
	return int32(l64), int32(h64), nil
}

// PlanFromValues compiles URL query parameters into a plan. Either the
// plan= parameter carries a complete base64 plan (and no filter
// parameter may accompany it), or the filter parameters compose exactly
// like the Query builder methods. Keys outside the Param* set are
// ignored. Every field passes the same domain validation as DecodePlan.
func PlanFromValues(v url.Values) (Plan, error) {
	if s := v.Get(ParamPlan); s != "" {
		for _, k := range []string{ParamSource, ParamVectors, ParamDays, ParamPrefix} {
			if v.Get(k) != "" {
				return Plan{}, fmt.Errorf("attack: plan= cannot be combined with %s=", k)
			}
		}
		return DecodePlanString(s)
	}
	p := PlanAll()
	if s := v.Get(ParamSource); s != "" {
		src, err := ParseSource(s)
		if err != nil {
			return Plan{}, err
		}
		p.setSource(src)
	}
	if s := v.Get(ParamVectors); s != "" {
		for _, name := range strings.Split(s, ",") {
			vec, err := ParseVector(strings.TrimSpace(name))
			if err != nil {
				return Plan{}, err
			}
			p.addVectors(vec)
		}
	}
	if s := v.Get(ParamDays); s != "" {
		lo, hi, err := parseDayRange(s)
		if err != nil {
			return Plan{}, err
		}
		p.setDays(int(lo), int(hi))
	}
	if s := v.Get(ParamPrefix); s != "" {
		pfx, err := netx.ParsePrefix(s)
		if err != nil {
			return Plan{}, err
		}
		p.setPrefix(pfx.Addr(), pfx.Bits())
	}
	// Round-trip through the wire encoding: a URL must not compose a
	// plan the binary form would reject (and cannot — every parameter
	// above is already domain-checked — but the en/decode keeps the two
	// text forms verifiably equivalent).
	return DecodePlan(p.AppendBinary(nil))
}
