package attack

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"reflect"
	"testing"

	"doscope/internal/netx"
)

// TestPlanRoundTrip compiles every (serializable) query-case filter to a
// Plan, pushes it through the binary codec, and checks the decoded plan
// is identical and executes identically.
func TestPlanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewStore(randomEvents(rng, 2000))
	for _, tc := range queryCases() {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.build(s.Query()).Plan()
			dec, err := DecodePlan(p.AppendBinary(nil))
			if err != nil {
				t.Fatalf("DecodePlan: %v", err)
			}
			if dec != p {
				t.Fatalf("round trip changed the plan:\n got %+v\nwant %+v", dec, p)
			}
			want := tc.build(s.Query()).Count()
			if got := dec.Query(s).Count(); got != want {
				t.Errorf("decoded plan Count = %d, want %d", got, want)
			}
			if got, want := dec.Query(s).Events(), tc.build(s.Query()).Events(); !reflect.DeepEqual(got, want) {
				t.Errorf("decoded plan Events mismatch: %d vs %d", len(got), len(want))
			}
		})
	}
}

// TestDecodePlanRejectsCorrupt mirrors the segment reader's posture:
// every out-of-domain field in a received plan is an error, not a
// silently different query.
func TestDecodePlanRejectsCorrupt(t *testing.T) {
	base := func() []byte {
		p := Plan{Source: 1, VecMask: 1 << VectorNTP, HasDays: true, DayLo: 3, DayHi: 9,
			HasPrefix: true, PrefixBits: 24, Prefix: netx.AddrFrom4(203, 0, 113, 0)}
		return p.AppendBinary(nil)
	}
	if _, err := DecodePlan(base()); err != nil {
		t.Fatalf("baseline plan rejected: %v", err)
	}
	cases := []struct {
		name    string
		corrupt func(b []byte) []byte
	}{
		{"short", func(b []byte) []byte { return b[:PlanSize-1] }},
		{"long", func(b []byte) []byte { return append(b, 0) }},
		{"bad-source", func(b []byte) []byte { b[0] = 7; return b }},
		{"unknown-flag", func(b []byte) []byte { b[1] |= 0x80; return b }},
		{"reserved", func(b []byte) []byte { b[3] = 1; return b }},
		{"vecmask-overflow", func(b []byte) []byte { b[7] = 0xff; return b }},
		{"prefix-bits", func(b []byte) []byte { b[2] = 33; return b }},
		{"prefix-unmasked", func(b []byte) []byte { b[2] = 8; return b }},
		{"days-without-flag", func(b []byte) []byte { b[1] &^= planHasDays; return b }},
		{"prefix-without-flag", func(b []byte) []byte { b[1] &^= planHasPrefix; return b }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodePlan(tc.corrupt(base())); err == nil {
				t.Fatal("corrupt plan decoded without error")
			}
		})
	}
}

// FuzzDecodePlan feeds arbitrary bytes to the plan decoder, which reads
// every DOSFED01 request: it must never panic, and any plan it accepts
// must re-encode to exactly the bytes it came from — a frame cannot
// decode to a query other than the one it spells.
func FuzzDecodePlan(f *testing.F) {
	prefix := netx.AddrFrom4(203, 1, 2, 0)
	for _, p := range []Plan{
		PlanAll(),
		{Source: int8(SourceHoneypot), VecMask: 1<<VectorNTP | 1<<VectorDNS},
		{Source: -1, HasDays: true, DayLo: -3, DayHi: 400},
		{Source: int8(SourceTelescope), HasPrefix: true, PrefixBits: 24, Prefix: prefix},
	} {
		f.Add(p.AppendBinary(nil))
	}
	f.Add([]byte{})
	f.Add(make([]byte, PlanSize+1))
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodePlan(b)
		if err != nil {
			return
		}
		if got := p.AppendBinary(nil); !bytes.Equal(got, b) {
			t.Fatalf("plan %+v re-encodes to %x, decoded from %x", p, got, b)
		}
	})
}

// FuzzPlanFromValues feeds arbitrary text to the plan's two text forms:
// as a URL query string to PlanFromValues and as a plan= string to
// DecodePlanString. Neither may panic, and a plan either accepts must
// re-encode stably: its canonical parameters and its base64 string each
// compile back to the same plan, and encoding that plan again gives the
// same text.
func FuzzPlanFromValues(f *testing.F) {
	prefix := netx.AddrFrom4(198, 51, 100, 0)
	for _, p := range []Plan{
		PlanAll(),
		{Source: int8(SourceHoneypot), VecMask: 1<<VectorNTP | 1<<VectorDNS},
		{Source: -1, HasDays: true, DayLo: -3, DayHi: 400},
		{Source: int8(SourceTelescope), HasPrefix: true, PrefixBits: 24, Prefix: prefix},
	} {
		f.Add(p.Values().Encode())
		f.Add(url.Values{ParamPlan: {p.EncodeString()}}.Encode())
		f.Add(p.EncodeString())
	}
	f.Add("days=5-9&vectors=TCP,%20UDP&limit=3")
	f.Add("plan=AAAA&source=telescope")
	f.Fuzz(func(t *testing.T, s string) {
		stable := func(form string, p Plan) {
			t.Helper()
			v := p.Values()
			fromValues, err := PlanFromValues(v)
			if err != nil || fromValues != p {
				t.Fatalf("%s: plan %+v: its parameters %q compile to %+v, %v", form, p, v.Encode(), fromValues, err)
			}
			if again := fromValues.Values().Encode(); again != v.Encode() {
				t.Fatalf("%s: plan %+v: parameters %q, then %q", form, p, v.Encode(), again)
			}
			enc := p.EncodeString()
			fromString, err := DecodePlanString(enc)
			if err != nil || fromString != p {
				t.Fatalf("%s: plan %+v: its string %q decodes to %+v, %v", form, p, enc, fromString, err)
			}
			if again := fromString.EncodeString(); again != enc {
				t.Fatalf("%s: plan %+v: string %q, then %q", form, p, enc, again)
			}
		}
		if v, err := url.ParseQuery(s); err == nil {
			if p, err := PlanFromValues(v); err == nil {
				stable("PlanFromValues", p)
			}
		}
		if p, err := DecodePlanString(s); err == nil {
			stable("DecodePlanString", p)
		}
	})
}

// TestQueryBackendsLocal checks the federated fan-out against the
// in-process QueryStores path with local stores as the backends — the
// degenerate federation every remote test builds on.
func TestQueryBackendsLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	events := randomEvents(rng, 3000)
	a, b := NewStore(events[:1700]), NewStore(events[1700:])
	combined := NewStore(events)

	for _, tc := range queryCases() {
		t.Run(tc.name, func(t *testing.T) {
			fed := QueryPlan(tc.build(QueryStores(a, b)).Plan(), a, b)

			n, err := strict(fed.Count())
			if err != nil {
				t.Fatal(err)
			}
			if want := tc.build(combined.Query()).Count(); n != want {
				t.Errorf("Count = %d, want %d", n, want)
			}
			perVec, err := strict(fed.CountByVector())
			if err != nil {
				t.Fatal(err)
			}
			if want := tc.build(combined.Query()).CountByVector(); perVec != want {
				t.Errorf("CountByVector = %v, want %v", perVec, want)
			}
			perDay, err := strict(fed.CountByDay())
			if err != nil {
				t.Fatal(err)
			}
			if want := tc.build(combined.Query()).CountByDay(); !reflect.DeepEqual(perDay, want) {
				t.Error("CountByDay mismatch")
			}
			got, err := strict(fed.Events())
			if err != nil {
				t.Fatal(err)
			}
			want := tc.build(QueryStores(a, b)).Events()
			if len(got) == 0 && len(want) == 0 {
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Events: %d events, want %d", len(got), len(want))
			}
		})
	}
}

// TestFedQueryBuilderCompilesLikeQuery: the FedQuery builder methods and
// the Query builder must compile to the same plan for the same chain.
func TestFedQueryBuilderCompilesLikeQuery(t *testing.T) {
	prefix := netx.AddrFrom4(203, 1, 2, 3)
	qp := (&Store{}).Query().
		Source(SourceHoneypot).Vectors(VectorNTP, VectorDNS).Days(5, 40).TargetPrefix(prefix, 20).Plan()
	fp := QueryBackends().
		Source(SourceHoneypot).Vectors(VectorNTP, VectorDNS).Days(5, 40).TargetPrefix(prefix, 20).Plan()
	if qp != fp {
		t.Fatalf("builder plans differ:\nQuery    %+v\nFedQuery %+v", qp, fp)
	}
	if (&Store{}).Query().Target(prefix).Plan() != QueryBackends().Target(prefix).Plan() {
		t.Fatal("Target plans differ")
	}
}

// TestBuildersAgreeOnDomainEdges: both builders share the plan
// mutators, so they reject the same out-of-range filters (a vector the
// 32-bit mask cannot hold must not turn into a match-all filter) and
// saturate day ranges beyond int32 identically.
func TestBuildersAgreeOnDomainEdges(t *testing.T) {
	st := NewStore([]Event{{Source: SourceTelescope, Vector: VectorTCP,
		Target: netx.AddrFrom4(203, 0, 113, 1), Start: WindowStart + 10, End: WindowStart + 20}})
	if n := st.Query().Vectors(Vector(20)).Count(); n != 0 {
		t.Fatalf("Vectors(20) counted %d events, want 0", n)
	}
	mustPanic := func(name string, build func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		build()
	}
	mustPanic("Query.Vectors(40)", func() { st.Query().Vectors(Vector(40)) })
	mustPanic("FedQuery.Vectors(40)", func() { QueryBackends(st).Vectors(Vector(40)) })
	mustPanic("Query.TargetPrefix(/33)", func() { st.Query().TargetPrefix(0, 33) })
	mustPanic("FedQuery.TargetPrefix(/-1)", func() { QueryBackends(st).TargetPrefix(0, -1) })
	for _, src := range []Source{Source(NumSources), 5, 200} {
		mustPanic(fmt.Sprintf("Query.Source(%d)", src), func() { st.Query().Source(src) })
		mustPanic(fmt.Sprintf("FedQuery.Source(%d)", src), func() { QueryBackends(st).Source(src) })
	}
	for src := Source(0); int(src) < NumSources; src++ {
		qp, fp := st.Query().Source(src).Plan(), QueryBackends(st).Source(src).Plan()
		if qp != fp || int(qp.Source) != int(src) {
			t.Fatalf("Source(%d): Query plan %+v, FedQuery plan %+v", src, qp, fp)
		}
		if _, err := DecodePlan(qp.AppendBinary(nil)); err != nil {
			t.Fatalf("Source(%d): shipped plan rejected: %v", src, err)
		}
	}

	lo, hi := -1<<40, 1<<40
	qp, fp := st.Query().Days(lo, hi).Plan(), QueryBackends(st).Days(lo, hi).Plan()
	if qp != fp || qp.DayLo != math.MinInt32 || qp.DayHi != math.MaxInt32 {
		t.Fatalf("Days(%d, %d): Query plan %+v, FedQuery plan %+v, want both saturated", lo, hi, qp, fp)
	}
	n, err := strict(QueryBackends(st).Days(lo, hi).Count())
	if err != nil || n != 1 || st.Query().Days(lo, hi).Count() != 1 {
		t.Fatalf("saturated day range: federated Count = %d (%v), want 1 like the local one", n, err)
	}
}

// TestCollect: the materialized sub-store is independent of its source
// (ports included) and query-equivalent to the filter it captured.
func TestCollect(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	src := NewStore(randomEvents(rng, 1000))
	sub := src.Query().Source(SourceTelescope).Collect()
	want := src.Query().Source(SourceTelescope).Events()
	if got := sub.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Collect store has %d events, want %d", len(got), len(want))
	}
	// Mutating the source after Collect must not affect the copy.
	src.Add(Event{Source: SourceTelescope, Vector: VectorTCP, Start: WindowStart + 86400,
		Target: netx.AddrFrom4(198, 51, 100, 1), Ports: []uint16{80}})
	if got := sub.Query().Count(); got != len(want) {
		t.Fatalf("Collect store changed after source mutation: %d, want %d", got, len(want))
	}
}
