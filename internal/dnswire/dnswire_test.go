package dnswire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"doscope/internal/netx"
)

func sampleMessage() *Message {
	return &Message{
		Header: Header{
			ID: 0xbeef, Response: true, Authoritative: true,
			RecursionDesired: true, RCode: RCodeNoError,
		},
		Questions: []Question{{Name: "www.example.com", Type: TypeA, Class: ClassIN}},
		Answers: []RR{
			{Name: "www.example.com", Type: TypeCNAME, Class: ClassIN, TTL: 300, Target: "web.hosting.example.com"},
			{Name: "web.hosting.example.com", Type: TypeA, Class: ClassIN, TTL: 300, Addr: netx.MustParseAddr("203.0.113.10")},
		},
		Authority: []RR{
			{Name: "example.com", Type: TypeNS, Class: ClassIN, TTL: 86400, Target: "ns1.example.com"},
		},
		Additional: []RR{
			{Name: "example.com", Type: TypeMX, Class: ClassIN, TTL: 3600, Pref: 10, Target: "mail.example.com"},
			{Name: "example.com", Type: TypeTXT, Class: ClassIN, TTL: 60, Text: "v=spf1 -all"},
		},
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	m := sampleMessage()
	data, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	var got Message
	if err := got.Unpack(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, m) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, *m)
	}
}

func TestCompressionShrinksMessage(t *testing.T) {
	m := sampleMessage()
	data, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Without compression, "example.com" appears 6 times (~13 bytes each);
	// with compression the total must be clearly below the naive size.
	naive := 0
	count := strings.Count(string(data), "example")
	if count > 2 {
		t.Errorf("'example' literal appears %d times; compression not effective", count)
	}
	_ = naive
}

func TestSOARoundTrip(t *testing.T) {
	m := &Message{
		Header:    Header{ID: 7, Response: true, RCode: RCodeNXDomain},
		Questions: []Question{{Name: "gone.example.com", Type: TypeA, Class: ClassIN}},
		Authority: []RR{{
			Name: "example.com", Type: TypeSOA, Class: ClassIN, TTL: 900,
			SOA: &SOAData{
				MName: "ns1.example.com", RName: "hostmaster.example.com",
				Serial: 2017022801, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 86400,
			},
		}},
	}
	data, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	var got Message
	if err := got.Unpack(data); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Authority, m.Authority) {
		t.Fatalf("SOA mismatch: %+v vs %+v", got.Authority, m.Authority)
	}
	if got.Header.RCode != RCodeNXDomain {
		t.Errorf("RCode = %v", got.Header.RCode)
	}
}

func TestNameNormalization(t *testing.T) {
	m := &Message{Questions: []Question{{Name: "WWW.Example.COM.", Type: TypeA, Class: ClassIN}}}
	data, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	var got Message
	if err := got.Unpack(data); err != nil {
		t.Fatal(err)
	}
	if got.Questions[0].Name != "www.example.com" {
		t.Errorf("name = %q", got.Questions[0].Name)
	}
	// Octets outside ASCII pass through unchanged, even when they are
	// not valid UTF-8.
	if got := NormalizeName("X\xc8\xff.Com."); got != "x\xc8\xff.com" {
		t.Errorf("NormalizeName kept %q, want %q", got, "x\xc8\xff.com")
	}
}

func TestRootName(t *testing.T) {
	m := &Message{Questions: []Question{{Name: "", Type: TypeNS, Class: ClassIN}}}
	data, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	var got Message
	if err := got.Unpack(data); err != nil {
		t.Fatal(err)
	}
	if got.Questions[0].Name != "" {
		t.Errorf("root name = %q", got.Questions[0].Name)
	}
}

func TestLongTXTSplitsChunks(t *testing.T) {
	long := strings.Repeat("x", 600)
	m := &Message{Answers: []RR{{Name: "t.example.com", Type: TypeTXT, Class: ClassIN, Text: long}}}
	data, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	var got Message
	if err := got.Unpack(data); err != nil {
		t.Fatal(err)
	}
	if got.Answers[0].Text != long {
		t.Errorf("TXT length = %d", len(got.Answers[0].Text))
	}
	// Chunk length bytes take the largest TXT that fits one RDATA below
	// 65535 text bytes; Pack must refuse it rather than wrap RDLENGTH.
	huge := &Message{Answers: []RR{{Name: "t.example.com", Type: TypeTXT, Class: ClassIN, Text: strings.Repeat("x", 65300)}}}
	if _, err := huge.Pack(); err == nil {
		t.Error("Pack accepted a TXT record whose RDATA overflows RDLENGTH")
	}
}

func TestRejectsOverlongLabel(t *testing.T) {
	m := &Message{Questions: []Question{{Name: strings.Repeat("a", 64) + ".com", Type: TypeA, Class: ClassIN}}}
	if _, err := m.Pack(); err == nil {
		t.Error("64-char label accepted")
	}
	m = &Message{Questions: []Question{{Name: "a..com", Type: TypeA, Class: ClassIN}}}
	if _, err := m.Pack(); err == nil {
		t.Error("empty label accepted")
	}
}

func TestUnpackPointerLoop(t *testing.T) {
	// Craft a header + question whose name is a pointer to itself.
	data := make([]byte, 12, 16)
	binary.BigEndian.PutUint16(data[4:6], 1) // QDCOUNT=1
	data = append(data, 0xc0, 12)            // pointer to itself
	data = append(data, 0, 1, 0, 1)
	var m Message
	if err := m.Unpack(data); err == nil {
		t.Error("pointer loop accepted")
	}
}

func TestUnpackTruncated(t *testing.T) {
	m := sampleMessage()
	data, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 5, 11, 13, len(data) / 2, len(data) - 1} {
		var got Message
		if err := got.Unpack(data[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestUnpackNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		var m Message
		_ = m.Unpack(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestUnpackFuzzedMutations(t *testing.T) {
	base, err := sampleMessage().Pack()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		mut := append([]byte(nil), base...)
		for j := 0; j < 1+rng.Intn(4); j++ {
			mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
		}
		var m Message
		_ = m.Unpack(mut) // must not panic
	}
}

func TestPackUnpackPropertyNames(t *testing.T) {
	// Random label structures must round-trip.
	rng := rand.New(rand.NewSource(23))
	const alpha = "abcdefghijklmnopqrstuvwxyz0123456789-"
	randomName := func() string {
		labels := 1 + rng.Intn(4)
		parts := make([]string, labels)
		for i := range parts {
			l := 1 + rng.Intn(20)
			b := make([]byte, l)
			for j := range b {
				b[j] = alpha[rng.Intn(len(alpha))]
			}
			parts[i] = string(b)
		}
		return strings.Join(parts, ".")
	}
	for i := 0; i < 300; i++ {
		m := &Message{Header: Header{ID: uint16(i)}}
		for q := 0; q < 1+rng.Intn(3); q++ {
			m.Questions = append(m.Questions, Question{Name: randomName(), Type: TypeA, Class: ClassIN})
		}
		for a := 0; a < rng.Intn(4); a++ {
			m.Answers = append(m.Answers, RR{
				Name: randomName(), Type: TypeCNAME, Class: ClassIN, TTL: uint32(rng.Intn(1 << 20)), Target: randomName(),
			})
		}
		data, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		var got Message
		if err := got.Unpack(data); err != nil {
			t.Fatalf("unpack: %v", err)
		}
		if !reflect.DeepEqual(got.Questions, m.Questions) {
			t.Fatalf("questions mismatch")
		}
		if len(m.Answers) > 0 && !reflect.DeepEqual(got.Answers, m.Answers) {
			t.Fatalf("answers mismatch")
		}
	}
}

func TestHeaderFlagsRoundTrip(t *testing.T) {
	f := func(id uint16, qr, aa, tc, rd, ra bool, op, rc uint8) bool {
		m := &Message{Header: Header{
			ID: id, Response: qr, Authoritative: aa, Truncated: tc,
			RecursionDesired: rd, RecursionAvailable: ra,
			OpCode: op & 0xf, RCode: RCode(rc & 0xf),
		}}
		data, err := m.Pack()
		if err != nil {
			return false
		}
		var got Message
		if err := got.Unpack(data); err != nil {
			return false
		}
		return got.Header == m.Header
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTypeString(t *testing.T) {
	if TypeA.String() != "A" || TypeCNAME.String() != "CNAME" || Type(999).String() != "TYPE999" {
		t.Error("Type.String wrong")
	}
}

func TestUnknownRDataSkipped(t *testing.T) {
	// An RR of unknown type must be skipped without desync: craft AAAA.
	var p packer
	p.nameOffs = map[string]int{}
	p.buf = make([]byte, 0, 64)
	p.u16(1) // ID
	p.u16(1 << 15)
	p.u16(0)
	p.u16(2) // two answers
	p.u16(0)
	p.u16(0)
	if err := p.name("v6.example.com"); err != nil {
		t.Fatal(err)
	}
	p.u16(28) // AAAA
	p.u16(uint16(ClassIN))
	p.u32(60)
	p.u16(16)
	p.buf = append(p.buf, bytes.Repeat([]byte{0xfe}, 16)...)
	if err := p.rr(&RR{Name: "w.example.com", Type: TypeA, Class: ClassIN, TTL: 60, Addr: 0x01020304}); err != nil {
		t.Fatal(err)
	}
	var m Message
	if err := m.Unpack(p.buf); err != nil {
		t.Fatal(err)
	}
	if len(m.Answers) != 2 {
		t.Fatalf("answers = %d", len(m.Answers))
	}
	if m.Answers[1].Type != TypeA || m.Answers[1].Addr != 0x01020304 {
		t.Errorf("A record after unknown type mis-parsed: %+v", m.Answers[1])
	}
}

// FuzzUnpack feeds arbitrary bytes to the decoder that parses network
// input (server queries, resolver replies). Unpack must never panic, and
// a message it accepts must re-encode: Pack succeeds unless the message
// holds what the decoder passes through by design but the encoder cannot
// write (an RR type without an RDATA encoder, a label containing a dot
// that splits into an empty label), and decoding that encoding and
// packing again gives the same bytes. Comparing messages instead of
// bytes would be wrong: Pack lowercases names and re-chunks TXT data.
func FuzzUnpack(f *testing.F) {
	for _, m := range []*Message{sampleMessage(), {
		Header:    Header{ID: 7, Response: true, RCode: RCodeNXDomain},
		Questions: []Question{{Name: "Gone.Example.com", Type: TypeANY, Class: ClassIN}},
		Authority: []RR{{Name: "example.com", Type: TypeSOA, Class: ClassIN, TTL: 900,
			SOA: &SOAData{MName: "ns1.example.com", RName: "hostmaster.example.com", Serial: 1}}},
		Additional: []RR{{Name: "example.com", Type: TypeTXT, Text: strings.Repeat("x", 300)}},
	}} {
		data, err := m.Pack()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xc0, 12, 0, 1, 0, 1}) // self-pointer
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		if m.Unpack(data) != nil {
			return
		}
		packed, err := m.Pack()
		if err != nil {
			if errors.Is(err, ErrBadName) && hasEmptyLabel(&m) || !encodable(&m) {
				return
			}
			t.Fatalf("Pack of an accepted message: %v", err)
		}
		var again Message
		if err := again.Unpack(packed); err != nil {
			t.Fatalf("Unpack of a packed message: %v", err)
		}
		repacked, err := again.Pack()
		if err != nil {
			t.Fatalf("Pack after the round trip: %v", err)
		}
		if !bytes.Equal(repacked, packed) {
			t.Fatalf("Unpack then Pack changed the bytes:\n%x\n%x", packed, repacked)
		}
	})
}

// encodable reports whether Pack has an RDATA encoder for every RR type
// of m.
func encodable(m *Message) bool {
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			switch rr.Type {
			case TypeA, TypeNS, TypeCNAME, TypeMX, TypeTXT, TypeSOA:
			default:
				return false
			}
		}
	}
	return true
}

// hasEmptyLabel reports whether a name in m, split at its dots after
// Pack's normalization, has an empty label: a wire label that held a dot.
func hasEmptyLabel(m *Message) bool {
	names := make([]string, 0, 8)
	for _, q := range m.Questions {
		names = append(names, q.Name)
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			names = append(names, rr.Name, rr.Target)
			if rr.SOA != nil {
				names = append(names, rr.SOA.MName, rr.SOA.RName)
			}
		}
	}
	for _, n := range names {
		if n = NormalizeName(n); n != "" && slices.Contains(strings.Split(n, "."), "") {
			return true
		}
	}
	return false
}

func BenchmarkPackCompressed(b *testing.B) {
	m := sampleMessage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Pack(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnpack(b *testing.B) {
	data, err := sampleMessage().Pack()
	if err != nil {
		b.Fatal(err)
	}
	var m Message
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := m.Unpack(data); err != nil {
			b.Fatal(err)
		}
	}
}
