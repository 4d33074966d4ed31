// Package dnswire implements the subset of the RFC 1035 DNS wire format
// that the OpenINTEL-style measurement platform needs: headers, questions,
// and A/NS/CNAME/SOA/MX/TXT resource records, with full name-compression
// support on both the encode and decode paths.
package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"doscope/internal/netx"
)

// Type is an RR type.
type Type uint16

// Supported RR types.
const (
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypeMX    Type = 15
	TypeTXT   Type = 16
	TypeANY   Type = 255
)

// String names the type.
func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypeMX:
		return "MX"
	case TypeTXT:
		return "TXT"
	case TypeANY:
		return "ANY"
	}
	return fmt.Sprintf("TYPE%d", uint16(t))
}

// Class is an RR class; only IN is used.
type Class uint16

// ClassIN is the Internet class.
const ClassIN Class = 1

// RCode is a response code.
type RCode uint8

// Response codes.
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
)

// Errors returned by Unpack.
var (
	ErrTruncatedMessage = errors.New("dnswire: truncated message")
	ErrBadName          = errors.New("dnswire: malformed domain name")
	ErrPointerLoop      = errors.New("dnswire: compression pointer loop")
)

// Header is the fixed 12-byte message header, with the flag word
// decomposed.
type Header struct {
	ID                 uint16
	Response           bool // QR
	OpCode             uint8
	Authoritative      bool // AA
	Truncated          bool // TC
	RecursionDesired   bool // RD
	RecursionAvailable bool // RA
	RCode              RCode
}

// Question is one query.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// SOAData is the SOA RDATA.
type SOAData struct {
	MName, RName                            string
	Serial, Refresh, Retry, Expire, Minimum uint32
}

// RR is one resource record. The typed RDATA fields are used according to
// Type: A uses Addr; NS and CNAME use Target; MX uses Pref and Target; TXT
// uses Text; SOA uses SOA.
type RR struct {
	Name  string
	Type  Type
	Class Class
	TTL   uint32

	Addr   netx.Addr
	Target string
	Pref   uint16
	Text   string
	SOA    *SOAData
}

// Message is a complete DNS message.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
}

// NormalizeName lowercases a domain name and strips a trailing dot; the
// empty string is the root. Only ASCII letters fold (RFC 4343): labels
// are octets, and Unicode case mapping would rewrite bytes that are not
// valid UTF-8, growing a label past 63 octets.
func NormalizeName(name string) string {
	name = strings.TrimSuffix(name, ".")
	for i := 0; i < len(name); i++ {
		if 'A' <= name[i] && name[i] <= 'Z' {
			b := []byte(name)
			for j := i; j < len(b); j++ {
				if 'A' <= b[j] && b[j] <= 'Z' {
					b[j] += 'a' - 'A'
				}
			}
			return string(b)
		}
	}
	return name
}

// --- packing -----------------------------------------------------------

type packer struct {
	buf      []byte
	nameOffs map[string]int
}

// Pack serializes the message with name compression.
func (m *Message) Pack() ([]byte, error) {
	p := &packer{buf: make([]byte, 0, 512), nameOffs: make(map[string]int)}
	var flags uint16
	if m.Header.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.Header.OpCode&0xf) << 11
	if m.Header.Authoritative {
		flags |= 1 << 10
	}
	if m.Header.Truncated {
		flags |= 1 << 9
	}
	if m.Header.RecursionDesired {
		flags |= 1 << 8
	}
	if m.Header.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(m.Header.RCode & 0xf)
	p.u16(m.Header.ID)
	p.u16(flags)
	p.u16(uint16(len(m.Questions)))
	p.u16(uint16(len(m.Answers)))
	p.u16(uint16(len(m.Authority)))
	p.u16(uint16(len(m.Additional)))
	for _, q := range m.Questions {
		if err := p.name(q.Name); err != nil {
			return nil, err
		}
		p.u16(uint16(q.Type))
		p.u16(uint16(q.Class))
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for i := range sec {
			if err := p.rr(&sec[i]); err != nil {
				return nil, err
			}
		}
	}
	return p.buf, nil
}

func (p *packer) u16(v uint16) { p.buf = binary.BigEndian.AppendUint16(p.buf, v) }
func (p *packer) u32(v uint32) { p.buf = binary.BigEndian.AppendUint32(p.buf, v) }

// name emits a possibly compressed domain name.
func (p *packer) name(name string) error {
	name = NormalizeName(name)
	for name != "" {
		if off, ok := p.nameOffs[name]; ok {
			p.u16(uint16(off) | 0xc000)
			return nil
		}
		var label string
		if dot := strings.IndexByte(name, '.'); dot >= 0 {
			label, name = name[:dot], name[dot+1:]
		} else {
			label, name = name, ""
		}
		if len(label) == 0 || len(label) > 63 {
			return fmt.Errorf("%w: label %q", ErrBadName, label)
		}
		full := label
		if name != "" {
			full = label + "." + name
		}
		if len(p.buf) < 0x4000 {
			p.nameOffs[full] = len(p.buf)
		}
		p.buf = append(p.buf, byte(len(label)))
		p.buf = append(p.buf, label...)
	}
	p.buf = append(p.buf, 0)
	return nil
}

func (p *packer) rr(rr *RR) error {
	if err := p.name(rr.Name); err != nil {
		return err
	}
	p.u16(uint16(rr.Type))
	p.u16(uint16(rr.Class))
	p.u32(rr.TTL)
	// Reserve RDLENGTH; fill after encoding RDATA.
	lenAt := len(p.buf)
	p.u16(0)
	start := len(p.buf)
	switch rr.Type {
	case TypeA:
		o0, o1, o2, o3 := rr.Addr.Octets()
		p.buf = append(p.buf, o0, o1, o2, o3)
	case TypeNS, TypeCNAME:
		if err := p.name(rr.Target); err != nil {
			return err
		}
	case TypeMX:
		p.u16(rr.Pref)
		if err := p.name(rr.Target); err != nil {
			return err
		}
	case TypeTXT:
		txt := rr.Text
		for len(txt) > 255 {
			p.buf = append(p.buf, 255)
			p.buf = append(p.buf, txt[:255]...)
			txt = txt[255:]
		}
		p.buf = append(p.buf, byte(len(txt)))
		p.buf = append(p.buf, txt...)
	case TypeSOA:
		soa := rr.SOA
		if soa == nil {
			soa = &SOAData{}
		}
		if err := p.name(soa.MName); err != nil {
			return err
		}
		if err := p.name(soa.RName); err != nil {
			return err
		}
		p.u32(soa.Serial)
		p.u32(soa.Refresh)
		p.u32(soa.Retry)
		p.u32(soa.Expire)
		p.u32(soa.Minimum)
	default:
		return fmt.Errorf("dnswire: cannot pack RR type %v", rr.Type)
	}
	n := len(p.buf) - start
	if n > 0xffff {
		return fmt.Errorf("dnswire: %v RDATA of %d bytes overflows RDLENGTH", rr.Type, n)
	}
	binary.BigEndian.PutUint16(p.buf[lenAt:], uint16(n))
	return nil
}

// --- unpacking ----------------------------------------------------------

type unpacker struct {
	data []byte
	off  int
}

// Unpack parses a complete message.
func (m *Message) Unpack(data []byte) error {
	u := &unpacker{data: data}
	id, err := u.u16()
	if err != nil {
		return err
	}
	flags, err := u.u16()
	if err != nil {
		return err
	}
	m.Header = Header{
		ID:                 id,
		Response:           flags&(1<<15) != 0,
		OpCode:             uint8(flags >> 11 & 0xf),
		Authoritative:      flags&(1<<10) != 0,
		Truncated:          flags&(1<<9) != 0,
		RecursionDesired:   flags&(1<<8) != 0,
		RecursionAvailable: flags&(1<<7) != 0,
		RCode:              RCode(flags & 0xf),
	}
	counts := make([]uint16, 4)
	for i := range counts {
		if counts[i], err = u.u16(); err != nil {
			return err
		}
	}
	m.Questions = m.Questions[:0]
	for i := 0; i < int(counts[0]); i++ {
		name, err := u.name()
		if err != nil {
			return err
		}
		t, err := u.u16()
		if err != nil {
			return err
		}
		cl, err := u.u16()
		if err != nil {
			return err
		}
		m.Questions = append(m.Questions, Question{Name: name, Type: Type(t), Class: Class(cl)})
	}
	secs := []*[]RR{&m.Answers, &m.Authority, &m.Additional}
	for s, sec := range secs {
		*sec = (*sec)[:0]
		for i := 0; i < int(counts[s+1]); i++ {
			rr, err := u.rr()
			if err != nil {
				return err
			}
			*sec = append(*sec, rr)
		}
	}
	return nil
}

func (u *unpacker) u16() (uint16, error) {
	if u.off+2 > len(u.data) {
		return 0, ErrTruncatedMessage
	}
	v := binary.BigEndian.Uint16(u.data[u.off:])
	u.off += 2
	return v, nil
}

func (u *unpacker) u32() (uint32, error) {
	if u.off+4 > len(u.data) {
		return 0, ErrTruncatedMessage
	}
	v := binary.BigEndian.Uint32(u.data[u.off:])
	u.off += 4
	return v, nil
}

// name reads a possibly compressed name starting at the cursor.
func (u *unpacker) name() (string, error) {
	s, next, err := readName(u.data, u.off)
	if err != nil {
		return "", err
	}
	u.off = next
	return s, nil
}

// readName decodes a name at off, returning the cursor position after the
// name as encountered in the stream (pointers are followed without moving
// the stream cursor past them).
func readName(data []byte, off int) (string, int, error) {
	var sb strings.Builder
	jumps := 0
	cursor := off
	after := -1 // stream position after the first pointer
	for {
		if cursor >= len(data) {
			return "", 0, ErrTruncatedMessage
		}
		b := data[cursor]
		switch {
		case b == 0:
			cursor++
			if after < 0 {
				after = cursor
			}
			return sb.String(), after, nil
		case b&0xc0 == 0xc0:
			if cursor+2 > len(data) {
				return "", 0, ErrTruncatedMessage
			}
			ptr := int(binary.BigEndian.Uint16(data[cursor:]) & 0x3fff)
			if after < 0 {
				after = cursor + 2
			}
			jumps++
			if jumps > 64 || ptr >= len(data) {
				return "", 0, ErrPointerLoop
			}
			cursor = ptr
		case b&0xc0 != 0:
			return "", 0, ErrBadName
		default:
			l := int(b)
			if cursor+1+l > len(data) {
				return "", 0, ErrTruncatedMessage
			}
			if sb.Len() > 0 {
				sb.WriteByte('.')
			}
			if sb.Len()+l > 255 {
				return "", 0, ErrBadName
			}
			sb.Write(data[cursor+1 : cursor+1+l])
			cursor += 1 + l
		}
	}
}

func (u *unpacker) rr() (RR, error) {
	var rr RR
	name, err := u.name()
	if err != nil {
		return rr, err
	}
	rr.Name = name
	t, err := u.u16()
	if err != nil {
		return rr, err
	}
	rr.Type = Type(t)
	cl, err := u.u16()
	if err != nil {
		return rr, err
	}
	rr.Class = Class(cl)
	if rr.TTL, err = u.u32(); err != nil {
		return rr, err
	}
	rdlen, err := u.u16()
	if err != nil {
		return rr, err
	}
	end := u.off + int(rdlen)
	if end > len(u.data) {
		return rr, ErrTruncatedMessage
	}
	switch rr.Type {
	case TypeA:
		if rdlen != 4 {
			return rr, fmt.Errorf("dnswire: A RDATA length %d", rdlen)
		}
		rr.Addr, _ = netx.AddrFromSlice(u.data[u.off:end])
	case TypeNS, TypeCNAME:
		if rr.Target, err = u.name(); err != nil {
			return rr, err
		}
	case TypeMX:
		if rr.Pref, err = u.u16(); err != nil {
			return rr, err
		}
		if rr.Target, err = u.name(); err != nil {
			return rr, err
		}
	case TypeTXT:
		var sb strings.Builder
		for u.off < end {
			l := int(u.data[u.off])
			if u.off+1+l > end {
				return rr, ErrTruncatedMessage
			}
			sb.Write(u.data[u.off+1 : u.off+1+l])
			u.off += 1 + l
		}
		rr.Text = sb.String()
	case TypeSOA:
		soa := &SOAData{}
		if soa.MName, err = u.name(); err != nil {
			return rr, err
		}
		if soa.RName, err = u.name(); err != nil {
			return rr, err
		}
		for _, dst := range []*uint32{&soa.Serial, &soa.Refresh, &soa.Retry, &soa.Expire, &soa.Minimum} {
			if *dst, err = u.u32(); err != nil {
				return rr, err
			}
		}
		rr.SOA = soa
	}
	// Skip any unparsed RDATA (unknown types) and normalize the cursor.
	u.off = end
	return rr, nil
}
