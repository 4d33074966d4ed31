// Package netx provides compact IPv4 address and prefix primitives used
// throughout doscope. Addresses are represented as big-endian uint32 values
// so that millions of attack targets can be stored, masked, and grouped
// without allocation. Conversions to and from the standard library's
// net/netip types are provided at the edges.
package netx

import (
	"fmt"
	"math"
	"net/netip"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host integer form (the first octet is the most
// significant byte). The zero value is 0.0.0.0.
type Addr uint32

// AddrFrom4 builds an Addr from four octets.
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// AddrFromSlice builds an Addr from a 4-byte slice. It reports false when
// the slice does not hold exactly four bytes.
func AddrFromSlice(b []byte) (Addr, bool) {
	if len(b) != 4 {
		return 0, false
	}
	return AddrFrom4(b[0], b[1], b[2], b[3]), true
}

// AddrFromNetip converts a netip.Addr. It reports false for non-IPv4
// addresses (including IPv4-mapped IPv6, which callers should Unmap first).
func AddrFromNetip(a netip.Addr) (Addr, bool) {
	if !a.Is4() {
		return 0, false
	}
	b := a.As4()
	return AddrFrom4(b[0], b[1], b[2], b[3]), true
}

// ParseAddr parses dotted-quad notation.
func ParseAddr(s string) (Addr, error) {
	var out Addr
	rest := s
	for i := 0; i < 4; i++ {
		var part string
		if i < 3 {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return 0, fmt.Errorf("netx: invalid IPv4 address %q", s)
			}
			part, rest = rest[:dot], rest[dot+1:]
		} else {
			part = rest
		}
		n, err := strconv.ParseUint(part, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("netx: invalid IPv4 address %q", s)
		}
		out = out<<8 | Addr(n)
	}
	return out, nil
}

// MustParseAddr is ParseAddr that panics on error; for tests and literals.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Octets returns the four octets of the address.
func (a Addr) Octets() (o0, o1, o2, o3 byte) {
	return byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)
}

// AppendTo appends the dotted-quad form to dst and returns the extended
// slice. It performs no heap allocation when dst has capacity.
func (a Addr) AppendTo(dst []byte) []byte {
	o0, o1, o2, o3 := a.Octets()
	dst = strconv.AppendUint(dst, uint64(o0), 10)
	dst = append(dst, '.')
	dst = strconv.AppendUint(dst, uint64(o1), 10)
	dst = append(dst, '.')
	dst = strconv.AppendUint(dst, uint64(o2), 10)
	dst = append(dst, '.')
	dst = strconv.AppendUint(dst, uint64(o3), 10)
	return dst
}

// String returns dotted-quad notation.
func (a Addr) String() string {
	return string(a.AppendTo(make([]byte, 0, 15)))
}

// Netip converts to a netip.Addr.
func (a Addr) Netip() netip.Addr {
	o0, o1, o2, o3 := a.Octets()
	return netip.AddrFrom4([4]byte{o0, o1, o2, o3})
}

// Slash24 returns the address masked to its /24 network block.
func (a Addr) Slash24() Addr { return a &^ 0xff }

// Slash16 returns the address masked to its /16 network block.
func (a Addr) Slash16() Addr { return a &^ 0xffff }

// Mask returns the address masked to a prefix of the given length.
// Lengths outside [0,32] are clamped.
func (a Addr) Mask(length int) Addr {
	if length <= 0 {
		return 0
	}
	if length >= 32 {
		return a
	}
	return a &^ (1<<(32-uint(length)) - 1)
}

// Prefix is an IPv4 CIDR prefix. The address is stored masked.
type Prefix struct {
	addr Addr
	bits int8
}

// PrefixFrom builds a Prefix, masking the address to the prefix length.
// Lengths outside [0,32] are clamped.
func PrefixFrom(a Addr, bits int) Prefix {
	if bits < 0 {
		bits = 0
	}
	if bits > 32 {
		bits = 32
	}
	return Prefix{addr: a.Mask(bits), bits: int8(bits)}
}

// ParsePrefix parses CIDR notation such as "192.0.2.0/24".
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("netx: invalid prefix %q: missing '/'", s)
	}
	a, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("netx: invalid prefix length in %q", s)
	}
	return PrefixFrom(a, bits), nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Addr returns the (masked) network address.
func (p Prefix) Addr() Addr { return p.addr }

// Bits returns the prefix length.
func (p Prefix) Bits() int { return int(p.bits) }

// Contains reports whether the prefix covers the address.
func (p Prefix) Contains(a Addr) bool { return a.Mask(int(p.bits)) == p.addr }

// Overlaps reports whether two prefixes share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	if p.bits <= q.bits {
		return p.Contains(q.addr)
	}
	return q.Contains(p.addr)
}

// NumAddrs returns the number of addresses covered by the prefix.
func (p Prefix) NumAddrs() uint64 { return 1 << (32 - uint(p.bits)) }

// First returns the first address in the prefix.
func (p Prefix) First() Addr { return p.addr }

// Last returns the last address in the prefix.
func (p Prefix) Last() Addr {
	if p.bits >= 32 {
		return p.addr
	}
	return p.addr | Addr(uint32(math.MaxUint32)>>uint(p.bits))
}

// String returns CIDR notation.
func (p Prefix) String() string {
	return p.addr.String() + "/" + strconv.Itoa(int(p.bits))
}
