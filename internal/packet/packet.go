// Package packet implements wire-format encoding and decoding for the IPv4
// header family (IPv4, TCP, UDP, ICMPv4) with no dependencies beyond the
// standard library.
//
// The design follows the gopacket DecodingLayer idiom: layer structs are
// decoded in place with DecodeFromBytes so a hot parsing loop performs no
// per-packet allocation, and serialization uses a prepend-style
// SerializeBuffer so a packet is built by serializing layers innermost
// first. doscope uses this package to synthesize and to classify telescope
// backscatter and honeypot reflection traffic.
package packet

import (
	"errors"
	"fmt"
)

// IPProtocol is the IPv4 protocol number.
type IPProtocol uint8

// Protocol numbers used by the telescope classifier.
const (
	ProtocolICMP IPProtocol = 1
	ProtocolIGMP IPProtocol = 2
	ProtocolTCP  IPProtocol = 6
	ProtocolUDP  IPProtocol = 17
	ProtocolGRE  IPProtocol = 47
	ProtocolESP  IPProtocol = 50
)

// String returns the conventional protocol name.
func (p IPProtocol) String() string {
	switch p {
	case ProtocolICMP:
		return "ICMP"
	case ProtocolIGMP:
		return "IGMP"
	case ProtocolTCP:
		return "TCP"
	case ProtocolUDP:
		return "UDP"
	case ProtocolGRE:
		return "GRE"
	case ProtocolESP:
		return "ESP"
	}
	return fmt.Sprintf("proto-%d", uint8(p))
}

// Errors shared by the layer decoders.
var (
	ErrTruncated = errors.New("packet: truncated data")
	ErrMalformed = errors.New("packet: malformed header")
)

// SerializableLayer is implemented by layers that can write themselves to a
// SerializeBuffer.
type SerializableLayer interface {
	SerializeTo(b *SerializeBuffer, opts SerializeOptions) error
}

// SerializeOptions controls header fix-ups during serialization.
type SerializeOptions struct {
	// FixLengths recomputes length fields (IPv4 total length, UDP length)
	// from the buffer contents.
	FixLengths bool
	// ComputeChecksums recomputes the IPv4 header checksum and the
	// TCP/UDP/ICMP checksums.
	ComputeChecksums bool
}

// SerializeBuffer assembles a packet back-to-front: each layer prepends its
// header in front of the bytes already present, mirroring
// gopacket.SerializeBuffer. The zero value is ready to use.
type SerializeBuffer struct {
	data  []byte // window within store holding the packet
	store []byte // backing array; data grows toward its start
}

// NewSerializeBuffer returns a buffer with a default amount of prepend
// headroom.
func NewSerializeBuffer() *SerializeBuffer {
	return NewSerializeBufferExpectedSize(64, 512)
}

// NewSerializeBufferExpectedSize returns a buffer sized for the expected
// header (prepend) and payload (append) byte counts.
func NewSerializeBufferExpectedSize(prepend, appendSize int) *SerializeBuffer {
	store := make([]byte, prepend+appendSize)
	return &SerializeBuffer{data: store[prepend:prepend], store: store}
}

// Bytes returns the assembled packet. The slice is invalidated by the next
// Prepend/Append/Clear call.
func (b *SerializeBuffer) Bytes() []byte { return b.data }

// Clear empties the buffer, retaining capacity and restoring headroom.
func (b *SerializeBuffer) Clear() {
	prepend := len(b.store)
	if prepend > 64 {
		prepend = 64
	}
	b.data = b.store[prepend:prepend]
}

// PrependBytes returns a slice of n fresh bytes at the front of the packet.
func (b *SerializeBuffer) PrependBytes(n int) []byte {
	if n < 0 {
		panic("packet: negative prepend")
	}
	start := b.headroom()
	if start < n {
		b.grow(n - start)
		start = b.headroom()
	}
	newStart := start - n
	b.data = b.store[newStart : start+len(b.data)]
	for i := 0; i < n; i++ {
		b.data[i] = 0
	}
	return b.data[:n]
}

func (b *SerializeBuffer) headroom() int {
	if b.store == nil {
		return 0
	}
	// The data window always aliases store; its start offset is the
	// headroom available for prepending.
	return cap(b.store) - cap(b.data)
}

func (b *SerializeBuffer) grow(front int) {
	curFront := b.headroom()
	curBack := len(b.store) - curFront - len(b.data)
	newFront := curFront + front
	if newFront < 64 {
		newFront = 64
	}
	newBack := max(curBack, 64)
	newStore := make([]byte, newFront+len(b.data)+newBack)
	copy(newStore[newFront:], b.data)
	b.store = newStore
	b.data = newStore[newFront : newFront+len(b.data)]
}

// SerializeLayers clears the buffer and serializes the given layers so each
// earlier layer wraps the later ones (e.g. IPv4, TCP, payload).
func SerializeLayers(b *SerializeBuffer, opts SerializeOptions, layers ...SerializableLayer) error {
	b.Clear()
	for i := len(layers) - 1; i >= 0; i-- {
		if err := layers[i].SerializeTo(b, opts); err != nil {
			return err
		}
	}
	return nil
}

// Payload is a raw application payload usable as the innermost layer when
// serializing.
type Payload []byte

// SerializeTo implements SerializableLayer.
func (p Payload) SerializeTo(b *SerializeBuffer, _ SerializeOptions) error {
	copy(b.PrependBytes(len(p)), p)
	return nil
}
