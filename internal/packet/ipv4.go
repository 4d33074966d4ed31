package packet

import (
	"encoding/binary"
	"fmt"

	"doscope/internal/netx"
)

// IPv4 flag bits (in the 3-bit flags field).
const (
	IPv4EvilBit       uint8 = 1 << 2 // reserved, RFC 3514 has opinions
	IPv4DontFragment  uint8 = 1 << 1
	IPv4MoreFragments uint8 = 1 << 0
)

// IPv4 is an IPv4 header. Decoding is allocation free except when the
// header carries options.
type IPv4 struct {
	Version    uint8
	IHL        uint8 // header length in 32-bit words
	TOS        uint8
	Length     uint16 // total length, header + payload
	ID         uint16
	Flags      uint8
	FragOffset uint16 // in 8-byte units
	TTL        uint8
	Protocol   IPProtocol
	Checksum   uint16
	Src, Dst   netx.Addr
	Options    []byte

	payload []byte
}

// DecodeFromBytes parses an IPv4 header from the start of data. The payload
// slice references data without copying; it is truncated to the header's
// total length when data carries trailing link-layer padding.
func (ip *IPv4) DecodeFromBytes(data []byte) error {
	if len(data) < 20 {
		return ErrTruncated
	}
	ip.Version = data[0] >> 4
	ip.IHL = data[0] & 0x0f
	if ip.Version != 4 {
		return fmt.Errorf("%w: IP version %d", ErrMalformed, ip.Version)
	}
	hdrLen := int(ip.IHL) * 4
	if hdrLen < 20 {
		return fmt.Errorf("%w: IHL %d", ErrMalformed, ip.IHL)
	}
	if len(data) < hdrLen {
		return ErrTruncated
	}
	ip.TOS = data[1]
	ip.Length = binary.BigEndian.Uint16(data[2:4])
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	ff := binary.BigEndian.Uint16(data[6:8])
	ip.Flags = uint8(ff >> 13)
	ip.FragOffset = ff & 0x1fff
	ip.TTL = data[8]
	ip.Protocol = IPProtocol(data[9])
	ip.Checksum = binary.BigEndian.Uint16(data[10:12])
	ip.Src, _ = netx.AddrFromSlice(data[12:16])
	ip.Dst, _ = netx.AddrFromSlice(data[16:20])
	if hdrLen > 20 {
		ip.Options = data[20:hdrLen]
	} else {
		ip.Options = nil
	}
	end := int(ip.Length)
	if end < hdrLen || end > len(data) {
		// Tolerate inconsistent total length (common in truncated
		// captures): deliver whatever bytes are present.
		end = len(data)
	}
	ip.payload = data[hdrLen:end]
	return nil
}

// Payload returns the bytes following the IPv4 header.
func (ip *IPv4) Payload() []byte { return ip.payload }

// VerifyChecksum reports whether the stored header checksum is consistent
// with the decoded fields.
func (ip *IPv4) VerifyChecksum() bool {
	hdr := make([]byte, 20+len(ip.Options))
	ip.marshalHeader(hdr, ip.Checksum)
	return Checksum(hdr, 0) == 0
}

// SerializeTo implements SerializableLayer. With opts.FixLengths the total
// length is set to header+payload; with opts.ComputeChecksums the header
// checksum is recomputed. IHL is always derived from the options length.
func (ip *IPv4) SerializeTo(b *SerializeBuffer, opts SerializeOptions) error {
	if len(ip.Options)%4 != 0 {
		return fmt.Errorf("%w: IPv4 options length %d not a multiple of 4", ErrMalformed, len(ip.Options))
	}
	hdrLen := 20 + len(ip.Options)
	payloadLen := len(b.Bytes())
	bytes := b.PrependBytes(hdrLen)
	ip.IHL = uint8(hdrLen / 4)
	if ip.Version == 0 {
		ip.Version = 4
	}
	if opts.FixLengths {
		ip.Length = uint16(hdrLen + payloadLen)
	}
	ip.marshalHeader(bytes, 0)
	if opts.ComputeChecksums {
		ip.Checksum = Checksum(bytes[:hdrLen], 0)
	}
	binary.BigEndian.PutUint16(bytes[10:12], ip.Checksum)
	return nil
}

func (ip *IPv4) marshalHeader(dst []byte, checksum uint16) {
	dst[0] = ip.Version<<4 | ip.IHL
	dst[1] = ip.TOS
	binary.BigEndian.PutUint16(dst[2:4], ip.Length)
	binary.BigEndian.PutUint16(dst[4:6], ip.ID)
	binary.BigEndian.PutUint16(dst[6:8], uint16(ip.Flags)<<13|ip.FragOffset)
	dst[8] = ip.TTL
	dst[9] = uint8(ip.Protocol)
	binary.BigEndian.PutUint16(dst[10:12], checksum)
	binary.BigEndian.PutUint32(dst[12:16], uint32(ip.Src))
	binary.BigEndian.PutUint32(dst[16:20], uint32(ip.Dst))
	copy(dst[20:], ip.Options)
}
