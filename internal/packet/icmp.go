package packet

import (
	"encoding/binary"
	"fmt"
)

// ICMPv4 message types relevant to backscatter classification.
const (
	ICMPEchoReply          uint8 = 0
	ICMPDestUnreachable    uint8 = 3
	ICMPSourceQuench       uint8 = 4
	ICMPRedirect           uint8 = 5
	ICMPEchoRequest        uint8 = 8
	ICMPTimeExceeded       uint8 = 11
	ICMPParameterProblem   uint8 = 12
	ICMPTimestampRequest   uint8 = 13
	ICMPTimestampReply     uint8 = 14
	ICMPInfoRequest        uint8 = 15
	ICMPInfoReply          uint8 = 16
	ICMPAddressMaskRequest uint8 = 17
	ICMPAddressMaskReply   uint8 = 18
)

// ICMPv4 is an ICMPv4 message header. The 4 bytes after the checksum are
// kept raw in RestOfHeader (identifier/sequence for echo, unused for
// unreachable, gateway for redirect).
type ICMPv4 struct {
	Type         uint8
	Code         uint8
	Checksum     uint16
	RestOfHeader uint32

	payload []byte
}

// DecodeFromBytes parses an ICMPv4 message from the start of data.
func (ic *ICMPv4) DecodeFromBytes(data []byte) error {
	if len(data) < 8 {
		return ErrTruncated
	}
	ic.Type = data[0]
	ic.Code = data[1]
	ic.Checksum = binary.BigEndian.Uint16(data[2:4])
	ic.RestOfHeader = binary.BigEndian.Uint32(data[4:8])
	ic.payload = data[8:]
	return nil
}

// Payload returns the bytes after the 8-byte ICMP header. For error
// messages (unreachable, time exceeded, ...) this is the quoted original
// IPv4 header plus at least 8 payload bytes.
func (ic *ICMPv4) Payload() []byte { return ic.payload }

// IsErrorMessage reports whether the message type quotes an offending
// packet in its payload.
func (ic *ICMPv4) IsErrorMessage() bool {
	switch ic.Type {
	case ICMPDestUnreachable, ICMPSourceQuench, ICMPRedirect, ICMPTimeExceeded, ICMPParameterProblem:
		return true
	}
	return false
}

// QuotedPacket decodes the quoted original IPv4 header carried by ICMP
// error messages. It reports an error for non-error message types or when
// the quote is too short.
func (ic *ICMPv4) QuotedPacket() (*IPv4, error) {
	if !ic.IsErrorMessage() {
		return nil, fmt.Errorf("%w: ICMP type %d carries no quoted packet", ErrMalformed, ic.Type)
	}
	var quoted IPv4
	if err := quoted.DecodeFromBytes(ic.payload); err != nil {
		return nil, err
	}
	return &quoted, nil
}

// VerifyChecksum checks the message checksum. message must be the full
// ICMP header+payload as received.
func (ic *ICMPv4) VerifyChecksum(message []byte) bool {
	return Checksum(message, 0) == 0
}

// SerializeTo implements SerializableLayer.
func (ic *ICMPv4) SerializeTo(b *SerializeBuffer, opts SerializeOptions) error {
	bytes := b.PrependBytes(8)
	bytes[0] = ic.Type
	bytes[1] = ic.Code
	binary.BigEndian.PutUint32(bytes[4:8], ic.RestOfHeader)
	if opts.ComputeChecksums {
		binary.BigEndian.PutUint16(bytes[2:4], 0)
		ic.Checksum = Checksum(b.Bytes(), 0)
	}
	binary.BigEndian.PutUint16(bytes[2:4], ic.Checksum)
	return nil
}
