// Package amppot implements the AmpPot honeypot substrate (§3.1.2): a
// fleet of honeypots that emulate UDP protocols abused for reflection and
// amplification DoS, log the spoofed requests they receive, rate-limit
// replies so real attacks are not amplified, and aggregate per-victim
// request streams into attack events (at least 100 requests, gap-split,
// capped at 24 hours).
package amppot

import (
	"bytes"
	"encoding/binary"

	"doscope/internal/attack"
)

// ProtocolSpec describes one emulated reflection protocol.
type ProtocolSpec struct {
	Vector attack.Vector
	Port   uint16
	// Amplification is the paper-era bandwidth amplification factor; the
	// emulator sizes responses so this factor is actually achieved.
	Amplification float64
}

// Protocols lists the eight protocols AmpPot emulates (§3.1.2, footnote 2).
// Amplification factors follow Rossow's "Amplification Hell" (NDSS 2014).
var Protocols = []ProtocolSpec{
	{attack.VectorQOTD, 17, 140.3},
	{attack.VectorCharGen, 19, 358.8},
	{attack.VectorDNS, 53, 54.6},
	{attack.VectorNTP, 123, 556.9},
	{attack.VectorSSDP, 1900, 30.8},
	{attack.VectorMSSQL, 1434, 25.0},
	{attack.VectorRIPv1, 520, 131.2},
	{attack.VectorTFTP, 69, 60.0},
}

// SpecFor returns the protocol spec for a vector.
func SpecFor(v attack.Vector) (ProtocolSpec, bool) {
	for _, s := range Protocols {
		if s.Vector == v {
			return s, true
		}
	}
	return ProtocolSpec{}, false
}

// Emulator parses a request for one protocol and produces an amplified
// response. Implementations must be safe for concurrent use.
type Emulator interface {
	// Respond returns the response payload for a request, or ok=false
	// when the datagram is not a valid request for this protocol. The
	// response fits one IPv4 UDP datagram (at most 65,507 bytes).
	//
	// A response that depends on the request's bytes (DNS, NTP mode 3)
	// is written into dst[:0], grown only if dst is too short, so a
	// caller that passes a buffer of one datagram's capacity never
	// allocates. Every other response is shared with every response of
	// the same protocol and leaves dst untouched: callers must treat
	// the response as read-only, and its capacity equals its length, so
	// an append copies instead of writing into the shared bytes.
	Respond(dst, req []byte) (resp []byte, ok bool)
}

// NewEmulator returns the emulator for a vector.
func NewEmulator(v attack.Vector) (Emulator, bool) {
	switch v {
	case attack.VectorQOTD:
		return qotdEmulator{}, true
	case attack.VectorCharGen:
		return chargenEmulator{}, true
	case attack.VectorDNS:
		return dnsEmulator{}, true
	case attack.VectorNTP:
		return ntpEmulator{}, true
	case attack.VectorSSDP:
		return ssdpEmulator{}, true
	case attack.VectorMSSQL:
		return mssqlEmulator{}, true
	case attack.VectorRIPv1:
		return ripEmulator{}, true
	case attack.VectorTFTP:
		return tftpEmulator{}, true
	}
	return nil, false
}

// maxAmplifiedBytes caps the amplified filler of one response: the
// character stream of CharGen and NTP monlist, and the padding that DNS,
// SSDP and TFTP append to their headers.
const maxAmplifiedBytes = 63000

// maxUDPPayload is the largest payload one IPv4 UDP datagram carries
// (65,535 minus the 20-byte IP and 8-byte UDP headers). No response is
// longer: a longer one could never be sent. Only QOTD, whose reply grows
// with the request, and DNS, which echoes the request before its filler,
// reach it.
const maxUDPPayload = 65507

// The responses that do not depend on the request beyond its length,
// built once at their longest. Emulators serve them or prefixes of them,
// always with the capacity equal to the length, so a caller's append
// copies instead of writing into the shared bytes.
var (
	filler    = repeatTo(fillerChars, maxAmplifiedBytes)
	qotdResp  = repeatTo("\"The Internet interprets censorship as damage and routes around it.\" ", maxUDPPayload)
	ssdpResp  = append([]byte(ssdpHead+"\r\n"), filler...)
	tftpResp  = append([]byte{0, 3, 0, 1}, filler...) // DATA, block 1
	mssqlResp = buildMSSQL()
	ripResp   = buildRIP()
)

const (
	fillerChars = "!\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefg"
	ssdpHead    = "HTTP/1.1 200 OK\r\nCACHE-CONTROL: max-age=120\r\nST: upnp:rootdevice\r\nUSN: uuid:doscope-amppot\r\n"
)

// repeatTo returns n bytes of s repeated.
func repeatTo(s string, n int) []byte {
	out := make([]byte, n)
	for i := 0; i < n; {
		i += copy(out[i:], s)
	}
	return out
}

// buildMSSQL returns the MC-SQLR response: 25 copies of one instance
// record behind a 3-byte SVR_RESP header.
func buildMSSQL() []byte {
	body := []byte("ServerName;DOSCOPE;InstanceName;MSSQLSERVER;IsClustered;No;Version;12.0.2000.8;tcp;1433;;")
	resp := make([]byte, 3+len(body)*25)
	resp[0] = 0x05
	binary.LittleEndian.PutUint16(resp[1:3], uint16(len(resp)-3))
	for i := 0; i < 25; i++ {
		copy(resp[3+i*len(body):], body)
	}
	return resp
}

// buildRIP returns the RIPv1 response: command 2, 25 route entries of 20
// bytes each.
func buildRIP() []byte {
	resp := make([]byte, 4+25*20)
	resp[0], resp[1] = 2, 1
	for i := 0; i < 25; i++ {
		entry := resp[4+i*20:]
		binary.BigEndian.PutUint16(entry[0:2], 2) // AF_INET
		binary.BigEndian.PutUint32(entry[4:8], uint32(0x0a000000+i<<8))
		binary.BigEndian.PutUint32(entry[16:20], 1) // metric
	}
	return resp
}

// prefix returns the first n bytes of a (at most all of it) with the
// capacity cut to the length.
func prefix(a []byte, n int) []byte {
	n = min(n, len(a))
	return a[:n:n]
}

// sized returns dst resliced to n bytes, allocating only when its
// capacity is short. The bytes are not cleared: the caller overwrites
// all n of them.
func sized(dst []byte, n int) []byte {
	if cap(dst) < n {
		return make([]byte, n)
	}
	return dst[:n]
}

type qotdEmulator struct{}

func (qotdEmulator) Respond(_, req []byte) ([]byte, bool) {
	// QOTD answers any datagram (RFC 865).
	return prefix(qotdResp, int(140.3*float64(max(len(req), 1)))), true
}

type chargenEmulator struct{}

func (chargenEmulator) Respond(_, req []byte) ([]byte, bool) {
	// CharGen answers any datagram with a character stream (RFC 864).
	return prefix(filler, int(358.8*float64(max(len(req), 1)))), true
}

type dnsEmulator struct{}

func (dnsEmulator) Respond(dst, req []byte) ([]byte, bool) {
	// Minimal DNS sanity check: 12-byte header, QR=0, QDCOUNT>=1.
	if len(req) < 12 {
		return nil, false
	}
	if req[2]&0x80 != 0 { // QR bit set: a response, not a query
		return nil, false
	}
	if binary.BigEndian.Uint16(req[4:6]) == 0 {
		return nil, false
	}
	// The reply echoes the query, so it is built per request: header,
	// question section, then "answer" filler achieving the
	// ANY-amplification factor.
	fill := min(int(54.6*float64(len(req))), maxAmplifiedBytes)
	resp := sized(dst, min(len(req)+fill, maxUDPPayload))
	resp[0], resp[1] = req[0], req[1] // echo ID
	resp[2], resp[3] = 0x84, 0x00     // QR=1, AA=1
	n := copy(resp[4:], req[4:])      // counts (QDCOUNT preserved), question
	copy(resp[4+n:], filler)
	return resp, true
}

type ntpEmulator struct{}

func (ntpEmulator) Respond(dst, req []byte) ([]byte, bool) {
	// NTP private-mode monlist (mode 7, request code 42) is the abused
	// vector; plain mode-3 client requests get a normal 48-byte reply.
	if len(req) < 4 {
		return nil, false
	}
	mode := req[0] & 0x07
	if mode == 7 && len(req) >= 8 && req[3] == 42 {
		// The real monlist reply is up to 100 packets of 440 bytes; the
		// emulator concatenates them into one payload with the same
		// bandwidth amplification.
		return prefix(filler, int(556.9*float64(max(len(req), 8)))), true
	}
	if mode == 3 && len(req) >= 48 {
		resp := sized(dst, 48)
		clear(resp)
		resp[0] = req[0]&0xf8 | 4 // mode 4 (server)
		return resp, true
	}
	return nil, false
}

type ssdpEmulator struct{}

func (ssdpEmulator) Respond(_, req []byte) ([]byte, bool) {
	if !bytes.HasPrefix(req, []byte("M-SEARCH")) {
		return nil, false
	}
	return prefix(ssdpResp, len(ssdpHead)+2+int(30.8*float64(len(req)))), true
}

type mssqlEmulator struct{}

func (mssqlEmulator) Respond(_, req []byte) ([]byte, bool) {
	// MC-SQLR ping: a single 0x02 or 0x03 byte.
	if len(req) < 1 || (req[0] != 0x02 && req[0] != 0x03) {
		return nil, false
	}
	return mssqlResp, true
}

type ripEmulator struct{}

func (ripEmulator) Respond(_, req []byte) ([]byte, bool) {
	// RIPv1 request (command 1, version 1).
	if len(req) < 4 || req[0] != 1 || req[1] != 1 {
		return nil, false
	}
	return ripResp, true
}

type tftpEmulator struct{}

func (tftpEmulator) Respond(_, req []byte) ([]byte, bool) {
	// TFTP RRQ (opcode 1): filename, mode as NUL-terminated strings.
	if len(req) < 4 || binary.BigEndian.Uint16(req[0:2]) != 1 {
		return nil, false
	}
	if bytes.IndexByte(req[2:], 0) < 0 {
		return nil, false
	}
	// DATA block 1 with the amplified payload.
	return prefix(tftpResp, 4+int(60*float64(max(len(req), 8)))), true
}
