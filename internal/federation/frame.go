// Package federation ships the attack-store query plane across sensor
// sites. A Server exposes one *attack.Store — typically a site's live
// capture — over a length-prefixed frame protocol (DOSFED01) on TCP or
// unix sockets, and RemoteStore is the client side: it satisfies
// attack.Queryable, so attack.QueryBackends plans mix local stores and
// remote sites freely.
//
// The wire discipline mirrors the paper's aggregation shape (independent
// vantage points joined into one macroscopic view) and keeps the
// movement of data proportional to the answer: counting terminals ship a
// compiled 20-byte attack.Plan out and fixed-size index partials back —
// O(index cells), never O(events) — while iteration terminals ship the
// matching events as a DOSEVT02 segment the client opens zero-copy.
//
// See docs/FORMATS.md for the byte-level frame and plan layout.
package federation

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"doscope/internal/attack"
)

// Frame layout (all integers little-endian):
//
//	[0:4]   magic "DFD1"
//	[4]     type
//	[5:8]   reserved, zero
//	[8:12]  payload length (uint32)
//	[12:]   payload
const (
	frameMagic  = "DFD1"
	frameHeader = 12
)

// Frame types. Requests carry an attack.Plan payload; responses carry
// the terminal's result. The high bit distinguishes responses.
const (
	typeReqCount         = 0x01 // resp: typeRespCount
	typeReqCountByVector = 0x02 // resp: typeRespCountByVector
	typeReqCountByDay    = 0x03 // resp: typeRespCountByDay
	typeReqFetch         = 0x04 // resp: typeRespSegment
	typeReqVersion       = 0x05 // empty payload; resp: typeRespVersion

	typeRespCount         = 0x81 // uint64 count
	typeRespCountByVector = 0x82 // NumVectors uint64 counts
	typeRespCountByDay    = 0x83 // WindowDays uint64 counts
	typeRespSegment       = 0x84 // DOSEVT02 segment bytes
	typeRespVersion       = 0x85 // uint64 store mutation counter
	typeRespError         = 0xff // UTF-8 error message
)

// Payload bounds. Requests are tiny (a fixed-size plan). A fetch
// response is bounded by the segment it can ship; every other response
// by its exact size (see respCap). A frame claiming more is rejected
// before any allocation.
const (
	maxReqPayload  = 256
	maxRespPayload = 1 << 30
	maxErrPayload  = 1 << 16
)

// countTerm is one counting terminal's wire contract: its response
// frame type, the response's size in uint64 cells, and the Query
// terminal a site answers it with.
type countTerm struct {
	resp  byte
	cells int
	query func(*attack.Query) []int
}

// countTerms maps each counting request type to its terminal.
var countTerms = map[byte]countTerm{
	typeReqCount: {typeRespCount, 1,
		func(q *attack.Query) []int { return []int{q.Count()} }},
	typeReqCountByVector: {typeRespCountByVector, attack.NumVectors,
		func(q *attack.Query) []int { c := q.CountByVector(); return c[:] }},
	typeReqCountByDay: {typeRespCountByDay, attack.WindowDays,
		(*attack.Query).CountByDay},
}

// respCap is the largest response payload a client reads for a request
// whose answer is cells uint64 cells: the answer itself, or an error
// frame. A hostile or corrupt site cannot make a count or version probe
// allocate more than that.
func respCap(cells int) uint32 { return uint32(max(8*cells, maxErrPayload)) }

// frameError marks a malformed-frame condition. The client never
// retries these: a corrupt stream cannot be resynchronized, and
// retrying would mask the corruption.
type frameError string

func (e frameError) Error() string { return string(e) }

// errFrame wraps a malformed-frame condition.
func errFrame(format string, args ...any) error {
	return frameError(fmt.Sprintf("federation: frame: "+format, args...))
}

// writeFrame writes one frame. The payload is written as-is after the
// fixed header; payloads over the protocol's response cap are refused
// rather than letting the uint32 length field wrap and desync the
// stream (a fetch of a >1 GiB capture must fail cleanly, not corrupt).
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if uint64(len(payload)) > maxRespPayload {
		return errFrame("payload of %d bytes exceeds the %d-byte limit", len(payload), maxRespPayload)
	}
	var hdr [frameHeader]byte
	copy(hdr[:4], frameMagic)
	hdr[4] = typ
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readChunk bounds what readFrame allocates ahead of the bytes that
// arrive: a payload of up to readChunk bytes is read into one exact
// allocation, and a larger one into a buffer that starts at readChunk
// and doubles only as it fills. A header claiming far more than the peer
// sends — up to maxRespPayload on a fetch — costs about readChunk, not
// the claim.
const readChunk = 1 << 20

// readFrame reads one frame, rejecting bad magic, nonzero reserved
// bytes, and payloads over maxPayload before allocating anything. A
// stream that ends mid-frame surfaces io.ErrUnexpectedEOF; a clean EOF
// before any header byte surfaces io.EOF (the caller distinguishes a
// closed peer from a truncated frame).
func readFrame(r io.Reader, maxPayload uint32) (typ byte, payload []byte, err error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	if string(hdr[:4]) != frameMagic {
		return 0, nil, errFrame("bad magic %q", hdr[:4])
	}
	if hdr[5] != 0 || hdr[6] != 0 || hdr[7] != 0 {
		return 0, nil, errFrame("nonzero reserved bytes")
	}
	claim := binary.LittleEndian.Uint32(hdr[8:12])
	if claim > maxPayload {
		return 0, nil, errFrame("payload of %d bytes exceeds the %d-byte limit", claim, maxPayload)
	}
	n := int(claim)
	payload = make([]byte, 0, min(n, readChunk))
	for len(payload) < n {
		k := min(n-len(payload), max(len(payload), readChunk))
		payload = slices.Grow(payload, k)
		if _, err := io.ReadFull(r, payload[len(payload):len(payload)+k]); err != nil {
			return 0, nil, fmt.Errorf("federation: frame: truncated payload: %w", io.ErrUnexpectedEOF)
		}
		payload = payload[:len(payload)+k]
	}
	return hdr[4], payload, nil
}
