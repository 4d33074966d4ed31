// Package pcap reads and writes libpcap classic capture files (the
// tcpdump format) using only the standard library. Both the microsecond
// (0xa1b2c3d4) and nanosecond (0xa1b23c4d) magic variants are supported,
// in either byte order. doscope uses it to persist synthetic telescope
// traffic and to classify externally supplied captures.
package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Link-layer header types (subset).
const (
	LinkTypeNull     uint32 = 0
	LinkTypeEthernet uint32 = 1
	LinkTypeRaw      uint32 = 101 // raw IP; used for telescope captures
)

const (
	magicMicros        = 0xa1b2c3d4
	magicNanos         = 0xa1b23c4d
	magicMicrosSwapped = 0xd4c3b2a1
	magicNanosSwapped  = 0x4d3cb2a1
)

// ErrBadMagic is returned when the file header magic is unknown.
var ErrBadMagic = errors.New("pcap: bad magic number")

// Header is the per-packet record header.
type Header struct {
	// Timestamp of capture.
	Timestamp time.Time
	// CaptureLength is the number of bytes stored in the file.
	CaptureLength int
	// OriginalLength is the packet's length on the wire.
	OriginalLength int
}

// Reader reads packets from a pcap stream.
type Reader struct {
	r        *bufio.Reader
	order    binary.ByteOrder
	nanos    bool
	linkType uint32
	snaplen  uint32
	buf      []byte
	hdr      [16]byte
}

// NewReader parses the global header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var gh [24]byte
	if _, err := io.ReadFull(br, gh[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading global header: %w", err)
	}
	magic := binary.LittleEndian.Uint32(gh[0:4])
	rd := &Reader{r: br}
	switch magic {
	case magicMicros:
		rd.order = binary.LittleEndian
	case magicNanos:
		rd.order, rd.nanos = binary.LittleEndian, true
	case magicMicrosSwapped:
		rd.order = binary.BigEndian
	case magicNanosSwapped:
		rd.order, rd.nanos = binary.BigEndian, true
	default:
		return nil, ErrBadMagic
	}
	major := rd.order.Uint16(gh[4:6])
	minor := rd.order.Uint16(gh[6:8])
	if major != 2 || minor != 4 {
		return nil, fmt.Errorf("pcap: unsupported version %d.%d", major, minor)
	}
	rd.snaplen = rd.order.Uint32(gh[16:20])
	rd.linkType = rd.order.Uint32(gh[20:24])
	return rd, nil
}

// LinkType returns the capture's link-layer header type.
func (r *Reader) LinkType() uint32 { return r.linkType }

// Next returns the next packet. The returned data slice is reused by
// subsequent calls; copy it to retain. io.EOF signals a clean end of file.
func (r *Reader) Next() (Header, []byte, error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		if err == io.EOF {
			return Header{}, nil, io.EOF
		}
		return Header{}, nil, fmt.Errorf("pcap: reading record header: %w", err)
	}
	sec := r.order.Uint32(r.hdr[0:4])
	frac := r.order.Uint32(r.hdr[4:8])
	caplen := r.order.Uint32(r.hdr[8:12])
	origlen := r.order.Uint32(r.hdr[12:16])
	if caplen > r.snaplen+65535 {
		return Header{}, nil, fmt.Errorf("pcap: implausible capture length %d", caplen)
	}
	if cap(r.buf) < int(caplen) {
		r.buf = make([]byte, caplen)
	}
	data := r.buf[:caplen]
	if _, err := io.ReadFull(r.r, data); err != nil {
		return Header{}, nil, fmt.Errorf("pcap: reading packet data: %w", err)
	}
	nsec := int64(frac)
	if !r.nanos {
		nsec *= 1000
	}
	h := Header{
		Timestamp:      time.Unix(int64(sec), nsec).UTC(),
		CaptureLength:  int(caplen),
		OriginalLength: int(origlen),
	}
	return h, data, nil
}

// Writer writes packets to a pcap stream in little-endian microsecond
// format.
type Writer struct {
	w       *bufio.Writer
	snaplen uint32
	hdr     [16]byte
}

// NewWriter writes the global header and returns a Writer.
func NewWriter(w io.Writer, linkType uint32, snaplen uint32) (*Writer, error) {
	bw := bufio.NewWriter(w)
	var gh [24]byte
	binary.LittleEndian.PutUint32(gh[0:4], magicMicros)
	binary.LittleEndian.PutUint16(gh[4:6], 2)
	binary.LittleEndian.PutUint16(gh[6:8], 4)
	binary.LittleEndian.PutUint32(gh[16:20], snaplen)
	binary.LittleEndian.PutUint32(gh[20:24], linkType)
	if _, err := bw.Write(gh[:]); err != nil {
		return nil, fmt.Errorf("pcap: writing global header: %w", err)
	}
	return &Writer{w: bw, snaplen: snaplen}, nil
}

// WritePacket appends one packet record. Data longer than the snaplen is
// truncated, with OriginalLength preserving the full size.
func (w *Writer) WritePacket(ts time.Time, data []byte) error {
	orig := len(data)
	if uint32(len(data)) > w.snaplen {
		data = data[:w.snaplen]
	}
	binary.LittleEndian.PutUint32(w.hdr[0:4], uint32(ts.Unix()))
	binary.LittleEndian.PutUint32(w.hdr[4:8], uint32(ts.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(w.hdr[8:12], uint32(len(data)))
	binary.LittleEndian.PutUint32(w.hdr[12:16], uint32(orig))
	if _, err := w.w.Write(w.hdr[:]); err != nil {
		return fmt.Errorf("pcap: writing record header: %w", err)
	}
	if _, err := w.w.Write(data); err != nil {
		return fmt.Errorf("pcap: writing packet data: %w", err)
	}
	return nil
}

// Flush flushes buffered records to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }
