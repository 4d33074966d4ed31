package dossim

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"slices"
	"time"

	"doscope/internal/amppot"
	"doscope/internal/attack"
	"doscope/internal/netx"
	"doscope/internal/packet"
	"doscope/internal/pcap"
	"doscope/internal/telescope"
)

// Packet-level fidelity caps: synthesized traffic bounds the per-event
// packet budget so laptop-scale runs stay tractable. Rates above the cap
// are faithfully *detected* but their measured intensity saturates at the
// cap; packet-level mode is therefore for validating the classification
// pipeline, not for reproducing intensity tails (the event-level path does
// that).
const (
	maxPeakPacketsPerMinute = 1200
	maxReflectionRequests   = 2000
	maxPacketLevelEvents    = 60000
)

type synthPacket struct {
	ts int64
	// raw is a telescope packet (IPv4 bytes); nil for reflection requests.
	raw []byte
	// reflection request fields.
	victim  netx.Addr
	vector  attack.Vector
	payload []byte
}

// timeOrder returns the packets' indexes in timestamp order, equal
// timestamps in slice order: the order a stable sort by ts would leave
// the packets in, found without moving them. When the timestamp span
// and the index fit one word together (always, for attacks inside the
// measurement window) it sorts packed (ts, index) keys and masks them
// down to the index in place; otherwise it stable-sorts the indexes by
// ts.
func timeOrder(pkts []synthPacket) []uint64 {
	order := make([]uint64, len(pkts))
	if len(pkts) == 0 {
		return order
	}
	lo, hi := pkts[0].ts, pkts[0].ts
	for i := range pkts {
		lo, hi = min(lo, pkts[i].ts), max(hi, pkts[i].ts)
	}
	idxBits := bits.Len(uint(len(pkts) - 1))
	// hi-lo may overflow int64; as a uint64 it is still the exact span.
	if bits.Len64(uint64(hi-lo))+idxBits > 64 {
		for i := range order {
			order[i] = uint64(i)
		}
		slices.SortStableFunc(order, func(a, b uint64) int { return cmp.Compare(pkts[a].ts, pkts[b].ts) })
		return order
	}
	for i := range pkts {
		order[i] = uint64(pkts[i].ts-lo)<<idxBits | uint64(i)
	}
	slices.Sort(order)
	mask := uint64(1)<<idxBits - 1
	for k := range order {
		order[k] &= mask
	}
	return order
}

// runPacketLevel synthesizes raw sensor traffic for every planned attack
// and classifies it with the real telescope classifier and honeypot fleet.
func runPacketLevel(cfg Config, planned []PlannedAttack) (tel, hp *attack.Store, err error) {
	if len(planned) > maxPacketLevelEvents {
		return nil, nil, fmt.Errorf("dossim: %d planned events exceed the packet-level cap %d; lower Scale or disable PacketLevel", len(planned), maxPacketLevelEvents)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 11))
	var pkts []synthPacket
	for i := range planned {
		pa := &planned[i]
		if pa.Dataset == attack.SourceTelescope {
			pkts = synthesizeBackscatter(rng, cfg, pa, pkts)
		} else {
			pkts = synthesizeReflection(rng, pa, pkts)
		}
	}
	classifier := telescope.New(telescope.DefaultConfig(cfg.Darknet))
	fleet := amppot.NewFleet(amppot.DefaultConfig())
	instance := 0
	for _, i := range timeOrder(pkts) {
		p := &pkts[i]
		if p.raw != nil {
			classifier.ProcessPacket(p.ts, p.raw)
			continue
		}
		fleet.HandleRequest(instance, p.ts, p.victim, p.vector, p.payload)
		instance++
	}
	classifier.Flush()
	return classifier.Store(), fleet.FlushStore(), nil
}

// synthesizeBackscatter emits the victim's backscatter for one randomly
// spoofed attack: keepalive packets spanning the full duration (spaced
// well inside the 300 s flow timeout) plus a peak minute carrying the
// attack's maximum rate.
func synthesizeBackscatter(rng *rand.Rand, cfg Config, pa *PlannedAttack, pkts []synthPacket) []synthPacket {
	d := pa.Duration
	if d < 60 {
		d = 60
	}
	darknetSize := int64(cfg.Darknet.NumAddrs())
	dst := func() netx.Addr {
		return cfg.Darknet.First() + netx.Addr(rng.Int63n(darknetSize))
	}
	emit := func(ts int64) {
		raw := backscatterPacket(rng, pa, dst())
		pkts = append(pkts, synthPacket{ts: ts, raw: raw})
	}
	// Keepalives from start to end.
	nKeep := d/120 + 2
	for i := int64(0); i < nKeep; i++ {
		emit(pa.Start + i*d/(nKeep-1))
	}
	// Peak minute at one third of the attack.
	peak := int64(pa.Intensity * 60)
	if peak < 30 {
		peak = 30
	}
	if peak > maxPeakPacketsPerMinute {
		peak = maxPeakPacketsPerMinute
	}
	peakStart := pa.Start + d/3
	// Stay within a single wall-clock minute bucket so the classifier's
	// per-minute maximum equals the planned rate.
	peakStart -= peakStart % 60
	for i := int64(0); i < peak; i++ {
		emit(peakStart + i*59/peak)
	}
	return pkts
}

// backscatterPacket crafts the wire bytes of one backscatter packet.
func backscatterPacket(rng *rand.Rand, pa *PlannedAttack, dst netx.Addr) []byte {
	buf := packet.NewSerializeBuffer()
	opts := packet.SerializeOptions{FixLengths: true, ComputeChecksums: true}
	port := uint16(0)
	if len(pa.Ports) > 0 {
		port = pa.Ports[rng.Intn(len(pa.Ports))]
	}
	switch pa.Vector {
	case attack.VectorTCP:
		// SYN/ACK (or RST for a quarter of packets) from the victim's
		// attacked service port.
		flags := packet.TCPSyn | packet.TCPAck
		if rng.Intn(4) == 0 {
			flags = packet.TCPRst
		}
		ip := &packet.IPv4{TTL: 60, Protocol: packet.ProtocolTCP, Src: pa.Target, Dst: dst}
		tcp := &packet.TCP{SrcPort: port, DstPort: uint16(1024 + rng.Intn(60000)), Flags: flags, Window: 14600}
		tcp.SetNetworkLayer(pa.Target, dst)
		if err := packet.SerializeLayers(buf, opts, ip, tcp); err != nil {
			panic(err)
		}
	case attack.VectorICMP:
		ip := &packet.IPv4{TTL: 60, Protocol: packet.ProtocolICMP, Src: pa.Target, Dst: dst}
		icmp := &packet.ICMPv4{Type: packet.ICMPEchoReply, RestOfHeader: rng.Uint32()}
		if err := packet.SerializeLayers(buf, opts, ip, icmp, packet.Payload([]byte("doscope-ping"))); err != nil {
			panic(err)
		}
	default:
		// UDP (and other-protocol) floods surface as ICMP errors quoting
		// the offending packet; the victim is the quote's destination.
		quoted := packet.NewSerializeBuffer()
		if pa.Vector == attack.VectorUDP {
			qIP := &packet.IPv4{TTL: 3, Protocol: packet.ProtocolUDP, Src: dst, Dst: pa.Target}
			qUDP := &packet.UDP{SrcPort: uint16(1024 + rng.Intn(60000)), DstPort: port}
			qUDP.SetNetworkLayer(dst, pa.Target)
			if err := packet.SerializeLayers(quoted, opts, qIP, qUDP); err != nil {
				panic(err)
			}
		} else {
			qIP := &packet.IPv4{TTL: 3, Protocol: packet.ProtocolIGMP, Src: dst, Dst: pa.Target}
			if err := packet.SerializeLayers(quoted, opts, qIP, packet.Payload(make([]byte, 8))); err != nil {
				panic(err)
			}
		}
		ip := &packet.IPv4{TTL: 60, Protocol: packet.ProtocolICMP, Src: pa.Target, Dst: dst}
		icmp := &packet.ICMPv4{Type: packet.ICMPDestUnreachable, Code: 3}
		if err := packet.SerializeLayers(buf, opts, ip, icmp, packet.Payload(quoted.Bytes())); err != nil {
			panic(err)
		}
	}
	return append([]byte(nil), buf.Bytes()...)
}

// synthesizeReflection emits the spoofed requests one reflection attack
// sprays across the honeypot fleet.
func synthesizeReflection(rng *rand.Rand, pa *PlannedAttack, pkts []synthPacket) []synthPacket {
	d := pa.Duration
	if d < 15 {
		d = 15
	}
	n := int64(pa.Intensity * float64(d))
	if n < 102 {
		n = 102
	}
	if n > maxReflectionRequests {
		n = maxReflectionRequests
	}
	payload := reflectionRequest(rng, pa.Vector)
	for i := int64(0); i < n; i++ {
		pkts = append(pkts, synthPacket{
			ts:      pa.Start + i*d/(n-1),
			victim:  pa.Target,
			vector:  pa.Vector,
			payload: payload,
		})
	}
	return pkts
}

// reflectionRequest builds a protocol-valid abused request.
func reflectionRequest(rng *rand.Rand, vec attack.Vector) []byte {
	switch vec {
	case attack.VectorNTP:
		req := make([]byte, 8)
		req[0] = 0x17 // mode 7 private
		req[3] = 42   // monlist
		return req
	case attack.VectorDNS:
		q := make([]byte, 12, 32)
		binary.BigEndian.PutUint16(q[0:2], uint16(rng.Intn(1<<16)))
		binary.BigEndian.PutUint16(q[4:6], 1)
		q = append(q, 4)
		q = append(q, []byte("amp"+string(rune('a'+rng.Intn(26))))...)
		q = append(q, 3)
		q = append(q, []byte("com")...)
		q = append(q, 0, 0, 0xff, 0, 1) // ANY IN
		return q
	case attack.VectorCharGen, attack.VectorQOTD:
		return []byte{0x0a}
	case attack.VectorSSDP:
		return []byte("M-SEARCH * HTTP/1.1\r\nHOST:239.255.255.250:1900\r\nMAN:\"ssdp:discover\"\r\nST:ssdp:all\r\n\r\n")
	case attack.VectorMSSQL:
		return []byte{0x02}
	case attack.VectorRIPv1:
		req := make([]byte, 24)
		req[0], req[1] = 1, 1
		binary.BigEndian.PutUint16(req[4:6], 0)
		binary.BigEndian.PutUint32(req[20:24], 16) // metric 16: whole table
		return req
	case attack.VectorTFTP:
		return append([]byte{0, 1}, []byte("doscope.bin\x00octet\x00")...)
	}
	return []byte{0}
}

// WriteTelescopePcap synthesizes the backscatter traffic of all planned
// randomly spoofed attacks and writes it as a raw-IP pcap capture,
// time-sorted. The capture classifies identically to the in-process
// packet-level path (cmd/telescope consumes it), enabling interop with
// external pcap tooling. Returns the number of packets written.
func WriteTelescopePcap(w io.Writer, cfg Config, planned []PlannedAttack) (int, error) {
	cfg.applyDefaults()
	telCount := 0
	for i := range planned {
		if planned[i].Dataset == attack.SourceTelescope {
			telCount++
		}
	}
	if telCount > maxPacketLevelEvents {
		return 0, fmt.Errorf("dossim: %d telescope events exceed the packet-level cap %d", telCount, maxPacketLevelEvents)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 11))
	var pkts []synthPacket
	for i := range planned {
		if planned[i].Dataset == attack.SourceTelescope {
			pkts = synthesizeBackscatter(rng, cfg, &planned[i], pkts)
		}
	}
	pw, err := pcap.NewWriter(w, pcap.LinkTypeRaw, 65535)
	if err != nil {
		return 0, err
	}
	for k, i := range timeOrder(pkts) {
		if err := pw.WritePacket(time.Unix(pkts[i].ts, 0).UTC(), pkts[i].raw); err != nil {
			return k, err
		}
	}
	return len(pkts), pw.Flush()
}
