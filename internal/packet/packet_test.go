package packet

import (
	"bytes"
	"testing"
	"testing/quick"

	"doscope/internal/netx"
)

var (
	srcAddr = netx.MustParseAddr("192.0.2.1")
	dstAddr = netx.MustParseAddr("198.51.100.2")
)

func buildTCPPacket(t *testing.T, payload []byte) []byte {
	t.Helper()
	ip := &IPv4{TTL: 64, Protocol: ProtocolTCP, Src: srcAddr, Dst: dstAddr}
	tcp := &TCP{SrcPort: 80, DstPort: 51234, Seq: 1000, Ack: 42, Flags: TCPSyn | TCPAck, Window: 8192}
	tcp.SetNetworkLayer(srcAddr, dstAddr)
	buf := NewSerializeBuffer()
	opts := SerializeOptions{FixLengths: true, ComputeChecksums: true}
	if err := SerializeLayers(buf, opts, ip, tcp, Payload(payload)); err != nil {
		t.Fatalf("SerializeLayers: %v", err)
	}
	return append([]byte(nil), buf.Bytes()...)
}

func TestTCPRoundTrip(t *testing.T) {
	payload := []byte("hello")
	data := buildTCPPacket(t, payload)

	var ip IPv4
	if err := ip.DecodeFromBytes(data); err != nil {
		t.Fatalf("IPv4 decode: %v", err)
	}
	if ip.Src != srcAddr || ip.Dst != dstAddr {
		t.Errorf("addresses = %v -> %v", ip.Src, ip.Dst)
	}
	if ip.Protocol != ProtocolTCP {
		t.Errorf("protocol = %v", ip.Protocol)
	}
	if int(ip.Length) != len(data) {
		t.Errorf("total length = %d, want %d", ip.Length, len(data))
	}
	if !ip.VerifyChecksum() {
		t.Error("IPv4 checksum does not verify")
	}
	var tcp TCP
	if err := tcp.DecodeFromBytes(ip.Payload()); err != nil {
		t.Fatalf("TCP decode: %v", err)
	}
	if tcp.SrcPort != 80 || tcp.DstPort != 51234 {
		t.Errorf("ports = %d -> %d", tcp.SrcPort, tcp.DstPort)
	}
	if tcp.Flags != TCPSyn|TCPAck {
		t.Errorf("flags = %v", tcp.Flags)
	}
	if !bytes.Equal(tcp.Payload(), payload) {
		t.Errorf("payload = %q", tcp.Payload())
	}
	if !tcp.VerifyChecksum(ip.Src, ip.Dst, ip.Payload()) {
		t.Error("TCP checksum does not verify")
	}
}

func TestTCPChecksumDetectsCorruption(t *testing.T) {
	data := buildTCPPacket(t, []byte("payload"))
	data[len(data)-1] ^= 0xff
	var ip IPv4
	if err := ip.DecodeFromBytes(data); err != nil {
		t.Fatal(err)
	}
	var tcp TCP
	if err := tcp.DecodeFromBytes(ip.Payload()); err != nil {
		t.Fatal(err)
	}
	if tcp.VerifyChecksum(ip.Src, ip.Dst, ip.Payload()) {
		t.Error("corrupted TCP payload passed checksum verification")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	payload := []byte{0xde, 0xad, 0xbe, 0xef}
	ip := &IPv4{TTL: 255, Protocol: ProtocolUDP, Src: srcAddr, Dst: dstAddr}
	udp := &UDP{SrcPort: 123, DstPort: 40000}
	udp.SetNetworkLayer(srcAddr, dstAddr)
	buf := NewSerializeBuffer()
	opts := SerializeOptions{FixLengths: true, ComputeChecksums: true}
	if err := SerializeLayers(buf, opts, ip, udp, Payload(payload)); err != nil {
		t.Fatal(err)
	}
	var gotIP IPv4
	if err := gotIP.DecodeFromBytes(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	var gotUDP UDP
	if err := gotUDP.DecodeFromBytes(gotIP.Payload()); err != nil {
		t.Fatal(err)
	}
	if gotUDP.SrcPort != 123 || gotUDP.DstPort != 40000 {
		t.Errorf("ports = %d -> %d", gotUDP.SrcPort, gotUDP.DstPort)
	}
	if int(gotUDP.Length) != 8+len(payload) {
		t.Errorf("UDP length = %d", gotUDP.Length)
	}
	if !bytes.Equal(gotUDP.Payload(), payload) {
		t.Errorf("payload = %x", gotUDP.Payload())
	}
	if !gotUDP.VerifyChecksum(gotIP.Src, gotIP.Dst, gotIP.Payload()) {
		t.Error("UDP checksum does not verify")
	}
}

func TestUDPZeroChecksumAccepted(t *testing.T) {
	u := UDP{Checksum: 0}
	if !u.VerifyChecksum(srcAddr, dstAddr, []byte{0, 0, 0, 0, 0, 0, 0, 0}) {
		t.Error("zero UDP checksum must be accepted as 'not computed'")
	}
}

func TestICMPEchoReplyRoundTrip(t *testing.T) {
	ip := &IPv4{TTL: 64, Protocol: ProtocolICMP, Src: srcAddr, Dst: dstAddr}
	icmp := &ICMPv4{Type: ICMPEchoReply, RestOfHeader: 0x00010002}
	buf := NewSerializeBuffer()
	opts := SerializeOptions{FixLengths: true, ComputeChecksums: true}
	if err := SerializeLayers(buf, opts, ip, icmp, Payload([]byte("ping-data"))); err != nil {
		t.Fatal(err)
	}
	var gotIP IPv4
	if err := gotIP.DecodeFromBytes(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	var gotICMP ICMPv4
	if err := gotICMP.DecodeFromBytes(gotIP.Payload()); err != nil {
		t.Fatal(err)
	}
	if gotICMP.Type != ICMPEchoReply {
		t.Errorf("type = %d", gotICMP.Type)
	}
	if !gotICMP.VerifyChecksum(gotIP.Payload()) {
		t.Error("ICMP checksum does not verify")
	}
	if gotICMP.IsErrorMessage() {
		t.Error("echo reply misclassified as error message")
	}
	if _, err := gotICMP.QuotedPacket(); err == nil {
		t.Error("QuotedPacket on echo reply should fail")
	}
}

func TestICMPUnreachableQuotedPacket(t *testing.T) {
	// Build the quoted original datagram: victim -> some UDP service.
	victim := netx.MustParseAddr("203.0.113.5")
	quotedIP := &IPv4{TTL: 64, Protocol: ProtocolUDP, Src: victim, Dst: dstAddr}
	quotedUDP := &UDP{SrcPort: 4444, DstPort: 53}
	quotedUDP.SetNetworkLayer(victim, dstAddr)
	qbuf := NewSerializeBuffer()
	opts := SerializeOptions{FixLengths: true, ComputeChecksums: true}
	if err := SerializeLayers(qbuf, opts, quotedIP, quotedUDP); err != nil {
		t.Fatal(err)
	}

	icmp := &ICMPv4{Type: ICMPDestUnreachable, Code: 3}
	ip := &IPv4{TTL: 64, Protocol: ProtocolICMP, Src: dstAddr, Dst: victim}
	buf := NewSerializeBuffer()
	if err := SerializeLayers(buf, opts, ip, icmp, Payload(qbuf.Bytes())); err != nil {
		t.Fatal(err)
	}

	var gotIP IPv4
	if err := gotIP.DecodeFromBytes(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	var gotICMP ICMPv4
	if err := gotICMP.DecodeFromBytes(gotIP.Payload()); err != nil {
		t.Fatal(err)
	}
	if !gotICMP.IsErrorMessage() {
		t.Fatal("unreachable not classified as error message")
	}
	quoted, err := gotICMP.QuotedPacket()
	if err != nil {
		t.Fatalf("QuotedPacket: %v", err)
	}
	if quoted.Src != victim || quoted.Protocol != ProtocolUDP {
		t.Errorf("quoted src=%v proto=%v", quoted.Src, quoted.Protocol)
	}
	var innerUDP UDP
	if err := innerUDP.DecodeFromBytes(quoted.Payload()); err != nil {
		t.Fatalf("inner UDP decode: %v", err)
	}
	if innerUDP.DstPort != 53 {
		t.Errorf("inner UDP dst port = %d", innerUDP.DstPort)
	}
}

func TestIPv4DecodeErrors(t *testing.T) {
	var ip IPv4
	if err := ip.DecodeFromBytes(make([]byte, 19)); err != ErrTruncated {
		t.Errorf("short header: %v", err)
	}
	bad := make([]byte, 20)
	bad[0] = 0x65 // version 6
	if err := ip.DecodeFromBytes(bad); err == nil {
		t.Error("version 6 accepted")
	}
	bad[0] = 0x43 // version 4, IHL 3 (<5)
	if err := ip.DecodeFromBytes(bad); err == nil {
		t.Error("IHL 3 accepted")
	}
	bad[0] = 0x46 // IHL 6 => 24 bytes needed, only 20 present
	if err := ip.DecodeFromBytes(bad); err != ErrTruncated {
		t.Errorf("truncated options: %v", err)
	}
}

func TestTCPDecodeErrors(t *testing.T) {
	var tcp TCP
	if err := tcp.DecodeFromBytes(make([]byte, 19)); err != ErrTruncated {
		t.Errorf("short header: %v", err)
	}
	bad := make([]byte, 20)
	bad[12] = 0x40 // data offset 4 (<5)
	if err := tcp.DecodeFromBytes(bad); err == nil {
		t.Error("data offset 4 accepted")
	}
	bad[12] = 0x60 // data offset 6 => 24 bytes needed
	if err := tcp.DecodeFromBytes(bad); err != ErrTruncated {
		t.Errorf("truncated options: %v", err)
	}
}

func TestDecodersNeverPanic(t *testing.T) {
	f := func(data []byte) bool {
		var ip IPv4
		var tcp TCP
		var udp UDP
		var icmp ICMPv4
		_ = ip.DecodeFromBytes(data)
		_ = tcp.DecodeFromBytes(data)
		_ = udp.DecodeFromBytes(data)
		_ = icmp.DecodeFromBytes(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestIPv4HeaderRoundTripProperty(t *testing.T) {
	f := func(src, dst uint32, id uint16, ttl uint8, proto uint8, payload []byte) bool {
		ip := &IPv4{
			TTL: ttl, Protocol: IPProtocol(proto), ID: id,
			Src: netx.Addr(src), Dst: netx.Addr(dst),
		}
		buf := NewSerializeBuffer()
		opts := SerializeOptions{FixLengths: true, ComputeChecksums: true}
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		if err := SerializeLayers(buf, opts, ip, Payload(payload)); err != nil {
			return false
		}
		var got IPv4
		if err := got.DecodeFromBytes(buf.Bytes()); err != nil {
			return false
		}
		return got.Src == netx.Addr(src) && got.Dst == netx.Addr(dst) &&
			got.ID == id && got.TTL == ttl && got.Protocol == IPProtocol(proto) &&
			got.VerifyChecksum() && bytes.Equal(got.Payload(), payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example-style vector: checksum of an even-length buffer,
	// verified by the complement-sums-to-zero property.
	data := []byte{0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11,
		0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7}
	sum := Checksum(data, 0)
	if sum != 0xb861 {
		t.Errorf("Checksum = %#04x, want 0xb861", sum)
	}
	// Writing the checksum back must make the region sum to zero.
	data[10] = byte(sum >> 8)
	data[11] = byte(sum)
	if got := Checksum(data, 0); got != 0 {
		t.Errorf("checksum over checksummed data = %#04x, want 0", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	data := []byte{0x01, 0x02, 0x03}
	got := Checksum(data, 0)
	// Manual: 0x0102 + 0x0300 = 0x0402; ^0x0402 = 0xfbfd.
	if got != 0xfbfd {
		t.Errorf("odd-length checksum = %#04x, want 0xfbfd", got)
	}
}

func TestSerializeBufferPrependAppend(t *testing.T) {
	var b SerializeBuffer
	copy(b.PrependBytes(3), []byte("ghi"))
	copy(b.PrependBytes(3), []byte("def"))
	copy(b.PrependBytes(3), []byte("abc"))
	if string(b.Bytes()) != "abcdefghi" {
		t.Fatalf("Bytes = %q", b.Bytes())
	}
	b.Clear()
	if len(b.Bytes()) != 0 {
		t.Fatalf("after Clear len = %d", len(b.Bytes()))
	}
	copy(b.PrependBytes(2), []byte("zz"))
	if string(b.Bytes()) != "zz" {
		t.Fatalf("after Clear+Prepend = %q", b.Bytes())
	}
}

func TestSerializeBufferLargePrepend(t *testing.T) {
	var b SerializeBuffer
	big := b.PrependBytes(10000)
	for i := range big {
		big[i] = byte(i)
	}
	if len(b.Bytes()) != 10000 {
		t.Fatalf("len = %d", len(b.Bytes()))
	}
	if b.Bytes()[9999] != byte(9999%256) {
		t.Fatal("data corrupted after grow")
	}
}

func TestTCPFlagsString(t *testing.T) {
	if got := (TCPSyn | TCPAck).String(); got != "SYN|ACK" {
		t.Errorf("String = %q", got)
	}
	if got := TCPFlags(0).String(); got != "none" {
		t.Errorf("String = %q", got)
	}
}

func TestIPProtocolString(t *testing.T) {
	if ProtocolTCP.String() != "TCP" || ProtocolUDP.String() != "UDP" || ProtocolICMP.String() != "ICMP" {
		t.Error("protocol names wrong")
	}
	if IPProtocol(99).String() != "proto-99" {
		t.Errorf("unknown proto = %q", IPProtocol(99).String())
	}
}

func BenchmarkIPv4TCPDecode(b *testing.B) {
	data := buildTCPPacketBench()
	var ip IPv4
	var tcp TCP
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ip.DecodeFromBytes(data); err != nil {
			b.Fatal(err)
		}
		if err := tcp.DecodeFromBytes(ip.Payload()); err != nil {
			b.Fatal(err)
		}
	}
}

func buildTCPPacketBench() []byte {
	ip := &IPv4{TTL: 64, Protocol: ProtocolTCP, Src: srcAddr, Dst: dstAddr}
	tcp := &TCP{SrcPort: 80, DstPort: 51234, Flags: TCPSyn | TCPAck}
	tcp.SetNetworkLayer(srcAddr, dstAddr)
	buf := NewSerializeBuffer()
	_ = SerializeLayers(buf, SerializeOptions{FixLengths: true, ComputeChecksums: true}, ip, tcp, Payload([]byte("x")))
	return append([]byte(nil), buf.Bytes()...)
}

func BenchmarkIPv4TCPSerialize(b *testing.B) {
	ip := &IPv4{TTL: 64, Protocol: ProtocolTCP, Src: srcAddr, Dst: dstAddr}
	tcp := &TCP{SrcPort: 80, DstPort: 51234, Flags: TCPSyn | TCPAck}
	tcp.SetNetworkLayer(srcAddr, dstAddr)
	buf := NewSerializeBuffer()
	opts := SerializeOptions{FixLengths: true, ComputeChecksums: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := SerializeLayers(buf, opts, ip, tcp); err != nil {
			b.Fatal(err)
		}
	}
}
