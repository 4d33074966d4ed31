package amppot

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"doscope/internal/attack"
	"doscope/internal/netx"
)

var victim = netx.MustParseAddr("203.0.113.10")

func ntpMonlist() []byte {
	req := make([]byte, 8)
	req[0] = 0x17 // version 2, mode 7 (private)
	req[3] = 42   // MON_GETLIST_1
	return req
}

func dnsQuery() []byte {
	q := make([]byte, 12, 29)
	binary.BigEndian.PutUint16(q[0:2], 0x1234)
	binary.BigEndian.PutUint16(q[4:6], 1) // QDCOUNT
	q = append(q, 7)
	q = append(q, []byte("example")...)
	q = append(q, 3)
	q = append(q, []byte("com")...)
	q = append(q, 0, 0, 0xff, 0, 1) // QTYPE=ANY QCLASS=IN
	return q
}

func TestEmulatorsRespondToValidRequests(t *testing.T) {
	cases := []struct {
		vec attack.Vector
		req []byte
	}{
		{attack.VectorQOTD, []byte("hi")},
		{attack.VectorCharGen, []byte{0}},
		{attack.VectorDNS, dnsQuery()},
		{attack.VectorNTP, ntpMonlist()},
		{attack.VectorSSDP, []byte("M-SEARCH * HTTP/1.1\r\nST: ssdp:all\r\n\r\n")},
		{attack.VectorMSSQL, []byte{0x02}},
		{attack.VectorRIPv1, append([]byte{1, 1, 0, 0}, make([]byte, 20)...)},
		{attack.VectorTFTP, append([]byte{0, 1}, []byte("file\x00octet\x00")...)},
	}
	for _, c := range cases {
		em, ok := NewEmulator(c.vec)
		if !ok {
			t.Fatalf("no emulator for %v", c.vec)
		}
		resp, ok := em.Respond(nil, c.req)
		if !ok {
			t.Errorf("%v rejected valid request", c.vec)
			continue
		}
		amp := float64(len(resp)) / float64(len(c.req))
		if amp < 2 {
			t.Errorf("%v amplification = %.1f, want >= 2", c.vec, amp)
		}
	}
}

func TestEmulatorAmplificationFactors(t *testing.T) {
	// The achieved bandwidth amplification should be in the ballpark of
	// the published factor (exactly proportional for the filler-based
	// emulators, below the cap).
	em, _ := NewEmulator(attack.VectorCharGen)
	req := []byte{1, 2, 3, 4}
	resp, _ := em.Respond(nil, req)
	if got := float64(len(resp)) / float64(len(req)); got < 300 || got > 400 {
		t.Errorf("CharGen amplification = %.1f, want ~358", got)
	}
	em, _ = NewEmulator(attack.VectorNTP)
	mon := ntpMonlist()
	resp, _ = em.Respond(nil, mon)
	if got := float64(len(resp)) / float64(len(mon)); got < 400 || got > 600 {
		t.Errorf("NTP amplification = %.1f, want ~557", got)
	}
}

func TestEmulatorsRejectInvalidRequests(t *testing.T) {
	cases := []struct {
		vec attack.Vector
		req []byte
	}{
		{attack.VectorDNS, []byte{1, 2, 3}},                                // too short
		{attack.VectorDNS, append([]byte{0, 0, 0x80}, make([]byte, 9)...)}, // QR=1
		{attack.VectorNTP, []byte{0x03}},                                   // too short
		{attack.VectorSSDP, []byte("GET / HTTP/1.1")},                      // not M-SEARCH
		{attack.VectorMSSQL, []byte{0x99}},                                 // bad opcode
		{attack.VectorRIPv1, []byte{2, 1, 0, 0}},                           // response, not request
		{attack.VectorTFTP, []byte{0, 2, 'x'}},                             // WRQ, and no NUL
	}
	for _, c := range cases {
		em, _ := NewEmulator(c.vec)
		if _, ok := em.Respond(nil, c.req); ok {
			t.Errorf("%v accepted invalid request % x", c.vec, c.req)
		}
	}
}

func TestNTPModeThreeGetsSmallReply(t *testing.T) {
	em, _ := NewEmulator(attack.VectorNTP)
	req := make([]byte, 48)
	req[0] = 0x1b // version 3, mode 3 (client)
	resp, ok := em.Respond(nil, req)
	if !ok || len(resp) != 48 {
		t.Errorf("mode-3 reply = %d bytes, ok=%v; want 48", len(resp), ok)
	}
}

func TestResponseSizeCapped(t *testing.T) {
	// Every protocol, asked with a maximal datagram in its valid shape,
	// answers with at most one datagram's payload.
	for _, spec := range Protocols {
		em, _ := NewEmulator(spec.Vector)
		resp, ok := em.Respond(nil, requestShapes(spec.Vector, maxUDPPayload)[0])
		if !ok {
			t.Errorf("%v rejected a maximal valid request", spec.Vector)
			continue
		}
		if len(resp) > maxUDPPayload {
			t.Errorf("%v response %d bytes exceeds one UDP datagram", spec.Vector, len(resp))
		}
	}
}

func TestSpecLookups(t *testing.T) {
	s, ok := SpecFor(attack.VectorNTP)
	if !ok || s.Port != 123 {
		t.Errorf("SpecFor(NTP) = %+v, %v", s, ok)
	}
	if _, ok := SpecFor(attack.VectorTCP); ok {
		t.Error("SpecFor(TCP) should fail")
	}
}

func TestRateLimiterSuppressesReplies(t *testing.T) {
	h := NewHoneypot(0, "US", DefaultConfig(), nil)
	ts := attack.WindowStart
	replies := 0
	for i := 0; i < 10; i++ {
		_, reply := h.HandleRequest(nil, ts+int64(i), victim, attack.VectorCharGen, []byte{1})
		if reply {
			replies++
		}
	}
	if replies != 2 {
		t.Errorf("replies in one minute = %d, want 2 (fewer than 3 per minute)", replies)
	}
	// A new minute resets the budget.
	_, reply := h.HandleRequest(nil, ts+60, victim, attack.VectorCharGen, []byte{1})
	if !reply {
		t.Error("reply budget did not reset on new minute")
	}
}

func TestRateLimiterPerSource(t *testing.T) {
	h := NewHoneypot(0, "US", DefaultConfig(), nil)
	ts := attack.WindowStart
	for i := 0; i < 5; i++ {
		h.HandleRequest(nil, ts, victim, attack.VectorCharGen, []byte{1})
	}
	other := netx.MustParseAddr("198.51.100.1")
	if _, reply := h.HandleRequest(nil, ts, other, attack.VectorCharGen, []byte{1}); !reply {
		t.Error("limiter must be per source")
	}
}

func TestHoneypotLogsEvenWhenSuppressed(t *testing.T) {
	var logged int
	h := NewHoneypot(0, "US", DefaultConfig(), func(o Observation) { logged++ })
	ts := attack.WindowStart
	for i := 0; i < 10; i++ {
		h.HandleRequest(nil, ts, victim, attack.VectorCharGen, []byte{1})
	}
	if logged != 10 {
		t.Errorf("logged = %d, want 10 (requests are logged even unanswered)", logged)
	}
}

func TestHoneypotIgnoresInvalidRequests(t *testing.T) {
	var logged int
	h := NewHoneypot(0, "US", DefaultConfig(), func(o Observation) { logged++ })
	if _, reply := h.HandleRequest(nil, attack.WindowStart, victim, attack.VectorDNS, []byte{1}); reply {
		t.Error("invalid request got a reply")
	}
	if logged != 0 {
		t.Error("invalid request was logged")
	}
	if _, reply := h.HandleRequest(nil, attack.WindowStart, victim, attack.VectorTCP, []byte{1}); reply {
		t.Error("non-reflection vector got a reply")
	}
}

func feedCollector(c *Collector, n int, start int64, spacing int64, vec attack.Vector) {
	for i := 0; i < n; i++ {
		c.Add(Observation{Time: start + int64(i)*spacing, Victim: victim, Vector: vec, Honeypot: i % FleetSize, Bytes: 8})
	}
}

func TestCollectorThreshold(t *testing.T) {
	c := NewCollector(DefaultConfig())
	feedCollector(c, 100, attack.WindowStart, 1, attack.VectorNTP) // exactly 100: not >100
	c.Flush()
	if len(c.Events()) != 0 {
		t.Errorf("100-request stream emitted %d events (threshold is >100)", len(c.Events()))
	}
	c = NewCollector(DefaultConfig())
	feedCollector(c, 101, attack.WindowStart, 1, attack.VectorNTP)
	c.Flush()
	if len(c.Events()) != 1 {
		t.Fatalf("101-request stream emitted %d events", len(c.Events()))
	}
	e := c.Events()[0]
	if e.Source != attack.SourceHoneypot || e.Vector != attack.VectorNTP || e.Target != victim {
		t.Errorf("event = %+v", e)
	}
	if e.Packets != 101 {
		t.Errorf("packets = %d", e.Packets)
	}
	if e.AvgRPS < 0.9 || e.AvgRPS > 1.2 {
		t.Errorf("AvgRPS = %v, want ~1", e.AvgRPS)
	}
}

func TestCollectorGapSplits(t *testing.T) {
	cfg := DefaultConfig()
	c := NewCollector(cfg)
	feedCollector(c, 150, attack.WindowStart, 1, attack.VectorDNS)
	feedCollector(c, 150, attack.WindowStart+150+cfg.GapTimeout+1, 1, attack.VectorDNS)
	c.Flush()
	if len(c.Events()) != 2 {
		t.Errorf("events = %d, want 2 (gap split)", len(c.Events()))
	}
}

func TestCollectorSeparatesVectors(t *testing.T) {
	c := NewCollector(DefaultConfig())
	feedCollector(c, 150, attack.WindowStart, 1, attack.VectorDNS)
	feedCollector(c, 150, attack.WindowStart, 1, attack.VectorNTP)
	c.Flush()
	if len(c.Events()) != 2 {
		t.Errorf("events = %d, want 2 (one per vector)", len(c.Events()))
	}
}

func TestCollector24hCap(t *testing.T) {
	cfg := DefaultConfig()
	c := NewCollector(cfg)
	// Requests every 10 minutes for 3 days: a continuous stream (gaps stay
	// under the 1 h timeout) that the 24 h cap must split, with each 24 h
	// segment carrying 144 > 100 requests.
	feedCollector(c, 3*144, attack.WindowStart, 600, attack.VectorSSDP)
	c.Flush()
	evs := c.Events()
	if len(evs) < 3 {
		t.Fatalf("events = %d, want >=3 (24h cap splits the stream)", len(evs))
	}
	for _, e := range evs {
		if e.Duration() > cfg.MaxEventDuration {
			t.Errorf("event duration %d exceeds 24h cap", e.Duration())
		}
	}
}

func TestCollectorCloseIdle(t *testing.T) {
	cfg := DefaultConfig()
	c := NewCollector(cfg)
	feedCollector(c, 150, attack.WindowStart, 1, attack.VectorNTP)
	if c.OpenFlows() != 1 {
		t.Fatalf("open flows = %d", c.OpenFlows())
	}
	c.CloseIdle(attack.WindowStart + 150 + cfg.GapTimeout + 1)
	if c.OpenFlows() != 0 {
		t.Errorf("idle flow not closed")
	}
	if len(c.Events()) != 1 {
		t.Errorf("events = %d", len(c.Events()))
	}
}

func TestFleetEndToEnd(t *testing.T) {
	f := NewFleet(DefaultConfig())
	if len(f.Instances) != FleetSize {
		t.Fatalf("fleet size = %d", len(f.Instances))
	}
	req := ntpMonlist()
	// An attack spraying all reflectors: 10 requests to each of the 24
	// instances = 240 > 100 threshold.
	for i := 0; i < 240; i++ {
		f.HandleRequest(i, attack.WindowStart+int64(i), victim, attack.VectorNTP, req)
	}
	evs := f.Flush()
	if len(evs) != 1 {
		t.Fatalf("fleet events = %d, want 1 merged event", len(evs))
	}
	if evs[0].Packets != 240 {
		t.Errorf("merged packets = %d", evs[0].Packets)
	}
}

func TestLiveUDPHoneypot(t *testing.T) {
	f := NewFleet(DefaultConfig())
	h := f.Honeypot(0)
	conn, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = h.Serve(conn, attack.VectorCharGen)
	}()

	client, err := net.Dial("udp4", conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Write([]byte{0x00}); err != nil {
		t.Fatal(err)
	}
	_ = client.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 65536)
	n, err := client.(*net.UDPConn).Read(buf)
	if err != nil {
		t.Fatalf("no amplified reply: %v", err)
	}
	if n < 100 {
		t.Errorf("reply only %d bytes; expected amplification", n)
	}
	conn.Close()
	<-done

	// The request must have been logged against the client's address.
	evs := f.Events()
	_ = evs // below threshold: no event, but the flow must exist
	f.mu.Lock()
	open := f.collector.OpenFlows()
	f.mu.Unlock()
	if open != 1 {
		t.Errorf("open flows after live request = %d, want 1", open)
	}
}

// TestLiveUDPMaximalQOTD sends the largest IPv4 UDP datagram to a QOTD
// honeypot: the reply must be one datagram of the same size, not a
// response too large to send.
func TestLiveUDPMaximalQOTD(t *testing.T) {
	client := serveLoopback(t, NewFleet(DefaultConfig()).Honeypot(0), attack.VectorQOTD)
	if _, err := client.Write(make([]byte, maxUDPPayload)); err != nil {
		t.Skipf("loopback refuses a %d-byte datagram: %v", maxUDPPayload, err)
	}
	_ = client.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 65536)
	n, err := client.Read(buf)
	if err != nil {
		t.Fatalf("no reply to a maximal QOTD datagram: %v", err)
	}
	if n != maxUDPPayload {
		t.Errorf("reply %d bytes, want %d", n, maxUDPPayload)
	}
}

// TestFleetLiveDrainConcurrent drives requests from many goroutines
// while a drainer periodically moves completed events into a live
// attack.Store and a separate reader goroutine queries it concurrently
// — the cmd/amppot -flush topology with no store lock at all. Run under
// -race this exercises the fleet/collector locking against the store's
// lock-free published-view reads.
func TestFleetLiveDrainConcurrent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MinRequests = 1
	fleet := NewFleet(cfg)

	const workers = 8
	const requests = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// One victim per worker keeps each flow's observations in
			// non-decreasing time order, as the Collector requires.
			v := netx.AddrFrom4(203, 0, 113, byte(100+w))
			req := ntpMonlist()
			for i := 0; i < requests; i++ {
				fleet.HandleRequest(w, attack.WindowStart+int64(i), v, attack.VectorNTP, req)
			}
		}(w)
	}

	store := &attack.Store{}
	done := make(chan struct{})
	var drainWG sync.WaitGroup
	drainWG.Add(2)
	go func() {
		defer drainWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			fleet.DrainTo(store, attack.WindowStart+requests)
			time.Sleep(time.Millisecond)
		}
	}()
	// Lock-free reader racing the drainer. Counts can only grow (the
	// pipeline never removes events) and never past one event per
	// victim, so assert monotonic non-decreasing within that bound; the
	// main point of the goroutine is the -race surface itself.
	go func() {
		defer drainWG.Done()
		last := 0
		for {
			select {
			case <-done:
				return
			default:
			}
			n := store.Query().Vectors(attack.VectorNTP).Count()
			if n < last || n > workers {
				t.Errorf("live count went from %d to %d (bound %d)", last, n, workers)
				return
			}
			last = n
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Wait()
	close(done)
	drainWG.Wait()

	fleet.FlushTo(store)
	if got := store.Len(); got != workers {
		t.Fatalf("live drain extracted %d events, want %d (one flow per victim)", got, workers)
	}
	var packets uint64
	for e := range store.Query().Iter() {
		packets += e.Packets
	}
	if want := uint64(workers * requests); packets != want {
		t.Fatalf("events carry %d requests, want %d", packets, want)
	}
}

// oracleRespond is the emulators' response construction as it was before
// the responses were precomputed: every amplified response built byte by
// byte into a fresh slice, and no cap at one UDP datagram for QOTD or
// DNS. The emulators must answer with the same bytes wherever this
// response fits in one datagram.
func oracleRespond(vec attack.Vector, req []byte) ([]byte, bool) {
	amplify := func(n int) []byte {
		if n > maxAmplifiedBytes {
			n = maxAmplifiedBytes
		}
		out := make([]byte, n)
		const chars = "!\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ[\\]^_`abcdefg"
		for i := range out {
			out[i] = chars[i%len(chars)]
		}
		return out
	}
	switch vec {
	case attack.VectorQOTD:
		quote := "\"The Internet interprets censorship as damage and routes around it.\" "
		n := int(140.3 * float64(max(len(req), 1)))
		resp := bytes.Repeat([]byte(quote), n/len(quote)+1)
		return resp[:n], true
	case attack.VectorCharGen:
		return amplify(int(358.8 * float64(max(len(req), 1)))), true
	case attack.VectorDNS:
		if len(req) < 12 {
			return nil, false
		}
		if req[2]&0x80 != 0 {
			return nil, false
		}
		if binary.BigEndian.Uint16(req[4:6]) == 0 {
			return nil, false
		}
		resp := make([]byte, 0, 12+len(req))
		resp = append(resp, req[0], req[1])
		resp = append(resp, 0x84, 0x00)
		resp = append(resp, req[4:12]...)
		resp = append(resp, req[12:]...)
		resp = append(resp, amplify(int(54.6*float64(len(req))))...)
		return resp, true
	case attack.VectorNTP:
		if len(req) < 4 {
			return nil, false
		}
		mode := req[0] & 0x07
		if mode == 7 && len(req) >= 8 && req[3] == 42 {
			return amplify(int(556.9 * float64(max(len(req), 8)))), true
		}
		if mode == 3 && len(req) >= 48 {
			resp := make([]byte, 48)
			resp[0] = req[0]&0xf8 | 4
			return resp, true
		}
		return nil, false
	case attack.VectorSSDP:
		if !strings.HasPrefix(string(req), "M-SEARCH") {
			return nil, false
		}
		head := "HTTP/1.1 200 OK\r\nCACHE-CONTROL: max-age=120\r\nST: upnp:rootdevice\r\nUSN: uuid:doscope-amppot\r\n"
		body := amplify(int(30.8 * float64(len(req))))
		return append([]byte(head+"\r\n"), body...), true
	case attack.VectorMSSQL:
		if len(req) < 1 || (req[0] != 0x02 && req[0] != 0x03) {
			return nil, false
		}
		body := []byte("ServerName;DOSCOPE;InstanceName;MSSQLSERVER;IsClustered;No;Version;12.0.2000.8;tcp;1433;;")
		resp := make([]byte, 3+len(body)*25)
		resp[0] = 0x05
		binary.LittleEndian.PutUint16(resp[1:3], uint16(len(resp)-3))
		for i := 0; i < 25; i++ {
			copy(resp[3+i*len(body):], body)
		}
		return resp, true
	case attack.VectorRIPv1:
		if len(req) < 4 || req[0] != 1 || req[1] != 1 {
			return nil, false
		}
		resp := make([]byte, 4+25*20)
		resp[0], resp[1] = 2, 1
		for i := 0; i < 25; i++ {
			entry := resp[4+i*20:]
			binary.BigEndian.PutUint16(entry[0:2], 2)
			binary.BigEndian.PutUint32(entry[4:8], uint32(0x0a000000+i<<8))
			binary.BigEndian.PutUint32(entry[16:20], 1)
		}
		return resp, true
	case attack.VectorTFTP:
		if len(req) < 4 || binary.BigEndian.Uint16(req[0:2]) != 1 {
			return nil, false
		}
		if bytes.IndexByte(req[2:], 0) < 0 {
			return nil, false
		}
		body := amplify(int(60 * float64(max(len(req), 8))))
		resp := make([]byte, 4+len(body))
		binary.BigEndian.PutUint16(resp[0:2], 3)
		binary.BigEndian.PutUint16(resp[2:4], 1)
		copy(resp[4:], body)
		return resp, true
	}
	return nil, false
}

// requestTemplates are valid requests per protocol; NTP has two, monlist
// and a mode-3 client request.
var requestTemplates = map[attack.Vector][][]byte{
	attack.VectorQOTD:    {[]byte("hi")},
	attack.VectorCharGen: {{0}},
	attack.VectorDNS:     {dnsQuery()},
	attack.VectorNTP:     {ntpMonlist(), append([]byte{0x1b}, make([]byte, 47)...)},
	attack.VectorSSDP:    {[]byte("M-SEARCH * HTTP/1.1\r\nST: ssdp:all\r\n\r\n")},
	attack.VectorMSSQL:   {{0x02}},
	attack.VectorRIPv1:   {append([]byte{1, 1, 0, 0}, make([]byte, 20)...)},
	attack.VectorTFTP:    {append([]byte{0, 1}, []byte("file\x00octet\x00")...)},
}

// requestShapes returns requests of exactly n bytes for vec: each valid
// template cut or zero-padded to n (the first shape is the first
// template), then a byte pattern and all 0xff bytes, which most
// emulators reject.
func requestShapes(vec attack.Vector, n int) [][]byte {
	var out [][]byte
	for _, tmpl := range requestTemplates[vec] {
		req := make([]byte, n)
		copy(req, tmpl)
		out = append(out, req)
	}
	pattern, ones := make([]byte, n), make([]byte, n)
	for i := range pattern {
		pattern[i], ones[i] = byte(i*131+n), 0xff
	}
	return append(out, pattern, ones)
}

// checkAgainstOracle reports where an emulator's answer departs from
// the oracle's: ok must agree, the response must fit in one datagram,
// and it must equal the oracle's response cut to that size.
func checkAgainstOracle(t *testing.T, vec attack.Vector, req, resp []byte, ok bool) {
	t.Helper()
	want, wantOK := oracleRespond(vec, req)
	if ok != wantOK {
		t.Fatalf("%v len %d: ok = %v, oracle %v", vec, len(req), ok, wantOK)
	}
	if len(resp) > maxUDPPayload {
		t.Fatalf("%v len %d: response %d bytes exceeds one UDP datagram", vec, len(req), len(resp))
	}
	if !bytes.Equal(resp, want[:min(len(want), maxUDPPayload)]) {
		t.Fatalf("%v len %d: response (%d bytes) differs from the oracle's (%d bytes)", vec, len(req), len(resp), len(want))
	}
}

func TestRespondMatchesOracle(t *testing.T) {
	var lengths []int
	for n := 0; n <= 600; n++ {
		lengths = append(lengths, n)
	}
	// DNS stops fitting one datagram past 2507 bytes; 65507 is the largest
	// IPv4 UDP payload and 65536 the Serve read buffer.
	lengths = append(lengths, 2507, 2508, 4096, maxUDPPayload, 65536)
	for _, spec := range Protocols {
		em, _ := NewEmulator(spec.Vector)
		for _, n := range lengths {
			for _, req := range requestShapes(spec.Vector, n) {
				resp, ok := em.Respond(nil, req)
				checkAgainstOracle(t, spec.Vector, req, resp, ok)
			}
		}
	}
}

// junk returns n bytes that no response starts with at any offset, so a
// reply built into a reused buffer shows any byte it fails to write.
func junk(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(0xa5 ^ i)
	}
	return b
}

func FuzzRespond(f *testing.F) {
	for i, spec := range Protocols {
		for _, tmpl := range requestTemplates[spec.Vector] {
			f.Add(uint8(i), tmpl)
		}
	}
	// One dst serves every input, as one Serve goroutine's buffer does:
	// it starts as junk and keeps the bytes of earlier replies, none of
	// which may show in a later one.
	dst := junk(maxUDPPayload)[:0]
	f.Fuzz(func(t *testing.T, proto uint8, req []byte) {
		vec := Protocols[int(proto)%len(Protocols)].Vector
		em, _ := NewEmulator(vec)
		resp, ok := em.Respond(dst, req)
		checkAgainstOracle(t, vec, req, resp, ok)
	})
}

// TestHandleRequestAllocs pins the request path at zero allocations for
// every protocol and request shape, answered, suppressed or rejected:
// through the fleet, which builds each reply into its instance's own
// buffer, and through Honeypot.HandleRequest with a caller's buffer of
// one datagram's capacity, as Serve passes.
func TestHandleRequestAllocs(t *testing.T) {
	fleet := NewFleet(DefaultConfig())
	var logged int
	h := NewHoneypot(0, "US", DefaultConfig(), func(Observation) { logged++ })
	dst := make([]byte, 0, maxUDPPayload)
	paths := []struct {
		name   string
		handle func(ts int64, src netx.Addr, vec attack.Vector, req []byte) bool
		logged func(src netx.Addr, vec attack.Vector) int
	}{
		{"fleet", func(ts int64, src netx.Addr, vec attack.Vector, req []byte) bool {
			return fleet.HandleRequest(0, ts, src, vec, req)
		}, func(src netx.Addr, vec attack.Vector) int {
			fleet.mu.Lock()
			defer fleet.mu.Unlock()
			if f := fleet.collector.flows[newFlowKey(src, vec)]; f != nil {
				return int(f.requests)
			}
			return 0
		}},
		{"honeypot", func(ts int64, src netx.Addr, vec attack.Vector, req []byte) bool {
			_, reply := h.HandleRequest(dst, ts, src, vec, req)
			return reply
		}, func(netx.Addr, attack.Vector) int { return logged }},
	}
	for _, p := range paths {
		src := netx.MustParseAddr("198.51.100.0")
		for _, spec := range Protocols {
			shapes := slices.Concat(requestTemplates[spec.Vector],
				requestShapes(spec.Vector, 48), requestShapes(spec.Vector, maxUDPPayload))
			for k, req := range shapes {
				_, valid := oracleRespond(spec.Vector, req)
				src++ // a fresh source: fresh limiter budget and flow
				logged = 0
				ts := attack.WindowStart
				answered, suppressed := 0, 0
				// Three requests a minute: two answered, one suppressed.
				allocs := testing.AllocsPerRun(50, func() {
					for i := 0; i < 3; i++ {
						if p.handle(ts, src, spec.Vector, req) {
							answered++
						} else {
							suppressed++
						}
					}
					ts += 60
				})
				n := p.logged(src, spec.Vector)
				if valid && (answered == 0 || suppressed == 0 || n != answered+suppressed) ||
					!valid && (answered != 0 || n != 0) {
					t.Fatalf("%s %v shape %d (valid %v): answered %d, suppressed %d, logged %d",
						p.name, spec.Vector, k, valid, answered, suppressed, n)
				}
				if allocs != 0 {
					t.Errorf("%s %v shape %d (%d bytes): %.1f allocations per 3 requests, want 0",
						p.name, spec.Vector, k, len(req), allocs)
				}
			}
		}
	}
}

// TestResponsesAreNotAliasedByAppend checks who owns a response's bytes.
// DNS and NTP mode 3 build into dst; every other response leaves dst as
// it was. Appending to either must not change the responses to the same
// and to a longer request: a shared response must not expose spare
// capacity.
func TestResponsesAreNotAliasedByAppend(t *testing.T) {
	for _, spec := range Protocols {
		em, _ := NewEmulator(spec.Vector)
		for k, tmpl := range requestTemplates[spec.Vector] {
			built := spec.Vector == attack.VectorDNS || k > 0 // k > 0: NTP mode 3
			dst := junk(maxUDPPayload)
			resp, ok := em.Respond(dst[:0], tmpl)
			checkAgainstOracle(t, spec.Vector, tmpl, resp, ok)
			if aliases := &resp[0] == &dst[0]; aliases != built {
				t.Errorf("%v request %d: response built into dst = %v, want %v", spec.Vector, k, aliases, built)
			}
			if !built && !bytes.Equal(dst, junk(maxUDPPayload)) {
				t.Errorf("%v request %d: a shared response wrote into dst", spec.Vector, k)
			}
			_ = append(resp, 'x')
			longer := append(slices.Clone(tmpl), make([]byte, 64)...)
			for _, req := range [][]byte{tmpl, longer} {
				resp, ok := em.Respond(nil, req)
				checkAgainstOracle(t, spec.Vector, req, resp, ok)
			}
		}
	}
}

// serveLoopback serves vec from h on a loopback socket and returns a
// client connected to it. Cleanup closes the socket and waits for Serve
// to return.
func serveLoopback(t *testing.T, h *Honeypot, vec attack.Vector) *net.UDPConn {
	t.Helper()
	conn, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = h.Serve(conn, vec)
	}()
	t.Cleanup(func() {
		conn.Close()
		<-done
	})
	client, err := net.DialUDP("udp4", nil, conn.LocalAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// exchange sends req and returns the reply, or fails the test.
func exchange(t *testing.T, client *net.UDPConn, req []byte) []byte {
	t.Helper()
	if _, err := client.Write(req); err != nil {
		t.Errorf("send %d bytes: %v", len(req), err)
		return nil
	}
	_ = client.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 65536)
	n, err := client.Read(buf)
	if err != nil {
		t.Errorf("no reply to %d bytes: %v", len(req), err)
		return nil
	}
	return buf[:n]
}

// TestServeReusesReplyBuffer serves DNS and NTP concurrently from one
// honeypot, each Serve goroutine building into its own reused buffer.
// The DNS socket gets queries of decreasing length, each with its own
// ID; the NTP socket gets mode-3 requests, whose 48-byte replies are
// zero past the first byte. Every reply must equal the oracle's, so no
// byte of an earlier, longer reply survives. Run under -race this also
// checks two protocols served at once on the same Honeypot.
func TestServeReusesReplyBuffer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReplyLimitPerMinute = 1 << 20 // answer every request
	var mu sync.Mutex
	logged := 0
	h := NewHoneypot(0, "US", cfg, func(Observation) {
		mu.Lock()
		logged++
		mu.Unlock()
	})
	dnsClient := serveLoopback(t, h, attack.VectorDNS)
	ntpClient := serveLoopback(t, h, attack.VectorNTP)

	dnsLengths := []int{1000, 600, 200, 64, 29, 13, 12}
	const ntpRequests = 20
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i, n := range dnsLengths {
			req := make([]byte, n)
			copy(req, dnsQuery())
			binary.BigEndian.PutUint16(req[0:2], uint16(0x100+i))
			want, _ := oracleRespond(attack.VectorDNS, req)
			if got := exchange(t, dnsClient, req); !bytes.Equal(got, want) {
				t.Errorf("DNS query %d (%d bytes): reply of %d bytes differs from the oracle's %d", i, n, len(got), len(want))
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < ntpRequests; i++ {
			req := junk(48 + i)
			req[0] = byte(i%8)<<3 | 3 // version i%8, mode 3 (client)
			want, _ := oracleRespond(attack.VectorNTP, req)
			if got := exchange(t, ntpClient, req); !bytes.Equal(got, want) {
				t.Errorf("NTP mode-3 request %d: reply % x, want % x", i, got, want)
			}
		}
	}()
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if want := len(dnsLengths) + ntpRequests; logged != want {
		t.Errorf("logged %d requests, want %d", logged, want)
	}
}

// oracleLimiter is the reply limiter as it was before sweeps were
// bounded: once the map holds more than 1<<16 sources, every new source
// walks it for expired entries.
type oracleLimiter struct {
	limit   int
	entries map[netx.Addr]*minuteCounter
	sweeps  int
}

func (o *oracleLimiter) allow(ts int64, src netx.Addr) bool {
	min := ts / 60
	mc := o.entries[src]
	if mc == nil {
		mc = &minuteCounter{minute: min}
		o.entries[src] = mc
		if len(o.entries) > 1<<16 {
			o.sweeps++
			for k, v := range o.entries {
				if v.minute < min-1 {
					delete(o.entries, k)
				}
			}
		}
	}
	if mc.minute != min {
		mc.minute = min
		mc.count = 0
	}
	mc.count++
	return mc.count < o.limit
}

// TestRateLimiterSweepsMatchOracle replays a request sequence through the
// limiter and the unbounded-sweep oracle and requires the same reply
// decision for every request. It opens with a flood of more than 1<<16
// distinct sources at one timestamp, so the oracle walks its map for
// every source past the threshold, then goes on with random traffic
// whose timestamps run up to 59 s behind a rising clock: requests arrive
// out of order, but never more than a minute late, which is the
// lateness a sweep that keeps the current and previous minute tolerates
// without changing a decision.
func TestRateLimiterSweepsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 18))
	h := NewHoneypot(0, "US", DefaultConfig(), nil)
	o := &oracleLimiter{limit: h.cfg.ReplyLimitPerMinute, entries: make(map[netx.Addr]*minuteCounter)}
	const pool = 1<<16 + 500
	clock := attack.WindowStart
	minutes := map[int64]bool{}
	check := func(i int, ts int64, src netx.Addr) {
		t.Helper()
		minutes[ts/60] = true
		if got, want := h.allowReplyLocked(ts, src), o.allow(ts, src); got != want {
			t.Fatalf("request %d (ts %d, src %v): reply %v, oracle %v", i, ts, src, got, want)
		}
	}
	for i := 0; i < pool; i++ {
		check(i, clock, netx.Addr(0x0a000000+i))
	}
	for i := 0; i < 250_000; i++ {
		if i%200 == 0 {
			clock++
		}
		src := netx.Addr(0x0a000000 + rng.IntN(pool+pool/4))
		if rng.IntN(2) == 0 { // a few busy sources that exhaust their budget
			src = netx.Addr(0xc0000000 + rng.IntN(16))
		}
		check(pool+i, clock-rng.Int64N(60), src)
	}
	if h.sweeps == 0 || o.sweeps <= h.sweeps {
		t.Fatalf("map walks: limiter %d, oracle %d; the sequence does not exercise the bound", h.sweeps, o.sweeps)
	}
	if h.sweeps > len(minutes) {
		t.Errorf("limiter walked its map %d times over %d minutes", h.sweeps, len(minutes))
	}
	t.Logf("map walks: limiter %d, oracle %d, over %d minutes", h.sweeps, o.sweeps, len(minutes))
}

// TestRateLimiterSweepsOncePerMinute sends more than 1<<16 distinct
// sources at one timestamp: the limiter walks its map once, where the
// oracle walks it for every source past the threshold, and walks it
// again once the next minute begins.
func TestRateLimiterSweepsOncePerMinute(t *testing.T) {
	h := NewHoneypot(0, "US", DefaultConfig(), nil)
	ts := attack.WindowStart
	const n = 1<<16 + 2000
	for i := 0; i < n; i++ {
		h.allowReplyLocked(ts, netx.Addr(0x0a000000+i))
	}
	if h.sweeps != 1 {
		t.Fatalf("%d distinct sources in one minute walked the map %d times, want 1", n, h.sweeps)
	}
	h.allowReplyLocked(ts+60, netx.Addr(0x0b000000))
	if h.sweeps != 2 {
		t.Fatalf("a new source in the next minute: %d walks, want 2", h.sweeps)
	}
}
