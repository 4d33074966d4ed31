// Package telescope implements the UCSD Network Telescope substrate: a
// darknet packet classifier that infers randomly spoofed DoS attacks from
// backscatter, following the Moore et al. methodology the paper implements
// as a Corsaro plugin (§3.1.1).
//
// The three-step process is reproduced faithfully: (1) identify and
// extract backscatter packets (TCP SYN/ACK and RST, ICMP Echo Reply,
// Destination Unreachable, Source Quench, Redirect, Time Exceeded,
// Parameter Problem, Timestamp/Information/Address-Mask Reply); (2)
// aggregate related packets into per-victim attack flows expired with a
// conservative 300 s timeout; (3) classify and filter attacks, discarding
// those with fewer than 25 packets, shorter than 60 s, or a maximum
// per-minute packet rate below 0.5 pps.
package telescope

import (
	"slices"

	"doscope/internal/attack"
	"doscope/internal/netx"
	"doscope/internal/packet"
)

// Config parameterizes the classifier. The defaults are the paper's.
type Config struct {
	// Prefix is the darknet; packets destined elsewhere are ignored.
	Prefix netx.Prefix
	// FlowTimeout (seconds) expires idle victim flows. Default 300.
	FlowTimeout int64
	// MinPackets, MinDuration (seconds) and MinMaxPPS are the Moore et al.
	// low-intensity filter thresholds. Defaults 25, 60, 0.5.
	MinPackets  uint64
	MinDuration int64
	MinMaxPPS   float64
	// DisableFilter keeps all flows as events regardless of thresholds
	// (for the ablation study).
	DisableFilter bool
}

// DefaultConfig returns the paper's parameters with the given darknet.
func DefaultConfig(darknet netx.Prefix) Config {
	return Config{
		Prefix:      darknet,
		FlowTimeout: 300,
		MinPackets:  25,
		MinDuration: 60,
		MinMaxPPS:   0.5,
	}
}

func (c *Config) applyDefaults() {
	if c.FlowTimeout == 0 {
		c.FlowTimeout = 300
	}
	if c.MinPackets == 0 {
		c.MinPackets = 25
	}
	if c.MinDuration == 0 {
		c.MinDuration = 60
	}
	if c.MinMaxPPS == 0 {
		c.MinMaxPPS = 0.5
	}
}

// Accept applies the Moore et al. attack filter to flow-level aggregates.
// The event-level simulation fast path uses it so both fidelity levels
// share one filtering rule.
func (c Config) Accept(packets uint64, duration int64, maxPPS float64) bool {
	if c.DisableFilter {
		return true
	}
	c.applyDefaults()
	return packets >= c.MinPackets && duration >= c.MinDuration && maxPPS >= c.MinMaxPPS
}

// PacketKind is the classification of one darknet packet.
type PacketKind uint8

// Classifications returned by ProcessPacket.
const (
	KindIgnored     PacketKind = iota // not backscatter (scan, junk, outside darknet)
	KindBackscatter                   // counted into a victim flow
	KindMalformed                     // undecodable IPv4
)

// Classifier consumes a time-ordered stream of darknet packets and emits
// attack events. It is not safe for concurrent use; shard by victim if
// parallel classification is needed.
type Classifier struct {
	cfg    Config
	flows  map[netx.Addr]*flow
	events []attack.Event

	// scratch decoding state (allocation-free hot path)
	ip   packet.IPv4
	tcp  packet.TCP
	icmp packet.ICMPv4
	inIP packet.IPv4
	inl4 [4]byte

	packetsSeen uint64
	sweepEvery  uint64
}

// New returns a Classifier with the given configuration.
func New(cfg Config) *Classifier {
	cfg.applyDefaults()
	return &Classifier{
		cfg:        cfg,
		flows:      make(map[netx.Addr]*flow),
		sweepEvery: 8192,
	}
}

type flow struct {
	start, last  int64
	packets      uint64
	bytes        uint64
	protoCount   [4]uint64 // TCP, UDP, ICMP, Other
	ports        map[uint16]struct{}
	morePorts    bool
	curMinute    int64
	curMinuteCnt uint64
	maxMinuteCnt uint64
}

// ProcessPacket classifies one raw IPv4 packet captured at unix time ts.
// Packets must arrive in non-decreasing timestamp order.
func (c *Classifier) ProcessPacket(ts int64, data []byte) PacketKind {
	c.packetsSeen++
	if c.packetsSeen%c.sweepEvery == 0 {
		c.sweep(ts)
	}
	if err := c.ip.DecodeFromBytes(data); err != nil {
		return KindMalformed
	}
	if !c.cfg.Prefix.Contains(c.ip.Dst) {
		return KindIgnored
	}
	victim, vec, port, hasPort, ok := c.classifyBackscatter()
	if !ok {
		return KindIgnored
	}
	c.observe(ts, victim, vec, port, hasPort, uint64(len(data)))
	return KindBackscatter
}

// classifyBackscatter implements step (1): decide whether the decoded
// packet is a response packet, and if so extract the victim address, the
// flooding protocol and the attacked port.
func (c *Classifier) classifyBackscatter() (victim netx.Addr, vec attack.Vector, port uint16, hasPort, ok bool) {
	switch c.ip.Protocol {
	case packet.ProtocolTCP:
		if c.tcp.DecodeFromBytes(c.ip.Payload()) != nil {
			return 0, 0, 0, false, false
		}
		isSynAck := c.tcp.Flags&(packet.TCPSyn|packet.TCPAck) == packet.TCPSyn|packet.TCPAck
		isRst := c.tcp.Flags&packet.TCPRst != 0
		if !isSynAck && !isRst {
			return 0, 0, 0, false, false
		}
		// The victim's attacked service port is the source port of its
		// SYN/ACK or RST backscatter.
		return c.ip.Src, attack.VectorTCP, c.tcp.SrcPort, true, true
	case packet.ProtocolICMP:
		if c.icmp.DecodeFromBytes(c.ip.Payload()) != nil {
			return 0, 0, 0, false, false
		}
		switch c.icmp.Type {
		case packet.ICMPEchoReply, packet.ICMPTimestampReply,
			packet.ICMPInfoReply, packet.ICMPAddressMaskReply:
			// Direct responses from the victim itself: an ICMP flood.
			return c.ip.Src, attack.VectorICMP, 0, false, true
		case packet.ICMPDestUnreachable, packet.ICMPSourceQuench,
			packet.ICMPRedirect, packet.ICMPTimeExceeded,
			packet.ICMPParameterProblem:
			// Error messages may originate at routers; the victim is the
			// destination of the quoted offending packet, and we register
			// the quoted packet's protocol (§4, Table 5).
			if c.inIP.DecodeFromBytes(c.icmp.Payload()) != nil {
				return 0, 0, 0, false, false
			}
			vec := attack.VectorOtherIP
			var qPort uint16
			var qHas bool
			switch c.inIP.Protocol {
			case packet.ProtocolTCP, packet.ProtocolUDP:
				if c.inIP.Protocol == packet.ProtocolTCP {
					vec = attack.VectorTCP
				} else {
					vec = attack.VectorUDP
				}
				// Only the first 8 payload bytes are guaranteed quoted:
				// enough for the port pair.
				pl := c.inIP.Payload()
				if len(pl) >= 4 {
					copy(c.inl4[:], pl[:4])
					qPort = uint16(c.inl4[2])<<8 | uint16(c.inl4[3]) // destination port
					qHas = true
				}
			case packet.ProtocolICMP:
				vec = attack.VectorICMP
			}
			return c.inIP.Dst, vec, qPort, qHas, true
		}
		return 0, 0, 0, false, false
	default:
		return 0, 0, 0, false, false
	}
}

func (c *Classifier) observe(ts int64, victim netx.Addr, vec attack.Vector, port uint16, hasPort bool, bytes uint64) {
	f := c.flows[victim]
	if f != nil && ts-f.last > c.cfg.FlowTimeout {
		c.closeFlow(victim, f)
		f = nil
	}
	if f == nil {
		f = &flow{start: ts, curMinute: ts / 60, ports: make(map[uint16]struct{}, 4)}
		c.flows[victim] = f
	}
	f.last = ts
	f.packets++
	f.bytes += bytes
	switch vec {
	case attack.VectorTCP:
		f.protoCount[0]++
	case attack.VectorUDP:
		f.protoCount[1]++
	case attack.VectorICMP:
		f.protoCount[2]++
	default:
		f.protoCount[3]++
	}
	if hasPort {
		if _, seen := f.ports[port]; !seen {
			if len(f.ports) < attack.MaxTrackedPorts {
				f.ports[port] = struct{}{}
			} else {
				f.morePorts = true
			}
		}
	}
	min := ts / 60
	if min != f.curMinute {
		if f.curMinuteCnt > f.maxMinuteCnt {
			f.maxMinuteCnt = f.curMinuteCnt
		}
		f.curMinute = min
		f.curMinuteCnt = 0
	}
	f.curMinuteCnt++
}

func (c *Classifier) sweep(now int64) {
	for victim, f := range c.flows {
		if now-f.last > c.cfg.FlowTimeout {
			c.closeFlow(victim, f)
		}
	}
}

func (c *Classifier) closeFlow(victim netx.Addr, f *flow) {
	delete(c.flows, victim)
	if f.curMinuteCnt > f.maxMinuteCnt {
		f.maxMinuteCnt = f.curMinuteCnt
	}
	duration := f.last - f.start
	maxPPS := float64(f.maxMinuteCnt) / 60
	if !c.cfg.Accept(f.packets, duration, maxPPS) {
		return
	}
	// Dominant protocol decides the event vector.
	vec := attack.VectorTCP
	best := f.protoCount[0]
	for i, v := range []attack.Vector{attack.VectorUDP, attack.VectorICMP, attack.VectorOtherIP} {
		if f.protoCount[i+1] > best {
			best = f.protoCount[i+1]
			vec = v
		}
	}
	ports := make([]uint16, 0, len(f.ports))
	for p := range f.ports {
		ports = append(ports, p)
	}
	slices.Sort(ports)
	if f.morePorts && len(ports) == 1 {
		// Distinct ports overflowed the tracker: force multi-port.
		ports = append(ports, ports[0]+1)
	}
	c.events = append(c.events, attack.Event{
		Source:  attack.SourceTelescope,
		Vector:  vec,
		Target:  victim,
		Start:   f.start,
		End:     f.last,
		Packets: f.packets,
		Bytes:   f.bytes,
		MaxPPS:  maxPPS,
		Ports:   ports,
	})
}

// Flush closes all open flows, emitting their events. Call once the input
// stream ends.
func (c *Classifier) Flush() {
	for victim, f := range c.flows {
		c.closeFlow(victim, f)
	}
}

// Events returns the attack events emitted so far.
func (c *Classifier) Events() []attack.Event { return c.events }

// Store returns the events emitted so far as an indexed attack.Store,
// the form the fusion pipeline and CLIs query.
func (c *Classifier) Store() *attack.Store { return attack.NewStore(c.events) }

// OpenFlows returns the number of victims with unclosed flows.
func (c *Classifier) OpenFlows() int { return len(c.flows) }
