package amppot

import (
	"fmt"
	"math"
	"sync"

	"doscope/internal/attack"
	"doscope/internal/netx"
)

// Config parameterizes a honeypot instance and the fleet's event
// extraction. Defaults are the paper's.
type Config struct {
	// ReplyLimitPerMinute caps replies per source per minute so real
	// attacks are not amplified; AmpPot replies only to sources sending
	// fewer than three packets per minute. Default 3.
	ReplyLimitPerMinute int
	// MinRequests is the event threshold distinguishing attacks from
	// scans; the paper considers only events exceeding 100 requests.
	// Default 100.
	MinRequests uint64
	// GapTimeout (seconds) splits request streams into separate events.
	// Default 3600.
	GapTimeout int64
	// MaxEventDuration (seconds) caps one event; AmpPot caps attack
	// durations at 24 hours. Default 86400.
	MaxEventDuration int64
}

func (c *Config) applyDefaults() {
	if c.ReplyLimitPerMinute == 0 {
		c.ReplyLimitPerMinute = 3
	}
	if c.MinRequests == 0 {
		c.MinRequests = 100
	}
	if c.GapTimeout == 0 {
		c.GapTimeout = 3600
	}
	if c.MaxEventDuration == 0 {
		c.MaxEventDuration = 86400
	}
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	var c Config
	c.applyDefaults()
	return c
}

// Accept reports whether a request stream of the given size qualifies as
// an attack event; shared by the packet-level and event-level paths.
func (c Config) Accept(requests uint64) bool {
	c.applyDefaults()
	return requests > c.MinRequests
}

// Observation is one logged request: who the (alleged) victim is and via
// which protocol, as witnessed by one honeypot instance.
type Observation struct {
	Time     int64
	Victim   netx.Addr // source address of the spoofed request
	Vector   attack.Vector
	Honeypot int // instance id
	Bytes    int
}

// Honeypot is one AmpPot instance: protocol emulators behind a per-source
// reply rate limiter, logging every request.
type Honeypot struct {
	ID      int
	Country string // where the instance is deployed (3.1.2: geographic spread)

	cfg       Config
	emulators [attack.NumVectors]Emulator // nil for vectors AmpPot does not emulate

	mu      sync.Mutex
	limiter map[netx.Addr]*minuteCounter
	// nextSweep is the first minute in which the limiter map may be
	// walked for expired entries again; sweeps counts the walks.
	nextSweep int64
	sweeps    int
	// replyBuf is the buffer a fleet instance builds replies into, under
	// mu, at the capacity of the longest reply so it never grows. Nil
	// for a live instance: Serve builds into per-goroutine buffers.
	replyBuf []byte
	sink     func(Observation)
}

type minuteCounter struct {
	minute int64
	count  int
}

// NewHoneypot builds an instance; sink receives every logged request and
// must be safe for concurrent use if Serve is used.
func NewHoneypot(id int, country string, cfg Config, sink func(Observation)) *Honeypot {
	cfg.applyDefaults()
	h := &Honeypot{
		ID:        id,
		Country:   country,
		cfg:       cfg,
		limiter:   make(map[netx.Addr]*minuteCounter),
		nextSweep: math.MinInt64,
		sink:      sink,
	}
	for _, spec := range Protocols {
		em, ok := NewEmulator(spec.Vector)
		if !ok {
			panic(fmt.Sprintf("amppot: no emulator for %v", spec.Vector))
		}
		h.emulators[spec.Vector] = em
	}
	return h
}

// emulator returns the emulator for vec, or nil.
func (h *Honeypot) emulator(vec attack.Vector) Emulator {
	if int(vec) >= len(h.emulators) {
		return nil
	}
	return h.emulators[vec]
}

// HandleRequest processes one datagram allegedly from victim for the given
// protocol at unix time ts. It returns the response payload and whether a
// reply should actually be sent (the rate limiter may suppress it). Every
// valid request is logged regardless of whether a reply is sent. The
// response is the emulator's (see Emulator.Respond): built into dst when
// it depends on the request, otherwise shared with other responses, so
// it must not be modified. The reply is built and the limiter consulted
// in one critical section, so callers may share dst under h.mu (the
// fleet's replyBuf); the observation is logged after unlocking.
func (h *Honeypot) HandleRequest(dst []byte, ts int64, victim netx.Addr, vec attack.Vector, payload []byte) (resp []byte, reply bool) {
	em := h.emulator(vec)
	if em == nil {
		return nil, false
	}
	h.mu.Lock()
	resp, ok := em.Respond(dst, payload)
	if ok {
		reply = h.allowReplyLocked(ts, victim)
	}
	h.mu.Unlock()
	if !ok {
		return nil, false
	}
	if h.sink != nil {
		h.sink(Observation{Time: ts, Victim: victim, Vector: vec, Honeypot: h.ID, Bytes: len(payload)})
	}
	return resp, reply
}

// allowReplyLocked implements the <3 packets/minute reply policy; h.mu
// must be held.
func (h *Honeypot) allowReplyLocked(ts int64, src netx.Addr) bool {
	min := ts / 60
	mc := h.limiter[src]
	if mc == nil {
		mc = &minuteCounter{minute: min}
		h.limiter[src] = mc
		// Opportunistic cleanup so long simulations do not accumulate
		// one entry per spoofed source forever. The map is walked at
		// most once per minute: a spoofed flood of new sources within
		// one minute expires nothing, and walking it per request would
		// cost a full scan each.
		if len(h.limiter) > 1<<16 && min >= h.nextSweep {
			h.nextSweep = min + 1
			h.sweeps++
			for k, v := range h.limiter {
				if v.minute < min-1 {
					delete(h.limiter, k)
				}
			}
		}
	}
	if mc.minute != min {
		mc.minute = min
		mc.count = 0
	}
	mc.count++
	return mc.count < h.cfg.ReplyLimitPerMinute
}
