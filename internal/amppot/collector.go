package amppot

import (
	"cmp"
	"slices"

	"doscope/internal/attack"
	"doscope/internal/netx"
)

// Collector merges request observations from all honeypot instances and
// extracts attack events per (victim, protocol): request streams separated
// by more than the gap timeout form distinct events, events are capped at
// 24 hours, and only events exceeding the request threshold are kept.
type Collector struct {
	cfg    Config
	flows  map[flowKey]*reqFlow
	events []attack.Event
	sink   func(attack.Event)
}

// flowKey packs (victim, vector) into one word, victim<<8 | vector, so
// the flow map hashes a uint64 instead of a struct field by field.
type flowKey uint64

func newFlowKey(victim netx.Addr, vec attack.Vector) flowKey {
	return flowKey(victim)<<8 | flowKey(vec)
}

func (k flowKey) victim() netx.Addr     { return netx.Addr(k >> 8) }
func (k flowKey) vector() attack.Vector { return attack.Vector(k) }

type reqFlow struct {
	start, last int64
	requests    uint64
	bytes       uint64
	honeypots   uint32 // bitmap of instance ids (24 instances)
}

// NewCollector returns a Collector with the given configuration.
func NewCollector(cfg Config) *Collector {
	cfg.applyDefaults()
	return &Collector{cfg: cfg, flows: make(map[flowKey]*reqFlow)}
}

// Add ingests one observation. Observations must be fed in non-decreasing
// time order per (victim, vector) key; the fleet guarantees this when
// simulating, and live capture timestamps are naturally ordered.
func (c *Collector) Add(o Observation) {
	key := newFlowKey(o.Victim, o.Vector)
	f := c.flows[key]
	if f != nil {
		gap := o.Time - f.last
		if gap > c.cfg.GapTimeout || o.Time-f.start >= c.cfg.MaxEventDuration {
			c.closeFlow(key, f)
			f = nil
		}
	}
	if f == nil {
		f = &reqFlow{start: o.Time}
		c.flows[key] = f
	}
	f.last = o.Time
	f.requests++
	f.bytes += uint64(o.Bytes)
	if o.Honeypot >= 0 && o.Honeypot < 32 {
		f.honeypots |= 1 << uint(o.Honeypot)
	}
}

// SetSink routes every event extracted from a closing flow directly
// into fn instead of the internal buffer. The live pipeline points fn
// at a store's concurrent ingest front (attack.Store.Add), so events
// stream out as flows close and there is no drain-time batch to carry;
// Drain returns nil while a sink is set.
func (c *Collector) SetSink(fn func(attack.Event)) { c.sink = fn }

func (c *Collector) closeFlow(key flowKey, f *reqFlow) {
	delete(c.flows, key)
	if !c.cfg.Accept(f.requests) {
		return
	}
	duration := f.last - f.start
	if duration > c.cfg.MaxEventDuration {
		duration = c.cfg.MaxEventDuration
	}
	den := duration
	if den < 1 {
		den = 1
	}
	ev := attack.Event{
		Source:  attack.SourceHoneypot,
		Vector:  key.vector(),
		Target:  key.victim(),
		Start:   f.start,
		End:     f.start + duration,
		Packets: f.requests,
		Bytes:   f.bytes,
		AvgRPS:  float64(f.requests) / float64(den),
	}
	if c.sink != nil {
		c.sink(ev)
		return
	}
	c.events = append(c.events, ev)
}

// CloseIdle closes flows idle beyond the gap timeout as of time now.
func (c *Collector) CloseIdle(now int64) {
	for key, f := range c.flows {
		if now-f.last > c.cfg.GapTimeout {
			c.closeFlow(key, f)
		}
	}
}

// Flush closes all open flows.
func (c *Collector) Flush() {
	for key, f := range c.flows {
		c.closeFlow(key, f)
	}
}

// Drain returns the events extracted since the last Drain (in closing
// order, not sorted) and resets the buffer. The live pipeline pairs it
// with CloseIdle or Flush and feeds the result to attack.Store.AddBatch,
// which does not care about order.
func (c *Collector) Drain() []attack.Event {
	evs := c.events
	c.events = nil
	return evs
}

// Events returns extracted events sorted by start time.
func (c *Collector) Events() []attack.Event {
	slices.SortStableFunc(c.events, func(a, b attack.Event) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Target, b.Target))
	})
	return c.events
}

// OpenFlows returns the number of unclosed request flows.
func (c *Collector) OpenFlows() int { return len(c.flows) }
