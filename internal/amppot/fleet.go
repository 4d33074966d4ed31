package amppot

import (
	"sync"

	"doscope/internal/attack"
	"doscope/internal/netx"
)

// FleetSize is the number of honeypot instances; Krämer et al. show 24
// well-placed instances catch most Internet-wide reflection attacks.
const FleetSize = 24

// fleetCountries places the instances following the paper's footnote 3:
// 11 in America, 8 in Europe, 4 in Asia and 1 in Australia.
var fleetCountries = []string{
	"US", "US", "US", "US", "US", "US", "US", "CA", "CA", "BR", "MX",
	"DE", "DE", "FR", "GB", "NL", "SE", "IT", "PL",
	"JP", "SG", "KR", "IN",
	"AU",
}

// Fleet is the full honeypot deployment funneling observations into one
// collector, mirroring the merged honeypots data set.
type Fleet struct {
	Instances []*Honeypot

	mu        sync.Mutex
	collector *Collector
	streamed  int // events sent through a StreamTo sink
}

// NewFleet builds the 24-instance deployment.
func NewFleet(cfg Config) *Fleet {
	cfg.applyDefaults()
	f := &Fleet{collector: NewCollector(cfg)}
	sink := func(o Observation) {
		f.mu.Lock()
		f.collector.Add(o)
		f.mu.Unlock()
	}
	for i := 0; i < FleetSize; i++ {
		h := NewHoneypot(i, fleetCountries[i], cfg, sink)
		h.replyBuf = make([]byte, 0, maxUDPPayload)
		f.Instances = append(f.Instances, h)
	}
	return f
}

// Honeypot returns instance i.
func (f *Fleet) Honeypot(i int) *Honeypot { return f.Instances[i] }

// HandleRequest routes a simulated request to instance (chosen by the
// caller, e.g. round-robin over the reflector set) and returns whether a
// reply would be sent. The instance builds the reply as a live one
// would, into its own buffer; nothing is sent.
func (f *Fleet) HandleRequest(instance int, ts int64, victim netx.Addr, vec attack.Vector, payload []byte) (reply bool) {
	h := f.Instances[instance%len(f.Instances)]
	_, reply = h.HandleRequest(h.replyBuf, ts, victim, vec, payload)
	return reply
}

// Flush closes open flows and returns all extracted attack events.
func (f *Fleet) Flush() []attack.Event {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.collector.Flush()
	return f.collector.Events()
}

// CloseIdle expires idle flows as of now.
func (f *Fleet) CloseIdle(now int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.collector.CloseIdle(now)
}

// Events returns events extracted so far without flushing open flows.
func (f *Fleet) Events() []attack.Event {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.collector.Events()
}

// StreamTo routes every event the collector extracts straight into
// st's concurrent ingest front as the flow closes, instead of
// buffering it for the next DrainTo. With the store in queued ingest
// mode (attack.Store.StartIngest) the hand-off is an enqueue — the
// store's drainer coalesces everything extracted during a tick into
// one publication — so flow closing never pays view-publication cost
// and there is no drain-time batch to carry. DrainTo/FlushTo keep
// working: they close flows (streaming the results) and report how
// many events were extracted.
func (f *Fleet) StreamTo(st *attack.Store) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.collector.SetSink(func(ev attack.Event) {
		st.Add(ev)
		f.streamed++
	})
}

// DrainTo closes flows idle as of now and hands every event extracted
// since the last drain to st — as one AddBatch (buffered mode), or by
// having already streamed them as the flows closed (after StreamTo).
// Either way a batch lands in the store's ingest front and publishes
// atomically with the store's drain cadence. It returns the number of
// events extracted.
//
// DrainTo serializes against the fleet's collector internally, and the
// store needs no external lock either: its ingest front is safe for
// concurrent producers and its query paths are lock-free reads of the
// published view, so other goroutines may query st (or drain into it)
// concurrently.
func (f *Fleet) DrainTo(st *attack.Store, now int64) int {
	f.mu.Lock()
	before := f.streamed
	f.collector.CloseIdle(now)
	evs := f.collector.Drain()
	n := len(evs) + f.streamed - before
	f.mu.Unlock()
	st.AddBatch(evs)
	return n
}

// FlushTo closes ALL open flows (ending the capture) and hands the
// remaining extracted events to st, returning how many were extracted.
// The terminal counterpart of DrainTo. If st ingests in queued mode,
// follow with st.Flush or st.Close before reading the final corpus.
func (f *Fleet) FlushTo(st *attack.Store) int {
	f.mu.Lock()
	before := f.streamed
	f.collector.Flush()
	evs := f.collector.Drain()
	n := len(evs) + f.streamed - before
	f.mu.Unlock()
	st.AddBatch(evs)
	return n
}

// FlushStore closes open flows and returns all extracted events as an
// indexed attack.Store, the form the fusion pipeline and CLIs query.
func (f *Fleet) FlushStore() *attack.Store {
	st := &attack.Store{}
	f.FlushTo(st)
	return st
}
