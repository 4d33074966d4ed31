package httpapi

import "sync/atomic"

// metrics is the server's expvar-style counter set, updated atomically
// on every request and reported by /v1/stats. Counters only ever grow;
// inFlight is the single gauge.
type metrics struct {
	requests      atomic.Uint64 // every request received, before any gate
	rateLimited   atomic.Uint64 // 429s from the per-client token buckets
	rejected      atomic.Uint64 // 503s from the global in-flight cap
	errors        atomic.Uint64 // responses with status >= 400 (including the above)
	cacheHits     atomic.Uint64 // responses served from the plan-keyed cache
	cacheMisses   atomic.Uint64 // cacheable responses that had to execute
	notModified   atomic.Uint64 // 304s from If-None-Match revalidation
	degraded      atomic.Uint64 // 200s that were missing some backend's partial
	bytesStreamed atomic.Uint64 // response body bytes, all endpoints
	inFlight      atomic.Int64  // requests currently inside a handler
}

// statsSnapshot is the JSON shape /v1/stats serves.
type statsSnapshot struct {
	Requests      uint64        `json:"requests"`
	RateLimited   uint64        `json:"rate_limited"`
	Rejected      uint64        `json:"rejected"`
	Errors        uint64        `json:"errors"`
	CacheHits     uint64        `json:"cache_hits"`
	CacheMisses   uint64        `json:"cache_misses"`
	NotModified   uint64        `json:"not_modified"`
	CacheEntries  int           `json:"cache_entries"`
	Degraded      uint64        `json:"degraded"`
	BytesStreamed uint64        `json:"bytes_streamed"`
	InFlight      int64         `json:"in_flight"`
	Backends      []backendInfo `json:"backends"`
}

// backendInfo describes one backend in /v1/stats. Remote backends with
// a circuit breaker additionally report its state — the ops view of
// which sites a degraded response is missing.
type backendInfo struct {
	Kind            string `json:"kind"` // "store" or "remote"
	Addr            string `json:"addr,omitempty"`
	Versioned       bool   `json:"versioned"`
	Version         uint64 `json:"version,omitempty"`
	Events          int    `json:"events,omitempty"`
	Breaker         string `json:"breaker,omitempty"` // "closed" or "open"
	BreakerFailures int    `json:"breaker_failures,omitempty"`

	// Ingest-front state for local stores (attack.Store.IngestStats):
	// queue depth in events/batches, drain-tick and coalesced-batch
	// counters, and whether the store ingests in queued (async) mode.
	// The ops view of how far publication lags the producers.
	IngestQueued    int    `json:"ingest_queued,omitempty"`
	IngestBatches   int    `json:"ingest_batches,omitempty"`
	IngestDrains    uint64 `json:"ingest_drains,omitempty"`
	IngestCoalesced uint64 `json:"ingest_coalesced,omitempty"`
	IngestAsync     bool   `json:"ingest_async,omitempty"`

	// Query-execution counters for local stores (attack.Store.ExecStats):
	// per-shard tasks by kind since process start. The ops view of
	// whether the working set is index-served or core-saturating.
	ExecScanTasks  uint64 `json:"exec_scan_tasks,omitempty"`
	ExecProbeTasks uint64 `json:"exec_probe_tasks,omitempty"`
}

func (m *metrics) snapshot() statsSnapshot {
	return statsSnapshot{
		Requests:      m.requests.Load(),
		RateLimited:   m.rateLimited.Load(),
		Rejected:      m.rejected.Load(),
		Errors:        m.errors.Load(),
		CacheHits:     m.cacheHits.Load(),
		CacheMisses:   m.cacheMisses.Load(),
		NotModified:   m.notModified.Load(),
		Degraded:      m.degraded.Load(),
		BytesStreamed: m.bytesStreamed.Load(),
		InFlight:      m.inFlight.Load(),
	}
}
