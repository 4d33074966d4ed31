// Package httpapi serves the attack-event query plane over HTTP/JSON —
// the consumer-facing front end layered on the same attack.Queryable
// contract DOSFED01 federates over. A Server fronts any mix of
// backends (local *attack.Store values, live or segment-backed, and
// federation.RemoteStore sites) and fans each request's compiled
// attack.Plan out to all of them, so one process can serve a single
// honeypot's live capture or an ecosystem-wide federated view through
// the same URLs.
//
// The endpoint families mirror the query terminals: /v1/count,
// /v1/count/vector, /v1/count/day and /v1/count/target-prefix are the
// counting terminals; /v1/events streams matching events as paginated
// NDJSON with stable start-timestamp cursors; /v1/figures/{1,5,6,7}
// serve the source paper's measurement views as live aggregates.
// Filters arrive as URL parameters (source=, vectors=, days=, prefix=)
// or as a complete base64 plan (plan=), both compiled through
// attack.PlanFromValues — the exact plan domain the wire protocol
// accepts, nothing more.
//
// Between ingest batches, counting and figure responses come from a
// plan-keyed response cache validated by the backends' version vector
// (attack.Store.Version locally, a DOSFED01 version frame per remote
// site): any ingest anywhere invalidates, so a cached body is never
// staler than the stores. Per-client token buckets and a global
// in-flight cap bound what any one consumer — or all of them — can ask
// of the store, and Shutdown drains in-flight requests before
// returning, mirroring federation.Server.Shutdown.
//
// Reads are lock-free end to end: a handler executes its plan against
// whatever view each store publishes, concurrent with ingest and with
// every other handler. See docs/API.md for the endpoint reference.
package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"log"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"doscope/internal/attack"
	"doscope/internal/federation"
)

// Server is an http.Handler serving the query API over a fixed backend
// set. Construct with NewServer; serve with Serve (or mount it on any
// http.Server or test mux — ServeHTTP carries all behavior, so
// httptest exercises the real gates).
type Server struct {
	backends []attack.Queryable
	mux      *http.ServeMux
	cache    *cache
	limiter  *limiter
	inflight chan struct{}
	metrics  metrics
	logger   *log.Logger
	maxPage  int
	strict   bool // fail-closed on any backend error (see WithStrict)

	hsMu sync.Mutex
	hs   *http.Server
}

// Option configures a Server.
type Option func(*Server)

// WithCache sets the response-cache capacity in entries (default 1024;
// 0 disables caching).
func WithCache(entries int) Option {
	return func(s *Server) { s.cache = newCache(entries) }
}

// WithRateLimit applies a per-client token bucket: rate requests per
// second accruing up to burst (rate <= 0 disables, the default).
func WithRateLimit(rate float64, burst int) Option {
	return func(s *Server) { s.limiter = newLimiter(rate, burst) }
}

// WithMaxInFlight caps concurrently executing requests across all
// clients; excess requests are rejected with 503 rather than queued,
// so overload degrades crisply instead of compounding (default 0 =
// unlimited).
func WithMaxInFlight(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.inflight = make(chan struct{}, n)
		} else {
			s.inflight = nil
		}
	}
}

// WithLogger directs per-request log lines (method, path, status,
// bytes, duration) to l; nil (the default) disables request logging.
func WithLogger(l *log.Logger) Option {
	return func(s *Server) { s.logger = l }
}

// WithMaxPage caps the per-request limit= on /v1/events (default
// 10000).
func WithMaxPage(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxPage = n
		}
	}
}

// NewServer builds a query server over the given backends. Responses
// merge all backends in argument order, exactly like
// attack.QueryBackends.
func NewServer(backends []attack.Queryable, opts ...Option) *Server {
	s := &Server{
		backends: backends,
		cache:    newCache(1024),
		maxPage:  10000,
	}
	for _, o := range opts {
		o(s)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/count", s.handleCount)
	s.mux.HandleFunc("GET /v1/count/vector", s.handleCountByVector)
	s.mux.HandleFunc("GET /v1/count/day", s.handleCountByDay)
	s.mux.HandleFunc("GET /v1/count/target-prefix", s.handleCountTargetPrefix)
	s.mux.HandleFunc("GET /v1/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/figures/{fig}", s.handleFigure)
	return s
}

// countingWriter wraps the ResponseWriter to record status and bytes
// for metrics and logging.
type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *countingWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the connection's deadlines.
func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// ServeHTTP runs the request through the gates — per-client rate
// limit, then the global in-flight cap — and dispatches to the
// endpoint handlers. /healthz bypasses both gates so load-balancer
// probes keep answering under overload.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.metrics.requests.Add(1)
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	defer func() {
		s.metrics.bytesStreamed.Add(uint64(cw.bytes))
		if cw.status >= 400 {
			s.metrics.errors.Add(1)
		}
		if s.logger != nil {
			s.logger.Printf("%s %s %d %dB %v", r.Method, r.URL.RequestURI(), cw.status, cw.bytes, time.Since(start).Round(time.Microsecond))
		}
	}()
	if r.URL.Path != "/healthz" {
		if s.limiter != nil && !s.limiter.allow(clientKey(r)) {
			s.metrics.rateLimited.Add(1)
			cw.Header().Set("Retry-After", fmt.Sprint(s.limiter.retryAfter()))
			writeError(cw, http.StatusTooManyRequests, "rate limit exceeded")
			return
		}
		if s.inflight != nil {
			select {
			case s.inflight <- struct{}{}:
				defer func() { <-s.inflight }()
			default:
				s.metrics.rejected.Add(1)
				writeError(cw, http.StatusServiceUnavailable, "server at capacity")
				return
			}
		}
	}
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)
	s.mux.ServeHTTP(cw, r)
}

// clientKey identifies a client for rate limiting: the connection's
// remote IP, ports stripped so reconnecting does not reset the bucket.
func clientKey(r *http.Request) string {
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// Connection timeouts of Serve: a client must deliver its request
// header within readHeaderTimeout, so a slowloris client stalling
// mid-header cannot hold a connection, and a keep-alive connection idle
// for idleTimeout between requests is closed. There is deliberately no
// WriteTimeout: it would cut a long NDJSON cursor stream (/v1/events)
// from a slow but live consumer mid-page; that handler bounds a stalled
// consumer per chunk instead (eventsChunkTimeout). readHeaderTimeout is a
// variable only so tests can shorten it.
var readHeaderTimeout = 10 * time.Second

const idleTimeout = 2 * time.Minute

// Serve accepts connections on l until Shutdown. It returns nil when
// the listener closes through Shutdown.
func (s *Server) Serve(l net.Listener) error {
	hs := &http.Server{Handler: s, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	s.hsMu.Lock()
	s.hs = hs
	s.hsMu.Unlock()
	err := hs.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown stops the server gracefully, mirroring
// federation.Server.Shutdown: the listener closes first (no new
// connections), in-flight requests drain, then idle connections close.
// The context bounds the drain; on expiry remaining connections are
// closed hard.
func (s *Server) Shutdown(ctx context.Context) error {
	s.hsMu.Lock()
	hs := s.hs
	s.hsMu.Unlock()
	if hs == nil {
		return nil
	}
	return hs.Shutdown(ctx)
}

// versions reports every backend's mutation counter, in backend order —
// the cache validation vector. ok is false when any backend cannot
// report one (then caching is skipped for the request, never unsafe).
// Local stores answer from their published view; remote sites answer a
// DOSFED01 version frame (8 bytes each way), queried concurrently so
// the vector costs one round-trip, not one per site — and a site with
// an open breaker rejects in memory instead of stalling the vector.
// The request's context bounds the remote queries, so a stalled site
// holds a request no longer than its client waits.
func (s *Server) versions(ctx context.Context) ([]uint64, bool) {
	vec := make([]uint64, len(s.backends))
	var failed atomic.Bool
	var wg sync.WaitGroup
	for i, b := range s.backends {
		var remote func() (uint64, error)
		switch v := b.(type) {
		case interface{ Version() uint64 }:
			vec[i] = v.Version()
			continue
		case interface {
			VersionContext(context.Context) (uint64, error)
		}:
			remote = func() (uint64, error) { return v.VersionContext(ctx) }
		case interface{ Version() (uint64, error) }:
			// A backend without the context form (e2ebench's traced
			// federation client) is not bounded by the request.
			remote = v.Version
		default:
			failed.Store(true)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ver, err := remote()
			if err != nil {
				failed.Store(true)
				return
			}
			vec[i] = ver
		}()
	}
	wg.Wait()
	if failed.Load() {
		return nil, false
	}
	return vec, true
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: msg})
}

// writeJSON writes a pre-marshaled JSON body.
func writeJSON(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// marshalBody renders one newline-terminated JSON response body.
func marshalBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// cached runs one cacheable endpoint: on a version-validated hit the
// stored body is written back without executing anything; otherwise
// compute runs, and its marshaled result is cached under the version
// vector observed before execution (see cacheEntry for why that
// direction is safe).
//
// compute additionally reports whether its result is degraded — a
// partial answer missing some backend's contribution. Degraded bodies
// are never cached: an entry must be a whole answer, or a site's
// outage would be served from cache after the site recovered. (In
// practice an unreachable site also fails the version vector, which
// disables the cache for the whole outage — this guard is the
// belt-and-braces for the window where versions succeeded and the
// query then lost a site.)
//
// Versioned responses carry an ETag derived from the same cache key
// plus the version vector, so the conditional-request path shares the
// cache's validation rule exactly: If-None-Match matches only while no
// backend has ingested, and then the 304 skips both execution and body
// re-serialization. Degraded responses carry no ETag — a partial
// answer must not validate a later whole one.
func (s *Server) cached(w http.ResponseWriter, r *http.Request, endpoint, extra string, p attack.Plan, compute func() (any, bool, error)) {
	versions, versioned := s.versions(r.Context())
	key := cacheKey{endpoint: endpoint, plan: p, extra: extra}
	var etag string
	if versioned {
		etag = etagFor(key, versions)
		if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
			s.metrics.notModified.Add(1)
			w.Header().Set("ETag", etag)
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	if s.cache != nil && versioned {
		if body, ok := s.cache.get(key, versions); ok {
			s.metrics.cacheHits.Add(1)
			w.Header().Set("ETag", etag)
			writeJSON(w, body)
			return
		}
	}
	s.metrics.cacheMisses.Add(1)
	result, degraded, err := compute()
	if err != nil {
		writeError(w, http.StatusBadGateway, err.Error())
		return
	}
	if degraded {
		s.metrics.degraded.Add(1)
	}
	body, err := marshalBody(result)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if s.cache != nil && versioned && !degraded {
		s.cache.put(key, versions, body)
	}
	if versioned && !degraded {
		w.Header().Set("ETag", etag)
	}
	writeJSON(w, body)
}

// etagFor derives the strong ETag for one cacheable response: a hash
// of the cache key and the backend version vector it was (or would be)
// computed under. Identical inputs — same endpoint, same plan, same
// versions everywhere — yield the identical tag, so a client's
// If-None-Match revalidates across server restarts too.
func etagFor(k cacheKey, versions []uint64) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%s", k.endpoint, k.extra, k.plan.EncodeString())
	for _, v := range versions {
		fmt.Fprintf(h, "|%d", v)
	}
	return `"` + strconv.FormatUint(h.Sum64(), 16) + `"`
}

// etagMatch implements If-None-Match list matching. Weak tags compare
// by their opaque value (weak comparison is all a cache validator
// needs), and "*" matches any current representation.
func etagMatch(header, etag string) bool {
	for _, c := range strings.Split(header, ",") {
		c = strings.TrimSpace(c)
		c = strings.TrimPrefix(c, "W/")
		if c == "*" || c == etag {
			return true
		}
	}
	return false
}

// backendsInfo describes the backend set for /v1/stats; ctx bounds the
// remote sites' version queries.
func (s *Server) backendsInfo(ctx context.Context) []backendInfo {
	out := make([]backendInfo, len(s.backends))
	for i, b := range s.backends {
		info := backendInfo{Kind: "store"}
		switch v := b.(type) {
		case *attack.Store:
			info.Versioned, info.Version, info.Events = true, v.Version(), v.Len()
			is := v.IngestStats()
			info.IngestQueued, info.IngestBatches = is.Queued, is.Batches
			info.IngestDrains, info.IngestCoalesced = is.Drains, is.Coalesced
			info.IngestAsync = is.Async
			es := v.ExecStats()
			info.ExecScanTasks, info.ExecProbeTasks = es.ScanTasks, es.ProbeTasks
		case *federation.RemoteStore:
			info.Kind, info.Addr = "remote", v.Addr()
			if st, on := v.Breaker(); on {
				info.Breaker = st.State.String()
				info.BreakerFailures = st.Failures
			}
			if ver, err := v.VersionContext(ctx); err == nil {
				info.Versioned, info.Version = true, ver
			}
		}
		out[i] = info
	}
	return out
}
