package federation

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"doscope/internal/attack"
)

// RemoteStore is the client side of a federation site: it satisfies
// attack.Queryable by shipping compiled plans to the site's Server and
// decoding the partials that come back, so attack.QueryBackends plans
// treat a remote site exactly like a local store.
//
// Counting terminals receive fixed-size index partials;
// PlanStoreContext receives the matching events as a DOSEVT02 segment
// and opens it zero-copy over the received bytes (the segment columns
// alias the buffer the socket filled, no decode pass). Every request
// takes the caller's context, which bounds the whole of it: the dial,
// the exchange, and the retry sleeps in between.
//
// Transport policy: one connection is kept and reused across requests.
// Transport-level failures — dial errors, send errors, a peer that
// closes or resets before completing a response — are retried with
// exponential backoff on a fresh connection (requests are stateless
// reads, so re-sending is safe). Protocol-level failures — a malformed
// or truncated frame, an unexpected response type, a server-reported
// error — fail immediately: a corrupt stream cannot be resynchronized,
// and retrying would mask the corruption.
//
// Failure policy: a per-site circuit breaker (on by default, see
// WithBreaker) opens after a run of consecutive failures, after which
// every request fails immediately with ErrCircuitOpen — an in-memory
// check, no dial, no backoff. No live request is sent to a site whose
// breaker is open: a background health prober re-checks the site with
// an 8-byte version frame every cool-down, and its first answer closes
// the breaker. ErrCircuitOpen wraps attack.ErrBackendSkipped, so
// degraded-mode federated terminals report the site as skipped while
// the healthy backends keep answering.
//
// A RemoteStore is safe for concurrent use; requests are serialized on
// the connection, and a request waiting its turn gives up when its
// context ends.
type RemoteStore struct {
	addr    string
	network string

	attempts int
	// backoff is the first retry delay (50ms), doubled per attempt and
	// capped at maxBackoff (5s); see backoffFor.
	backoff     time.Duration
	maxBackoff  time.Duration
	dialTimeout time.Duration
	reqTimeout  time.Duration

	br *breaker // nil when disabled

	// connSem is the one-slot token that owns conn: a request holds it
	// for its whole exchange, and waits for it under its context.
	connSem chan struct{}
	conn    net.Conn

	probeMu sync.Mutex
	prober  chan struct{} // non-nil while the health prober runs
	closed  bool

	sent, recv atomic.Uint64
}

// Option configures a RemoteStore.
type Option func(*RemoteStore)

// WithAttempts sets how many times a retryable request is tried
// (default 3, minimum 1).
func WithAttempts(n int) Option {
	return func(r *RemoteStore) {
		if n >= 1 {
			r.attempts = n
		}
	}
}

// WithDialTimeout bounds each dial attempt (default 5s).
func WithDialTimeout(d time.Duration) Option {
	return func(r *RemoteStore) { r.dialTimeout = d }
}

// WithRequestTimeout bounds each request/response exchange (default
// 60s; 0 disables). Without it a wedged site — accepted connection,
// no response — would hang a federated query forever, the healthy
// backends' partials with it.
func WithRequestTimeout(d time.Duration) Option {
	return func(r *RemoteStore) { r.reqTimeout = d }
}

// WithBreaker tunes the per-site circuit breaker: threshold consecutive
// failures open it, and while it is open a background prober sends the
// site a version frame every cooldown, each bounded by cooldown, until
// one answers and closes it (default 5 failures, 1s cool-down; a
// non-positive cooldown means 1s). threshold <= 0 disables the breaker
// entirely — every request then pays the full dial/retry cost against
// a dead site, the pre-breaker behavior.
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(r *RemoteStore) {
		if threshold <= 0 {
			r.br = nil
			return
		}
		if cooldown <= 0 {
			cooldown = time.Second
		}
		r.br = newBreaker(threshold, cooldown)
	}
}

// WithHealthProbe does nothing: an open breaker is probed every
// cool-down (see WithBreaker). It is kept only because the e2ebench
// module still calls it.
func WithHealthProbe(time.Duration) Option {
	return func(*RemoteStore) {}
}

// Dial prepares a client for the site at addr — a host:port pair, or a
// unix socket path when addr contains a path separator. No connection
// is opened until the first request, so constructing clients for sites
// that are still starting up is fine.
func Dial(addr string, opts ...Option) *RemoteStore {
	r := &RemoteStore{
		addr:        addr,
		network:     netKind(addr),
		attempts:    3,
		backoff:     50 * time.Millisecond,
		maxBackoff:  5 * time.Second,
		dialTimeout: 5 * time.Second,
		reqTimeout:  60 * time.Second,
		br:          newBreaker(5, time.Second),
		connSem:     make(chan struct{}, 1),
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Addr returns the site address the client ships plans to.
func (r *RemoteStore) Addr() string { return r.addr }

// Close drops the cached connection and stops the background health
// prober; a later request re-dials. A breaker that is open at Close, or
// opens after it, stays open: only the prober closes it.
func (r *RemoteStore) Close() error {
	r.probeMu.Lock()
	r.closed = true
	if r.prober != nil {
		close(r.prober)
		r.prober = nil
	}
	r.probeMu.Unlock()
	r.connSem <- struct{}{}
	defer func() { <-r.connSem }()
	if r.conn == nil {
		return nil
	}
	err := r.conn.Close()
	r.conn = nil
	return err
}

// Breaker snapshots the site's circuit breaker; enabled is false when
// the breaker was disabled via WithBreaker(0, ...).
func (r *RemoteStore) Breaker() (status BreakerStatus, enabled bool) {
	if r.br == nil {
		return BreakerStatus{}, false
	}
	return r.br.status(), true
}

// WireBytes reports the cumulative payload-plus-header bytes this client
// has sent and received — what the O(index cells) tests and the
// federated benchmarks measure.
func (r *RemoteStore) WireBytes() (sent, received uint64) {
	return r.sent.Load(), r.recv.Load()
}

// countingConn tallies conn traffic into the client's wire counters.
type countingConn struct {
	net.Conn
	r *RemoteStore
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.r.recv.Add(uint64(n))
	return n, err
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.r.sent.Add(uint64(n))
	return n, err
}

// backoffFor returns the delay before retry attempt n (n >= 1): the
// doubling schedule backoff<<(n-1), capped at maxBackoff, with the top
// half of the delay randomized ("equal jitter"). The cap bounds the
// wait however many attempts are configured; the jitter decorrelates a
// fleet of identical clients retrying a restarted aggregator, which
// would otherwise thundering-herd on the same schedule. A non-positive
// initial backoff means no wait at all.
func (r *RemoteStore) backoffFor(attempt int) time.Duration {
	if r.backoff <= 0 {
		return 0
	}
	d := r.maxBackoff
	// The shift overflows past 62 doublings; any schedule that long is
	// already capped.
	if attempt-1 < 62 {
		if b := r.backoff << (attempt - 1); b > 0 && b < d {
			d = b
		}
	}
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int64N(int64(d-d/2)+1))
}

// roundTrip is every request's path: the breaker gate first (an open
// breaker rejects in memory, no dial, no backoff), then the wire
// exchange bounded by ctx, then the outcome feeds the breaker. A
// response larger than maxResp fails as a malformed frame.
func (r *RemoteStore) roundTrip(ctx context.Context, reqType byte, req []byte, wantResp byte, maxResp uint32) ([]byte, error) {
	if r.br != nil {
		if err := r.br.allow(); err != nil {
			return nil, fmt.Errorf("federation: %s: %w", r.addr, err)
		}
	}
	payload, err := r.do(ctx, reqType, req, wantResp, maxResp)
	r.record(err)
	return payload, err
}

// record classifies one request outcome for the breaker. A server that
// answered — even with an error frame — proves the site and path
// healthy; a cancelled caller context, or a request that gave up before
// reaching the site, proves nothing either way.
// Everything else (dial failures, timeouts, resets, corrupt frames) is
// a failure, and the transition to open starts the background health
// prober.
func (r *RemoteStore) record(err error) {
	if r.br == nil {
		return
	}
	var re remoteError
	switch {
	case err == nil, errors.As(err, &re):
		r.br.success()
	case errors.Is(err, context.Canceled), errors.Is(err, errNotSent):
	default:
		if r.br.failure() {
			r.ensureProber()
		}
	}
}

// ensureProber starts the background health prober unless it is
// already running or the client is closed. The prober re-checks the
// site with a version frame every cool-down and exits once one succeeds
// (closing the breaker — the site rejoined) or the client closes.
func (r *RemoteStore) ensureProber() {
	r.probeMu.Lock()
	defer r.probeMu.Unlock()
	if r.prober != nil || r.closed {
		return
	}
	stop := make(chan struct{})
	r.prober = stop
	go r.probeLoop(stop)
}

func (r *RemoteStore) probeLoop(stop chan struct{}) {
	tick := time.NewTicker(r.br.cooldown)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			// Bypass the breaker gate — probing an open breaker is the
			// point — but bound each probe so a blackholed site cannot
			// wedge the loop for the full request timeout.
			ctx, cancel := context.WithTimeout(context.Background(), r.br.cooldown)
			_, err := r.do(ctx, typeReqVersion, nil, typeRespVersion, respCap(1))
			cancel()
			if err == nil {
				// Free the slot and close the breaker under one lock, so
				// a failure that reopens the breaker afterwards always
				// finds the slot free and starts a new prober.
				r.probeMu.Lock()
				if r.prober == stop {
					r.prober = nil
				}
				r.br.success()
				r.probeMu.Unlock()
				return
			}
		}
	}
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// errNotSent marks a request whose context ended before its first
// attempt: while it waited for the connection, or before.
var errNotSent = errors.New("request not sent")

// do sends one request frame and reads its response, retrying transport
// failures per the policy above. The context bounds the whole call —
// the wait for the connection, dial, exchange, and retry sleeps — so a
// caller-supplied budget caps a request's worst case, not just each leg
// of it.
func (r *RemoteStore) do(ctx context.Context, reqType byte, req []byte, wantResp byte, maxResp uint32) ([]byte, error) {
	select {
	case r.connSem <- struct{}{}:
		defer func() { <-r.connSem }()
	case <-ctx.Done():
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("federation: %s: %w: %w", r.addr, errNotSent, err)
	}
	var lastErr error
	for attempt := 0; attempt < r.attempts; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, r.backoffFor(attempt)); err != nil {
				return nil, fmt.Errorf("federation: %s: %w (last error: %w)", r.addr, err, lastErr)
			}
		}
		if r.conn == nil {
			d := net.Dialer{Timeout: r.dialTimeout}
			conn, err := d.DialContext(ctx, r.network, r.addr)
			if err != nil {
				lastErr = err
				if !retryable(err) {
					return nil, fmt.Errorf("federation: %s: %w", r.addr, err)
				}
				continue
			}
			r.conn = countingConn{conn, r}
		}
		payload, err := r.exchange(ctx, req, reqType, wantResp, maxResp)
		if err == nil {
			return payload, nil
		}
		// The connection is in an unknown state after any failure.
		r.conn.Close()
		r.conn = nil
		if !retryable(err) {
			return nil, fmt.Errorf("federation: %s: %w", r.addr, err)
		}
		lastErr = err
	}
	return nil, fmt.Errorf("federation: %s: %d attempts failed: %w", r.addr, r.attempts, lastErr)
}

// exchange performs one request/response on the live connection,
// bounded by the request timeout and the context deadline, whichever
// is sooner (a deadline violation is a transport error: the connection
// is dropped and the request retried).
func (r *RemoteStore) exchange(ctx context.Context, req []byte, reqType, wantResp byte, maxResp uint32) ([]byte, error) {
	var deadline time.Time
	if r.reqTimeout > 0 {
		deadline = time.Now().Add(r.reqTimeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	if !deadline.IsZero() {
		if err := r.conn.SetDeadline(deadline); err != nil {
			return nil, err
		}
	}
	if err := writeFrame(r.conn, reqType, req); err != nil {
		return nil, err
	}
	typ, payload, err := readFrame(r.conn, maxResp)
	if err != nil {
		return nil, err
	}
	switch typ {
	case wantResp:
		return payload, nil
	case typeRespError:
		if len(payload) > maxErrPayload {
			payload = payload[:maxErrPayload]
		}
		return nil, remoteError(payload)
	default:
		return nil, errFrame("response type %#x, want %#x", typ, wantResp)
	}
}

// remoteError is a failure the server reported in an error frame.
type remoteError string

func (e remoteError) Error() string { return "remote: " + string(e) }

// retryable separates transport failures (retry on a fresh connection)
// from protocol failures and context expiry (fail fast; see the
// RemoteStore doc comment — a spent caller budget must surface, not
// burn more attempts).
func retryable(err error) bool {
	var fe frameError
	var re remoteError
	switch {
	case errors.As(err, &fe), errors.As(err, &re), errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return false
	}
	return true
}

var _ attack.Queryable = (*RemoteStore)(nil)

// PlanCountContext executes the plan's Count terminal at the site. Only
// the 20-byte plan and an 8-byte count cross the wire; ctx bounds the
// dial, the exchange, and any retry sleeps.
func (r *RemoteStore) PlanCountContext(ctx context.Context, p attack.Plan) (int, error) {
	c, err := r.counts(ctx, typeReqCount, p)
	if err != nil {
		return 0, err
	}
	return c[0], nil
}

// PlanCountByVectorContext executes the plan's CountByVector terminal at
// the site; the response is one fixed-size row of index cells.
func (r *RemoteStore) PlanCountByVectorContext(ctx context.Context, p attack.Plan) ([attack.NumVectors]int, error) {
	var out [attack.NumVectors]int
	c, err := r.counts(ctx, typeReqCountByVector, p)
	copy(out[:], c)
	return out, err
}

// PlanCountByDayContext executes the plan's CountByDay terminal at the
// site; the response is the WindowDays-cell daily index row.
func (r *RemoteStore) PlanCountByDayContext(ctx context.Context, p attack.Plan) ([]int, error) {
	return r.counts(ctx, typeReqCountByDay, p)
}

// counts executes one counting terminal at the site and decodes the
// fixed-size row of index cells it answers with.
func (r *RemoteStore) counts(ctx context.Context, reqType byte, p attack.Plan) ([]int, error) {
	t := countTerms[reqType]
	payload, err := r.roundTrip(ctx, reqType, p.AppendBinary(nil), t.resp, respCap(t.cells))
	if err != nil {
		return nil, err
	}
	if len(payload) != 8*t.cells {
		return nil, errFrame("response %#x payload is %d bytes, want %d", t.resp, len(payload), 8*t.cells)
	}
	out := make([]int, t.cells)
	for i := range out {
		out[i] = int(binary.LittleEndian.Uint64(payload[8*i:]))
	}
	return out, nil
}

// Version fetches the site store's mutation counter. Two equal versions
// bracket an ingest-free interval, so a consumer caching results
// derived from the site (the HTTP front end's plan-keyed response
// cache) can validate entries with an 8-byte exchange instead of
// re-executing plans.
func (r *RemoteStore) Version() (uint64, error) {
	return r.VersionContext(context.Background())
}

// VersionContext is Version bounded by ctx: a caller that gives up, or
// whose deadline passes, stops waiting on a stalled site.
func (r *RemoteStore) VersionContext(ctx context.Context) (uint64, error) {
	payload, err := r.roundTrip(ctx, typeReqVersion, nil, typeRespVersion, respCap(1))
	if err != nil {
		return 0, err
	}
	if len(payload) != 8 {
		return 0, errFrame("version payload is %d bytes, want 8", len(payload))
	}
	return binary.LittleEndian.Uint64(payload), nil
}

// PlanStoreContext fetches the plan's matching events from the site as
// a DOSEVT02 segment and serves a Store zero-copy from the received
// bytes. The returned closer is a no-op (the buffer is heap memory),
// but callers should still close it per the Queryable contract.
func (r *RemoteStore) PlanStoreContext(ctx context.Context, p attack.Plan) (*attack.Store, io.Closer, error) {
	payload, err := r.roundTrip(ctx, typeReqFetch, p.AppendBinary(nil), typeRespSegment, maxRespPayload)
	if err != nil {
		return nil, nil, err
	}
	st, err := attack.OpenSegment(payload)
	if err != nil {
		return nil, nil, fmt.Errorf("federation: %s: %w", r.addr, err)
	}
	return st, nopCloser{}, nil
}

// nopCloser is the closer for heap-backed segment buffers.
type nopCloser struct{}

func (nopCloser) Close() error { return nil }
