package attack

import (
	"context"
	"errors"
	"fmt"
	"io"
)

// ErrBackendSkipped marks a backend error that means the backend was
// never tried at all — the wire client refused the request up front
// (federation's circuit breaker wraps this when a site's breaker is
// open). Federated terminals classify such backends as
// BackendSkipped rather than BackendFailed, so a consumer can tell "the
// site is known-dead and cost nothing" from "the site was tried and
// broke mid-request".
var ErrBackendSkipped = errors.New("backend skipped")

// BackendState classifies one backend's outcome in a federated
// terminal.
type BackendState uint8

const (
	// BackendOK: the backend answered and its partial is merged into
	// the result.
	BackendOK BackendState = iota
	// BackendFailed: the backend was tried and errored (or outlived the
	// query's context budget); its partial is excluded.
	BackendFailed
	// BackendSkipped: the backend was not tried — its error wraps
	// ErrBackendSkipped, e.g. an open circuit breaker.
	BackendSkipped
)

// String returns the JSON-friendly state name.
func (s BackendState) String() string {
	switch s {
	case BackendOK:
		return "ok"
	case BackendFailed:
		return "failed"
	case BackendSkipped:
		return "skipped"
	}
	return fmt.Sprintf("BackendState(%d)", uint8(s))
}

// BackendStatus is one backend's outcome in a federated terminal, in
// backend argument order (Backend is the index into the FedQuery's
// backend set).
type BackendStatus struct {
	Backend int
	State   BackendState
	Err     error // nil when State is BackendOK
}

// StatusErr joins, in backend order, the errors of every backend that
// did not answer: nil when the merged result is the whole federated
// answer. It is non-nil whenever a terminal failed, so a caller that
// would rather fail than undercount uses it in place of the terminal's
// error.
func StatusErr(statuses []BackendStatus) error {
	errs := make([]error, len(statuses))
	for i, s := range statuses {
		errs[i] = s.Err
	}
	return errors.Join(errs...)
}

// QueryableContext is the optional context-aware face of Queryable.
// Backends whose requests cross a process boundary implement it so a
// caller-supplied deadline bounds the whole request — connection
// deadlines, retry sleeps and all — not just the fan-out wait
// (federation.RemoteStore does). Local stores answer in-process and
// need no cancellation; the terminals fall back to the plain methods
// for backends that do not implement this.
type QueryableContext interface {
	PlanCountContext(ctx context.Context, p Plan) (int, error)
	PlanCountByVectorContext(ctx context.Context, p Plan) ([NumVectors]int, error)
	PlanCountByDayContext(ctx context.Context, p Plan) ([]int, error)
	PlanStoreContext(ctx context.Context, p Plan) (*Store, io.Closer, error)
}

// Context bounds the whole federated fan-out by ctx: every backend leg
// observes its deadline (context-aware backends abort in-flight wire
// requests and retry sleeps; others are abandoned when the deadline
// passes, their slot reported failed with the context error). The
// default is context.Background() — no bound beyond each backend's own
// transport timeouts.
func (f *FedQuery) Context(ctx context.Context) *FedQuery {
	f.ctx = ctx
	return f
}

// statusFor classifies one backend outcome.
func statusFor(i int, err error) BackendStatus {
	switch {
	case err == nil:
		return BackendStatus{Backend: i}
	case errors.Is(err, ErrBackendSkipped):
		return BackendStatus{Backend: i, State: BackendSkipped, Err: err}
	default:
		return BackendStatus{Backend: i, State: BackendFailed, Err: err}
	}
}

// fanOutStatus executes exec against every backend concurrently and
// returns the partials and per-backend statuses in backend argument
// order. It never fails as a whole: each backend's outcome lands in its
// own status slot.
//
// When the query's context expires, backends that have not answered are
// abandoned: their slot reports BackendFailed with the context error,
// and their late result (still being produced by a leaked goroutine) is
// handed to discard — Stores uses that to close the closer of a partial
// that arrived after the budget. Results travel over per-backend
// buffered channels, never shared slices, so an abandoned goroutine's
// late write cannot race the caller.
func fanOutStatus[T any](f *FedQuery, exec func(ctx context.Context, b Queryable) (T, error), discard func(T)) ([]T, []BackendStatus) {
	ctx := f.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	type result struct {
		v   T
		err error
	}
	chans := make([]chan result, len(f.backends))
	for i, b := range f.backends {
		chans[i] = make(chan result, 1)
		go func(ch chan result, b Queryable) {
			v, err := exec(ctx, b)
			ch <- result{v, err}
		}(chans[i], b)
	}
	partials := make([]T, len(f.backends))
	statuses := make([]BackendStatus, len(f.backends))
	expired := false
	for i := range chans {
		if !expired {
			select {
			case r := <-chans[i]:
				partials[i], statuses[i] = r.v, statusFor(i, r.err)
				continue
			case <-ctx.Done():
				expired = true
			}
		}
		// Past the deadline: drain without waiting; a backend that has
		// not answered is abandoned and its slot fails with ctx.Err().
		select {
		case r := <-chans[i]:
			partials[i], statuses[i] = r.v, statusFor(i, r.err)
		default:
			statuses[i] = BackendStatus{Backend: i, State: BackendFailed, Err: ctx.Err()}
			go func(ch chan result) {
				if r := <-ch; r.err == nil && discard != nil {
					discard(r.v)
				}
			}(chans[i])
		}
	}
	return partials, statuses
}

// A terminal is one federated terminal, defined once: its call on one
// backend (plain, or through the context-aware face when the backend
// has one), the merge of the answering backends' partials in backend
// argument order, and — for partials that hold resources — the release
// of a partial that arrives after the query's deadline.
type terminal[P, R any] struct {
	plain   func(Queryable, Plan) (P, error)
	withCtx func(QueryableContext, context.Context, Plan) (P, error)
	merge   func([]P) R
	discard func(P)
}

// run executes t against every backend and merges the partials of the
// backends that answered. It fails only when not one backend answered.
func run[P, R any](f *FedQuery, t terminal[P, R]) (R, []BackendStatus, error) {
	partials, statuses := fanOutStatus(f, func(ctx context.Context, b Queryable) (P, error) {
		if qc, ok := b.(QueryableContext); ok {
			return t.withCtx(qc, ctx, f.plan)
		}
		return t.plain(b, f.plan)
	}, t.discard)
	ok := partials[:0]
	for i, p := range partials {
		if statuses[i].State == BackendOK {
			ok = append(ok, p)
		}
	}
	if len(ok) == 0 && len(statuses) > 0 {
		var zero R
		return zero, statuses, fmt.Errorf("federated query: all %d backends failed: %w", len(statuses), StatusErr(statuses))
	}
	return t.merge(ok), statuses, nil
}

var (
	countTerm = terminal[int, int]{
		plain:   Queryable.PlanCount,
		withCtx: QueryableContext.PlanCountContext,
		merge: func(ps []int) (n int) {
			for _, p := range ps {
				n += p
			}
			return n
		},
	}
	vectorTerm = terminal[[NumVectors]int, [NumVectors]int]{
		plain:   Queryable.PlanCountByVector,
		withCtx: QueryableContext.PlanCountByVectorContext,
		merge: func(ps [][NumVectors]int) (out [NumVectors]int) {
			for _, p := range ps {
				for v, n := range p {
					out[v] += n
				}
			}
			return out
		},
	}
	dayTerm = terminal[[]int, []int]{
		plain:   Queryable.PlanCountByDay,
		withCtx: QueryableContext.PlanCountByDayContext,
		merge: func(ps [][]int) []int {
			out := make([]int, WindowDays)
			for _, p := range ps {
				for d, n := range p {
					out[d] += n
				}
			}
			return out
		},
	}
	storeTerm = terminal[storePart, storeSet]{
		plain: func(b Queryable, p Plan) (storePart, error) {
			st, c, err := b.PlanStore(p)
			return storePart{st, c}, err
		},
		withCtx: func(b QueryableContext, ctx context.Context, p Plan) (storePart, error) {
			st, c, err := b.PlanStoreContext(ctx, p)
			return storePart{st, c}, err
		},
		merge: func(ps []storePart) (set storeSet) {
			for _, p := range ps {
				if p.st != nil {
					set.stores = append(set.stores, p.st)
				}
				if p.c != nil {
					set.closers = append(set.closers, p.c)
				}
			}
			return set
		},
		// A partial that arrives after the deadline is never iterated.
		discard: func(p storePart) {
			if p.c != nil {
				p.c.Close()
			}
		},
	}
)

// storePart carries one backend's PlanStore result through the fan-out.
type storePart struct {
	st *Store
	c  io.Closer
}

// storeSet is the merged Stores result: the answering backends' stores
// and the closers that release them.
type storeSet struct {
	stores  []*Store
	closers multiCloser
}
