package attack

import (
	"context"
	"errors"
	"io"
	"iter"

	"doscope/internal/netx"
)

// Queryable is the narrow backend contract federated query plans execute
// against: a local *Store satisfies it directly, and
// federation.RemoteStore satisfies it by shipping the plan to a sensor
// site over the DOSFED01 protocol. Counting terminals return index
// partials (no events cross the backend boundary); PlanStore returns the
// matching events as an ordinary store, which for remote backends is a
// DOSEVT02 segment opened zero-copy from the received bytes.
type Queryable interface {
	// PlanCount executes the plan's Count terminal.
	PlanCount(p Plan) (int, error)
	// PlanCountByVector executes the plan's CountByVector terminal.
	PlanCountByVector(p Plan) ([NumVectors]int, error)
	// PlanCountByDay executes the plan's CountByDay terminal (length
	// WindowDays).
	PlanCountByDay(p Plan) ([]int, error)
	// PlanStore materializes the plan's matching events as a queryable
	// Store. The closer releases any backing mapping or buffer and must
	// be closed only once the store is no longer in use. Backends may
	// return a superset of the plan's matches (a local store returns
	// itself unfiltered); callers re-apply the plan when iterating.
	PlanStore(p Plan) (*Store, io.Closer, error)
}

// Local *Store backends execute plans in process and never fail.
var _ Queryable = (*Store)(nil)

// PlanCount executes the plan's Count terminal against this store.
func (s *Store) PlanCount(p Plan) (int, error) { return p.Query(s).Count(), nil }

// PlanCountByVector executes the plan's CountByVector terminal against
// this store.
func (s *Store) PlanCountByVector(p Plan) ([NumVectors]int, error) {
	return p.Query(s).CountByVector(), nil
}

// PlanCountByDay executes the plan's CountByDay terminal against this
// store.
func (s *Store) PlanCountByDay(p Plan) ([]int, error) {
	return p.Query(s).CountByDay(), nil
}

// PlanStore returns the store itself: local backends need not
// materialize a filtered copy, since federated iteration re-applies the
// plan's filters.
func (s *Store) PlanStore(Plan) (*Store, io.Closer, error) { return s, nopCloser, nil }

// Collect materializes the matching events into a fresh, independent
// store: every field (including the port lists, which are copied into
// the new store's arenas) is detached from the source stores. This is
// what a federation site ships for iteration terminals — the matching
// subset of its store, re-encoded as a DOSEVT02 segment.
func (q *Query) Collect() *Store {
	// Accumulate, then build with one batch: the intermediate events may
	// alias source arenas (stable for the life of the source stores),
	// and AddBatch copies the ports out when it builds the new arenas.
	var evs []Event
	for e := range q.Iter() {
		evs = append(evs, *e)
	}
	return NewStore(evs)
}

// FedQuery is a Query-shaped plan over a mix of Queryable backends —
// local stores and federation.RemoteStore sites in any combination. The
// builder methods mirror Query's; terminals fan the compiled Plan out to
// every backend concurrently and merge the partials in backend argument
// order (the same deterministic merge discipline the executor uses for
// its shard partials), so results are independent of scheduling.
//
// Unlike Query, a FedQuery is reusable: terminals do not consume it, and
// remote backends hold no per-query state.
//
// Every terminal degrades rather than failing: it merges whatever the
// answering backends returned and reports a per-backend BackendStatus
// vector alongside, failing only when no backend answered at all — the
// shape a serving layer needs to keep answering with the healthy subset
// while a site is down. A caller that would rather fail than undercount
// checks StatusErr(statuses), which is non-nil whenever any backend did
// not answer. Context bounds the whole fan-out by a caller-supplied
// deadline.
type FedQuery struct {
	backends []Queryable
	plan     Plan
	ctx      context.Context
}

// QueryBackends starts a federated query over the given backends.
func QueryBackends(backends ...Queryable) *FedQuery {
	return &FedQuery{backends: backends, plan: PlanAll()}
}

// QueryPlan starts a federated query from an already-compiled plan.
func QueryPlan(p Plan, backends ...Queryable) *FedQuery {
	return &FedQuery{backends: backends, plan: p}
}

// Source keeps only events observed by the given sensor. It panics on a
// source outside the enum.
func (f *FedQuery) Source(src Source) *FedQuery { f.plan.setSource(src); return f }

// Vectors keeps only events with one of the given attack vectors. It
// panics on a vector the plan's 32-bit mask cannot represent.
func (f *FedQuery) Vectors(vs ...Vector) *FedQuery { f.plan.addVectors(vs...); return f }

// Days keeps only events whose start day index lies in [lo, hi]
// (inclusive, saturated to the int32 day domain).
func (f *FedQuery) Days(lo, hi int) *FedQuery { f.plan.setDays(lo, hi); return f }

// Target keeps only events aimed at exactly this address.
func (f *FedQuery) Target(a netx.Addr) *FedQuery { return f.TargetPrefix(a, 32) }

// TargetPrefix keeps only events whose target falls inside a/bits. It
// panics on a prefix length outside [0, 32].
func (f *FedQuery) TargetPrefix(a netx.Addr, bits int) *FedQuery { f.plan.setPrefix(a, bits); return f }

// Plan returns the compiled plan the terminals ship to each backend.
func (f *FedQuery) Plan() Plan { return f.plan }

// Count returns the number of matching events across the answering
// backends. Only count partials cross backend boundaries, never events.
func (f *FedQuery) Count() (int, []BackendStatus, error) { return run(f, countTerm) }

// CountByVector returns matching event counts per attack vector across
// the answering backends, merged element-wise in backend order.
func (f *FedQuery) CountByVector() ([NumVectors]int, []BackendStatus, error) {
	return run(f, vectorTerm)
}

// CountByDay returns matching in-window event counts per start day
// (length WindowDays) across the answering backends, merged element-wise
// in backend order.
func (f *FedQuery) CountByDay() ([]int, []BackendStatus, error) { return run(f, dayTerm) }

// multiCloser closes a set of per-backend closers, joining errors.
type multiCloser []io.Closer

func (m multiCloser) Close() error {
	var errs []error
	for _, c := range m {
		errs = append(errs, c.Close())
	}
	return errors.Join(errs...)
}

// Stores fetches each answering backend's matching events as a store
// partial, in backend argument order. Remote partials are DOSEVT02
// segments opened zero-copy from the received bytes; local backends
// contribute their store as-is. The closer is never nil, even with an
// error: it releases every partial's backing memory and must outlive
// the stores and any Event views derived from them.
func (f *FedQuery) Stores() ([]*Store, []BackendStatus, io.Closer, error) {
	set, statuses, err := run(f, storeTerm)
	return set.stores, statuses, set.closers, err
}

// Iter yields matching events backend by backend, each partial in
// (Start, Target) order — the federated counterpart of Query.Iter, with
// the same per-iteration scratch *Event contract. The closer (never
// nil) releases the fetched partials; close it only after iteration.
func (f *FedQuery) Iter() (iter.Seq[*Event], []BackendStatus, io.Closer, error) {
	stores, statuses, c, err := f.Stores()
	if err != nil {
		return nil, statuses, c, err
	}
	return f.plan.Query(stores...).Iter(), statuses, c, nil
}

// IterByStart yields matching events from the answering backends merged
// by start time, the federated counterpart of Query.IterByStart.
func (f *FedQuery) IterByStart() (iter.Seq[*Event], []BackendStatus, io.Closer, error) {
	stores, statuses, c, err := f.Stores()
	if err != nil {
		return nil, statuses, c, err
	}
	return f.plan.Query(stores...).IterByStart(), statuses, c, nil
}

// Events materializes the matching events (independent copies, ports
// included) in federated Iter order.
func (f *FedQuery) Events() ([]Event, []BackendStatus, error) {
	it, statuses, c, err := f.Iter()
	defer c.Close()
	if err != nil {
		return nil, statuses, err
	}
	var out []Event
	for e := range it {
		ev := *e
		ev.Ports = append([]uint16(nil), e.Ports...)
		out = append(out, ev)
	}
	return out, statuses, nil
}
