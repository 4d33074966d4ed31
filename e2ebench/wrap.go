package main

import (
	"context"
	"io"
	"net/http"

	"doscope/internal/attack"
	"doscope/internal/federation"
)

// The wrappers below time calls into a layer from outside it, for the
// traced run only. Each forwards every method the caller dispatches on —
// Version (in the signature httpapi's cache type-switches on) and the
// QueryableContext faces — so that wrapping changes no behavior: without
// Version the response cache would switch off, and without the context
// methods a remote site would lose the request deadline.

// tracedStore times the terminals of an in-process store.
type tracedStore struct {
	st *attack.Store
	t  *tracer
}

var (
	_ attack.QueryableContext = tracedStore{}
	_ attack.Queryable        = tracedStore{}
)

func (b tracedStore) Version() uint64 { return b.st.Version() }

func (b tracedStore) PlanCount(p attack.Plan) (int, error) {
	return b.PlanCountContext(context.Background(), p)
}

func (b tracedStore) PlanCountByVector(p attack.Plan) ([attack.NumVectors]int, error) {
	return b.PlanCountByVectorContext(context.Background(), p)
}

func (b tracedStore) PlanCountByDay(p attack.Plan) ([]int, error) {
	return b.PlanCountByDayContext(context.Background(), p)
}

func (b tracedStore) PlanStore(p attack.Plan) (*attack.Store, io.Closer, error) {
	return b.PlanStoreContext(context.Background(), p)
}

func (b tracedStore) PlanCountContext(ctx context.Context, p attack.Plan) (int, error) {
	_, sp := b.t.begin(ctx, "attack.exec.count")
	defer sp.end()
	return b.st.PlanCount(p)
}

func (b tracedStore) PlanCountByVectorContext(ctx context.Context, p attack.Plan) ([attack.NumVectors]int, error) {
	_, sp := b.t.begin(ctx, "attack.exec.count_by_vector")
	defer sp.end()
	return b.st.PlanCountByVector(p)
}

func (b tracedStore) PlanCountByDayContext(ctx context.Context, p attack.Plan) ([]int, error) {
	_, sp := b.t.begin(ctx, "attack.exec.count_by_day")
	defer sp.end()
	return b.st.PlanCountByDay(p)
}

func (b tracedStore) PlanStoreContext(ctx context.Context, p attack.Plan) (*attack.Store, io.Closer, error) {
	_, sp := b.t.begin(ctx, "attack.exec.plan_store")
	defer sp.end()
	return b.st.PlanStore(p)
}

// tracedRemote times the DOSFED01 round trips of one federation client.
type tracedRemote struct {
	r *federation.RemoteStore
	t *tracer
}

var (
	_ attack.QueryableContext = tracedRemote{}
	_ attack.Queryable        = tracedRemote{}
)

func (b tracedRemote) Version() (uint64, error) {
	_, sp := b.t.begin(context.Background(), "federation.version")
	defer sp.end()
	return b.r.Version()
}

func (b tracedRemote) PlanCount(p attack.Plan) (int, error) {
	return b.PlanCountContext(context.Background(), p)
}

func (b tracedRemote) PlanCountByVector(p attack.Plan) ([attack.NumVectors]int, error) {
	return b.PlanCountByVectorContext(context.Background(), p)
}

func (b tracedRemote) PlanCountByDay(p attack.Plan) ([]int, error) {
	return b.PlanCountByDayContext(context.Background(), p)
}

func (b tracedRemote) PlanStore(p attack.Plan) (*attack.Store, io.Closer, error) {
	return b.PlanStoreContext(context.Background(), p)
}

func (b tracedRemote) PlanCountContext(ctx context.Context, p attack.Plan) (int, error) {
	ctx, sp := b.t.begin(ctx, "federation.count")
	defer sp.end()
	return b.r.PlanCountContext(ctx, p)
}

func (b tracedRemote) PlanCountByVectorContext(ctx context.Context, p attack.Plan) ([attack.NumVectors]int, error) {
	ctx, sp := b.t.begin(ctx, "federation.count_by_vector")
	defer sp.end()
	return b.r.PlanCountByVectorContext(ctx, p)
}

func (b tracedRemote) PlanCountByDayContext(ctx context.Context, p attack.Plan) ([]int, error) {
	ctx, sp := b.t.begin(ctx, "federation.count_by_day")
	defer sp.end()
	return b.r.PlanCountByDayContext(ctx, p)
}

func (b tracedRemote) PlanStoreContext(ctx context.Context, p attack.Plan) (*attack.Store, io.Closer, error) {
	ctx, sp := b.t.begin(ctx, "federation.plan_store")
	defer sp.end()
	return b.r.PlanStoreContext(ctx, p)
}

// tracedHandler times httpapi's ServeHTTP and hands the request's span
// to the backends through the request context.
type tracedHandler struct {
	h http.Handler
	t *tracer
}

func (th tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ctx, sp := th.t.begin(r.Context(), "httpapi.serve")
	th.h.ServeHTTP(w, r.WithContext(ctx))
	sp.end()
}

// localBackends returns the stores as httpapi backends, wrapped when t
// is non-nil.
func localBackends(t *tracer, stores ...*attack.Store) []attack.Queryable {
	out := make([]attack.Queryable, len(stores))
	for i, st := range stores {
		if t != nil {
			out[i] = tracedStore{st, t}
		} else {
			out[i] = st
		}
	}
	return out
}

// remoteBackends returns the clients as httpapi backends, wrapped when t
// is non-nil.
func remoteBackends(t *tracer, remotes ...*federation.RemoteStore) []attack.Queryable {
	out := make([]attack.Queryable, len(remotes))
	for i, r := range remotes {
		if t != nil {
			out[i] = tracedRemote{r, t}
		} else {
			out[i] = r
		}
	}
	return out
}

// handler returns h, wrapped when t is non-nil.
func handler(t *tracer, h http.Handler) http.Handler {
	if t != nil {
		return tracedHandler{h, t}
	}
	return h
}
