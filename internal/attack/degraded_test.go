package attack

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// faultyBackend wraps a healthy local store and fails (or reports
// itself skipped) on demand — the attack-layer stand-in for a dead or
// breaker-open federation site.
type faultyBackend struct {
	st      *Store
	err     error         // non-nil: every terminal fails with it
	delay   time.Duration // answer only after this long
	ctxless bool          // hide the context-aware face
}

func (f *faultyBackend) exec() error {
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	return f.err
}

func (f *faultyBackend) PlanCount(p Plan) (int, error) {
	if err := f.exec(); err != nil {
		return 0, err
	}
	return f.st.PlanCount(p)
}

func (f *faultyBackend) PlanCountByVector(p Plan) ([NumVectors]int, error) {
	if err := f.exec(); err != nil {
		return [NumVectors]int{}, err
	}
	return f.st.PlanCountByVector(p)
}

func (f *faultyBackend) PlanCountByDay(p Plan) ([]int, error) {
	if err := f.exec(); err != nil {
		return nil, err
	}
	return f.st.PlanCountByDay(p)
}

func (f *faultyBackend) PlanStore(p Plan) (*Store, io.Closer, error) {
	if err := f.exec(); err != nil {
		return nil, nil, err
	}
	return f.st.PlanStore(p)
}

// ctxBackend is a context-aware faultyBackend: a delayed answer aborts
// as soon as the context does, the way a wire client with propagated
// deadlines behaves.
type ctxBackend struct{ faultyBackend }

func (f *ctxBackend) execCtx(ctx context.Context) error {
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return f.err
}

func (f *ctxBackend) PlanCountContext(ctx context.Context, p Plan) (int, error) {
	if err := f.execCtx(ctx); err != nil {
		return 0, err
	}
	return f.st.PlanCount(p)
}

func (f *ctxBackend) PlanCountByVectorContext(ctx context.Context, p Plan) ([NumVectors]int, error) {
	if err := f.execCtx(ctx); err != nil {
		return [NumVectors]int{}, err
	}
	return f.st.PlanCountByVector(p)
}

func (f *ctxBackend) PlanCountByDayContext(ctx context.Context, p Plan) ([]int, error) {
	if err := f.execCtx(ctx); err != nil {
		return nil, err
	}
	return f.st.PlanCountByDay(p)
}

func (f *ctxBackend) PlanStoreContext(ctx context.Context, p Plan) (*Store, io.Closer, error) {
	if err := f.execCtx(ctx); err != nil {
		return nil, nil, err
	}
	return f.st.PlanStore(p)
}

var _ QueryableContext = (*ctxBackend)(nil)

// degradedFixture: three backends over a deterministic event split,
// with the healthy-subset oracle (backends 0 and 2) precomputed.
func degradedFixture(t *testing.T) (healthy0, healthy2 *Store, oracle *Store, all []Event) {
	t.Helper()
	rng := rand.New(rand.NewSource(97))
	all = randomEvents(rng, 900)
	healthy0 = NewStore(all[:300])
	healthy2 = NewStore(all[600:])
	oracleEvents := append(append([]Event(nil), all[:300]...), all[600:]...)
	oracle = NewStore(oracleEvents)
	return
}

func TestPartialTerminalsDegrade(t *testing.T) {
	h0, h2, oracle, all := degradedFixture(t)
	boom := errors.New("site unreachable")
	dead := &faultyBackend{st: NewStore(all[300:600]), err: boom}

	fed := QueryBackends(h0, dead, h2)

	n, statuses, err := fed.Count()
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle.Query().Count(); n != want {
		t.Errorf("Count = %d, want healthy-subset oracle %d", n, want)
	}
	wantStates := []BackendState{BackendOK, BackendFailed, BackendOK}
	for i, s := range statuses {
		if s.State != wantStates[i] || s.Backend != i {
			t.Errorf("status[%d] = {%d %s %v}, want state %s", i, s.Backend, s.State, s.Err, wantStates[i])
		}
	}
	if !errors.Is(statuses[1].Err, boom) {
		t.Errorf("failed status carries %v, want the backend error", statuses[1].Err)
	}
	if err := StatusErr(statuses); !errors.Is(err, boom) {
		t.Errorf("StatusErr = %v, want the failed backend's error", err)
	}

	vec, statuses, err := fed.CountByVector()
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle.Query().CountByVector(); vec != want {
		t.Errorf("CountByVector = %v, want %v", vec, want)
	}
	if statuses[1].State != BackendFailed {
		t.Errorf("CountByVector status[1] = %s", statuses[1].State)
	}

	days, _, err := fed.CountByDay()
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle.Query().CountByDay(); !reflect.DeepEqual(days, want) {
		t.Error("CountByDay mismatch vs healthy-subset oracle")
	}

	it, statuses, closer, err := fed.Iter()
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for range it {
		got++
	}
	closer.Close()
	if want := oracle.Query().Count(); got != want {
		t.Errorf("Iter yielded %d events, want %d", got, want)
	}
	if statuses[1].State != BackendFailed {
		t.Errorf("Iter status[1] = %s", statuses[1].State)
	}

	it, _, closer, err = fed.IterByStart()
	if err != nil {
		t.Fatal(err)
	}
	var starts []int64
	for e := range it {
		starts = append(starts, e.Start)
	}
	closer.Close()
	var wantStarts []int64
	for e := range oracle.Query().IterByStart() {
		wantStarts = append(wantStarts, e.Start)
	}
	if len(starts) != len(wantStarts) {
		t.Errorf("IterByStart yielded %d events, want %d", len(starts), len(wantStarts))
	}
}

func TestPartialTerminalsHealthy(t *testing.T) {
	h0, h2, oracle, _ := degradedFixture(t)
	fed := QueryBackends(h0, h2)
	n, statuses, err := fed.Count()
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle.Query().Count(); n != want {
		t.Errorf("Count = %d, want %d", n, want)
	}
	if err := StatusErr(statuses); err != nil {
		t.Errorf("StatusErr = %v over healthy backends", err)
	}
}

func TestPartialSkippedClassification(t *testing.T) {
	h0, _, _, all := degradedFixture(t)
	open := &faultyBackend{st: NewStore(all[300:600]),
		err: fmt.Errorf("circuit open: %w", ErrBackendSkipped)}
	n, statuses, err := QueryBackends(h0, open).Count()
	if err != nil {
		t.Fatal(err)
	}
	if want := h0.Query().Count(); n != want {
		t.Errorf("Count = %d, want %d", n, want)
	}
	if statuses[1].State != BackendSkipped {
		t.Errorf("breaker-open backend classified %s, want skipped", statuses[1].State)
	}
}

func TestPartialAllBackendsFailed(t *testing.T) {
	boom := errors.New("down")
	dead := &faultyBackend{err: boom}
	dead2 := &faultyBackend{err: boom}
	_, statuses, err := QueryBackends(dead, dead2).Count()
	if err == nil {
		t.Fatal("Count over all-dead backends returned no error")
	}
	if !errors.Is(err, boom) {
		t.Errorf("all-failed error %v does not wrap the backend errors", err)
	}
	if len(statuses) != 2 || statuses[0].State != BackendFailed {
		t.Errorf("statuses = %v", statuses)
	}
	if _, _, _, err := QueryBackends(dead, dead2).Iter(); err == nil {
		t.Fatal("Iter over all-dead backends returned no error")
	}
}

// TestContextBoundsFanOut: a context deadline bounds the whole fan-out.
// A context-aware backend aborts promptly; a context-less one is
// abandoned and its slot reports the deadline error — either way the
// healthy backend's partial still comes back.
func TestContextBoundsFanOut(t *testing.T) {
	h0, _, _, all := degradedFixture(t)
	slowStore := NewStore(all[300:600])
	for _, tc := range []struct {
		name string
		slow Queryable
	}{
		{"context-aware", &ctxBackend{faultyBackend{st: slowStore, delay: 5 * time.Second}}},
		// The abandoned call fails when it finally returns, so it never
		// runs a query after this test has ended: later tests rewrite
		// package state (execOrder) that a late query would read.
		{"abandoned", &faultyBackend{st: slowStore, delay: 5 * time.Second, ctxless: true, err: errors.New("abandoned")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			start := time.Now()
			n, statuses, err := QueryBackends(h0, tc.slow).Context(ctx).Count()
			if err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d > 2*time.Second {
				t.Fatalf("fan-out took %v, want ~the 50ms context budget", d)
			}
			if want := h0.Query().Count(); n != want {
				t.Errorf("Count = %d, want the healthy backend's %d", n, want)
			}
			if statuses[1].State != BackendFailed || !errors.Is(statuses[1].Err, context.DeadlineExceeded) {
				t.Errorf("slow backend status = {%s %v}, want failed with deadline error", statuses[1].State, statuses[1].Err)
			}
		})
	}
}

// TestContextBoundsStrict: a strict caller observes the deadline too —
// StatusErr carries the context error instead of the query hanging on
// the slow leg.
func TestContextBoundsStrict(t *testing.T) {
	h0, _, _, all := degradedFixture(t)
	slow := &ctxBackend{faultyBackend{st: NewStore(all[300:600]), delay: 5 * time.Second}}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, statuses, _ := QueryBackends(h0, slow).Context(ctx).Count()
	err := StatusErr(statuses)
	if err == nil {
		t.Fatal("strict Count under an expired deadline succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not wrap the deadline error", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("strict fan-out took %v, want ~the 50ms budget", d)
	}
}

// strict reads a federated terminal the all-or-nothing way: any backend
// that did not answer fails it.
func strict[T any](v T, statuses []BackendStatus, _ error) (T, error) {
	return v, StatusErr(statuses)
}

// TestStatusErrCoversTerminalErr: StatusErr is non-nil whenever the
// terminal failed, so strict callers may use it in place of the
// terminal's own error; with every backend answering both are nil. The
// closer is never nil, so callers may defer it before checking errors.
func TestStatusErrCoversTerminalErr(t *testing.T) {
	h0, _, _, _ := degradedFixture(t)
	boom := errors.New("down")
	dead := &faultyBackend{err: boom}
	for _, tc := range []struct {
		name       string
		backends   []Queryable
		wantStores int
		termErr    bool
		strictErr  bool
	}{
		{"none", nil, 0, false, false},
		{"healthy", []Queryable{h0, h0}, 2, false, false},
		{"one-dead", []Queryable{h0, dead}, 1, false, true},
		{"all-dead", []Queryable{dead, dead}, 0, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stores, statuses, closer, err := QueryBackends(tc.backends...).Stores()
			if closer == nil {
				t.Fatal("Stores returned a nil closer")
			}
			if err := closer.Close(); err != nil {
				t.Fatal(err)
			}
			if (err != nil) != tc.termErr || len(stores) != tc.wantStores {
				t.Errorf("Stores = (%d stores, %v), want (%d, error %v)", len(stores), err, tc.wantStores, tc.termErr)
			}
			serr := StatusErr(statuses)
			if (serr != nil) != tc.strictErr || (serr != nil && !errors.Is(serr, boom)) {
				t.Errorf("StatusErr = %v, want error %v wrapping the backend error", serr, tc.strictErr)
			}
		})
	}
}
