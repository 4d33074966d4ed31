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

	n, statuses, err := fed.CountPartial()
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle.Query().Count(); n != want {
		t.Errorf("CountPartial = %d, want healthy-subset oracle %d", n, want)
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
	if !Degraded(statuses) {
		t.Error("Degraded = false with a failed backend")
	}

	vec, statuses, err := fed.CountByVectorPartial()
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle.Query().CountByVector(); vec != want {
		t.Errorf("CountByVectorPartial = %v, want %v", vec, want)
	}
	if statuses[1].State != BackendFailed {
		t.Errorf("CountByVectorPartial status[1] = %s", statuses[1].State)
	}

	days, _, err := fed.CountByDayPartial()
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle.Query().CountByDay(); !reflect.DeepEqual(days, want) {
		t.Error("CountByDayPartial mismatch vs healthy-subset oracle")
	}

	it, statuses, closer, err := fed.IterPartial()
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for range it {
		got++
	}
	closer.Close()
	if want := oracle.Query().Count(); got != want {
		t.Errorf("IterPartial yielded %d events, want %d", got, want)
	}
	if statuses[1].State != BackendFailed {
		t.Errorf("IterPartial status[1] = %s", statuses[1].State)
	}

	it, _, closer, err = fed.IterByStartPartial()
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
		t.Errorf("IterByStartPartial yielded %d events, want %d", len(starts), len(wantStarts))
	}
}

func TestPartialTerminalsHealthy(t *testing.T) {
	h0, h2, oracle, _ := degradedFixture(t)
	fed := QueryBackends(h0, h2)
	n, statuses, err := fed.CountPartial()
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle.Query().Count(); n != want {
		t.Errorf("CountPartial = %d, want %d", n, want)
	}
	if Degraded(statuses) {
		t.Errorf("Degraded = true over healthy backends: %v", statuses)
	}
	// Healthy partial results match the strict terminal exactly.
	strict, err := fed.Count()
	if err != nil || strict != n {
		t.Errorf("strict Count = (%d, %v), want (%d, nil)", strict, err, n)
	}
}

func TestPartialSkippedClassification(t *testing.T) {
	h0, _, _, all := degradedFixture(t)
	open := &faultyBackend{st: NewStore(all[300:600]),
		err: fmt.Errorf("circuit open: %w", ErrBackendSkipped)}
	n, statuses, err := QueryBackends(h0, open).CountPartial()
	if err != nil {
		t.Fatal(err)
	}
	if want := h0.Query().Count(); n != want {
		t.Errorf("CountPartial = %d, want %d", n, want)
	}
	if statuses[1].State != BackendSkipped {
		t.Errorf("breaker-open backend classified %s, want skipped", statuses[1].State)
	}
}

func TestPartialAllBackendsFailed(t *testing.T) {
	boom := errors.New("down")
	dead := &faultyBackend{err: boom}
	dead2 := &faultyBackend{err: boom}
	_, statuses, err := QueryBackends(dead, dead2).CountPartial()
	if err == nil {
		t.Fatal("CountPartial over all-dead backends returned no error")
	}
	if !errors.Is(err, boom) {
		t.Errorf("all-failed error %v does not wrap the backend errors", err)
	}
	if len(statuses) != 2 || statuses[0].State != BackendFailed {
		t.Errorf("statuses = %v", statuses)
	}
	if _, _, _, err := QueryBackends(dead, dead2).IterPartial(); err == nil {
		t.Fatal("IterPartial over all-dead backends returned no error")
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
			n, statuses, err := QueryBackends(h0, tc.slow).Context(ctx).CountPartial()
			if err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d > 2*time.Second {
				t.Fatalf("fan-out took %v, want ~the 50ms context budget", d)
			}
			if want := h0.Query().Count(); n != want {
				t.Errorf("CountPartial = %d, want the healthy backend's %d", n, want)
			}
			if statuses[1].State != BackendFailed || !errors.Is(statuses[1].Err, context.DeadlineExceeded) {
				t.Errorf("slow backend status = {%s %v}, want failed with deadline error", statuses[1].State, statuses[1].Err)
			}
		})
	}
}

// TestContextBoundsStrict: the strict terminals observe the deadline
// too — the query fails with the context error instead of hanging on
// the slow leg.
func TestContextBoundsStrict(t *testing.T) {
	h0, _, _, all := degradedFixture(t)
	slow := &ctxBackend{faultyBackend{st: NewStore(all[300:600]), delay: 5 * time.Second}}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := QueryBackends(h0, slow).Context(ctx).Count()
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
