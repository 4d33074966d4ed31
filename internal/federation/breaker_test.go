package federation

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"doscope/internal/attack"
	"doscope/internal/faultnet"
)

// TestBreakerStateMachine walks the closed → open → half-open →
// closed/reopen transitions on an injected clock, so the cool-down
// edges are exact instead of sleep-raced.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(3, time.Minute)
	b.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if err := b.allow(); err != nil {
			t.Fatalf("closed breaker rejected request %d: %v", i, err)
		}
		if b.failure() {
			t.Fatalf("breaker open after %d failures, threshold 3", i+1)
		}
	}
	if st := b.status(); st.State != BreakerClosed || st.Failures != 2 {
		t.Fatalf("status = %+v, want closed with 2 failures", st)
	}
	if !b.failure() {
		t.Fatal("breaker still closed at the failure threshold")
	}
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker admitted a request: %v", err)
	}
	if !errors.Is(b.allow(), attack.ErrBackendSkipped) {
		t.Fatal("ErrCircuitOpen does not wrap attack.ErrBackendSkipped")
	}

	// One tick short of the cool-down: still open.
	now = now.Add(time.Minute - time.Nanosecond)
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("breaker half-opened before the cool-down elapsed")
	}
	// Cool-down elapsed: exactly one probe admitted, concurrent
	// requests keep bouncing until it settles.
	now = now.Add(time.Nanosecond)
	if err := b.allow(); err != nil {
		t.Fatalf("cooled-down breaker rejected the probe: %v", err)
	}
	if st := b.status(); st.State != BreakerHalfOpen {
		t.Fatalf("state after admitting probe = %s, want half-open", st.State)
	}
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("second request admitted while the probe is in flight")
	}

	// Probe fails: reopen for a fresh cool-down.
	if !b.failure() {
		t.Fatal("failed probe left the breaker non-open")
	}
	now = now.Add(30 * time.Second)
	if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("reopened breaker forgot its new cool-down start")
	}
	now = now.Add(30 * time.Second)
	if err := b.allow(); err != nil {
		t.Fatalf("second probe rejected: %v", err)
	}
	// Probe succeeds: closed, failure run cleared.
	b.success()
	if st := b.status(); st.State != BreakerClosed || st.Failures != 0 {
		t.Fatalf("status after successful probe = %+v, want closed/0", st)
	}
	if err := b.allow(); err != nil {
		t.Fatalf("closed breaker rejecting: %v", err)
	}
}

// TestBreakerOpensOnDeadSite: a site that refuses everything trips the
// breaker after the threshold, after which requests fail immediately —
// in memory, no dial — with an error degraded terminals classify as
// skipped.
func TestBreakerOpensOnDeadSite(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close() // nothing listens here now

	r := Dial(addr,
		WithAttempts(1), WithDialTimeout(500*time.Millisecond),
		WithBreaker(2, time.Hour), WithHealthProbe(0))
	defer r.Close()

	for i := 0; i < 2; i++ {
		if _, err := r.PlanCountContext(context.Background(), attack.PlanAll()); err == nil {
			t.Fatal("count against a dead site succeeded")
		} else if errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("request %d rejected by the breaker before the threshold", i)
		}
	}
	if st, on := r.Breaker(); !on || st.State != BreakerOpen {
		t.Fatalf("breaker after threshold failures = %+v enabled=%v, want open", st, on)
	}

	start := time.Now()
	_, err = r.PlanCountContext(context.Background(), attack.PlanAll())
	if !errors.Is(err, ErrCircuitOpen) || !errors.Is(err, attack.ErrBackendSkipped) {
		t.Fatalf("open-breaker error = %v, want ErrCircuitOpen wrapping ErrBackendSkipped", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("open-breaker rejection took %v, want in-memory fast", d)
	}

	// Federated terminals see the open breaker as a skip, not
	// a failure — the healthy backend's answer still comes back whole.
	st := attack.NewStore(randomEvents(rand.New(rand.NewSource(83)), 400))
	n, statuses, err := attack.QueryBackends(st, r).Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != st.Len() {
		t.Errorf("degraded count = %d, want the local store's %d", n, st.Len())
	}
	if statuses[1].State != attack.BackendSkipped {
		t.Errorf("breaker-open site classified %s, want skipped", statuses[1].State)
	}
}

// TestBreakerHalfOpenRecovery: with background probing disabled, a
// healed site rejoins via the half-open request probe after the
// cool-down.
func TestBreakerHalfOpenRecovery(t *testing.T) {
	st := attack.NewStore(randomEvents(rand.New(rand.NewSource(89)), 300))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go NewServer(st).Serve(l)

	proxy, err := faultnet.Listen(l.Addr().String(), faultnet.Faults{Refuse: true})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	r := Dial(proxy.Addr(),
		WithAttempts(1), WithDialTimeout(500*time.Millisecond),
		WithBreaker(1, 30*time.Millisecond), WithHealthProbe(0))
	defer r.Close()

	if _, err := r.PlanCountContext(context.Background(), attack.PlanAll()); err == nil {
		t.Fatal("count through a refusing proxy succeeded")
	}
	if bst, _ := r.Breaker(); bst.State != BreakerOpen {
		t.Fatalf("breaker = %s after threshold-1 failure, want open", bst.State)
	}
	if _, err := r.PlanCountContext(context.Background(), attack.PlanAll()); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("request inside the cool-down = %v, want ErrCircuitOpen", err)
	}

	proxy.Heal()
	time.Sleep(50 * time.Millisecond) // cool-down elapsed
	n, err := r.PlanCountContext(context.Background(), attack.PlanAll())
	if err != nil {
		t.Fatalf("half-open probe against the healed site failed: %v", err)
	}
	if n != st.Len() {
		t.Fatalf("post-recovery count = %d, want %d", n, st.Len())
	}
	if bst, _ := r.Breaker(); bst.State != BreakerClosed || bst.Failures != 0 {
		t.Fatalf("breaker after recovery = %+v, want closed/0", bst)
	}
}

// TestBackgroundProbeRejoin: with the health prober on, a healed site
// rejoins without any caller traffic — the prober's version frames
// close the breaker on their own.
func TestBackgroundProbeRejoin(t *testing.T) {
	st := attack.NewStore(randomEvents(rand.New(rand.NewSource(91)), 300))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go NewServer(st).Serve(l)

	proxy, err := faultnet.Listen(l.Addr().String(), faultnet.Faults{Refuse: true})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	r := Dial(proxy.Addr(),
		WithAttempts(1), WithDialTimeout(500*time.Millisecond),
		WithBreaker(1, time.Hour), // only the prober can close it
		WithHealthProbe(10*time.Millisecond))
	defer r.Close()

	if _, err := r.PlanCountContext(context.Background(), attack.PlanAll()); err == nil {
		t.Fatal("count through a refusing proxy succeeded")
	}
	proxy.Heal()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if bst, _ := r.Breaker(); bst.State == BreakerClosed {
			break
		}
		if time.Now().After(deadline) {
			bst, _ := r.Breaker()
			t.Fatalf("prober never closed the breaker; state %s", bst.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	n, err := r.PlanCountContext(context.Background(), attack.PlanAll())
	if err != nil || n != st.Len() {
		t.Fatalf("count after background rejoin = (%d, %v), want (%d, nil)", n, err, st.Len())
	}
}

// TestBreakerRaceStress hammers one RemoteStore from many goroutines
// while the site flaps healthy/refusing underneath — the breaker, the
// prober lifecycle, and ops snapshots all racing. Run under -race; the
// assertion is the absence of data races and a usable site afterwards.
func TestBreakerRaceStress(t *testing.T) {
	st := attack.NewStore(randomEvents(rand.New(rand.NewSource(93)), 200))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go NewServer(st).Serve(l)

	proxy, err := faultnet.Listen(l.Addr().String(), faultnet.Faults{})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	r := Dial(proxy.Addr(),
		WithAttempts(1), WithDialTimeout(200*time.Millisecond),
		WithRequestTimeout(200*time.Millisecond),
		WithBreaker(2, 5*time.Millisecond), WithHealthProbe(5*time.Millisecond))
	defer r.Close()

	stop := make(chan struct{})
	var flapper sync.WaitGroup
	flapper.Add(1)
	go func() {
		defer flapper.Done()
		sick := false
		for {
			select {
			case <-stop:
				proxy.Heal()
				return
			case <-time.After(10 * time.Millisecond):
				sick = !sick
				proxy.SetFaults(faultnet.Faults{Refuse: sick})
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				_, _ = r.PlanCountContext(context.Background(), attack.PlanAll())
				_, _ = r.Breaker()
			}
		}()
	}
	wg.Wait()
	close(stop)
	flapper.Wait()

	// The site is healthy again; the breaker must let it rejoin.
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, err := r.PlanCountContext(context.Background(), attack.PlanAll())
		if err == nil {
			if n != st.Len() {
				t.Fatalf("post-stress count = %d, want %d", n, st.Len())
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("site never rejoined after the stress run: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// flakyListener fails its first n Accepts with a temporary error —
// EMFILE-style transience — before delegating to the real listener.
type flakyListener struct {
	net.Listener
	mu   sync.Mutex
	fail int
}

type tempError struct{}

func (tempError) Error() string   { return "accept: too many open files" }
func (tempError) Temporary() bool { return true }
func (tempError) Timeout() bool   { return false }

func (f *flakyListener) Accept() (net.Conn, error) {
	f.mu.Lock()
	if f.fail > 0 {
		f.fail--
		f.mu.Unlock()
		return nil, tempError{}
	}
	f.mu.Unlock()
	return f.Listener.Accept()
}

// TestServeSurvivesTemporaryAcceptErrors: transient Accept failures are
// retried with backoff instead of killing the accept loop — the site
// still serves the connection that arrives after the glitch.
func TestServeSurvivesTemporaryAcceptErrors(t *testing.T) {
	st := attack.NewStore(randomEvents(rand.New(rand.NewSource(95)), 150))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	fl := &flakyListener{Listener: l, fail: 3}
	done := make(chan error, 1)
	go func() { done <- NewServer(st).Serve(fl) }()

	r := Dial(l.Addr().String(), WithAttempts(1))
	defer r.Close()
	n, err := r.PlanCountContext(context.Background(), attack.PlanAll())
	if err != nil {
		t.Fatalf("count after transient accept errors: %v", err)
	}
	if n != st.Len() {
		t.Fatalf("count = %d, want %d", n, st.Len())
	}

	l.Close()
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v on listener close, want nil", err)
	}
}
