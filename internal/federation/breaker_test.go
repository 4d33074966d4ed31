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

// TestBreakerStateMachine walks the closed → open → closed
// transitions: threshold consecutive failures open the breaker, it
// stays open however many requests and failures arrive, and one
// success closes it with the failure run cleared.
func TestBreakerStateMachine(t *testing.T) {
	b := newBreaker(3, time.Minute)

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
	// A success mid-run clears it: the threshold counts consecutive
	// failures.
	b.success()
	for i := 0; i < 2; i++ {
		if b.failure() {
			t.Fatalf("breaker open after a success and %d failures", i+1)
		}
	}
	if !b.failure() {
		t.Fatal("breaker still closed at the failure threshold")
	}
	if !errors.Is(b.allow(), attack.ErrBackendSkipped) {
		t.Fatal("ErrCircuitOpen does not wrap attack.ErrBackendSkipped")
	}
	// Open has no clock: it rejects until a success closes it, and a
	// late failure (a request admitted before the trip) keeps it open.
	for i := 0; i < 100; i++ {
		if err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("open breaker admitted request %d: %v", i, err)
		}
	}
	if !b.failure() {
		t.Fatal("a failure closed the open breaker")
	}
	if st := b.status(); st.State != BreakerOpen || st.Failures != 4 {
		t.Fatalf("status = %+v, want open with 4 failures", st)
	}
	b.success()
	if st := b.status(); st.State != BreakerClosed || st.Failures != 0 {
		t.Fatalf("status after success = %+v, want closed/0", st)
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
		WithBreaker(2, time.Hour))
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

// TestBackgroundProbeRejoin: a healed site rejoins without any caller
// traffic — the prober's version frames, one per cool-down, close the
// breaker on their own.
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
		WithBreaker(1, 10*time.Millisecond))
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

// TestOpenBreakerSendsNoLiveRequest: once a blackholed site trips the
// breaker, no request reaches it. Every request fails in memory with
// ErrCircuitOpen across several cool-downs, where a request admitted as
// a live probe would stall for attempts × request timeout. After the
// site heals, the background prober closes the breaker within a few
// cool-downs with no caller traffic at all.
func TestOpenBreakerSendsNoLiveRequest(t *testing.T) {
	st := attack.NewStore(randomEvents(rand.New(rand.NewSource(97)), 300))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go NewServer(st).Serve(l)

	proxy, err := faultnet.Listen(l.Addr().String(), faultnet.Faults{Blackhole: true})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	const cooldown = 50 * time.Millisecond
	r := Dial(proxy.Addr(), WithBreaker(1, cooldown), WithRequestTimeout(300*time.Millisecond))
	defer r.Close()

	if _, err := r.PlanCountContext(context.Background(), attack.PlanAll()); err == nil {
		t.Fatal("count through a blackhole succeeded")
	}
	if bst, _ := r.Breaker(); bst.State != BreakerOpen {
		t.Fatalf("breaker = %s after a threshold-1 failure, want open", bst.State)
	}

	// Six cool-downs of requests, one every 10ms: none may wait on the
	// network.
	for end := time.Now().Add(6 * cooldown); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		start := time.Now()
		_, err := r.PlanCountContext(context.Background(), attack.PlanAll())
		if d := time.Since(start); d > 50*time.Millisecond {
			t.Fatalf("request against the open breaker took %v (err %v), want an in-memory rejection", d, err)
		}
		if !errors.Is(err, ErrCircuitOpen) {
			t.Fatalf("request against the open breaker = %v, want ErrCircuitOpen", err)
		}
	}

	proxy.Heal()
	deadline := time.Now().Add(40 * cooldown)
	for {
		if bst, _ := r.Breaker(); bst.State == BreakerClosed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker still open %v after the site healed", 40*cooldown)
		}
		time.Sleep(5 * time.Millisecond)
	}
	n, err := r.PlanCountContext(context.Background(), attack.PlanAll())
	if err != nil || n != st.Len() {
		t.Fatalf("count after the prober's rejoin = (%d, %v), want (%d, nil)", n, err, st.Len())
	}
}

// TestConnWaitHonorsContext: a request queued behind one stalled on a
// blackholed site gives up when its own deadline passes, not when the
// stalled request's timeout does, and a request that gives up before
// reaching the site, queued or expired on arrival, counts neither for
// nor against the breaker.
func TestConnWaitHonorsContext(t *testing.T) {
	st := attack.NewStore(randomEvents(rand.New(rand.NewSource(109)), 100))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go NewServer(st).Serve(l)
	proxy, err := faultnet.Listen(l.Addr().String(), faultnet.Faults{Blackhole: true})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	r := Dial(proxy.Addr(), WithAttempts(1), WithRequestTimeout(3*time.Second))
	defer r.Close()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	if _, err := r.PlanCountContext(expired, attack.PlanAll()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("request with an expired deadline = %v, want its deadline", err)
	}
	if bst, _ := r.Breaker(); bst.Failures != 0 {
		t.Fatalf("a request with an expired deadline counted %d breaker failures", bst.Failures)
	}

	stalled := make(chan error, 1)
	go func() {
		_, err := r.PlanCountContext(context.Background(), attack.PlanAll())
		stalled <- err
	}()
	for len(r.connSem) == 0 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = r.PlanCountContext(ctx, attack.PlanAll())
	if d := time.Since(start); d > time.Second {
		t.Fatalf("a 300ms request behind a stalled one took %v", d)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued request = %v, want its deadline", err)
	}
	if bst, _ := r.Breaker(); bst.Failures != 0 {
		t.Fatalf("a request that never reached the site counted %d breaker failures", bst.Failures)
	}

	proxy.Close() // end the stalled request
	if err := <-stalled; err == nil {
		t.Fatal("count through a blackhole succeeded")
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
		WithBreaker(2, 5*time.Millisecond))
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
