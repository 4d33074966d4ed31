package federation

import (
	"fmt"
	"sync"
	"time"

	"doscope/internal/attack"
)

// ErrCircuitOpen is the error a RemoteStore returns — wrapped with the
// site address — when its circuit breaker rejects a request without
// touching the network. It wraps attack.ErrBackendSkipped, so
// degraded-mode federated terminals classify the site as skipped (known
// dead, cost nothing) rather than failed (tried and broke).
var ErrCircuitOpen = fmt.Errorf("circuit open: %w", attack.ErrBackendSkipped)

// BreakerState is one circuit-breaker state.
type BreakerState uint8

const (
	// BreakerClosed: requests flow; consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: requests are rejected immediately with
	// ErrCircuitOpen until the background health prober finds the
	// site answering again.
	BreakerOpen
)

// String returns the JSON-friendly state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	}
	return fmt.Sprintf("BreakerState(%d)", uint8(s))
}

// BreakerStatus is a point-in-time breaker snapshot for ops surfaces
// (the HTTP front end's /healthz and /v1/stats).
type BreakerStatus struct {
	State    BreakerState
	Failures int // consecutive failures since the last success
}

// breaker is the per-site circuit breaker: threshold consecutive
// failures open it, and any success closes it. While it is open no
// request reaches the site; the RemoteStore's background health prober
// re-checks the site every cool-down and records the success that
// closes it. Without it a dead site costs every federated query
// attempts×(dial timeout + backoff); with it the site costs one
// in-memory check until it heals.
//
// All methods are safe for concurrent use — the breaker is the one
// piece of RemoteStore state shared by requests, the background health
// prober, and ops snapshots.
type breaker struct {
	threshold int
	cooldown  time.Duration // the health prober's period while open

	mu       sync.Mutex
	state    BreakerState
	failures int
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// allow reports whether a request may proceed: an open breaker rejects
// with ErrCircuitOpen.
func (b *breaker) allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen {
		return ErrCircuitOpen
	}
	return nil
}

// success records a completed request or probe: it closes the breaker
// and clears the failure run.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.failures = 0
}

// failure records a failed request and reports whether the breaker is
// now open: it opens once the consecutive run reaches the threshold.
func (b *breaker) failure() (open bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	if b.failures >= b.threshold {
		b.state = BreakerOpen
	}
	return b.state == BreakerOpen
}

// status snapshots the breaker for ops surfaces.
func (b *breaker) status() BreakerStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStatus{State: b.state, Failures: b.failures}
}
