package httpapi

import (
	"math"
	"sync"
	"time"
)

// limiterClients bounds the per-client bucket map; past it, idle (full)
// buckets are pruned before a new client is admitted. A full bucket
// carries no history — dropping and recreating it is equivalent — so
// pruning never loosens anyone's limit.
const limiterClients = 8192

// limiter applies a token bucket per client key: each client accrues
// rate tokens per second up to burst, and each request spends one.
// Keys are client IPs, so one greedy consumer exhausts its own bucket
// without starving the rest — the first thing a front end needs once
// it serves more consumers than it has cores.
type limiter struct {
	rate  float64 // tokens per second
	burst float64
	now   func() time.Time // injectable for tests

	mu      sync.Mutex
	clients map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newLimiter(rate float64, burst int) *limiter {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	return &limiter{rate: rate, burst: float64(burst), now: time.Now, clients: make(map[string]*bucket)}
}

// allow reports whether the client may proceed, spending one token.
func (l *limiter) allow(key string) bool {
	now := l.now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.clients[key]
	if !ok {
		if len(l.clients) >= limiterClients {
			l.prune(now)
			// Pruning only drops fully-refilled buckets; a map full of
			// active clients shrinks by evicting the longest-idle ones,
			// so the cap holds however many distinct keys arrive (an
			// address-rotating scraper must not grow the map without
			// bound). An evicted client restarts with a full bucket —
			// eviction can only loosen its limit, never block it.
			for len(l.clients) >= limiterClients {
				l.evictOldest()
			}
		}
		b = &bucket{tokens: l.burst, last: now}
		l.clients[key] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// prune drops buckets that have refilled completely — clients idle for
// at least burst/rate seconds, indistinguishable from new ones. Called
// with the lock held.
func (l *limiter) prune(now time.Time) {
	idle := time.Duration(l.burst / l.rate * float64(time.Second))
	for k, b := range l.clients {
		if now.Sub(b.last) >= idle {
			delete(l.clients, k)
		}
	}
}

// evictOldest removes the bucket with the oldest last-seen time — the
// client most likely gone for good. Called with the lock held and the
// map non-empty.
func (l *limiter) evictOldest() {
	var oldestKey string
	var oldest time.Time
	first := true
	for k, b := range l.clients {
		if first || b.last.Before(oldest) {
			oldestKey, oldest, first = k, b.last, false
		}
	}
	delete(l.clients, oldestKey)
}

// retryAfter estimates the seconds until one token accrues — the
// Retry-After hint on 429 responses. It rounds up, so a client that
// waits as told finds the token there, and is at least 1, so clients
// never spin.
func (l *limiter) retryAfter() int {
	return max(int(math.Ceil(1/l.rate)), 1)
}
