package federation

import (
	"math/rand"
	"testing"
	"time"

	"doscope/internal/attack"
)

// TestBackoffCappedAndJittered pins the retry-delay policy: the
// doubling schedule must never exceed the cap (the unbounded
// r.backoff<<(attempt-1) growth was a bug under large WithAttempts),
// must never go negative (shift overflow), and must keep at least half
// of the nominal delay so jitter cannot collapse the schedule into a
// tight retry loop.
func TestBackoffCappedAndJittered(t *testing.T) {
	r := Dial("127.0.0.1:1",
		WithBackoff(50*time.Millisecond),
		WithMaxBackoff(2*time.Second))
	for attempt := 1; attempt <= 200; attempt++ {
		nominal := 50 * time.Millisecond << (attempt - 1)
		if attempt-1 >= 62 || nominal <= 0 || nominal > 2*time.Second {
			nominal = 2 * time.Second
		}
		for i := 0; i < 20; i++ {
			d := r.backoffFor(attempt)
			if d < nominal/2 || d > nominal {
				t.Fatalf("backoffFor(%d) = %v, want in [%v, %v]", attempt, d, nominal/2, nominal)
			}
		}
	}
}

// TestBackoffNonPositiveRetriesAtOnce: a zero or negative initial
// backoff means "retry without waiting", not the capped maximum delay.
func TestBackoffNonPositiveRetriesAtOnce(t *testing.T) {
	for _, b := range []time.Duration{0, -1} {
		r := Dial("127.0.0.1:1", WithBackoff(b))
		for attempt := 1; attempt <= 5; attempt++ {
			if d := r.backoffFor(attempt); d != 0 {
				t.Errorf("WithBackoff(%v): backoffFor(%d) = %v, want 0", b, attempt, d)
			}
		}
	}
}

// TestBackoffJitterSpreads asserts the delays are actually randomized:
// identical clients must not retry on the same schedule.
func TestBackoffJitterSpreads(t *testing.T) {
	r := Dial("127.0.0.1:1", WithBackoff(time.Second), WithMaxBackoff(time.Second))
	seen := make(map[time.Duration]bool)
	for i := 0; i < 64; i++ {
		seen[r.backoffFor(1)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("64 jittered delays collapsed to %d distinct value(s)", len(seen))
	}
}

// TestRemoteVersion exercises the DOSFED01 version request: it must
// track the site store's mutation counter across ingest, the 8-byte
// validation handle the HTTP response cache keys federated entries on.
func TestRemoteVersion(t *testing.T) {
	st := &attack.Store{}
	r := startSite(t, st)
	v0, err := r.Version()
	if err != nil {
		t.Fatal(err)
	}
	if v0 != st.Version() {
		t.Fatalf("remote version %d, store version %d", v0, st.Version())
	}
	st.AddBatch(randomEvents(rand.New(rand.NewSource(11)), 100))
	v1, err := r.Version()
	if err != nil {
		t.Fatal(err)
	}
	if v1 != st.Version() || v1 == v0 {
		t.Fatalf("after ingest: remote version %d, store version %d (was %d)", v1, st.Version(), v0)
	}
}

// TestRemoteVersionTickPublished pins what the version frame reports
// for a site ingesting in queued mode: the PUBLISHED version — batches
// sitting in the ingest queue do not move it, the drain tick does. A
// federation client (and the HTTP response cache keyed on this handle)
// therefore invalidates exactly when the site's visible state changed,
// once per tick, not per enqueued mutation.
func TestRemoteVersionTickPublished(t *testing.T) {
	st := &attack.Store{}
	st.StartIngest(attack.IngestConfig{Tick: time.Hour})
	defer st.Close()
	r := startSite(t, st)

	st.AddBatch(randomEvents(rand.New(rand.NewSource(13)), 60))
	st.AddBatch(randomEvents(rand.New(rand.NewSource(14)), 40))
	v, err := r.Version()
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("queued batches moved the remote-visible version to %d, want 0", v)
	}
	st.Flush() // the tick: one publication covering both batches
	v, err = r.Version()
	if err != nil {
		t.Fatal(err)
	}
	if v != 100 {
		t.Fatalf("after the tick remote version = %d, want 100", v)
	}
}
