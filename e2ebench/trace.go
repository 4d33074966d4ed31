package main

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one request link through
// parent: a child started under a context carrying its parent's id.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps every finished span in memory until the run ends. A nil
// *tracer records nothing, so timing code needs no branches.
type tracer struct {
	origin time.Time
	next   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

type spanKey struct{}

// active is a started span; end records it.
type active struct {
	t *tracer
	s span
}

// begin starts a span named name, child of the span ctx carries, and
// returns a context carrying the new span for the callee.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, active) {
	if t == nil {
		return ctx, active{}
	}
	parent, _ := ctx.Value(spanKey{}).(int64)
	s := span{ID: t.next.Add(1), Parent: parent, Name: name, Start: time.Since(t.origin)}
	return context.WithValue(ctx, spanKey{}, s.ID), active{t: t, s: s}
}

func (a active) end() {
	if a.t == nil {
		return
	}
	a.s.End = time.Since(a.t.origin)
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
}

// finished returns a copy of the spans recorded so far.
func (t *tracer) finished() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// durations returns the durations of every span with the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// selfTimes maps each span id to its self time: its duration minus the
// part of its interval that its children cover. Overlapping children
// (a fan-out to several backends) count once.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return int(a.lo - b.lo) })
	var total, end time.Duration
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}
