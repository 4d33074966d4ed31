// Package attack is a self-contained stand-in for doscope's real
// attack package: it carries just enough surface (Event with a Ports
// alias, the Query iteration terminals, the deprecated Store shims,
// the Queryable faces) for the analyzer corpora to typecheck without
// importing the module under analysis. The analyzers match package
// *names*, so this fake engages them exactly like the real thing.
//
// It is also itself a negative corpus for nodeprecated: the deprecated
// shims' own bodies (ByTarget calling Events) are allowlisted because
// they live in a package named attack.
package attack

import (
	"context"
	"iter"
)

// Event mirrors the real schema's shape: scalars plus the aliasing
// Ports slice.
type Event struct {
	Source     uint8
	Target     uint32
	Start, End int64
	Ports      []uint16
}

// Clone is the blessed retain pattern scratchescape treats as a
// sanitization boundary.
func (e *Event) Clone() *Event {
	cp := *e
	cp.Ports = append([]uint16(nil), e.Ports...)
	return &cp
}

// Plan is an opaque query plan.
type Plan struct{}

// Store is the event store.
type Store struct{}

// Query opens the modern query pipeline.
func (s *Store) Query() *Query { return &Query{} }

// PlanCount is the context-less Queryable face on a concrete store.
func (s *Store) PlanCount(p Plan) (int, error) { return 0, nil }

// Events is the deprecated whole-store snapshot shim.
func (s *Store) Events() []Event { return nil }

// Query is the filtered-query builder.
type Query struct{}

// Iter yields the per-iteration scratch *Event.
func (q *Query) Iter() iter.Seq[*Event] { return func(func(*Event) bool) {} }

// IterByStart yields the scratch *Event in start order.
func (q *Query) IterByStart() iter.Seq[*Event] { return func(func(*Event) bool) {} }

// GroupByTarget returns stable, caller-owned copies — retaining these
// is fine.
func (q *Query) GroupByTarget() map[uint32][]*Event { return nil }

// Count is a counting terminal.
func (q *Query) Count() int { return 0 }

// Fold folds the matching events through acc; the *Event it passes is
// the same per-iteration scratch as Iter's.
func Fold[T any](q *Query, init func() T, acc func(T, *Event) T, merge func(T, T) T) T {
	var zero T
	return zero
}

// Queryable is the context-less backend face.
type Queryable interface {
	PlanCount(p Plan) (int, error)
}

// QueryableContext is the optional context-aware face.
type QueryableContext interface {
	PlanCountContext(ctx context.Context, p Plan) (int, error)
}
