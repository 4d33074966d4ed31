// Corpus for the scratchescape analyzer: each flagged line retains the
// per-iteration scratch *Event (or an alias of its Ports) past its
// callback; the unflagged functions are the blessed patterns.
package scratch

import (
	"lintdata/attack"
)

var sink *attack.Event

// Storing the scratch pointer to a captured variable.
func captured(q *attack.Query) {
	for e := range q.Iter() {
		sink = e // want `stored to "sink"`
	}
}

// A value copy is not enough: the Ports slice header still aliases.
func valueCopy(q *attack.Query) []attack.Event {
	var out []attack.Event
	for e := range q.Iter() {
		out = append(out, *e) // want `appended to "out"`
	}
	return out
}

// Taint flows through locals to the captured variable.
func viaLocal(q *attack.Query) {
	var keep []uint16
	for e := range q.IterByStart() {
		p := e.Ports
		keep = p // want `stored to "keep"`
	}
	_ = keep
}

// Sending the scratch on a channel hands it to another goroutine.
func onChannel(q *attack.Query, ch chan *attack.Event) {
	for e := range q.Iter() {
		ch <- e // want `sent on a channel`
	}
}

// A goroutine capturing the scratch outlives the iteration step.
func inGoroutine(q *attack.Query, out chan int64) {
	for e := range q.Iter() {
		go func() {
			out <- e.Start // want `passed to a goroutine`
		}()
	}
}

// Returning the scratch from the surrounding search loop.
func firstLong(q *attack.Query) *attack.Event {
	for e := range q.Iter() {
		if e.End-e.Start > 3600 {
			return e // want `returned from the callback`
		}
	}
	return nil
}

var foldSink []uint16

// Fold's accumulator gets the same scratch event.
func foldEscape(q *attack.Query) int64 {
	return attack.Fold(q,
		func() int64 { return 0 },
		func(max int64, e *attack.Event) int64 {
			foldSink = e.Ports // want `stored to "foldSink"`
			if e.Start > max {
				return e.Start
			}
			return max
		},
		func(a, b int64) int64 { return a + b },
	)
}

// ---- negative corpus: the allowlisted patterns stay clean ----

func use(e *attack.Event) {}

// Scalar extraction and synchronous calls are fine.
func scalars(q *attack.Query) int64 {
	var total int64
	counts := map[uint32]int{}
	for e := range q.Iter() {
		total += e.End - e.Start
		counts[e.Target]++
		use(e)
	}
	return total + int64(len(counts))
}

// Clone() before retaining is the blessed pattern.
func cloned(q *attack.Query) []*attack.Event {
	var out []*attack.Event
	for e := range q.Iter() {
		out = append(out, e.Clone())
	}
	return out
}

// A value copy of a Clone is deep: appending it is fine too.
func clonedValues(q *attack.Query) []attack.Event {
	var out []attack.Event
	for e := range q.Iter() {
		out = append(out, *e.Clone())
	}
	return out
}

var held []*attack.Event

// Query.Events returns stable caller-owned copies: retaining them is
// outside the scratch contract.
func copied(q *attack.Query) {
	evs := q.Events()
	for i := range evs {
		held = append(held, &evs[i])
	}
}

// Fold returning the accumulated scalar is fine.
func foldMax(q *attack.Query) int64 {
	return attack.Fold(q,
		func() int64 { return 0 },
		func(max int64, e *attack.Event) int64 {
			if e.Start > max {
				return e.Start
			}
			return max
		},
		func(a, b int64) int64 { return max(a, b) },
	)
}

var debugEvent *attack.Event

// A deliberate, documented exception suppresses the finding.
func suppressed(q *attack.Query) {
	for e := range q.Iter() {
		//dosvet:ignore scratchescape debug hook reads the event before the next yield
		debugEvent = e
	}
}
