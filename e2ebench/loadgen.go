package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// sample is one operation's timing: when it was due, when it was sent,
// when it returned, and the instant its latency runs from. op is the
// operation's number.
type sample struct {
	due, start, end, from time.Time
	op                    int
	err                   bool
}

func (s sample) latency() time.Duration { return s.end.Sub(s.from) }

// late is how far behind schedule the generator sent the operation.
func (s sample) late() time.Duration { return s.start.Sub(s.due) }

// latencyFrom picks where an open-loop operation's latency starts. An
// operation whose sender was still busy at its due time waited in a
// queue, and that wait is the system's: it counts from the due time. An
// operation whose sender was idle at its due time but woke after it (the
// runtime's timers have millisecond resolution) counts from when it was
// sent, so the generator's own timer slack is not charged to the system.
func latencyFrom(due, free, start time.Time) time.Time {
	if free.Before(due) {
		return start
	}
	return due
}

// openLoop runs n operations, the i-th due at origin + i*interval, on
// the given number of workers. Workers take operations in due order; an
// operation whose due time has passed while every worker was busy is
// sent as soon as one frees up, and its latency counts from its due time.
func openLoop(origin time.Time, interval time.Duration, n, workers int, op func(i int) error) []sample {
	out := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := origin.Add(time.Duration(i) * interval)
				free := time.Now()
				if d := due.Sub(free); d > 0 {
					time.Sleep(d)
				}
				start := time.Now()
				err := op(i)
				out[i] = sample{due: due, start: start, end: time.Now(),
					from: latencyFrom(due, free, start), op: i, err: err != nil}
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs workers that each send their next operation as soon as
// the previous one returns, until deadline. i numbers operations across
// workers in the order they were taken.
func closedLoop(deadline time.Time, workers int, op func(i int) error) []sample {
	var next atomic.Int64
	parts := make([][]sample, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				start := time.Now()
				if !start.Before(deadline) {
					return
				}
				i := int(next.Add(1) - 1)
				err := op(i)
				parts[w] = append(parts[w], sample{due: start, start: start, end: time.Now(), from: start, op: i, err: err != nil})
			}
		}()
	}
	wg.Wait()
	var out []sample
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// latenciesMS returns the latencies of the successful samples in ms.
func latenciesMS(samples []sample) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if !s.err {
			out = append(out, ms(s.latency()))
		}
	}
	return out
}

// failures counts samples whose operation returned an error.
func failures(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.err {
			n++
		}
	}
	return n
}

// span of a sample set: first start to last end.
func elapsed(samples []sample) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	lo, hi := samples[0].start, samples[0].end
	for _, s := range samples {
		if s.start.Before(lo) {
			lo = s.start
		}
		if s.end.After(hi) {
			hi = s.end
		}
	}
	return hi.Sub(lo)
}
