package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share a cycle id; Parent is the index, within the same cycle's span list,
// of the span that caused this one (-1 for the root). Times are nanoseconds
// since the tracer's base instant.
type span struct {
	Name   string `json:"name"`
	Cycle  int    `json:"cycle"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns, for the spans of one cycle, each span's duration minus
// the part of it its direct children cover. Children of one parent never
// overlap here (one request runs one stage at a time), so the covered part
// is the sum of the children's durations, clipped to the parent.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		start, end := max(s.Start, p.Start), min(s.End, p.End)
		if end > start {
			self[s.Parent] -= end - start
		}
	}
	return self
}

// mark is one raw observation a decorator made: which boundary, and when.
type mark struct {
	name       string
	start, end int64
}

// tracer collects the marks of the request in flight. The traced replica
// runs one request at a time, so every mark between two collect calls
// belongs to the same cycle; the mutex only orders the decorators, which
// run on different goroutines of that one request.
type tracer struct {
	on   atomic.Bool
	base time.Time

	mu    sync.Mutex
	marks []mark
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// at converts an instant taken elsewhere (a lease's Granted stamp) to tracer
// time. The instant must carry a monotonic reading, as time.Now's do.
func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.base)) }

func (t *tracer) add(name string, start, end int64) {
	t.mu.Lock()
	t.marks = append(t.marks, mark{name, start, end})
	t.mu.Unlock()
}

// span starts timing a call when the tracer is on; the function it returns
// records the mark. With the tracer off both are no-ops, so a decorator is
// one `defer t.span(name)()` in front of the call it forwards.
func (t *tracer) span(name string) func() {
	if !t.on.Load() {
		return func() {}
	}
	start := t.now()
	return func() { t.add(name, start, t.now()) }
}

// collect returns the marks since the previous collect and starts afresh.
func (t *tracer) collect() []mark {
	t.mu.Lock()
	out := t.marks
	t.marks = make([]mark, 0, 16)
	t.mu.Unlock()
	return out
}
