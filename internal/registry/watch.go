package registry

import (
	"sync"
	"sync/atomic"
)

// The change stream is the push half of the white pages: every mutation a
// backend commits is also published as a typed Event to whoever called
// Watch. Pools (via pool.Dispatcher) fold these events into their caches
// incrementally instead of polling the database with full re-reads, which
// is what keeps freshness cheap at fleet scale (see DESIGN.md, "Change
// propagation").
//
// Each subscriber owns a bounded FIFO. Events arrive in publish order,
// which for any one machine is commit order: engines emit while holding
// the mutated record's lock. Publishing is an append until the FIFO is
// full. Then the dynamic updates that a later one of the same machine
// supersedes are dropped (FoldDynamic), so a consumer that fell behind a
// monitor sweeping faster than it drains holds one snapshot per machine
// rather than one per sweep. If that does not free a quarter of the FIFO,
// the subscription drops what it holds and latches the resync marker
// instead, and a consumer that sees it falls back to a full re-read
// (pool.Refresh), after which the stream is consistent again. Every event
// is therefore delivered, superseded by a delivered later snapshot of its
// machine, or covered by the marker. Publishers never block on a slow
// consumer: a wedged subscriber costs one flag, not a stalled monitor
// sweep.

// EventKind enumerates the typed registry mutations a Watch observes.
type EventKind uint8

// One kind per Backend mutator. Load does not emit per-machine events; it
// replaces the world and therefore latches the resync marker instead.
const (
	EventAdded          EventKind = iota + 1 // Add
	EventRemoved                             // Remove
	EventStateSet                            // SetState
	EventDynamicUpdated                      // UpdateDynamic / UpdateDynamicBatch
	EventParamSet                            // SetParam
	EventTaken                               // Take (one event per claimed machine)
	EventReleased                            // Release / ReleaseAll (one per machine)
)

func (k EventKind) String() string {
	switch k {
	case EventAdded:
		return "added"
	case EventRemoved:
		return "removed"
	case EventStateSet:
		return "state-set"
	case EventDynamicUpdated:
		return "dynamic-updated"
	case EventParamSet:
		return "param-set"
	case EventTaken:
		return "taken"
	case EventReleased:
		return "released"
	}
	return "event(?)"
}

// Event is one observed mutation of a white-pages record.
type Event struct {
	Kind EventKind
	Name string // machine name
	// Dynamic carries the fresh monitor snapshot for EventDynamicUpdated —
	// the one high-rate kind — so consumers fold load changes without a
	// database read (and without the deep clone a Get implies). For every
	// other kind consumers re-read the record, which lands on its newest
	// state.
	Dynamic Dynamic
}

// DynamicUpdate names one machine's fresh monitor snapshot, the unit of
// UpdateDynamicBatch.
type DynamicUpdate struct {
	Name    string
	Dynamic Dynamic
}

// DefaultWatchBuffer is the floor of DB.Watch's limit.
const DefaultWatchBuffer = 1 << 16

// Subscription is one consumer's view of the change stream. It is written
// by the backend's mutators (never blocking) and drained by a single
// consumer via Poll; Ready signals pending work. All methods are safe for
// concurrent use, but Poll's returned slice is only valid until the next
// Poll (the buffers rotate), which the single-consumer contract makes
// harmless.
type Subscription struct {
	hub   *watchHub
	ready chan struct{} // capacity 1: level-triggered wakeup

	mu     sync.Mutex
	cap    int
	buf    []Event
	prev   []Event // last Poll's array, recycled on the next Poll
	resync bool
	closed bool
}

// publish appends events in order, folding a full FIFO and degrading to
// the resync marker when the fold leaves too little room. It never blocks
// beyond the subscription's own mutex, which no consumer holds while doing
// work.
func (s *Subscription) publish(evs []Event) {
	s.mu.Lock()
	if s.closed || s.resync {
		// A pending resync already supersedes every individual event.
		s.mu.Unlock()
		return
	}
	if len(s.buf)+len(evs) > s.cap {
		// Full: keep only the newest snapshot of each machine. Unless that
		// frees a quarter of the FIFO, what fills it is not sweeps the
		// consumer fell behind but a burst it has to re-read anyway (and
		// folding again at once would cost a pass per publish).
		s.buf = FoldDynamic(s.buf, make(map[string]struct{}))
		if len(s.buf)+len(evs) > s.cap-s.cap/4 {
			s.forceResyncLocked()
			s.mu.Unlock()
			s.signal()
			return
		}
	}
	s.buf = append(s.buf, evs...)
	s.mu.Unlock()
	s.signal()
}

// FoldDynamic drops every EventDynamicUpdated of evs that a later one of
// the same machine supersedes and returns the rest, in order, in evs's
// array; seen is scratch, cleared first. Nothing else moves, so a consumer
// that applies the result in order ends on the state it would have reached
// from all of evs: a machine's events are in commit order, and every kind
// but EventDynamicUpdated is re-read when applied.
func FoldDynamic(evs []Event, seen map[string]struct{}) []Event {
	clear(seen)
	keep := len(evs)
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Kind == EventDynamicUpdated {
			if _, ok := seen[evs[i].Name]; ok {
				continue
			}
			seen[evs[i].Name] = struct{}{}
		}
		keep--
		evs[keep] = evs[i]
	}
	return append(evs[:0], evs[keep:]...)
}

// forceResync latches the resync marker, dropping any pending events: the
// consumer's next Poll reports that incremental state is gone and a full
// re-read is required. Load uses it; overflow triggers it internally.
func (s *Subscription) forceResync() {
	s.mu.Lock()
	if !s.closed {
		s.forceResyncLocked()
	}
	s.mu.Unlock()
	s.signal()
}

func (s *Subscription) forceResyncLocked() {
	s.resync = true
	s.buf = s.buf[:0]
}

func (s *Subscription) signal() {
	select {
	case s.ready <- struct{}{}:
	default:
	}
}

// Ready returns a channel that receives after new events (or a resync)
// become pending. It is level-triggered with capacity one: a receive means
// "Poll now", not "exactly one event".
func (s *Subscription) Ready() <-chan struct{} { return s.ready }

// Poll drains the pending events. resync=true means the ring overflowed
// (or the database was wholesale replaced) since the last Poll: the events
// slice is empty and the consumer must re-read the state it mirrors. The
// returned slice is valid until the next Poll.
func (s *Subscription) Poll() (events []Event, resync bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	events, resync = s.buf, s.resync
	// Rotate buffers: the array handed out last time is free again (the
	// single consumer finished with it before polling anew).
	s.buf, s.prev = s.prev[:0], events
	s.resync = false
	return events, resync
}

// Close detaches the subscription from the backend. A blocked Ready
// receiver is woken; subsequent Polls return nothing.
func (s *Subscription) Close() {
	if s.hub != nil {
		s.hub.remove(s)
	}
	s.mu.Lock()
	s.closed = true
	s.buf, s.prev = nil, nil
	s.resync = false
	s.mu.Unlock()
	s.signal()
}

// watchHub is the per-backend subscriber registry, embedded by every
// engine so Watch is part of the Backend contract. The zero value is
// ready to use. Emission is designed for mutator hot paths: a single
// atomic load when nobody watches, a shared read-lock walk otherwise.
type watchHub struct {
	mu   sync.RWMutex
	subs []*Subscription
	n    atomic.Int32
}

// Watch subscribes to the change stream with a FIFO of buffer events, a
// positive size (DB.Watch picks and caps it). Events observed strictly
// after Watch returns are guaranteed to be delivered, superseded by a
// delivered later snapshot of their machine, or covered by a resync
// marker; there is no replay of earlier history.
func (h *watchHub) Watch(buffer int) *Subscription {
	s := &Subscription{
		hub:   h,
		ready: make(chan struct{}, 1),
		cap:   buffer,
	}
	h.mu.Lock()
	h.subs = append(h.subs, s)
	h.n.Store(int32(len(h.subs)))
	h.mu.Unlock()
	return s
}

func (h *watchHub) remove(s *Subscription) {
	h.mu.Lock()
	for i, cand := range h.subs {
		if cand == s {
			h.subs = append(h.subs[:i], h.subs[i+1:]...)
			break
		}
	}
	h.n.Store(int32(len(h.subs)))
	h.mu.Unlock()
}

// active is the mutator fast path: one atomic load decides whether an
// event is worth constructing at all.
func (h *watchHub) active() bool { return h.n.Load() > 0 }

// emit publishes events to every subscriber, in order. Engines call it
// while holding the lock of every record the events name, so each
// machine's events are totally ordered; subscription mutexes are leaves
// below every engine lock.
func (h *watchHub) emit(evs ...Event) {
	if len(evs) == 0 || !h.active() {
		return
	}
	h.mu.RLock()
	for _, s := range h.subs {
		s.publish(evs)
	}
	h.mu.RUnlock()
}

// emitResync latches the resync marker on every subscriber (Load replaced
// the world; no event stream can describe that incrementally).
func (h *watchHub) emitResync() {
	if !h.active() {
		return
	}
	h.mu.RLock()
	for _, s := range h.subs {
		s.forceResync()
	}
	h.mu.RUnlock()
}
