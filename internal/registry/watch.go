package registry

import (
	"slices"
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
// Delivery is deliberately lossy-but-honest: each subscriber owns a
// bounded ring that coalesces events per (kind, machine), and when even the
// coalesced backlog outgrows the ring the subscription drops everything and
// latches a single resync marker. Publishers therefore NEVER block on a
// slow consumer — a wedged subscriber costs one flag, not a stalled monitor
// sweep — and a consumer that sees the marker knows to fall back to a full
// re-read (pool.Refresh), after which the stream is consistent again. A
// coalesced event moves behind a later pending removal of its machine, so
// a consumer that re-reads the record on an add never sees the add ahead
// of a removal that came before it, and a second removal moves behind
// everything pending, so no add or dynamic update that preceded it is
// applied after it. Every other reordering is harmless: the kinds but
// EventRemoved carry only Dynamic or are re-read when resolved.

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
	// other kind consumers re-read the record; coalescing may collapse
	// several mutations into one event, and a re-read always lands on the
	// newest state.
	Dynamic Dynamic
}

// DynamicUpdate names one machine's fresh monitor snapshot, the unit of
// UpdateDynamicBatch.
type DynamicUpdate struct {
	Name    string
	Dynamic Dynamic
}

// DefaultWatchBuffer is the subscription ring capacity used when Watch is
// called with buffer <= 0. Coalescing bounds the backlog to one slot per
// (kind, machine), so a ring at least as large as the fleet never
// overflows under steady monitor sweeps.
const DefaultWatchBuffer = 1 << 16

// subKey is the coalescing identity: one ring slot per kind and machine.
type subKey struct {
	kind EventKind
	name string
}

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
	prev   []Event        // last Poll's array, recycled on the next Poll
	idx    map[subKey]int // the pending slot of each (kind, machine)
	dead   int            // slots in buf vacated by coalescing (Kind 0)
	resync bool
	closed bool
}

// publish appends one event, coalescing per (kind, machine) and degrading
// to the resync marker on overflow. It never blocks beyond the
// subscription's own mutex, which no consumer holds while doing work.
func (s *Subscription) publish(ev Event) {
	s.mu.Lock()
	if s.closed || s.resync {
		// A pending resync already supersedes every individual event.
		s.mu.Unlock()
		return
	}
	k := subKey{ev.Kind, ev.Name}
	i, pending := s.idx[k]
	switch {
	case pending && s.inPlaceLocked(ev, i):
		s.buf[i] = ev // newer payload replaces the pending one
	case !pending && len(s.idx) >= s.cap:
		s.forceResyncLocked()
	default:
		if pending {
			// The slot may not take the newer event: it moves behind
			// everything pending.
			s.buf[i].Kind = 0
			s.dead++
		}
		s.idx[k] = len(s.buf)
		s.buf = append(s.buf, ev)
		if s.dead > len(s.idx) {
			s.compactLocked()
		}
	}
	s.mu.Unlock()
	s.signal()
}

// inPlaceLocked reports whether ev may take over its pending slot i rather
// than move behind everything pending. A removal always moves: what of its
// machine is pending after slot i (an add, a dynamic update carrying its
// own payload) came before it and must not be applied after it. Any other
// kind moves only past a removal of its machine pending after slot i.
func (s *Subscription) inPlaceLocked(ev Event, i int) bool {
	if ev.Kind == EventRemoved {
		return false
	}
	j, ok := s.idx[subKey{EventRemoved, ev.Name}]
	return !ok || j < i
}

// compactLocked drops the vacated slots and re-indexes the rest, which
// keeps buf within twice the pending events.
func (s *Subscription) compactLocked() {
	s.dropDeadLocked()
	for i, ev := range s.buf {
		s.idx[subKey{ev.Kind, ev.Name}] = i
	}
}

// dropDeadLocked removes the vacated slots from buf, keeping order.
func (s *Subscription) dropDeadLocked() {
	if s.dead > 0 {
		s.buf = slices.DeleteFunc(s.buf, func(ev Event) bool { return ev.Kind == 0 })
		s.dead = 0
	}
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
	s.dead = 0
	clear(s.idx)
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
	s.dropDeadLocked()
	events, resync = s.buf, s.resync
	// Rotate buffers: the array handed out last time is free again (the
	// single consumer finished with it before polling anew).
	s.buf, s.prev = s.prev[:0], events
	clear(s.idx)
	s.resync = false
	return events, resync
}

// Pending reports how many coalesced events wait, plus the resync flag
// (observability and tests).
func (s *Subscription) Pending() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx), s.resync
}

// Close detaches the subscription from the backend. A blocked Ready
// receiver is woken; subsequent Polls return nothing.
func (s *Subscription) Close() {
	if s.hub != nil {
		s.hub.remove(s)
	}
	s.mu.Lock()
	s.closed = true
	s.buf, s.prev, s.idx = nil, nil, nil
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

// Watch subscribes to the change stream with a ring of the given capacity
// (buffer <= 0 selects DefaultWatchBuffer). Events observed strictly after
// Watch returns are guaranteed to be delivered, coalesced, or covered by a
// resync marker; there is no replay of earlier history.
func (h *watchHub) Watch(buffer int) *Subscription {
	if buffer <= 0 {
		buffer = DefaultWatchBuffer
	}
	s := &Subscription{
		hub:   h,
		ready: make(chan struct{}, 1),
		cap:   buffer,
		idx:   make(map[subKey]int),
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

// emit publishes one event to every subscriber. Engines call it while
// holding the mutated record's lock, so each machine's events are totally
// ordered; subscription mutexes are leaves below every engine lock.
func (h *watchHub) emit(ev Event) {
	if !h.active() {
		return
	}
	h.mu.RLock()
	for _, s := range h.subs {
		s.publish(ev)
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
