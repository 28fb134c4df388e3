package wire

import (
	"sync"
	"time"

	"actyp/internal/metrics"
)

// Overload control: under saturation a strictly-FIFO dispatch window lets
// a flood of bulk queries starve the cheap control frames (Ping/Renew)
// that keep leases alive, turning transient overload into mass lease
// loss. The Lanes dispatcher classifies decoded envelopes into priority
// lanes and serves them strict-control-first, then weighted round-robin
// between the lease and bulk lanes; token-bucket admission and
// deadline-aware shedding reject work with a cheap Busy reply before it
// occupies a queue slot or a worker.

// Lane is a dispatch priority class. The numeric values double as
// metrics class indices (metrics.ClassControl etc.).
type Lane int

const (
	// LaneControl carries the cheap frames that keep the system alive:
	// liveness pings, lease renewals and releases on every protocol.
	// Control frames are never shed and always dispatch first.
	LaneControl Lane = iota
	// LaneLease carries lease acquisition: proxy pool spawns and
	// allocations, and the stage protocol's resolve.
	LaneLease
	// LaneBulk carries queries and everything unclassified.
	LaneBulk
	numLanes
)

// String returns the lane's display name.
func (l Lane) String() string {
	switch l {
	case LaneControl:
		return "control"
	case LaneLease:
		return "lease"
	}
	return "bulk"
}

// AdmitFunc decides whether a decoded request may occupy a queue slot.
// It is called from the read loop before any worker is involved, so it
// must be cheap. A false return sheds the request with a Busy reply
// hinting the caller to stay away for retryAfter.
type AdmitFunc func(env *Envelope) (ok bool, retryAfter time.Duration)

// DefaultLaneQueueCap is the per-lane queue capacity used when a policy
// does not set one.
const DefaultLaneQueueCap = 64

// DefaultLeaseWeight and DefaultBulkWeight are the weighted round-robin
// shares used between the lease and bulk lanes when no control frame is
// waiting: four lease dispatches per bulk dispatch.
const (
	DefaultLeaseWeight = 4
	DefaultBulkWeight  = 1
)

// OverloadPolicy configures the overload-control dispatch path. A nil
// policy on ServeOptions keeps the original single-FIFO behaviour.
type OverloadPolicy struct {
	// LeaseWeight and BulkWeight set the round-robin shares between the
	// lease and bulk lanes; values below 1 take the defaults (4 and 1).
	LeaseWeight int
	BulkWeight  int
	// QueueCap bounds each lane's queue; below 1 takes
	// DefaultLaneQueueCap. A full lease or bulk lane sheds with Busy; a
	// full control lane blocks the reader (control is never shed), which
	// pushes back through the kernel socket buffer exactly like the
	// FIFO path's saturated window.
	QueueCap int
	// Admit, when set, gates lease and bulk requests before they occupy
	// a queue slot (control frames are always admitted). Typically a
	// per-account token bucket keyed off Envelope.From.
	Admit AdmitFunc
	// Stats, when set, receives per-class admitted/shed/expired/done
	// counters and live queue-depth gauges.
	Stats *metrics.OverloadStats
	// Now is the clock (tests inject one); nil means time.Now.
	Now func() time.Time
}

func (p *OverloadPolicy) now() time.Time {
	if p.Now != nil {
		return p.Now()
	}
	return time.Now()
}

func (p *OverloadPolicy) queueCap() int {
	if p.QueueCap < 1 {
		return DefaultLaneQueueCap
	}
	return p.QueueCap
}

func (p *OverloadPolicy) leaseWeight() int {
	if p.LeaseWeight < 1 {
		return DefaultLeaseWeight
	}
	return p.LeaseWeight
}

func (p *OverloadPolicy) bulkWeight() int {
	if p.BulkWeight < 1 {
		return DefaultBulkWeight
	}
	return p.BulkWeight
}

// laneItem is one queued request plus transport-specific context (the
// UDP path carries the reply address; TCP needs none).
type laneItem struct {
	env  *Envelope
	meta any
}

// Lanes is the per-lane queue set one overloaded endpoint dispatches
// from. Producers Offer decoded envelopes (shedding over-limit or
// expired ones via the shed callback); consumers Pop them in priority
// order. Both TCP connections (ServeConnOpts) and the UDP window path
// share it.
type Lanes struct {
	policy *OverloadPolicy
	// shed emits a Busy reply for a request rejected before dispatch.
	// It is called from Offer's caller goroutine or a popper, never
	// under the queue lock.
	shed func(env *Envelope, meta any, busy *BusyReply)

	mu      sync.Mutex
	cond    *sync.Cond
	q       [numLanes][]laneItem
	credits [numLanes]int
	closed  bool
}

// NewLanes builds a lane set under policy. shed is invoked (not under
// any lock) for every request rejected before dispatch, with the Busy
// reply to deliver; it must not block indefinitely.
func NewLanes(policy *OverloadPolicy, shed func(env *Envelope, meta any, busy *BusyReply)) *Lanes {
	l := &Lanes{policy: policy, shed: shed}
	l.cond = sync.NewCond(&l.mu)
	l.credits[LaneLease] = policy.leaseWeight()
	l.credits[LaneBulk] = policy.bulkWeight()
	return l
}

// Offer classifies env and enqueues it, returning true if it was
// admitted to a lane queue. meta rides along untouched and comes back
// from Pop (and the shed callback). Lease and bulk requests are shed
// (false, with a Busy reply via the shed callback) when their deadline
// has already expired, the admission gate rejects them, or their lane is
// full. Control frames are never shed: a full control lane blocks the
// caller until space frees, and only a closed lane set drops them
// (the connection is dying; no reply can be delivered anyway).
func (l *Lanes) Offer(env *Envelope, meta any) bool {
	lane := LaneOf(env.Type)
	stats := l.policy.Stats
	if lane != LaneControl {
		if env.Expired(l.policy.now()) {
			if stats != nil {
				stats.Expired(int(lane))
			}
			l.shed(env, meta, &BusyReply{Reason: "deadline expired before dispatch"})
			return false
		}
		if l.policy.Admit != nil {
			if ok, retry := l.policy.Admit(env); !ok {
				if stats != nil {
					stats.Shed(int(lane))
				}
				l.shed(env, meta, &BusyReply{RetryAfterMS: retry.Milliseconds(), Reason: "over admission limit"})
				return false
			}
		}
	}
	l.mu.Lock()
	if lane == LaneControl {
		for !l.closed && len(l.q[lane]) >= l.policy.queueCap() {
			l.cond.Wait()
		}
	} else if len(l.q[lane]) >= l.policy.queueCap() {
		l.mu.Unlock()
		if stats != nil {
			stats.Shed(int(lane))
		}
		l.shed(env, meta, &BusyReply{Reason: "lane queue full"})
		return false
	}
	if l.closed {
		l.mu.Unlock()
		return false
	}
	l.q[lane] = append(l.q[lane], laneItem{env: env, meta: meta})
	l.mu.Unlock()
	l.cond.Broadcast()
	if stats != nil {
		stats.Admitted(int(lane))
		stats.DepthAdd(int(lane), 1)
	}
	return true
}

// Pop blocks for the next envelope in priority order: control first,
// then weighted round-robin between lease and bulk. Requests whose
// deadline expired while queued are shed (Busy via the callback) and
// skipped. Pop returns false only when the lane set is closed AND
// drained — envelopes already queued at Close still come out, matching
// the FIFO path's promise that every read frame is dispatched.
func (l *Lanes) Pop() (*Envelope, any, Lane, bool) {
	stats := l.policy.Stats
	for {
		l.mu.Lock()
		for !l.closed && l.emptyLocked() {
			l.cond.Wait()
		}
		if l.emptyLocked() {
			l.mu.Unlock()
			return nil, nil, 0, false
		}
		lane := l.pickLocked()
		item := l.q[lane][0]
		l.q[lane][0] = laneItem{} // release the references for GC
		l.q[lane] = l.q[lane][1:]
		l.mu.Unlock()
		l.cond.Broadcast() // space freed: wake a blocked control Offer
		if stats != nil {
			stats.DepthAdd(int(lane), -1)
		}
		if lane != LaneControl && item.env.Expired(l.policy.now()) {
			if stats != nil {
				stats.Expired(int(lane))
			}
			l.shed(item.env, item.meta, &BusyReply{Reason: "deadline expired before dispatch"})
			continue
		}
		return item.env, item.meta, lane, true
	}
}

// Done records one completed handler for goodput accounting.
func (l *Lanes) Done(lane Lane) {
	if s := l.policy.Stats; s != nil {
		s.Done(int(lane))
	}
}

// Close marks the lane set finished: blocked Offers return false,
// blocked Pops drain what is queued and then return false.
func (l *Lanes) Close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

func (l *Lanes) emptyLocked() bool {
	for i := range l.q {
		if len(l.q[i]) > 0 {
			return false
		}
	}
	return true
}

// pickLocked returns the lane to serve next: control strictly first,
// otherwise weighted round-robin between lease and bulk (credits refill
// when every waiting lane has spent its share). At least one lane is
// non-empty when called.
func (l *Lanes) pickLocked() Lane {
	if len(l.q[LaneControl]) > 0 {
		return LaneControl
	}
	for {
		for _, lane := range [...]Lane{LaneLease, LaneBulk} {
			if len(l.q[lane]) > 0 && l.credits[lane] > 0 {
				l.credits[lane]--
				return lane
			}
		}
		l.credits[LaneLease] = l.policy.leaseWeight()
		l.credits[LaneBulk] = l.policy.bulkWeight()
	}
}

// BusyEnvelope wraps a BusyReply correlated to the shed request.
func BusyEnvelope(id uint64, busy *BusyReply) *Envelope {
	return &Envelope{Type: TypeBusy, ID: id, Msg: *busy}
}
