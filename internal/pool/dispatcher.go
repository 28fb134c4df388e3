package pool

import (
	"sync"
	"sync/atomic"

	"actyp/internal/registry"
)

// Dispatcher is the freshness bridge between the white pages and live
// pools: one registry change-stream subscription fanned out to every
// subscribed pool. It is the pools' scheduling process (Section 5.2.3:
// "processes or threads that order the machines on the basis of specified
// scheduling objectives"). Monitor updates reach pool caches as they
// happen, each batch folded through the engines' incremental Apply; when
// the subscription ring overflows and drops to its resync marker, the
// dispatcher degrades every pool to a full Refresh. One
// dispatcher serves any number of pools; pools subscribe at creation
// (Config.Events) and unsubscribe when they close.
type Dispatcher struct {
	sub *registry.Subscription

	// pools is keyed by identity, not instance id: managers racing to
	// create one pool name momentarily hold two pools with the same id,
	// and the loser's Close must never detach the surviving winner.
	mu    sync.Mutex
	pools map[*Pool]struct{}
	stop  chan struct{}
	done  chan struct{}

	batches atomic.Int64
	applied atomic.Int64
	resyncs atomic.Int64
}

// NewDispatcher subscribes to db's change stream with a ring of the given
// capacity; 0 takes DB.Watch's default, which holds two full monitor
// sweeps. Tests pass tiny rings to force the resync fallback. Call Start
// to begin draining and Stop to detach.
func NewDispatcher(db *registry.DB, buffer int) *Dispatcher {
	return &Dispatcher{
		sub:   db.Watch(buffer),
		pools: make(map[*Pool]struct{}),
	}
}

// Subscribe routes future change events to the pool.
func (d *Dispatcher) Subscribe(p *Pool) {
	d.mu.Lock()
	d.pools[p] = struct{}{}
	d.mu.Unlock()
}

// Unsubscribe stops routing events to the pool.
func (d *Dispatcher) Unsubscribe(p *Pool) {
	d.mu.Lock()
	delete(d.pools, p)
	d.mu.Unlock()
}

// Pools reports how many pools are currently subscribed.
func (d *Dispatcher) Pools() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.pools)
}

// Stats reports drained batches, events applied (batch size times pools
// reached), and resync fallbacks taken.
func (d *Dispatcher) Stats() (batches, applied, resyncs int64) {
	return d.batches.Load(), d.applied.Load(), d.resyncs.Load()
}

// Start launches the drain loop; starting twice is a no-op.
func (d *Dispatcher) Start() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stop != nil {
		return
	}
	d.stop = make(chan struct{})
	d.done = make(chan struct{})
	stop, done := d.stop, d.done
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-d.sub.Ready():
				d.Dispatch()
			}
		}
	}()
}

// Stop halts the drain loop, waits for it to exit, and detaches the
// registry subscription. Stopping a stopped dispatcher is a no-op.
func (d *Dispatcher) Stop() {
	d.mu.Lock()
	stop, done := d.stop, d.done
	d.stop, d.done = nil, nil
	d.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	d.sub.Close()
}

// Dispatch drains the pending events once, synchronously, and folds them
// into every subscribed pool — Apply on an ordinary batch, full Refresh
// when the ring overflowed to a resync marker. The drain loop calls it on
// readiness; tests call it directly for determinism. Closed pools found
// along the way are dropped.
func (d *Dispatcher) Dispatch() {
	events, resync := d.sub.Poll()
	if len(events) == 0 && !resync {
		return
	}
	d.batches.Add(1)
	if resync {
		d.resyncs.Add(1)
	}
	d.mu.Lock()
	pools := make([]*Pool, 0, len(d.pools))
	for p := range d.pools {
		pools = append(pools, p)
	}
	d.mu.Unlock()
	for _, p := range pools {
		if p.Closed() {
			d.Unsubscribe(p)
			continue
		}
		if resync {
			p.Refresh()
		} else {
			p.Apply(events)
		}
		d.applied.Add(int64(len(events)))
	}
}
