package pool

import (
	"sort"
	"sync"
	"time"
)

// Lease expiry. The paper's desktop relinquishes resources by notifying
// ActYP when a run completes; a desktop that crashes mid-run would strand
// its machine forever. Pools therefore support an optional lease lifetime:
// leases not renewed within TTL are reaped and their machines returned to
// the pool. Long runs renew periodically (the execution unit's heartbeat).

// leaseRow is one live lease in the pool's table: the engine slot of its
// machine, the machine's name, and its deadline (zero: no expiry).
type leaseRow struct {
	slot    int
	machine string
	expires time.Time
}

// LeaseInfo is one row of a pool's lease table as Leases reports it:
// enough to re-adopt the grant elsewhere. The access key and ports stay
// with the holder's Lease.
type LeaseInfo struct {
	ID      string
	Machine string
	Expires time.Time // zero: no expiry
}

// Leases enumerates the live leases, sorted by id.
func (p *Pool) Leases() []LeaseInfo {
	p.mu.Lock()
	out := make([]LeaseInfo, 0, len(p.leases))
	for id, row := range p.leases {
		out = append(out, LeaseInfo{ID: id, Machine: row.machine, Expires: row.expires})
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Free returns how many machines are currently unleased.
func (p *Pool) Free() int {
	p.mu.Lock()
	live := len(p.leases)
	p.mu.Unlock()
	return p.Size() - live
}

// Release frees the machine held by a lease. It deliberately skips the
// closed check — outstanding leases stay releasable while the pool shuts
// down — but still holds the lifecycle lock shared so Close waits out
// in-flight releases like every other lease operation.
func (p *Pool) Release(leaseID string) error {
	p.life.RLock()
	defer p.life.RUnlock()
	p.mu.Lock()
	row, ok := p.leases[leaseID]
	delete(p.leases, leaseID)
	p.mu.Unlock()
	if !ok {
		return p.unknownLease(leaseID)
	}
	p.engine.Return(row.slot)
	if p.log != nil {
		p.log.LeaseReleased(leaseID)
	}
	return nil
}

// Renew extends a live lease's lifetime by the pool's TTL from now.
// Renewing an unknown (possibly already-reaped) lease is an error the
// holder must treat as "your machine is gone". On pools without a TTL it
// is a validity check: any existing deadline (an adopted lease's) is left
// untouched.
func (p *Pool) Renew(leaseID string) error {
	p.life.RLock()
	defer p.life.RUnlock()
	var expires time.Time
	if p.leaseTTL > 0 {
		expires = p.clock().Add(p.leaseTTL)
	}
	p.mu.Lock()
	row, ok := p.leases[leaseID]
	if ok && !expires.IsZero() {
		row.expires = expires
		p.leases[leaseID] = row
	}
	p.mu.Unlock()
	if !ok {
		return p.unknownLease(leaseID)
	}
	if p.log != nil && !expires.IsZero() {
		p.log.LeaseRenewed(leaseID, expires)
	}
	return nil
}

// Reap releases every lease whose lifetime has passed, returning the
// reaped lease ids (in no particular order). Pools with expiry disabled
// never reap.
func (p *Pool) Reap() []string {
	p.life.RLock()
	defer p.life.RUnlock()
	if p.leaseTTL <= 0 {
		return nil
	}
	now := p.clock()
	var ids []string
	var slots []int
	p.mu.Lock()
	for id, row := range p.leases {
		if row.expires.IsZero() || row.expires.After(now) {
			continue
		}
		delete(p.leases, id)
		ids = append(ids, id)
		slots = append(slots, row.slot)
	}
	p.mu.Unlock()
	for _, slot := range slots {
		p.engine.Return(slot)
	}
	if p.log != nil {
		for _, id := range ids {
			p.log.LeaseReleased(id)
		}
	}
	return ids
}

// Reaper periodically reaps expired leases on a set of pools.
type Reaper struct {
	interval time.Duration
	pools    func() []*Pool

	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}

	statMu sync.Mutex
	reaped int
}

// NewReaper builds a reaper over a dynamic pool source (so pools created
// after the reaper starts are covered). A non-positive interval defaults
// to 30 seconds.
func NewReaper(pools func() []*Pool, interval time.Duration) *Reaper {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	return &Reaper{interval: interval, pools: pools}
}

// Sweep reaps once, synchronously, returning how many leases it freed.
func (r *Reaper) Sweep() int {
	n := 0
	for _, p := range r.pools() {
		n += len(p.Reap())
	}
	r.statMu.Lock()
	r.reaped += n
	r.statMu.Unlock()
	return n
}

// Reaped returns the lifetime count of reaped leases.
func (r *Reaper) Reaped() int {
	r.statMu.Lock()
	defer r.statMu.Unlock()
	return r.reaped
}

// Start launches the periodic sweep; double start is a no-op.
func (r *Reaper) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stop != nil {
		return
	}
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	stop, done := r.stop, r.done
	go func() {
		defer close(done)
		t := time.NewTicker(r.interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				r.Sweep()
			}
		}
	}()
}

// Stop halts the periodic sweep; double stop is a no-op.
func (r *Reaper) Stop() {
	r.mu.Lock()
	stop, done := r.stop, r.done
	r.stop, r.done = nil, nil
	r.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
