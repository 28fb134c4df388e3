package pool

// Lease-op observation and adoption: the two halves of lease durability.
// A LeaseLog watches every grant/renew/release so an external journal can
// record them; AdoptLease is the inverse, re-installing a replayed lease
// into a freshly rebuilt pool without minting a new one.

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// LeaseLog observes lease lifecycle operations on a pool. The durability
// journal implements it to make grants crash-survivable. Implementations
// must be safe for concurrent use and must not block for long: the hooks
// run on the allocate/release/renew hot paths (with fsync=always the
// grant deliberately waits for the disk — that is the policy's point).
// Hooks fire only after the engine committed the operation, and the Lease
// pointer must not be mutated or retained past the call.
type LeaseLog interface {
	// LeaseGranted records a new lease and its deadline (zero: no expiry).
	LeaseGranted(l *Lease, expires time.Time)
	// LeaseReleased records a release by lease id (explicit or reaped).
	LeaseReleased(leaseID string)
	// LeaseRenewed records a renewed deadline.
	LeaseRenewed(leaseID string, expires time.Time)
}

// AdoptLease re-installs a replayed lease into this pool: the engine
// claims the machine, the table gets a row under the lease's original id
// and the given deadline, and the pool's sequence counter is advanced past
// the id so future grants cannot collide with it. Adoption is idempotent
// per (id, machine) and is NOT re-logged — the journal already holds the
// lease it replayed from. A busy machine or a non-member refuses it.
// Recovery calls it before the pool starts serving.
func (p *Pool) AdoptLease(l *Lease, expires time.Time) error {
	if l == nil || l.ID == "" || l.Machine == "" {
		return fmt.Errorf("pool %s: adopt needs a lease id and machine", p.id)
	}
	p.life.RLock()
	defer p.life.RUnlock()
	if p.closed {
		return fmt.Errorf("pool %s: closed", p.id)
	}
	if err := p.adopt(l.ID, l.Machine, expires); err != nil {
		return fmt.Errorf("pool %s: adopt %s: %w", p.id, l.ID, err)
	}
	// Advance the sequence floor monotonically. Recovery runs before the
	// pool serves, so the simple load/store race window never matters in
	// practice, but keep it correct anyway.
	if seq, ok := leaseSeq(l.ID); ok {
		for {
			cur := p.nextSeq.Load()
			if seq <= cur || p.nextSeq.CompareAndSwap(cur, seq) {
				break
			}
		}
	}
	return nil
}

// adopt claims the machine in the engine and inserts the lease's row,
// holding the table lock throughout so a concurrent adoption of the same
// lease sees either nothing or the whole row.
func (p *Pool) adopt(leaseID, machine string, expires time.Time) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if row, ok := p.leases[leaseID]; ok {
		if row.machine == machine {
			return nil // idempotent re-adoption
		}
		return fmt.Errorf("lease already held on machine %s", row.machine)
	}
	slot, err := p.engine.Claim(machine)
	if err != nil {
		for id, row := range p.leases {
			if row.machine == machine {
				return fmt.Errorf("machine %s %w under %s", machine, err, id)
			}
		}
		return fmt.Errorf("machine %s %w", machine, err)
	}
	p.leases[leaseID] = leaseRow{slot: slot, machine: machine, expires: expires}
	return nil
}

// leaseSeq extracts the sequence number from a lease id of the form
// "<poolInstance>:<seq>:<keyPrefix>". The pool instance may itself
// contain colons (identifiers are user-supplied), so parse from the end.
func leaseSeq(id string) (int64, bool) {
	i := strings.LastIndexByte(id, ':')
	if i < 0 {
		return 0, false
	}
	j := strings.LastIndexByte(id[:i], ':')
	if j < 0 {
		return 0, false
	}
	seq, err := strconv.ParseInt(id[j+1:i], 10, 64)
	if err != nil || seq < 0 {
		return 0, false
	}
	return seq, true
}
