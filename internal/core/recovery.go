package core

import (
	"context"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"actyp/internal/pool"
	"actyp/internal/query"
	"actyp/internal/registry"
)

// RecoveredLease is one lease the durability journal replayed: the full
// lease and its last known deadline. core deliberately does not import
// the journal package; the daemon converts journal records into these.
type RecoveredLease struct {
	Lease   pool.Lease
	Expires time.Time
}

// RecoverOptions tunes crash-recovery reconciliation.
type RecoverOptions struct {
	// Grace extends every restored lease's deadline to at least now+Grace,
	// giving holders whose renewals were in flight during the outage a
	// full TTL to heartbeat again before the reaper considers them dead.
	// Zero defaults to the service's LeaseTTL.
	Grace time.Duration
	// Probe, when set, is asked whether each lease's holder is still
	// alive; dead holders' leases are released instead of restored. Nil
	// restores every lease and leaves liveness to the TTL reaper — the
	// daemon's real liveness signal is renewals, and a holder that never
	// renews is reaped after Grace anyway.
	Probe func(ctx context.Context, l *pool.Lease) bool
	// ProbeConcurrency bounds concurrent probes (default 16).
	ProbeConcurrency int
	// ProbeTimeout bounds each probe call (default 2s).
	ProbeTimeout time.Duration
	// Logf receives per-lease reconciliation notes (nil: discarded).
	Logf func(format string, args ...any)
}

// RecoveryReport summarizes what Recover did.
type RecoveryReport struct {
	Restored     int // leases re-adopted into rebuilt pools
	Reaped       int // leases whose holders failed the probe
	Dropped      int // leases dropped (pool unreconstructable or adoption conflict)
	PoolsAdopted int // pool instances rebuilt from taken marks
}

// Recover reconciles replayed journal state with reality: probe the
// holders of the leases (dead ones are released), rebuild the pool
// instances the surviving leases and the registry's taken marks imply,
// and re-adopt the surviving leases into those pools. Leases this node
// won through a peer need nothing: their ids carry the route. It must run
// after New and before the service starts taking traffic.
//
// The registry behind the service must already hold the replayed records;
// taken marks inside them are what exclusive pool adoption feeds on.
func (s *Service) Recover(leases []RecoveredLease, opts RecoverOptions) (RecoveryReport, error) {
	var rep RecoveryReport
	if opts.Grace <= 0 {
		opts.Grace = s.opts.LeaseTTL
	}
	if opts.ProbeConcurrency <= 0 {
		opts.ProbeConcurrency = 16
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = 2 * time.Second
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// Probe sweep: bounded-concurrency liveness checks on the lease
	// holders. A dead holder's lease is released — taken mark cleared,
	// journal told — so the machine goes back into circulation
	// immediately instead of after a reap cycle.
	alive := leases
	if opts.Probe != nil && len(leases) > 0 {
		verdicts := make([]bool, len(leases))
		sem := make(chan struct{}, opts.ProbeConcurrency)
		var wg sync.WaitGroup
		for i := range leases {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				ctx, cancel := context.WithTimeout(context.Background(), opts.ProbeTimeout)
				defer cancel()
				verdicts[i] = opts.Probe(ctx, &leases[i].Lease)
			}(i)
		}
		wg.Wait()
		alive = make([]RecoveredLease, 0, len(leases))
		for i, rl := range leases {
			if verdicts[i] {
				alive = append(alive, rl)
				continue
			}
			s.db.Release(rl.Lease.Pool, rl.Lease.Machine)
			if s.opts.LeaseLog != nil {
				s.opts.LeaseLog.LeaseReleased(rl.Lease.ID)
			}
			logf("recover: holder of %s (%s) is dead; released", rl.Lease.ID, rl.Lease.Machine)
			rep.Reaped++
		}
	}

	// Rebuild pool instances: every instance a surviving lease names, plus
	// every instance still holding taken marks in the registry (a pool can
	// exist with zero live leases — without adoption its marks would
	// strand the machines forever).
	byInstance := map[string][]RecoveredLease{}
	for _, rl := range alive {
		byInstance[rl.Lease.Pool] = append(byInstance[rl.Lease.Pool], rl)
	}
	s.db.Walk(func(m *registry.Machine) bool {
		if m.TakenBy != "" {
			if _, ok := byInstance[m.TakenBy]; !ok {
				byInstance[m.TakenBy] = nil
			}
		}
		return true
	})
	instances := make([]string, 0, len(byInstance))
	for inst := range byInstance {
		instances = append(instances, inst)
	}
	sort.Strings(instances)

	dropAll := func(inst string, ls []RecoveredLease, why error) {
		s.db.ReleaseAll(inst)
		for _, rl := range ls {
			if s.opts.LeaseLog != nil {
				s.opts.LeaseLog.LeaseReleased(rl.Lease.ID)
			}
			rep.Dropped++
		}
		logf("recover: pool %s not reconstructable (%v); released its claims and %d leases", inst, why, len(ls))
	}

	now := time.Now()
	for _, inst := range instances {
		ls := byInstance[inst]
		name, num, err := parsePoolInstance(inst)
		if err != nil {
			dropAll(inst, ls, err)
			continue
		}
		// Exclusive pools load from their surviving taken marks; a pool
		// with none (a non-exclusive replica's leases) loads its lease
		// machines shared.
		members := s.db.TakenBy(inst)
		exclusive := len(members) > 0
		if !exclusive {
			seen := map[string]bool{}
			for _, rl := range ls {
				if !seen[rl.Lease.Machine] {
					seen[rl.Lease.Machine] = true
					members = append(members, rl.Lease.Machine)
				}
			}
			sort.Strings(members)
		}
		if len(members) == 0 {
			continue // instance evaporated entirely; nothing to rebuild
		}
		ref, err := s.factory.Build(pool.Config{Name: name, Instance: num, Members: members, Exclusive: exclusive})
		if err != nil {
			dropAll(inst, ls, err)
			continue
		}
		if err := s.dir.Register(ref); err != nil {
			dropAll(inst, ls, err)
			continue
		}
		rep.PoolsAdopted++
		p := ref.Local.(*pool.Pool)
		for _, rl := range ls {
			expires := rl.Expires
			if opts.Grace > 0 {
				if floor := now.Add(opts.Grace); expires.Before(floor) {
					expires = floor
				}
			}
			lease := rl.Lease
			if err := p.AdoptLease(&lease, expires); err != nil {
				s.db.Release(inst, rl.Lease.Machine)
				if s.opts.LeaseLog != nil {
					s.opts.LeaseLog.LeaseReleased(rl.Lease.ID)
				}
				logf("recover: lease %s not adoptable (%v); released", rl.Lease.ID, err)
				rep.Dropped++
				continue
			}
			rep.Restored++
		}
	}
	return rep, nil
}

// parsePoolInstance splits a pool instance id ("sig/ident#N") back into
// its name and replica number. The identifier may itself contain '#'
// (attribute values are free-form), so the split takes the LAST one.
func parsePoolInstance(inst string) (query.PoolName, int, error) {
	idx := strings.LastIndexByte(inst, '#')
	if idx < 0 {
		return query.PoolName{}, 0, errNoInstanceSep(inst)
	}
	name, err := query.ParsePoolName(inst[:idx])
	if err != nil {
		return query.PoolName{}, 0, err
	}
	num, err := strconv.Atoi(inst[idx+1:])
	if err != nil {
		return query.PoolName{}, 0, err
	}
	return name, num, nil
}

type errNoInstanceSep string

func (e errNoInstanceSep) Error() string {
	return "core: pool instance " + strconv.Quote(string(e)) + " has no '#'"
}
