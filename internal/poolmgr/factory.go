package poolmgr

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"actyp/internal/directory"
	"actyp/internal/policy"
	"actyp/internal/pool"
	"actyp/internal/query"
	"actyp/internal/registry"
	"actyp/internal/schedule"
)

// LocalFactory creates pool instances in-process ("if the resource pool
// and the pool manager are on the same machine, the pool manager simply
// forks a process that initializes itself", Section 5.2.3 — a goroutine-
// backed object here). It tracks every pool it created so they can be shut
// down together.
type LocalFactory struct {
	// DB is the white-pages database new pools initialize from. Required.
	DB *registry.DB
	// Family is the query family (default "punch").
	Family string
	// Objective names the scheduling objective for new pools (default
	// least-load). Each pool gets a fresh instance.
	Objective string
	// MaxMachines caps pool sizes (0: unlimited).
	MaxMachines int
	// NonExclusive makes created pools share their machines instead of
	// taking them (by default instance 0 takes them; replicas share
	// automatically).
	NonExclusive bool
	// ScanCost is forwarded to created pools; see pool.Config.ScanCost.
	ScanCost time.Duration
	// Policies is forwarded to created pools; see pool.Config.Policies.
	Policies *policy.Store
	// LeaseTTL is forwarded to created pools; see pool.Config.LeaseTTL.
	LeaseTTL time.Duration
	// Engine selects the allocation engine of created pools; see
	// pool.Config.Engine.
	Engine string
	// Events, when non-nil, subscribes every created pool to the registry
	// change stream for incremental refresh; pools unsubscribe themselves
	// on Close, so the subscription follows the pool across the manager's
	// whole create/close lifecycle (including race-loser closes). See
	// pool.Config.Events.
	Events *pool.Dispatcher
	// Log is forwarded to created pools; see pool.Config.Log.
	Log pool.LeaseLog

	mu      sync.Mutex
	created []*pool.Pool
}

// Create implements Factory.
func (f *LocalFactory) Create(name query.PoolName, instance int) (directory.PoolRef, error) {
	return f.Build(pool.Config{
		Name:        name,
		Instance:    instance,
		MaxMachines: f.MaxMachines,
		Exclusive:   !f.NonExclusive && instance == 0,
	})
}

// Build creates a pool whose name, instance and shape (Members,
// Exclusive, MaxMachines, Replicas) come from cfg and whose every other
// setting is this factory's: database, family, objective, scan cost,
// policies, lease TTL, engine, change stream and lease log. Create, the
// administrator's splits and replicas, and journal adoption all build
// through it, so every pool of a node keeps the node's settings and
// CloseAll reaches it.
//
// Adoption rebuilds a pool from a journal replay or a domain handoff:
// cfg.Members lists exactly the machines whose taken marks (exclusive) or
// live leases (non-exclusive replicas) survived, instead of a white-pages
// walk by criteria whose free machines a concurrent creation could race
// for. An exclusive member list relies on the members already carrying
// this instance's taken mark; pool.New's member path loads without
// re-taking, and the marks then release normally on Close.
func (f *LocalFactory) Build(cfg pool.Config) (directory.PoolRef, error) {
	if f.DB == nil {
		return directory.PoolRef{}, fmt.Errorf("poolmgr: local factory needs a database")
	}
	obj, err := schedule.ByName(f.Objective)
	if err != nil {
		return directory.PoolRef{}, err
	}
	cfg.Family = f.Family
	cfg.DB = f.DB
	cfg.Objective = obj
	cfg.ScanCost = f.ScanCost
	cfg.Policies = f.Policies
	cfg.LeaseTTL = f.LeaseTTL
	cfg.Engine = f.Engine
	cfg.Events = f.Events
	cfg.Log = f.Log
	p, err := pool.New(cfg)
	if err != nil {
		return directory.PoolRef{}, err
	}
	f.mu.Lock()
	f.created = append(f.created, p)
	f.mu.Unlock()
	return directory.PoolRef{Name: cfg.Name, Instance: p.ID(), Local: p}, nil
}

// Pools returns every pool this factory created that is still open or
// still holds a lease. It forgets a pool here once it is closed (a split
// parent, a creation-race loser, a dropped domain's pool) and its last
// lease has ended: until then the pool is the only way to reach those
// leases, for the reaper and for a domain export or drop.
func (f *LocalFactory) Pools() []*pool.Pool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.created = slices.DeleteFunc(f.created, func(p *pool.Pool) bool {
		return p.Closed() && p.Free() == p.Size()
	})
	return slices.Clone(f.created)
}

// CloseAll shuts down every created pool, releasing their machines.
func (f *LocalFactory) CloseAll() {
	for _, p := range f.Pools() {
		p.Close()
	}
}
