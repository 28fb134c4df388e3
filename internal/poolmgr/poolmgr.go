// Package poolmgr implements ActYP pool managers (Section 5.2.2). A pool
// manager maps each basic query to a pool name (signature + identifier),
// selects a random instance of that pool through the local directory
// service, creates pool instances on demand, and — when the requested
// resources are not available locally — forwards the query to a peer pool
// manager, carrying a visited list and a time-to-live counter with the
// query exactly as IP datagrams carry a TTL.
//
// The manager itself holds no lock on the request path: instance
// selection draws from a lock-free deterministic sequence, counters are
// atomic, and pool creation coalesces concurrent creators per pool
// signature (creating pool A never blocks creating pool B).
package poolmgr

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"actyp/internal/directory"
	"actyp/internal/metrics"
	"actyp/internal/pool"
	"actyp/internal/query"
	"actyp/internal/route"
)

// DefaultTTL is the forwarding budget attached to queries that arrive
// without one.
const DefaultTTL = 4

// ErrTTLExpired is returned when a query's time-to-live counter reaches
// zero before any pool manager could satisfy it. Per the paper, "the
// request is considered to have failed when the counter reaches zero."
var ErrTTLExpired = errors.New("poolmgr: query TTL expired")

// ErrUnresolvable is returned when the local manager cannot satisfy the
// query and no un-visited peer remains to forward it to.
var ErrUnresolvable = errors.New("poolmgr: no pool and no remaining peers")

// Factory creates resource-pool instances on demand. The local factory
// forks in-process pools; the networked mode substitutes one that spawns
// pools through remote proxy servers.
type Factory interface {
	// Create builds and starts instance `instance` of the named pool and
	// returns a directory reference to it.
	Create(name query.PoolName, instance int) (directory.PoolRef, error)
}

// Config describes a pool manager.
type Config struct {
	// Name identifies this manager in visited lists. Required.
	Name string
	// Dir is the local directory service. Required.
	Dir *directory.Service
	// Factory creates pools on demand; nil managers never create pools
	// and always delegate or fail.
	Factory Factory
	// Seed makes instance selection deterministic in tests; 0 uses a
	// fixed default.
	Seed int64
	// TTL is attached to queries arriving without one (default
	// DefaultTTL).
	TTL int
	// Fanout is the delegation ladder's width after a local miss: how many
	// peers may be tried concurrently, first granted lease winning. Values
	// <= 1 keep the paper's serial peer walk; the directed hop to a
	// domain's owner is always width 1. See fanout.go.
	Fanout int
	// HedgeDelay staggers fan-out branches: each next branch launches
	// only after the previous ones have had this long to answer. Zero
	// launches the full width at once.
	HedgeDelay time.Duration
	// Stats, when set, counts fan-outs, per-peer wins and failures,
	// hedges fired, and cancelled losers. Nil disables the accounting.
	Stats *metrics.FederationStats
	// Routes, when set, is the domain-ownership table: a query pinning a
	// domain owned by a remote peer takes a directed hop to the owner (the
	// ladder over the owner alone) before the local scan, and a release or
	// renewal no hop can carry goes to the domain's current owner (see
	// routeLease). Nil keeps pre-partition behaviour.
	Routes *route.Table
}

// Manager is one pool-manager stage instance.
type Manager struct {
	name       string
	dir        *directory.Service
	factory    Factory
	ttl        int
	fanout     int
	hedgeDelay time.Duration
	fstats     *metrics.FederationStats // nil-safe; see metrics.FederationStats
	routes     *route.Table             // nil: no domain-ownership routing

	seed    uint64
	pickSeq atomic.Uint64

	// createMu guards only the in-flight creation table; the creations
	// themselves (which Take machines from the white pages) run outside
	// it, one flight per pool signature.
	createMu sync.Mutex
	creating map[string]*createCall

	resolved  atomic.Int64
	created   atomic.Int64
	forwarded atomic.Int64
	failed    atomic.Int64
}

// createCall is one in-flight pool creation; concurrent creators of the
// same signature share its result.
type createCall struct {
	done chan struct{}
	ref  directory.PoolRef
	err  error
}

// New creates a pool manager.
func New(cfg Config) (*Manager, error) {
	if err := CheckNodeName(cfg.Name); err != nil {
		return nil, err
	}
	if cfg.Dir == nil {
		return nil, fmt.Errorf("poolmgr: config needs a directory service")
	}
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTL
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Manager{
		name:       cfg.Name,
		dir:        cfg.Dir,
		factory:    cfg.Factory,
		ttl:        cfg.TTL,
		fanout:     cfg.Fanout,
		hedgeDelay: cfg.HedgeDelay,
		fstats:     cfg.Stats,
		routes:     cfg.Routes,
		seed:       uint64(seed),
		creating:   make(map[string]*createCall),
	}, nil
}

// Name implements directory.Forwarder.
func (m *Manager) Name() string { return m.name }

// pickStart returns a pseudo-random index in [0, n): one splitmix64 draw
// from a lock-free sequence, deterministic per seed, so random instance
// selection (the paper's policy) never serializes requests on a shared
// rand.Rand mutex.
func (m *Manager) pickStart(n int) int {
	if n <= 1 {
		return 0
	}
	x := m.seed + m.pickSeq.Add(1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}

// Resolve maps the basic query to a pool name and allocates a machine,
// creating the pool if necessary and delegating to peers when local
// resolution fails. It is the entry point used by query managers.
func (m *Manager) Resolve(q *query.Query) (*pool.Lease, error) {
	return m.Forward(q, m.ttl, nil)
}

// Forward is ForwardContext without cancellation: it continues resolution
// of a query that carries delegation state. The visited list prevents the
// query from reaching any manager twice; the TTL bounds total hops. The
// delegation ladder is serial with Config.Fanout <= 1, a bounded first-win
// race otherwise (see fanout.go).
func (m *Manager) Forward(q *query.Query, ttl int, visited []string) (*pool.Lease, error) {
	return m.ForwardContext(context.Background(), q, ttl, visited)
}

// resolveLocal looks the pool up in the directory (creating it when
// needed) and allocates from a randomly selected instance. If the selected
// instance is exhausted it fails over to the remaining instances of the
// same pool name before reporting failure.
func (m *Manager) resolveLocal(name query.PoolName, q *query.Query) (*pool.Lease, error) {
	refs := m.dir.Lookup(name)
	if len(refs) == 0 {
		created, err := m.create(name)
		if err != nil {
			return nil, err
		}
		refs = []directory.PoolRef{created}
	}
	// Start at a random instance, then walk the rest in order.
	start := m.pickStart(len(refs))
	var lastErr error
	for i := 0; i < len(refs); i++ {
		ref := refs[(start+i)%len(refs)]
		if ref.Local == nil {
			lastErr = fmt.Errorf("poolmgr %s: instance %s has no local handle", m.name, ref.Instance)
			continue
		}
		lease, err := ref.Local.Allocate(q)
		if err == nil {
			return lease, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// create coalesces concurrent creations of one pool signature into a
// single flight — and only that signature's: creating pool A (which Takes
// machines from the white pages) never blocks creating pool B.
func (m *Manager) create(name query.PoolName) (directory.PoolRef, error) {
	if m.factory == nil {
		return directory.PoolRef{}, fmt.Errorf("poolmgr %s: no factory to create pool %s", m.name, name)
	}
	key := name.String()
	m.createMu.Lock()
	if c, ok := m.creating[key]; ok {
		m.createMu.Unlock()
		<-c.done
		return c.ref, c.err
	}
	c := &createCall{done: make(chan struct{})}
	m.creating[key] = c
	m.createMu.Unlock()

	c.ref, c.err = m.buildPool(name)
	m.createMu.Lock()
	delete(m.creating, key)
	m.createMu.Unlock()
	close(c.done)
	return c.ref, c.err
}

// buildPool creates instance 0 of a missing pool through the factory and
// registers it. A creator that finds the pool already registered (an
// earlier flight, or a peer manager sharing the directory) adopts the
// existing registration instead.
func (m *Manager) buildPool(name query.PoolName) (directory.PoolRef, error) {
	if refs := m.dir.Lookup(name); len(refs) > 0 {
		return refs[m.pickStart(len(refs))], nil
	}
	ref, err := m.factory.Create(name, 0)
	if err != nil {
		return directory.PoolRef{}, fmt.Errorf("poolmgr %s: create %s: %w", m.name, name, err)
	}
	if err := m.dir.Register(ref); err != nil {
		// Lost a cross-manager race. Shut our orphan down (releasing its
		// white-pages claims) and adopt the winner.
		if cl, ok := ref.Local.(interface{ Close() }); ok {
			cl.Close()
		}
		if refs := m.dir.Lookup(name); len(refs) > 0 {
			return refs[m.pickStart(len(refs))], nil
		}
		return directory.PoolRef{}, err
	}
	m.created.Add(1)
	return ref, nil
}

// Stats returns counters: locally resolved queries, pools created,
// delegations attempted, and failures.
func (m *Manager) Stats() (resolved, created, forwarded, failed int) {
	return int(m.resolved.Load()), int(m.created.Load()),
		int(m.forwarded.Load()), int(m.failed.Load())
}
