// Package pool implements ActYP resource pools (Section 5.2.3):
// dynamically-created active objects that hold 1) machines aggregated
// according to the criteria encoded in the pool's name and 2) scheduling
// logic that orders those machines by a configurable objective. Pools
// answer allocation queries with machine leases, support the splitting and
// replication (instance-bias) mechanisms evaluated in Section 7, and mark
// their machines "taken" in the white-pages database while they hold them.
//
// The allocation hot path is pluggable (see Allocator): the oracle engine
// is the paper's serialized linear search, the indexed engine answers
// concurrent queries from eligibility-bucketed heaps.
package pool

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"actyp/internal/policy"
	"actyp/internal/query"
	"actyp/internal/registry"
	"actyp/internal/schedule"
)

// Lease is the answer a resource pool returns for a query: the machine's
// coordinates plus a session-specific access key (Section 2: "it gets back
// an IP address, a TCP port number, and a session-specific access key").
type Lease struct {
	ID           string    `json:"id"`           // unique lease handle
	Machine      string    `json:"machine"`      // machine name
	Addr         string    `json:"addr"`         // IP address
	ExecUnitPort int       `json:"execUnitPort"` // TCP port of the execution unit
	MountMgrPort int       `json:"mountMgrPort"` // TCP port of the PVFS mount manager
	AccessKey    string    `json:"accessKey"`    // session-specific access key
	Pool         string    `json:"pool"`         // granting pool instance
	Granted      time.Time `json:"granted"`
}

// ErrExhausted is returned when every machine in the pool is busy or
// filtered out for the requesting user.
var ErrExhausted = fmt.Errorf("pool: no machine available")

// ErrUnknownLease is wrapped by Release and Renew when the pool holds no
// lease by that id (never granted here, released, or reaped). The pool
// manager reads it as "not held here" and routes the call onward.
var ErrUnknownLease = errors.New("unknown lease")

// unknownLease is the one place ErrUnknownLease is wrapped.
func (p *Pool) unknownLease(leaseID string) error {
	return fmt.Errorf("pool %s: %w %s", p.id, ErrUnknownLease, leaseID)
}

// Config describes a pool to create.
type Config struct {
	// Name is the signature/identifier pair that defines the aggregation
	// criteria. Required.
	Name query.PoolName
	// Family is the query family the name was derived from (default
	// "punch").
	Family string
	// Instance distinguishes replicas of the same pool name. Replica
	// instance i of Replicas n prefers every n-th machine starting at i.
	Instance int
	// Replicas is the replication stride (default 1: unreplicated).
	Replicas int
	// DB is the white-pages database. Required.
	DB *registry.DB
	// Objective orders machines; default least-load.
	Objective schedule.Objective
	// MaxMachines caps how many machines the pool loads (0: unlimited).
	MaxMachines int
	// Members, when non-nil, bypasses the white-pages walk and loads
	// exactly these machines (used by splitting and replication, where
	// the member set is decided by the splitter, not by criteria).
	Members []string
	// Exclusive marks machines taken in the database (default for fresh
	// pools). Replicas and split children of an already-taken member set
	// run with Exclusive=false.
	Exclusive bool
	// Clock supplies time; defaults to time.Now.
	Clock func() time.Time
	// ScanCost, when positive, charges this much wall-clock time per
	// cache entry scanned inside the allocation critical section. The
	// controlled experiments use it to model the paper's 2001-era linear
	// search, whose per-entry cost made single large pools a measurable
	// bottleneck (Figure 6). Production configurations leave it zero.
	// A positive ScanCost pins the pool to the oracle engine: the model
	// only means something on a serialized scan.
	ScanCost time.Duration
	// Policies resolves the usage-policy references of white-pages field
	// 19. Nil (or an unknown reference) means allow-all, preserving the
	// paper's behaviour for its unimplemented field.
	Policies *policy.Store
	// LeaseTTL enables lease expiry: leases not renewed within this
	// lifetime are reclaimed by Reap. Zero disables expiry.
	LeaseTTL time.Duration
	// Engine selects the allocation engine, EngineOracle or
	// EngineIndexed. Empty picks the indexed engine unless ScanCost is
	// set (see ScanCost).
	Engine string
	// Events, when non-nil, subscribes the new pool to the registry change
	// stream the dispatcher drains: monitor updates then fold into the
	// cache incrementally (Apply). The pool unsubscribes itself on Close.
	// Nil leaves a standalone pool whose owner calls Refresh.
	Events *Dispatcher
	// Log, when non-nil, observes every lease grant, renewal, and release
	// (reaps included) — the durability journal's feed. See LeaseLog.
	Log LeaseLog
}

// Pool is a resource pool instance. The machines and their busy bits live
// in the engine; the Pool keeps the lease table (one row per live lease:
// its machine's slot, the machine's name and the deadline) and contributes
// lease identity (ids, access keys), TTL policy, and lifecycle.
type Pool struct {
	name     query.PoolName
	family   string
	id       string // unique instance id, e.g. "arch,==/sun#2"
	instance int
	replicas int
	db       *registry.DB
	excl     bool
	clock    func() time.Time
	engine   Allocator
	events   *Dispatcher // non-nil: subscribed to the registry change stream
	log      LeaseLog    // non-nil: lease ops are journaled
	leaseTTL time.Duration
	nextSeq  atomic.Int64

	// mu guards the lease table. A row is inserted by Allocate or
	// AdoptLease and deleted by Release or Reap; whoever deletes it alone
	// returns its slot to the engine, so a machine is freed once however
	// a release and the reaper race. mu is taken before an engine's locks
	// (AdoptLease's claim), never after.
	mu     sync.Mutex
	leases map[string]leaseRow

	// life guards lifecycle only — never the allocation hot path, which
	// engines synchronize internally. Lease operations hold it shared so
	// Close can wait out in-flight grants.
	life   sync.RWMutex
	closed bool
}

// New creates and initializes a pool object: it walks the white pages for
// machines matching the criteria encoded in the pool name (or adopts the
// explicit member list), loads them into the allocation engine, and —
// when exclusive — marks them taken in the database. The engine holds
// registry views (registry.Backend.View), on every path here and on every
// later Refresh and Apply: the records' cold parts stay the store's one
// copy, and nothing in this package writes to them.
func New(cfg Config) (*Pool, error) {
	if cfg.Name.IsZero() {
		return nil, fmt.Errorf("pool: config needs a name")
	}
	if cfg.DB == nil {
		return nil, fmt.Errorf("pool: config needs a database")
	}
	kind, err := resolveEngine(cfg.Engine, cfg.ScanCost)
	if err != nil {
		return nil, err
	}
	if cfg.Family == "" {
		cfg.Family = "punch"
	}
	if cfg.Objective == nil {
		cfg.Objective = schedule.LeastLoad{}
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	p := &Pool{
		name:     cfg.Name,
		family:   cfg.Family,
		id:       fmt.Sprintf("%s#%d", cfg.Name.String(), cfg.Instance),
		instance: cfg.Instance,
		replicas: cfg.Replicas,
		db:       cfg.DB,
		excl:     cfg.Exclusive,
		clock:    cfg.Clock,
		log:      cfg.Log,
		leaseTTL: cfg.LeaseTTL,
		leases:   make(map[string]leaseRow),
	}

	var machines []*registry.Machine
	if cfg.Members != nil {
		for _, name := range cfg.Members {
			m, err := cfg.DB.View(name)
			if err != nil {
				return nil, fmt.Errorf("pool %s: member %s: %w", p.id, name, err)
			}
			machines = append(machines, m)
			if cfg.MaxMachines > 0 && len(machines) >= cfg.MaxMachines {
				break
			}
		}
	} else {
		crit, err := cfg.Name.Criteria(cfg.Family)
		if err != nil {
			return nil, fmt.Errorf("pool %s: bad name: %w", p.id, err)
		}
		if cfg.Exclusive {
			machines = cfg.DB.Take(crit, p.id, cfg.MaxMachines)
		} else {
			machines, _ = cfg.DB.Page(query.CompileRsrc(crit), registry.Cursor{Limit: cfg.MaxMachines, Shared: true})
		}
	}
	if len(machines) == 0 {
		// Nothing was taken, so there is nothing to release — and a
		// ReleaseAll here could strip the claims of a racing pool that
		// carries the same instance id.
		return nil, fmt.Errorf("pool %s: no machines match the aggregation criteria", p.id)
	}
	p.engine = newAllocator(kind, machines, engineConfig{
		obj:      cfg.Objective,
		instance: cfg.Instance,
		replicas: cfg.Replicas,
		scanCost: cfg.ScanCost,
		policies: cfg.Policies,
	})
	if cfg.Events != nil {
		p.events = cfg.Events
		p.events.Subscribe(p)
		// The member snapshot above predates the subscription, so events
		// dispatched in between never reached this pool — and unlike load
		// updates, a state flap or param change in that window is one-shot
		// and would stay stale forever. One full re-read after subscribing
		// closes the gap: everything earlier lands here, everything later
		// arrives as events.
		p.engine.Refresh(cfg.DB.View)
	}
	return p, nil
}

// Name returns the pool's signature/identifier name.
func (p *Pool) Name() query.PoolName { return p.name }

// ID returns the unique instance id (name + instance number).
func (p *Pool) ID() string { return p.id }

// Instance returns the replica number.
func (p *Pool) Instance() int { return p.instance }

// Engine returns the allocation engine kind backing this pool.
func (p *Pool) Engine() string { return p.engine.Kind() }

// Size returns the number of machines in the cache.
func (p *Pool) Size() int { return p.engine.Size() }

// Members returns the machine names in cache order.
func (p *Pool) Members() []string { return p.engine.Members() }

// Allocate answers a basic query with a machine lease. It performs the
// engine's search over the cache, honouring the scheduling objective, the
// replication bias, machine usability, and the user- and tool-group access
// policies carried in the query. It returns ErrExhausted when no machine
// qualifies.
func (p *Pool) Allocate(q *query.Query) (*Lease, error) {
	req := &allocRequest{
		userGroup: condStr(q, p.family, query.ClassUser, "accessgroup"),
		toolGroup: condStr(q, p.family, query.ClassAppl, "tool"),
		login:     condStr(q, p.family, query.ClassUser, "login"),
	}
	// Pool managers route queries to the pool whose name matches, so
	// members normally satisfy the query by construction. A query whose
	// name differs was mis-routed (or sent directly); re-verify its rsrc
	// constraints per machine rather than handing out a wrong lease.
	if query.Name(q) != p.name {
		req.verify = q
	}

	p.life.RLock()
	defer p.life.RUnlock()
	if p.closed {
		return nil, fmt.Errorf("pool %s: closed", p.id)
	}
	granted := p.clock()
	var expires time.Time
	if p.leaseTTL > 0 {
		expires = granted.Add(p.leaseTTL)
	}
	// Minted by the engine only once a machine is claimed, so misses pay
	// no id-generation work. The access-key prefix makes the lease id
	// globally unique: pool instance ids are only unique within one
	// directory, and two administrative domains can both run an
	// "arch,==/sun#0" whose sequence numbers collide.
	var leaseID, key string
	req.newID = func() error {
		k, err := newAccessKey()
		if err != nil {
			return fmt.Errorf("pool %s: %w", p.id, err)
		}
		key = k
		leaseID = fmt.Sprintf("%s:%d:%s", p.id, p.nextSeq.Add(1), k[:8])
		return nil
	}
	slot, m, err := p.engine.Allocate(req)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.leases[leaseID] = leaseRow{slot: slot, machine: m.Static.Name, expires: expires}
	p.mu.Unlock()
	lease := &Lease{
		ID:           leaseID,
		Machine:      m.Static.Name,
		Addr:         m.Access.Addr,
		ExecUnitPort: m.Access.ExecUnitPort,
		MountMgrPort: m.Access.MountMgrPort,
		AccessKey:    key,
		Pool:         p.id,
		Granted:      granted,
	}
	if p.log != nil {
		p.log.LeaseGranted(lease, expires)
	}
	return lease, nil
}

// Refresh re-reads the dynamic fields of every cached machine from the
// white pages. The Dispatcher runs it when its subscription resyncs, and
// New once after subscribing; a standalone pool's owner runs it to fold
// monitor updates in.
func (p *Pool) Refresh() {
	p.engine.Refresh(p.db.View)
}

// Apply folds registry change events into the cache incrementally — the
// event-driven counterpart of Refresh, driven by a Dispatcher. Only the
// machines the events name are touched; events for non-members are
// ignored.
func (p *Pool) Apply(events []registry.Event) {
	p.engine.Apply(events, p.db.View)
}

// Closed reports whether the pool has shut down (dispatchers drop closed
// pools lazily).
func (p *Pool) Closed() bool {
	p.life.RLock()
	defer p.life.RUnlock()
	return p.closed
}

// Split partitions the pool's members into k contiguous, nearly equal
// member lists, for building split child pools (Figure 7). The pool itself
// is not modified.
func (p *Pool) Split(k int) ([][]string, error) {
	if k <= 0 {
		return nil, fmt.Errorf("pool %s: split factor must be positive", p.id)
	}
	members := p.Members()
	if k > len(members) {
		return nil, fmt.Errorf("pool %s: cannot split %d machines into %d pools", p.id, len(members), k)
	}
	out := make([][]string, k)
	base, rem := len(members)/k, len(members)%k
	i := 0
	for part := 0; part < k; part++ {
		n := base
		if part < rem {
			n++
		}
		out[part] = append([]string(nil), members[i:i+n]...)
		i += n
	}
	return out, nil
}

// Close releases the pool's claim on its machines in the white pages and
// refuses further allocations. Outstanding leases remain valid records but
// can no longer be released through the pool. Only the pool's own members
// are released — never ReleaseAll on the instance id, which two pools can
// momentarily share when managers race to create the same pool name (the
// loser's close must not strip the winner's claims).
func (p *Pool) Close() {
	p.life.Lock()
	if p.closed {
		p.life.Unlock()
		return
	}
	p.closed = true
	p.life.Unlock()
	if p.events != nil {
		p.events.Unsubscribe(p)
	}
	if p.excl {
		p.db.Release(p.id, p.Members()...)
	}
}

// Stats reports allocation counters: successful allocations, exhausted
// misses, and the total number of cache entries examined during selection
// (for the oracle, the linear-search cost driver of Figure 6).
func (p *Pool) Stats() (allocs, misses int, scanned int64) {
	return p.engine.Stats()
}

func condStr(q *query.Query, family string, class query.Class, name string) string {
	c, ok := q.Lookup(query.Key{Family: family, Class: class, Name: name})
	if !ok || c.Op != query.OpEq {
		return ""
	}
	return c.Str
}

func newAccessKey() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("access key: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}
