// Package core assembles the complete Active Yellow Pages service of
// Sections 4–5: the white-pages database, the resource monitoring service,
// and the resource-management pipeline (query managers -> pool managers ->
// resource pools), plus the shadow-account allocation performed when a
// machine is granted. It offers the same contract the paper describes for
// the network desktop: ask with a query, get back an address, a port, and
// a session-specific access key.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"actyp/internal/directory"
	"actyp/internal/metrics"
	"actyp/internal/monitor"
	"actyp/internal/policy"
	"actyp/internal/pool"
	"actyp/internal/poolmgr"
	"actyp/internal/query"
	"actyp/internal/querymgr"
	"actyp/internal/registry"
	"actyp/internal/route"
	"actyp/internal/shadow"
)

// Options configures a Service.
type Options struct {
	// DB is the white-pages database. Required.
	DB *registry.DB
	// Schemas validates queries (default: punch family only).
	Schemas *query.SchemaRegistry
	// QueryManagers and PoolManagers set the replication degree of the
	// first two pipeline stages (default 1 each).
	QueryManagers int
	PoolManagers  int
	// NodeName prefixes pool-manager names (default "pm", so managers are
	// pm-0, pm-1, ...). Federated daemons MUST set distinct prefixes: the
	// delegation visited list and the self/peer filters key on manager
	// names, so two nodes both exposing a "pm-0" shadow each other — the
	// home manager filters the peer out as itself, and visiting one peer
	// blacklists every other peer with the colliding name.
	NodeName string
	// Objective names the scheduling objective of created pools.
	Objective string
	// Mode is the reintegration QoS for composite queries.
	Mode querymgr.QoS
	// TTL bounds pool-manager delegation hops.
	TTL int
	// Seed drives all random selection (default 1).
	Seed int64
	// ScanCost models per-entry linear-search cost; see pool.Config.
	ScanCost time.Duration
	// ShadowAccounts is the per-machine shadow pool size (default 8).
	ShadowAccounts int
	// MonitorInterval, when positive, starts a background monitor sweep
	// at this period using the synthetic sampler.
	MonitorInterval time.Duration
	// Selector overrides the query managers' pool-manager selection
	// (default: random).
	Selector querymgr.Selector
	// Policies resolves usage-policy references (white-pages field 19);
	// nil behaves like the paper's unimplemented field (allow-all).
	Policies *policy.Store
	// MaxPoolSize caps how many machines a dynamically-created pool may
	// take from the white pages (0: unlimited). Because pool creation
	// marks machines taken, a cap keeps overlapping criteria (for
	// example per-license pools over multi-license machines) from
	// letting the first pool monopolize the fleet.
	MaxPoolSize int
	// PoolEngine selects the allocation engine of created pools; see
	// pool.Config.Engine.
	PoolEngine string
	// LeaseTTL enables lease expiry in all created pools: grants not
	// renewed within this lifetime are reclaimed by a background reaper
	// (crashed desktops cannot strand machines). Zero disables expiry.
	LeaseTTL time.Duration
	// ReapInterval is the background reaper's sweep period (default
	// LeaseTTL/2 when LeaseTTL is set).
	ReapInterval time.Duration
	// Translators installs extra query languages by name (for example
	// the classads translator), on top of the native language.
	Translators map[string]querymgr.Translator
	// Fanout is the pool managers' delegation width: how many federation
	// peers a local miss may try concurrently (first granted lease wins,
	// losers are cancelled and their leases released). Values <= 1 keep
	// the paper's serial peer walk. See poolmgr.Config.Fanout.
	Fanout int
	// HedgeDelay staggers fan-out branches; zero launches the full width
	// at once. See poolmgr.Config.HedgeDelay.
	HedgeDelay time.Duration
	// FederationStats, when set, counts delegation fan-outs, per-peer
	// wins, hedges, and cancelled losers across all pool managers.
	FederationStats *metrics.FederationStats
	// LeaseLog, when set, receives every pool lease transition (grant,
	// release, renewal) — the durability journal's feed. See
	// pool.Config.Log.
	LeaseLog pool.LeaseLog
	// DelegationLog is ignored. Leases won through a peer carry their
	// route in their id, so there is nothing to journal for them; the
	// field stays only because the benchmark module still sets it.
	DelegationLog any
	// Routes, when set, is the domain-ownership table shared by every pool
	// manager: queries pinning a remotely-owned domain take a single
	// directed hop to the owner instead of the local-scan-then-fan-out
	// path, and a release or renewal no hop can carry goes to the
	// domain's current owner.
	// Nil keeps pre-partition behaviour. See route.Table.
	Routes *route.Table
}

// Grant is a completed resource grant: the machine lease plus the shadow
// account the run will execute in.
type Grant struct {
	Lease     *pool.Lease
	Shadow    shadow.Account
	Fragments int
	Succeeded int
	Elapsed   time.Duration
}

// Service is a running ActYP instance.
type Service struct {
	db      *registry.DB
	schemas *query.SchemaRegistry
	dir     *directory.Service
	factory *poolmgr.LocalFactory
	pms     []*poolmgr.Manager
	qms     []*querymgr.Manager
	shadows *shadow.Manager
	mon     *monitor.Monitor
	reaper  *pool.Reaper
	events  *pool.Dispatcher // the registry->pool freshness bridge
	opts    Options

	nextQM  atomic.Uint64
	shadowN int

	// accounts maps each live lease granted through this service to its
	// shadow account, so the account ends with the lease whichever way
	// the lease ends: Release, or a release, reap or drop its pool reports
	// through leaseLog. A lease missing here (recovered from the journal,
	// adopted from a handoff, or already ended) has no account to free.
	acctMu   sync.Mutex
	accounts map[string]shadow.Account

	// mu guards lifecycle only; the request path takes no lock in this
	// layer but acctMu (queries serialize, if at all, inside the stages
	// below).
	mu     sync.Mutex
	closed bool
}

// New builds and starts a Service.
func New(opts Options) (*Service, error) {
	if opts.DB == nil {
		return nil, fmt.Errorf("core: options need a database")
	}
	if opts.Schemas == nil {
		opts.Schemas = query.NewSchemaRegistry()
	}
	if opts.QueryManagers <= 0 {
		opts.QueryManagers = 1
	}
	if opts.PoolManagers <= 0 {
		opts.PoolManagers = 1
	}
	if opts.NodeName == "" {
		opts.NodeName = "pm"
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.ShadowAccounts <= 0 {
		opts.ShadowAccounts = 8
	}

	if err := pool.ValidateEngine(opts.PoolEngine); err != nil {
		return nil, err
	}
	s := &Service{
		db:       opts.DB,
		schemas:  opts.Schemas,
		dir:      directory.New(),
		shadows:  shadow.NewManager(),
		events:   pool.NewDispatcher(opts.DB, 0),
		opts:     opts,
		shadowN:  opts.ShadowAccounts,
		accounts: make(map[string]shadow.Account),
	}
	s.events.Start()
	// A failed constructor must not leak its background helpers (the
	// dispatcher's drain loop and registry subscription, the reaper).
	built := false
	defer func() {
		if built {
			return
		}
		s.events.Stop()
		if s.reaper != nil {
			s.reaper.Stop()
		}
	}()
	s.factory = &poolmgr.LocalFactory{
		DB:          opts.DB,
		Objective:   opts.Objective,
		ScanCost:    opts.ScanCost,
		Policies:    opts.Policies,
		MaxMachines: opts.MaxPoolSize,
		LeaseTTL:    opts.LeaseTTL,
		Engine:      opts.PoolEngine,
		Events:      s.events,
		Log:         leaseLog{s},
	}
	if opts.LeaseTTL > 0 {
		ivl := opts.ReapInterval
		if ivl <= 0 {
			ivl = opts.LeaseTTL / 2
		}
		s.reaper = pool.NewReaper(s.factory.Pools, ivl)
		s.reaper.Start()
	}
	for i := 0; i < opts.PoolManagers; i++ {
		pm, err := poolmgr.New(poolmgr.Config{
			Name:       fmt.Sprintf("%s-%d", opts.NodeName, i),
			Dir:        s.dir,
			Factory:    s.factory,
			Seed:       opts.Seed + int64(i),
			TTL:        opts.TTL,
			Fanout:     opts.Fanout,
			HedgeDelay: opts.HedgeDelay,
			Stats:      opts.FederationStats,
			Routes:     opts.Routes,
		})
		if err != nil {
			return nil, err
		}
		s.pms = append(s.pms, pm)
	}
	rms := make([]querymgr.ResourceManager, len(s.pms))
	for i, pm := range s.pms {
		rms[i] = pm
	}
	for i := 0; i < opts.QueryManagers; i++ {
		sel := opts.Selector
		if sel == nil {
			sel = querymgr.NewRandomSelector(opts.Seed + int64(i))
			if opts.Routes != nil {
				// Partitioned nodes pin each domain's traffic to one pool
				// manager so its caches stay hot for the owned domains.
				sel = querymgr.NewDomainSelector(sel, opts.Seed+int64(i))
			}
		}
		qm, err := querymgr.New(querymgr.Config{
			Name:        fmt.Sprintf("qm-%d", i),
			Schemas:     opts.Schemas,
			Managers:    rms,
			Selector:    sel,
			Mode:        opts.Mode,
			Translators: opts.Translators,
		})
		if err != nil {
			return nil, err
		}
		s.qms = append(s.qms, qm)
	}
	if opts.MonitorInterval > 0 {
		s.mon = monitor.New(monitor.Config{
			DB:       opts.DB,
			Sampler:  monitor.NewSyntheticSampler(opts.Seed),
			Interval: opts.MonitorInterval,
		})
		s.mon.Start()
	}
	built = true
	return s, nil
}

// Request submits a native-language query and returns a full grant.
func (s *Service) Request(text string) (*Grant, error) {
	return s.RequestLang("", text)
}

// RequestLang submits a query in the named translator language.
func (s *Service) RequestLang(lang, text string) (*Grant, error) {
	qm := s.pickQM()
	resp, err := qm.SubmitText(lang, text)
	if err != nil {
		return nil, err
	}
	acct, err := s.allocateShadow(resp.Lease.Machine)
	if err != nil {
		// The machine was granted but no shadow account is free: undo
		// the lease so the machine is not stranded.
		_ = qm.Release(resp.Lease)
		return nil, err
	}
	s.acctMu.Lock()
	s.accounts[resp.Lease.ID] = acct
	s.acctMu.Unlock()
	return &Grant{
		Lease:     resp.Lease,
		Shadow:    acct,
		Fragments: resp.Fragments,
		Succeeded: resp.Succeeded,
		Elapsed:   resp.Elapsed,
	}, nil
}

// Release returns a grant's machine and the shadow account recorded for
// its lease; g.Shadow is not consulted. The account is freed whatever the
// lease release returns: a release that fails found no lease left to end
// (its pool retired, or its grantor reaped it), and the holder is done
// with the account either way.
func (s *Service) Release(g *Grant) error {
	if g == nil || g.Lease == nil {
		return fmt.Errorf("core: nil grant")
	}
	s.endShadow(g.Lease.ID)
	// Every pool manager shares one directory and routes by the lease id
	// alone, so any one of them reaches the grantor; see Renew.
	return s.pms[0].Release(g.Lease)
}

// endShadow frees the shadow account recorded for a lease, if any. Only
// the first caller for a lease finds it, so the account is freed once
// however Release and the lease's pool race.
func (s *Service) endShadow(leaseID string) {
	s.acctMu.Lock()
	acct, ok := s.accounts[leaseID]
	delete(s.accounts, leaseID)
	s.acctMu.Unlock()
	if ok {
		_ = s.shadows.Release(acct.Machine, acct.User)
	}
}

// leaseLog is the lease log of every pool the service builds: a lease's
// end frees its shadow account, and each transition goes on unchanged to
// Options.LeaseLog when one is set.
type leaseLog struct{ s *Service }

func (l leaseLog) LeaseGranted(lease *pool.Lease, expires time.Time) {
	if next := l.s.opts.LeaseLog; next != nil {
		next.LeaseGranted(lease, expires)
	}
}

func (l leaseLog) LeaseReleased(leaseID string) {
	l.s.endShadow(leaseID)
	if next := l.s.opts.LeaseLog; next != nil {
		next.LeaseReleased(leaseID)
	}
}

func (l leaseLog) LeaseRenewed(leaseID string, expires time.Time) {
	if next := l.s.opts.LeaseLog; next != nil {
		next.LeaseRenewed(leaseID, expires)
	}
}

// Renew extends a grant's lease lifetime on TTL-enabled services. Clients
// running long jobs heartbeat with it so the reaper does not reclaim their
// machines. On services without a TTL it is a validity check: it fails for
// unknown leases and succeeds for live ones. A lease won through a peer
// renews back at the grantor its id names (see poolmgr.Manager.Renew).
func (s *Service) Renew(g *Grant) error {
	if g == nil || g.Lease == nil {
		return fmt.Errorf("core: nil grant")
	}
	return s.pms[0].Renew(g.Lease) // the managers share one directory
}

// pickQM round-robins across query-manager replicas, lock-free.
func (s *Service) pickQM() *querymgr.Manager {
	return s.qms[int((s.nextQM.Add(1)-1)%uint64(len(s.qms)))]
}

// allocateShadow leases a shadow account, lazily creating the machine's
// pool on first touch. Losing the first-touch creation race is benign —
// AddMachine rejects the duplicate and the winner's pool serves everyone —
// so no lock is needed here.
func (s *Service) allocateShadow(machine string) (shadow.Account, error) {
	acct, err := s.shadows.Allocate(machine)
	if err == nil {
		return acct, nil
	}
	_ = s.shadows.AddMachine(machine, s.shadowN, 20000)
	return s.shadows.Allocate(machine)
}

// Directory exposes the directory service (admin and experiment use).
func (s *Service) Directory() *directory.Service { return s.dir }

// DB exposes the white-pages database.
func (s *Service) DB() *registry.DB { return s.db }

// SelectMachines returns the machine records matching a basic query text
// ("" selects every record), plus the uncapped match count. A positive
// offset skips that many records in the registry's sorted name order and
// a positive limit truncates what follows — the paging contract behind
// snapshot fetches of fleets whose full batch would exceed a wire frame.
// Total always reports the full match count. This is the record-batch
// read behind the wire "select" endpoint, a thin adapter over the
// registry's paged read: a call costs offset+limit matching names per
// shard and clones only the records it returns. The total costs a
// predicate test per candidate record the first time a predicate is asked
// (never for ""); each registry shard then remembers its count until a
// write that could change it (a record added or removed, a parameter set),
// so a repeated select, or the next page of a snapshot fetch, scans for its
// page alone. A predicate on a dynamic field (load, activejobs, freememory,
// freeswap) is counted on every call. A reader of a whole set in-process
// should resume by name instead (registry.DB.EachPage), which also spares
// the offset.
func (s *Service) SelectMachines(text string, limit, offset int) ([]*registry.Machine, int, error) {
	q, err := query.ParseBasic(text)
	if err != nil {
		return nil, 0, err
	}
	ms, total := s.db.Page(query.CompileRsrc(q), registry.Cursor{Offset: offset, Limit: limit, Total: true})
	return ms, total, nil
}

// PoolManagers exposes the pool-manager stage.
func (s *Service) PoolManagers() []*poolmgr.Manager {
	out := make([]*poolmgr.Manager, len(s.pms))
	copy(out, s.pms)
	return out
}

// QueryManagers exposes the query-manager stage.
func (s *Service) QueryManagers() []*querymgr.Manager {
	out := make([]*querymgr.Manager, len(s.qms))
	copy(out, s.qms)
	return out
}

// Routes exposes the domain-ownership table (nil when partitioning is
// off).
func (s *Service) Routes() *route.Table { return s.opts.Routes }

// Reaper exposes the lease reaper (nil when LeaseTTL is unset).
func (s *Service) Reaper() *pool.Reaper { return s.reaper }

// Events exposes the change-stream dispatcher that keeps every pool's
// cache fresh.
func (s *Service) Events() *pool.Dispatcher { return s.events }

// Stats is an aggregate operational snapshot of the pipeline.
type Stats struct {
	Queries      int // composite queries submitted across query managers
	Fragments    int // basic fragments produced by decomposition
	Resolved     int // fragments resolved by pool managers
	PoolsCreated int // pools created on demand
	Forwards     int // delegations attempted between pool managers
	Failures     int // fragments that exhausted every option
	Pools        int // live pool instances
	Machines     int // machines in the white pages
}

// Stats aggregates counters from every pipeline stage.
func (s *Service) Stats() Stats {
	var out Stats
	for _, qm := range s.qms {
		submitted, fragments, _ := qm.Stats()
		out.Queries += submitted
		out.Fragments += fragments
	}
	for _, pm := range s.pms {
		resolved, created, forwarded, failed := pm.Stats()
		out.Resolved += resolved
		out.PoolsCreated += created
		out.Forwards += forwarded
		out.Failures += failed
	}
	out.Pools = s.dir.Instances()
	out.Machines = s.db.Len()
	return out
}

// Close stops the monitor and reaper and shuts every created pool down,
// releasing all white-pages claims.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	if s.mon != nil {
		s.mon.Stop()
	}
	if s.reaper != nil {
		s.reaper.Stop()
	}
	s.events.Stop()
	s.factory.CloseAll()
}
