// Package proxy implements the remote-creation path for resource pools
// (Section 5.2.3): "If the resource pool is on a different machine, the
// pool manager starts it via a proxy server on the remote machine. (This
// server is a part of the ActYP service, and is assumed to be kept alive
// via a cron process.)" A proxy server listens on a machine, spawns pool
// instances on request, and serves each pool's allocation traffic over the
// wire protocol. RemotePool is the client-side stub that makes a spawned
// pool usable wherever a local pool is (it implements the directory
// service's Allocator contract).
package proxy

import (
	"fmt"
	"sync"

	"actyp/internal/netsim"
	"actyp/internal/pool"
	"actyp/internal/query"
	"actyp/internal/registry"
	"actyp/internal/schedule"
	"actyp/internal/wire"
)

// The pool endpoints' methods. A release rides the control lane beside
// the other releases; an allocation acquires a lease.
var (
	methodAlloc   = wire.NewMethod[allocRequest, allocReply]("pool-alloc", wire.LaneLease, false)
	methodRelease = wire.NewMethod[releaseRequest, struct{}]("pool-release", wire.LaneControl, false)
)

// allocRequest carries a basic query in its textual form.
type allocRequest struct {
	Query string `json:"query"`
}

type allocReply struct {
	Lease *pool.Lease `json:"lease"`
}

type releaseRequest struct {
	LeaseID string `json:"leaseId"`
}

// Server is one machine's proxy: it spawns pools and serves them.
type Server struct {
	*wire.Server // the control port
	db           *registry.DB
	profile      netsim.Profile
	opts         wire.ServeOptions

	mu    sync.Mutex
	pools []*pool.Pool
	eps   []*wire.Server // one endpoint per spawned pool
}

// Start launches a proxy server for the machine hosting db with the
// default transport configuration.
func Start(db *registry.DB, addr string, profile netsim.Profile) (*Server, error) {
	return StartOpts(db, addr, profile, wire.ServeOptions{})
}

// StartOpts is Start with an explicit transport configuration, shared by
// the control port and every spawned pool's endpoint. Spawn requests on
// one control connection dispatch through the multiplexer and overlap.
func StartOpts(db *registry.DB, addr string, profile netsim.Profile, opts wire.ServeOptions) (*Server, error) {
	if db == nil {
		return nil, fmt.Errorf("proxy: server needs a database")
	}
	ln, err := netsim.Listen(addr, profile)
	if err != nil {
		return nil, err
	}
	s := &Server{db: db, profile: profile, opts: opts}
	mux := wire.NewMux()
	wire.Handle(mux, wire.SpawnPool, s.spawn)
	if s.Server, err = wire.NewServer(ln, opts, mux.Serve); err != nil {
		return nil, err
	}
	return s, nil
}

// Pools returns the ids of pools this proxy spawned, for observability.
func (s *Server) Pools() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.pools))
	for _, p := range s.pools {
		out = append(out, p.ID())
	}
	return out
}

// Close shuts the control port, every spawned pool's endpoint, and then
// the pools down.
func (s *Server) Close() {
	// Once the control port is closed no spawn is in flight, so the lists
	// are final.
	s.Server.Close()
	s.mu.Lock()
	eps, pools := s.eps, s.pools
	s.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
	for _, p := range pools {
		p.Close()
	}
}

// spawn creates a pool and a dedicated endpoint serving its allocations.
func (s *Server) spawn(req *wire.SpawnPoolRequest) (*wire.SpawnPoolReply, error) {
	obj, err := schedule.ByName(req.Objective)
	if err != nil {
		return nil, err
	}
	p, err := pool.New(pool.Config{
		Name:      query.PoolName{Signature: req.Signature, Identifier: req.Identifier},
		Instance:  req.Instance,
		DB:        s.db,
		Objective: obj,
		Exclusive: req.Instance == 0,
	})
	if err != nil {
		return nil, err
	}
	ln, err := netsim.Listen("127.0.0.1:0", s.profile)
	if err != nil {
		p.Close()
		return nil, err
	}
	ep, err := wire.NewServer(ln, s.opts, poolMux(p).Serve)
	if err != nil {
		p.Close()
		return nil, err
	}
	s.mu.Lock()
	s.pools = append(s.pools, p)
	s.eps = append(s.eps, ep)
	s.mu.Unlock()
	return &wire.SpawnPoolReply{Instance: p.ID(), Addr: ep.Addr()}, nil
}

// poolMux serves a spawned pool's allocations. The pool is
// concurrency-safe, so requests on one connection overlap.
func poolMux(p *pool.Pool) *wire.Mux {
	mux := wire.NewMux()
	wire.Handle(mux, methodAlloc, func(req *allocRequest) (*allocReply, error) {
		q, err := query.ParseBasic(req.Query)
		if err != nil {
			return nil, err
		}
		lease, err := p.Allocate(q)
		return &allocReply{Lease: lease}, err
	})
	wire.Handle(mux, methodRelease, func(req *releaseRequest) (*struct{}, error) {
		return &struct{}{}, p.Release(req.LeaseID)
	})
	return mux
}
