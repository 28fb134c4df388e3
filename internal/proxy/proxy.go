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

// Wire message types private to the pool endpoints.
const (
	typeAlloc   = "pool-alloc"
	typeRelease = "pool-release"
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
	if s.Server, err = wire.NewServer(ln, opts, s.control); err != nil {
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

// control answers spawn requests on the proxy's control port.
func (s *Server) control(env *wire.Envelope) *wire.Envelope {
	switch env.Type {
	case wire.TypePing:
		return &wire.Envelope{Type: wire.TypePing, ID: env.ID}
	case wire.TypeSpawnPool:
		var req wire.SpawnPoolRequest
		if err := env.Decode(&req); err != nil {
			return wire.ErrorEnvelope(env.ID, err)
		}
		sp, err := s.spawn(req)
		if err != nil {
			return wire.ErrorEnvelope(env.ID, err)
		}
		reply, err := wire.NewEnvelope(wire.TypeSpawnPool, env.ID, sp)
		if err != nil {
			return wire.ErrorEnvelope(env.ID, err)
		}
		return reply
	default:
		return wire.ErrorEnvelope(env.ID, fmt.Errorf("proxy: unknown message %q", env.Type))
	}
}

// spawn creates a pool and a dedicated endpoint serving its allocations.
func (s *Server) spawn(req wire.SpawnPoolRequest) (*wire.SpawnPoolReply, error) {
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
	ep, err := wire.NewServer(ln, s.opts, func(env *wire.Envelope) *wire.Envelope { return servePool(p, env) })
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

// servePool answers one allocation request against a spawned pool. The
// pool is concurrency-safe, so requests on one connection overlap.
func servePool(p *pool.Pool, env *wire.Envelope) *wire.Envelope {
	switch env.Type {
	case typeAlloc:
		var req allocRequest
		if err := env.Decode(&req); err != nil {
			return wire.ErrorEnvelope(env.ID, err)
		}
		q, err := query.ParseBasic(req.Query)
		if err != nil {
			return wire.ErrorEnvelope(env.ID, err)
		}
		lease, err := p.Allocate(q)
		if err != nil {
			return wire.ErrorEnvelope(env.ID, err)
		}
		reply, err := wire.NewEnvelope(typeAlloc, env.ID, allocReply{Lease: lease})
		if err != nil {
			return wire.ErrorEnvelope(env.ID, err)
		}
		return reply
	case typeRelease:
		var req releaseRequest
		if err := env.Decode(&req); err != nil {
			return wire.ErrorEnvelope(env.ID, err)
		}
		if err := p.Release(req.LeaseID); err != nil {
			return wire.ErrorEnvelope(env.ID, err)
		}
		reply, err := wire.NewEnvelope(typeRelease, env.ID, struct{}{})
		if err != nil {
			return wire.ErrorEnvelope(env.ID, err)
		}
		return reply
	default:
		return wire.ErrorEnvelope(env.ID, fmt.Errorf("proxy: unknown pool message %q", env.Type))
	}
}
