// Package stage distributes the pool-manager stage of the pipeline across
// machines: a Server exposes one poolmgr.Manager over the wire protocol,
// and the Remote stub satisfies both the query managers' ResourceManager
// contract and the directory service's Forwarder contract. Query managers
// can therefore route fragments to pool managers in other processes, and
// pool managers can delegate queries to remote peers with the visited list
// and TTL travelling inside the wire message — the fully distributed
// deployment Section 6 describes ("All stages in the resource management
// pipeline can be independently distributed and replicated across
// machines. Queries propagate from one stage to the next via TCP or
// UDP.").
package stage

import (
	"context"
	"errors"
	"fmt"
	"net"

	"actyp/internal/netsim"
	"actyp/internal/pool"
	"actyp/internal/poolmgr"
	"actyp/internal/query"
	"actyp/internal/wire"
)

// Message types private to the pool-manager stage endpoints.
const (
	typeResolve = "pm-resolve"
	typeRelease = "pm-release"
	typeName    = "pm-name"
)

type resolveRequest struct {
	Query   string   `json:"query"` // basic query, textual form
	TTL     int      `json:"ttl"`
	Visited []string `json:"visited,omitempty"`
}

type resolveReply struct {
	Lease *pool.Lease `json:"lease"`
}

type releaseRequest struct {
	Lease pool.Lease `json:"lease"`
}

type nameReply struct {
	Name string `json:"name"`
}

// The stage payloads implement wire.ExtPayload, so on binary connections
// they travel as hand-rolled field codecs instead of JSON-inside-binary.
// Stage endpoints only ever talk to like-versioned stage processes, which
// is what makes a private extension tag safe here; JSON connections still
// marshal the structs as before.

func (m resolveRequest) AppendExt(dst []byte) []byte {
	dst = wire.AppendString(dst, m.Query)
	dst = wire.AppendVarint(dst, int64(m.TTL))
	return wire.AppendStrings(dst, m.Visited)
}

func (m *resolveRequest) DecodeExt(cur *wire.Cursor) error {
	m.Query = cur.String()
	m.TTL = int(cur.Varint())
	m.Visited = cur.Strings()
	return cur.Err()
}

func (m resolveReply) AppendExt(dst []byte) []byte {
	if m.Lease == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return wire.AppendLease(dst, *m.Lease)
}

func (m *resolveReply) DecodeExt(cur *wire.Cursor) error {
	if cur.Byte() == 0 {
		m.Lease = nil
		return cur.Err()
	}
	l := cur.Lease()
	m.Lease = &l
	return cur.Err()
}

func (m releaseRequest) AppendExt(dst []byte) []byte {
	return wire.AppendLease(dst, m.Lease)
}

func (m *releaseRequest) DecodeExt(cur *wire.Cursor) error {
	m.Lease = cur.Lease()
	return cur.Err()
}

func (m nameReply) AppendExt(dst []byte) []byte {
	return wire.AppendString(dst, m.Name)
}

func (m *nameReply) DecodeExt(cur *wire.Cursor) error {
	m.Name = cur.String()
	return cur.Err()
}

// ServerOptions is the options type of ServeOpts. It is an alias of
// wire.ServeOptions kept only because the benchmark module names it.
type ServerOptions = wire.ServeOptions

// Server exposes a pool manager over TCP.
type Server = wire.Server

// Serve starts a stage server for pm on addr with the given network
// profile and the default transport configuration.
func Serve(pm *poolmgr.Manager, addr string, profile netsim.Profile) (*Server, error) {
	return ServeOpts(pm, addr, profile, wire.ServeOptions{})
}

// ServeOpts is Serve with an explicit transport configuration. The pool
// manager is concurrency-safe, so one connection's requests dispatch
// through the multiplexer and overlap; a delegated Resolve that fans out
// across peers does not block the releases behind it.
func ServeOpts(pm *poolmgr.Manager, addr string, profile netsim.Profile, opts wire.ServeOptions) (*Server, error) {
	if pm == nil {
		return nil, fmt.Errorf("stage: server needs a pool manager")
	}
	ln, err := netsim.Listen(addr, profile)
	if err != nil {
		return nil, err
	}
	return wire.NewServer(ln, opts, func(env *wire.Envelope) *wire.Envelope { return dispatch(pm, env) })
}

// dispatch answers one stage request against pm.
func dispatch(pm *poolmgr.Manager, env *wire.Envelope) *wire.Envelope {
	fail := func(err error) *wire.Envelope { return wire.ErrorEnvelope(env.ID, err) }
	switch env.Type {
	case wire.TypePing:
		return &wire.Envelope{Type: wire.TypePing, ID: env.ID}
	case typeName:
		// Payloads pass as pointers: only the pointer types carry the full
		// wire.ExtPayload method set, which is what routes them through the
		// binary extension tag.
		reply, err := wire.NewEnvelope(typeName, env.ID, &nameReply{Name: pm.Name()})
		if err != nil {
			return fail(err)
		}
		return reply
	case typeResolve:
		var req resolveRequest
		if err := env.Decode(&req); err != nil {
			return fail(err)
		}
		q, err := query.ParseBasic(req.Query)
		if err != nil {
			return fail(err)
		}
		lease, err := pm.Forward(q, req.TTL, req.Visited)
		if err != nil {
			return fail(err)
		}
		reply, err := wire.NewEnvelope(typeResolve, env.ID, &resolveReply{Lease: lease})
		if err != nil {
			return fail(err)
		}
		return reply
	case typeRelease:
		var req releaseRequest
		if err := env.Decode(&req); err != nil {
			return fail(err)
		}
		if err := pm.Release(&req.Lease); err != nil {
			return fail(err)
		}
		reply, err := wire.NewEnvelope(typeRelease, env.ID, struct{}{})
		if err != nil {
			return fail(err)
		}
		return reply
	default:
		return fail(fmt.Errorf("stage: unknown message %q", env.Type))
	}
}

// Remote is the client stub for a remote pool manager. It satisfies
// querymgr.ResourceManager (Name/Resolve/Release) and directory.Forwarder
// (Name/Forward), so it slots into both stages' wiring. Calls multiplex
// over one connection: concurrent fragments routed to the same remote
// manager keep their requests in flight together, and a dropped connection
// is redialed on the next call.
type Remote struct {
	addr string
	c    *wire.Client
	name string
	ttl  int
}

// DialRemote connects a stub and fetches the remote manager's name. ttl is
// attached to Resolve calls (<=0 uses poolmgr.DefaultTTL).
func DialRemote(addr string, profile netsim.Profile, ttl int) (*Remote, error) {
	if ttl <= 0 {
		ttl = poolmgr.DefaultTTL
	}
	c := wire.NewClient(func() (net.Conn, error) {
		return (netsim.Dialer{Profile: profile}).Dial(addr)
	}, 0)
	r := &Remote{addr: addr, c: c, ttl: ttl}
	reply, err := r.call(typeName, nil)
	if err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("stage: dial %s: %w", addr, err)
	}
	var nr nameReply
	if err := reply.Decode(&nr); err != nil {
		_ = c.Close()
		return nil, err
	}
	r.name = nr.Name
	return r, nil
}

// Name implements ResourceManager and Forwarder.
func (r *Remote) Name() string { return r.name }

// Close drops the connection.
func (r *Remote) Close() error { return r.c.Close() }

// Resolve implements querymgr.ResourceManager.
func (r *Remote) Resolve(q *query.Query) (*pool.Lease, error) {
	return r.Forward(q, r.ttl, nil)
}

// Forward implements directory.Forwarder: the TTL and visited list travel
// in the wire message.
func (r *Remote) Forward(q *query.Query, ttl int, visited []string) (*pool.Lease, error) {
	reply, err := r.call(typeResolve, &resolveRequest{
		Query: q.String(), TTL: ttl, Visited: visited,
	})
	if err != nil {
		return nil, err
	}
	var rr resolveReply
	if err := reply.Decode(&rr); err != nil {
		return nil, err
	}
	if rr.Lease == nil {
		return nil, fmt.Errorf("stage: remote %s returned no lease", r.name)
	}
	return rr.Lease, nil
}

// ForwardContext implements directory.ContextForwarder for the fan-out
// delegation path. Cancellation cannot recall a request already on the
// wire, so a cancelled branch keeps a goroutine waiting on the in-flight
// call: if the peer grants a lease after the cancel landed, that goroutine
// releases it — a losing branch never orphans capacity on a remote peer.
func (r *Remote) ForwardContext(ctx context.Context, q *query.Query, ttl int, visited []string) (*pool.Lease, error) {
	if ctx.Done() == nil {
		return r.Forward(q, ttl, visited)
	}
	type res struct {
		lease *pool.Lease
		err   error
	}
	ch := make(chan res, 1)
	go func() {
		lease, err := r.Forward(q, ttl, visited)
		ch <- res{lease, err}
	}()
	select {
	case out := <-ch:
		return out.lease, out.err
	case <-ctx.Done():
		go func() {
			if out := <-ch; out.err == nil && out.lease != nil {
				_ = r.Release(out.lease)
			}
		}()
		return nil, ctx.Err()
	}
}

// Release implements querymgr.ResourceManager and directory.LeaseReleaser.
func (r *Remote) Release(lease *pool.Lease) error {
	if lease == nil {
		return fmt.Errorf("stage: nil lease")
	}
	_, err := r.call(typeRelease, &releaseRequest{Lease: *lease})
	return err
}

// call round-trips one request, translating server-reported failures into
// the historical "stage: <name>: ..." form.
func (r *Remote) call(typ string, payload any) (*wire.Envelope, error) {
	reply, err := r.c.Call(typ, payload)
	if err != nil {
		var remote *wire.RemoteError
		if errors.As(err, &remote) {
			return nil, fmt.Errorf("stage: %s: %s", r.name, remote.Message)
		}
		return nil, err
	}
	return reply, nil
}
