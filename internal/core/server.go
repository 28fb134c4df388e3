package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"actyp/internal/metrics"
	"actyp/internal/netsim"
	"actyp/internal/policy"
	"actyp/internal/registry"
	"actyp/internal/wire"
)

// Server exposes a Service over TCP using the wire protocol, so clients
// (network desktops) and remote pipeline stages can reach it across a LAN
// or WAN. Each connection is multiplexed: a reader goroutine feeds decoded
// frames to a bounded worker pool and a writer goroutine drains the
// replies, so one desktop can keep up to `window` requests in flight on a
// single connection and a slow query never blocks the renewals, releases,
// and pings queued behind it.
type Server struct {
	svc *Service
	ln  net.Listener
	cfg ServeConfig

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup

	// clampOnce makes the window-clamp diagnostic fire once per listener,
	// not once per connection.
	clampOnce sync.Once

	// Logf, when set, receives connection-level errors (default: drop).
	Logf func(format string, args ...any)
}

// ServeConfig tunes a Server's per-connection transport.
type ServeConfig struct {
	// Window is the per-connection in-flight window: how many requests
	// one connection may have executing concurrently. Zero means
	// wire.DefaultWindow; negative (or explicit 1) serializes each
	// connection, the pre-multiplexing behaviour.
	Window int
	// Codecs is the wire-codec negotiation preference (nil means
	// wire.DefaultCodecs: binary preferred, JSON floor). Offering only
	// wire.JSON pins every connection to JSON.
	Codecs []wire.Codec
	// Overload, when set, enables overload control on every connection:
	// priority-lane dispatch, admission, and deadline-aware shedding.
	// See wire.OverloadPolicy.
	Overload *wire.OverloadPolicy
	// Stats, when set, accounts every frame served (bytes, frames,
	// compressed-vs-raw) per codec. See metrics.WireStats.
	Stats *metrics.WireStats
}

// AdmitFrom adapts a policy.Admitter into the wire-layer admission hook:
// each lease or bulk request spends a token from the bucket keyed by the
// envelope's From identity (requests from peers that stamp no identity
// share the anonymous bucket). Control frames never reach the hook.
func AdmitFrom(a *policy.Admitter) wire.AdmitFunc {
	return func(env *wire.Envelope) (ok bool, retryAfter time.Duration) {
		return a.Admit(env.From)
	}
}

// Serve starts a server for svc on addr (for example "127.0.0.1:0") with
// the given network profile applied to every connection and the default
// transport configuration.
func Serve(svc *Service, addr string, profile netsim.Profile) (*Server, error) {
	return ServeOpts(svc, addr, profile, ServeConfig{})
}

// ServeWindow is Serve with an explicit per-connection in-flight window
// (values below 1 mean serial service, the pre-multiplexing behaviour).
func ServeWindow(svc *Service, addr string, profile netsim.Profile, window int) (*Server, error) {
	if window < 1 {
		window = -1 // explicit serial; ServeConfig treats 0 as the default
	}
	return ServeOpts(svc, addr, profile, ServeConfig{Window: window})
}

// ServeOpts is Serve with an explicit transport configuration.
func ServeOpts(svc *Service, addr string, profile netsim.Profile, cfg ServeConfig) (*Server, error) {
	if cfg.Window == 0 {
		cfg.Window = wire.DefaultWindow
	}
	ln, err := netsim.Listen(addr, profile)
	if err != nil {
		return nil, fmt.Errorf("core: listen %s: %w", addr, err)
	}
	s := &Server{svc: svc, ln: ln, cfg: cfg, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes every live connection, and waits for the
// handler goroutines to finish.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	_ = s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	err := wire.ServeConnOpts(conn, wire.ServeOptions{
		Window:   s.cfg.Window,
		Codecs:   s.cfg.Codecs,
		Overload: s.cfg.Overload,
		Streams:  map[string]wire.StreamHandler{wire.TypeWatch: s.serveWatch},
		Stats:    s.cfg.Stats,
		Logf: func(format string, args ...any) {
			// A negative window is a misconfiguration the wire layer
			// clamps; surface it once per listener, not per connection.
			s.clampOnce.Do(func() { s.logf(format, args...) })
		},
	}, func(env *wire.Envelope) *wire.Envelope {
		return serveEnvelope(s.svc, env)
	})
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
		s.logf("core: server conn %s: %v", conn.RemoteAddr(), err)
	}
}

// serveEnvelope dispatches one request envelope against the service and
// returns the reply envelope. It is shared by the TCP and UDP endpoints,
// which differ only in framing.
func serveEnvelope(svc *Service, env *wire.Envelope) *wire.Envelope {
	reply, err := dispatchEnvelope(svc, env)
	if err != nil {
		return wire.ErrorEnvelope(env.ID, err)
	}
	return reply
}

func dispatchEnvelope(svc *Service, env *wire.Envelope) (*wire.Envelope, error) {
	switch env.Type {
	case wire.TypePing:
		return &wire.Envelope{Type: wire.TypePing, ID: env.ID}, nil
	case wire.TypeQuery:
		var req wire.QueryRequest
		if err := env.Decode(&req); err != nil {
			return nil, err
		}
		grant, err := svc.RequestLang(req.Lang, req.Text)
		if err != nil {
			return nil, err
		}
		reply := wire.QueryReply{
			Lease:     grant.Lease,
			Fragments: grant.Fragments,
			Succeeded: grant.Succeeded,
			ElapsedNS: grant.Elapsed.Nanoseconds(),
			Shadow:    &grant.Shadow,
		}
		return wire.NewEnvelope(wire.TypeQuery, env.ID, reply)
	case wire.TypeRelease:
		var req wire.ReleaseRequest
		if err := env.Decode(&req); err != nil {
			return nil, err
		}
		g := &Grant{Lease: &req.Lease}
		if req.Shadow != nil {
			g.Shadow = *req.Shadow
		}
		if err := svc.Release(g); err != nil {
			return nil, err
		}
		return wire.NewEnvelope(wire.TypeRelease, env.ID, wire.ReleaseReply{})
	case wire.TypeRenew:
		var req wire.RenewRequest
		if err := env.Decode(&req); err != nil {
			return nil, err
		}
		if err := svc.Renew(&Grant{Lease: &req.Lease}); err != nil {
			return nil, err
		}
		return wire.NewEnvelope(wire.TypeRenew, env.ID, wire.RenewReply{})
	case wire.TypeSelect:
		var req wire.SelectRequest
		if err := env.Decode(&req); err != nil {
			return nil, err
		}
		ms, total, err := svc.SelectMachines(req.Text, req.Limit, req.Offset)
		if err != nil {
			return nil, err
		}
		reply := wire.SelectReply{Total: total, Records: wire.RecordSet{Machines: ms, Full: req.Full}}
		return wire.NewEnvelope(wire.TypeSelect, env.ID, reply)
	case wire.TypeRoute:
		var req wire.RouteRequest
		if err := env.Decode(&req); err != nil {
			return nil, err
		}
		return wire.NewEnvelope(wire.TypeRoute, env.ID, routeReply(svc, &req))
	default:
		return nil, fmt.Errorf("core: unknown message type %q", env.Type)
	}
}

// routeReply renders the service's ownership table for the wire: static
// assignments first, then the resolved owner of every requested domain.
func routeReply(svc *Service, req *wire.RouteRequest) wire.RouteReply {
	rt := svc.Routes()
	if rt == nil {
		return wire.RouteReply{}
	}
	reply := wire.RouteReply{Enabled: rt.Partitioned(), Node: rt.Local(), Nodes: rt.Nodes()}
	static := rt.Static()
	seen := make(map[string]bool, len(static))
	for d, owner := range static {
		seen[d] = true
		reply.Entries = append(reply.Entries, wire.RouteEntry{Domain: d, Owner: owner, Static: true})
	}
	for _, d := range req.Domains {
		if d == "" || seen[d] {
			continue
		}
		seen[d] = true
		if owner, ok := rt.Owner(d); ok {
			reply.Entries = append(reply.Entries, wire.RouteEntry{Domain: d, Owner: owner})
		}
	}
	sort.Slice(reply.Entries, func(i, j int) bool { return reply.Entries[i].Domain < reply.Entries[j].Domain })
	return reply
}

// Client is the remote counterpart of a Service: it multiplexes the wire
// protocol over a single TCP connection. It is safe for concurrent use —
// any number of goroutines may keep calls in flight at once, and replies
// are correlated by envelope id. A broken connection is redialed on the
// next call.
type Client struct {
	c *wire.Client
}

// DialConfig tunes a Client's transport.
type DialConfig struct {
	// Codecs is the wire-codec negotiation preference (nil means
	// wire.DefaultCodecs).
	Codecs []wire.Codec
	// Timeout bounds each call without its own context deadline.
	Timeout time.Duration
	// From names the requesting account or group; servers running
	// admission control key their token buckets off it.
	From string
	// Stats, when set, accounts every frame this client sends and
	// receives (bytes, frames, compressed-vs-raw) per codec.
	Stats *metrics.WireStats
}

// Dial connects a client to a server with the given network profile and
// the default transport configuration (codec negotiated per connection).
func Dial(addr string, profile netsim.Profile) (*Client, error) {
	return DialOpts(addr, profile, DialConfig{})
}

// DialOpts is Dial with an explicit transport configuration.
func DialOpts(addr string, profile netsim.Profile, cfg DialConfig) (*Client, error) {
	c := wire.NewClientOpts(func() (net.Conn, error) {
		return (netsim.Dialer{Profile: profile}).Dial(addr)
	}, wire.ClientOptions{
		Timeout: cfg.Timeout,
		Codecs:  cfg.Codecs,
		From:    cfg.From,
		Stats:   cfg.Stats,
	})
	if err := c.Connect(); err != nil {
		return nil, fmt.Errorf("core: dial %s: %w", addr, err)
	}
	return &Client{c: c}, nil
}

// CodecName reports the wire codec of the live connection ("" when none).
func (c *Client) CodecName() string { return c.c.CodecName() }

// Close closes the connection.
func (c *Client) Close() error { return c.c.Close() }

// call round-trips one request, translating server-side failures into the
// historical "core: server: ..." form. idempotent requests (Ping, Renew)
// transparently retry across connection loss with backoff.
func (c *Client) call(ctx context.Context, typ string, payload any) (*wire.Envelope, error) {
	reply, err := c.c.CallContext(ctx, typ, payload)
	return c.finish(typ, reply, err)
}

func (c *Client) callIdempotent(ctx context.Context, typ string, payload any) (*wire.Envelope, error) {
	reply, err := c.c.CallIdempotent(ctx, typ, payload)
	return c.finish(typ, reply, err)
}

func (c *Client) finish(typ string, reply *wire.Envelope, err error) (*wire.Envelope, error) {
	if err != nil {
		var remote *wire.RemoteError
		if errors.As(err, &remote) {
			return nil, fmt.Errorf("core: server: %s", remote.Message)
		}
		return nil, err
	}
	if reply.Type != typ {
		return nil, fmt.Errorf("core: %s got %q", typ, reply.Type)
	}
	return reply, nil
}

// Ping round-trips a liveness probe.
func (c *Client) Ping() error { return c.PingContext(context.Background()) }

// PingContext is Ping with cancellation. Pings are idempotent, so a ping
// that dies with its connection retries transparently — a heartbeat rides
// out a server restart without a caller-visible error.
func (c *Client) PingContext(ctx context.Context) error {
	_, err := c.callIdempotent(ctx, wire.TypePing, nil)
	return err
}

// Request submits a query text and returns the grant.
func (c *Client) Request(text string) (*Grant, error) { return c.RequestLang("", text) }

// RequestLang submits a query in the named language.
func (c *Client) RequestLang(lang, text string) (*Grant, error) {
	return c.RequestContext(context.Background(), lang, text)
}

// RequestContext submits a query with cancellation.
func (c *Client) RequestContext(ctx context.Context, lang, text string) (*Grant, error) {
	env, err := c.call(ctx, wire.TypeQuery, wire.QueryRequest{Lang: lang, Text: text})
	if err != nil {
		return nil, err
	}
	var reply wire.QueryReply
	if err := env.Decode(&reply); err != nil {
		return nil, err
	}
	if reply.Lease == nil {
		return nil, errors.New("core: server granted no lease")
	}
	g := &Grant{
		Lease:     reply.Lease,
		Fragments: reply.Fragments,
		Succeeded: reply.Succeeded,
	}
	if reply.Shadow != nil {
		g.Shadow = *reply.Shadow
	}
	return g, nil
}

// Release returns a grant.
func (c *Client) Release(g *Grant) error {
	if g == nil || g.Lease == nil {
		return errors.New("core: nil grant")
	}
	req := wire.ReleaseRequest{Lease: *g.Lease}
	if g.Shadow.User != "" {
		sh := g.Shadow
		req.Shadow = &sh
	}
	_, err := c.call(context.Background(), wire.TypeRelease, req)
	return err
}

// Renew heartbeats a grant on a TTL-enabled service. Renewals are
// idempotent (extending a lease twice is harmless), so they retry across
// connection loss like pings.
func (c *Client) Renew(g *Grant) error {
	if g == nil || g.Lease == nil {
		return errors.New("core: nil grant")
	}
	_, err := c.callIdempotent(context.Background(), wire.TypeRenew, wire.RenewRequest{Lease: *g.Lease})
	return err
}

// Select fetches the machine records matching a basic query text (""
// selects every record); limit caps the returned batch (0 = no cap). The
// reply's total reports the uncapped match count. On binary connections
// the batch travels delta-encoded; pass full=true to pin the full
// per-record encoding (the differential oracle and benchmark baseline).
func (c *Client) Select(text string, limit int, full bool) ([]*registry.Machine, int, error) {
	return c.SelectContext(context.Background(), text, limit, full)
}

// SelectContext is Select with cancellation.
func (c *Client) SelectContext(ctx context.Context, text string, limit int, full bool) ([]*registry.Machine, int, error) {
	return c.SelectPage(ctx, text, limit, 0, full)
}

// SelectPage is SelectContext with a page offset: offset matching records
// (in the registry's sorted name order) are skipped before limit applies.
func (c *Client) SelectPage(ctx context.Context, text string, limit, offset int, full bool) ([]*registry.Machine, int, error) {
	env, err := c.call(ctx, wire.TypeSelect, wire.SelectRequest{Text: text, Limit: limit, Offset: offset, Full: full})
	if err != nil {
		return nil, 0, err
	}
	var reply wire.SelectReply
	if err := env.Decode(&reply); err != nil {
		return nil, 0, err
	}
	return reply.Records.Machines, reply.Total, nil
}

// Route fetches the server's domain-ownership view, resolving the owners
// of any named domains along the way. An unpartitioned server answers with
// Enabled false.
func (c *Client) Route(ctx context.Context, domains ...string) (*wire.RouteReply, error) {
	env, err := c.call(ctx, wire.TypeRoute, wire.RouteRequest{Domains: domains})
	if err != nil {
		return nil, err
	}
	var reply wire.RouteReply
	if err := env.Decode(&reply); err != nil {
		return nil, err
	}
	return &reply, nil
}
