package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"time"

	"actyp/internal/metrics"
	"actyp/internal/netsim"
	"actyp/internal/policy"
	"actyp/internal/registry"
	"actyp/internal/wire"
)

// Server exposes a Service over TCP using the wire protocol, so clients
// (network desktops) and remote pipeline stages can reach it across a LAN
// or WAN. Each connection is multiplexed (see wire.ServeConnOpts): one
// desktop can keep up to a window of requests in flight on a single
// connection, and a slow query never blocks the renewals, releases, and
// pings queued behind it.
type Server = wire.Server

// ServeConfig is the options type of ServeOpts. It is an alias of
// wire.ServeOptions kept only because the benchmark module names it.
type ServeConfig = wire.ServeOptions

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
	return ServeOpts(svc, addr, profile, wire.ServeOptions{})
}

// ServeOpts is Serve with an explicit transport configuration. The server
// adds the watch stream handler to opts.Streams.
func ServeOpts(svc *Service, addr string, profile netsim.Profile, opts wire.ServeOptions) (*Server, error) {
	ln, err := netsim.Listen(addr, profile)
	if err != nil {
		return nil, fmt.Errorf("core: listen %s: %w", addr, err)
	}
	opts.Streams = map[string]wire.StreamHandler{wire.TypeWatch: svc.serveWatch}
	return wire.NewServer(ln, opts, newMux(svc).Serve)
}

// newMux serves the client protocol against svc. The TCP and UDP
// endpoints share it; they differ only in framing.
func newMux(svc *Service) *wire.Mux {
	mux := wire.NewMux()
	wire.Handle(mux, wire.Query, func(req *wire.QueryRequest) (*wire.QueryReply, error) {
		grant, err := svc.RequestLang(req.Lang, req.Text)
		if err != nil {
			return nil, err
		}
		return &wire.QueryReply{
			Lease:     grant.Lease,
			Fragments: grant.Fragments,
			Succeeded: grant.Succeeded,
			ElapsedNS: grant.Elapsed.Nanoseconds(),
			Shadow:    &grant.Shadow,
		}, nil
	})
	wire.Handle(mux, wire.Release, func(req *wire.ReleaseRequest) (*wire.ReleaseReply, error) {
		return &wire.ReleaseReply{}, svc.Release(&Grant{Lease: &req.Lease})
	})
	wire.Handle(mux, wire.Renew, func(req *wire.RenewRequest) (*wire.RenewReply, error) {
		return &wire.RenewReply{}, svc.Renew(&Grant{Lease: &req.Lease})
	})
	wire.Handle(mux, wire.Select, func(req *wire.SelectRequest) (*wire.SelectReply, error) {
		ms, total, err := svc.SelectMachines(req.Text, req.Limit, req.Offset)
		if err != nil {
			return nil, err
		}
		return &wire.SelectReply{Total: total, Records: wire.RecordSet{Machines: ms, Full: req.Full}}, nil
	})
	wire.Handle(mux, wire.Route, func(req *wire.RouteRequest) (*wire.RouteReply, error) {
		return routeReply(svc, req), nil
	})
	return mux
}

// routeReply renders the service's ownership table for the wire: static
// assignments first, then the resolved owner of every requested domain.
func routeReply(svc *Service, req *wire.RouteRequest) *wire.RouteReply {
	rt := svc.Routes()
	if rt == nil {
		return &wire.RouteReply{}
	}
	reply := &wire.RouteReply{Enabled: rt.Partitioned(), Node: rt.Local(), Nodes: rt.Nodes()}
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

// serverErr prefixes a failure the server reported with "core: server: ";
// errors.As still reaches the *wire.RemoteError. Transport failures pass
// through unchanged.
func serverErr(err error) error {
	if err == nil {
		return nil
	}
	var remote *wire.RemoteError
	if errors.As(err, &remote) {
		return fmt.Errorf("core: server: %w", err)
	}
	return err
}

// Ping round-trips a liveness probe.
func (c *Client) Ping() error { return c.PingContext(context.Background()) }

// PingContext is Ping with cancellation. Pings are idempotent, so a ping
// that dies with its connection retries transparently — a heartbeat rides
// out a server restart without a caller-visible error.
func (c *Client) PingContext(ctx context.Context) error {
	_, err := wire.Ping.Call(ctx, c.c, &wire.None{})
	return serverErr(err)
}

// Request submits a query text and returns the grant.
func (c *Client) Request(text string) (*Grant, error) { return c.RequestLang("", text) }

// RequestLang submits a query in the named language.
func (c *Client) RequestLang(lang, text string) (*Grant, error) {
	return c.RequestContext(context.Background(), lang, text)
}

// RequestContext submits a query with cancellation.
func (c *Client) RequestContext(ctx context.Context, lang, text string) (*Grant, error) {
	reply, err := wire.Query.Call(ctx, c.c, &wire.QueryRequest{Lang: lang, Text: text})
	if err != nil {
		return nil, serverErr(err)
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
	req := &wire.ReleaseRequest{Lease: *g.Lease}
	if g.Shadow.User != "" {
		sh := g.Shadow
		req.Shadow = &sh
	}
	_, err := wire.Release.Call(context.Background(), c.c, req)
	return serverErr(err)
}

// Renew heartbeats a grant on a TTL-enabled service. Renewals are
// idempotent (extending a lease twice is harmless), so they retry across
// connection loss like pings.
func (c *Client) Renew(g *Grant) error {
	if g == nil || g.Lease == nil {
		return errors.New("core: nil grant")
	}
	_, err := wire.Renew.Call(context.Background(), c.c, &wire.RenewRequest{Lease: *g.Lease})
	return serverErr(err)
}

// Select fetches the machine records matching a basic query text (""
// selects every record); limit caps the returned batch (0 = no cap). The
// reply's total reports the uncapped match count. On binary connections
// the batch travels delta-encoded; pass full=true to pin the full
// per-record encoding (the differential oracle and benchmark baseline).
// The returned records are read-only: decoded from a delta batch, they may
// share their slices with each other, so Clone one before
// writing to it.
func (c *Client) Select(text string, limit int, full bool) ([]*registry.Machine, int, error) {
	return c.SelectContext(context.Background(), text, limit, full)
}

// SelectContext is Select with cancellation.
func (c *Client) SelectContext(ctx context.Context, text string, limit int, full bool) ([]*registry.Machine, int, error) {
	return c.SelectPage(ctx, text, limit, 0, full)
}

// SelectPage is SelectContext with a page offset: offset matching records
// (in the registry's sorted name order) are skipped before limit applies.
// The records are read-only, as Select's are.
func (c *Client) SelectPage(ctx context.Context, text string, limit, offset int, full bool) ([]*registry.Machine, int, error) {
	reply, err := wire.Select.Call(ctx, c.c, &wire.SelectRequest{Text: text, Limit: limit, Offset: offset, Full: full})
	if err != nil {
		return nil, 0, serverErr(err)
	}
	return reply.Records.Machines, reply.Total, nil
}

// Route fetches the server's domain-ownership view, resolving the owners
// of any named domains along the way. An unpartitioned server answers with
// Enabled false.
func (c *Client) Route(ctx context.Context, domains ...string) (*wire.RouteReply, error) {
	reply, err := wire.Route.Call(ctx, c.c, &wire.RouteRequest{Domains: domains})
	return reply, serverErr(err)
}
