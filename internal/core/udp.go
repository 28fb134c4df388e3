package core

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"actyp/internal/wire"
)

// UDPServer exposes a Service over UDP. Section 6 of the paper notes that
// "queries propagate from one stage to the next via TCP or UDP"; the UDP
// path trades connection state for datagram semantics — each request and
// reply is one datagram (always a JSON envelope, no length prefix:
// datagrams carry no per-connection negotiation state, so they stay on the
// codec floor). Requests larger than a datagram or replies lost in flight
// are the client's problem, exactly as with the paper's UDP stages.
//
// Replies are sharded round-robin across a small pool of sockets: the Go
// runtime serializes writes per file descriptor, so under a flood of
// concurrent handlers one reply socket becomes the write-side bottleneck.
// Clients must therefore correlate replies by envelope id, not by source
// port (UDPClient does; see its doc for the NAT caveat).
type UDPServer struct {
	svc     *Service
	conn    *net.UDPConn   // request socket, also replies[0]
	replies []*net.UDPConn // reply socket pool, round-robin
	next    atomic.Uint64
	sem     chan struct{} // in-flight dispatch window (FIFO path)
	lanes   *wire.Lanes   // overload path: per-lane queues, nil = FIFO
	wg      sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// UDPOptions tunes a UDP endpoint.
type UDPOptions struct {
	// Window is the in-flight dispatch window: at most this many datagrams
	// are served concurrently. Beyond it the read loop stops draining the
	// socket, so a flood backs up into the kernel buffer and drops there.
	// The rule is wire.ResolveWindow's: 0 means wire.DefaultWindow, 1
	// serializes dispatch, negative is an error.
	Window int
	// Sockets sizes the reply socket pool (the request socket is member
	// zero). Zero picks GOMAXPROCS, capped at 16; one restores the single
	// shared-socket behaviour.
	Sockets int
	// Overload, when set, enables overload control on the datagram path:
	// decoded requests route through priority lanes served by a fixed
	// pool of Window workers, with admission and deadline-aware shedding
	// answered by Busy datagrams. Nil keeps the FIFO semaphore path.
	Overload *wire.OverloadPolicy
}

// ServeUDP starts a UDP endpoint for svc on addr (e.g. "127.0.0.1:0")
// with the default options.
func ServeUDP(svc *Service, addr string) (*UDPServer, error) {
	return ServeUDPOpts(svc, addr, UDPOptions{})
}

// ServeUDPOpts is ServeUDP with explicit options.
func ServeUDPOpts(svc *Service, addr string, opts UDPOptions) (*UDPServer, error) {
	window, err := wire.ResolveWindow(opts.Window)
	if err != nil {
		return nil, err
	}
	opts.Window = window
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("core: resolve %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("core: listen udp %s: %w", addr, err)
	}
	if opts.Sockets <= 0 {
		opts.Sockets = min(runtime.GOMAXPROCS(0), 16)
	}
	s := &UDPServer{svc: svc, conn: conn, sem: make(chan struct{}, opts.Window)}
	s.replies = append(s.replies, conn)
	for len(s.replies) < opts.Sockets {
		// Extra reply sockets bind the same interface on ephemeral ports;
		// replies from them carry a different source port, which is why
		// clients correlate by envelope id.
		rc, err := net.ListenUDP("udp", &net.UDPAddr{IP: udpAddr.IP})
		if err != nil {
			for _, c := range s.replies {
				_ = c.Close()
			}
			return nil, fmt.Errorf("core: udp reply socket: %w", err)
		}
		s.replies = append(s.replies, rc)
	}
	if opts.Overload != nil {
		s.lanes = wire.NewLanes(opts.Overload, func(env *wire.Envelope, meta any, busy *wire.BusyReply) {
			s.sendReply(wire.BusyEnvelope(env.ID, busy), meta.(*net.UDPAddr))
		})
		for i := 0; i < opts.Window; i++ {
			s.wg.Add(1)
			go s.laneWorker()
		}
	}
	s.wg.Add(1)
	go s.loop()
	return s, nil
}

// Sockets reports the reply socket pool size (observability and tests).
func (s *UDPServer) Sockets() int { return len(s.replies) }

// Addr returns the endpoint address.
func (s *UDPServer) Addr() string { return s.conn.LocalAddr().String() }

// Close stops the endpoint.
func (s *UDPServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	for _, c := range s.replies {
		_ = c.Close()
	}
	if s.lanes != nil {
		s.lanes.Close() // wakes the lane workers; queued items drain
	}
	s.wg.Wait()
}

func (s *UDPServer) loop() {
	defer s.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, from, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		env, err := wire.DecodeDatagram(buf[:n])
		if err != nil {
			continue // drop malformed datagrams, as UDP services do
		}
		if s.lanes != nil {
			// Overload path: classify into a priority lane (shedding
			// over-limit or expired requests with a Busy datagram); the
			// fixed worker pool pops control-first. ReadFromUDP returns a
			// fresh addr each call, so handing it off is safe.
			s.lanes.Offer(env, from)
			continue
		}
		// Handle each datagram concurrently up to the window; replies
		// race, which is fine because the client correlates by envelope
		// id. A full window blocks the read here, which is the bound.
		s.sem <- struct{}{}
		s.wg.Add(1)
		go func(env *wire.Envelope, from *net.UDPAddr) {
			defer func() {
				<-s.sem
				s.wg.Done()
			}()
			// serveEnvelope is the same dispatcher the TCP server uses;
			// only the framing differs (one datagram per envelope).
			reply := serveEnvelope(s.svc, env)
			if reply == nil {
				return
			}
			s.sendReply(reply, from)
		}(env, from)
	}
}

// laneWorker serves the overload path: pop the next request in priority
// order, dispatch it, reply. One such worker per window slot.
func (s *UDPServer) laneWorker() {
	defer s.wg.Done()
	for {
		env, meta, lane, ok := s.lanes.Pop()
		if !ok {
			return // closed and drained
		}
		reply := serveEnvelope(s.svc, env)
		s.lanes.Done(lane)
		if reply != nil {
			s.sendReply(reply, meta.(*net.UDPAddr))
		}
	}
}

// sendReply encodes one reply datagram and writes it from the next
// round-robin reply socket: per-fd write locks stop being the choke
// point under concurrent handlers.
func (s *UDPServer) sendReply(reply *wire.Envelope, to *net.UDPAddr) {
	raw, err := wire.EncodeDatagram(reply)
	if err != nil {
		return
	}
	sock := s.replies[s.next.Add(1)%uint64(len(s.replies))]
	_, _ = sock.WriteToUDP(raw, to)
}

// UDPClient is the datagram counterpart of Client. Lost datagrams surface
// as timeouts; the caller retries (queries are idempotent until granted).
//
// The socket is deliberately unconnected: the server shards replies across
// a socket pool, so a reply's source port need not match the port the
// request went to, and a connected socket's kernel filter would drop it.
// Replies are correlated by envelope id instead. (A NAT that keys on the
// full 4-tuple would also drop such replies — the paper's UDP stages, like
// this one, assume LAN-grade reachability.)
type UDPClient struct {
	conn    *net.UDPConn
	server  *net.UDPAddr
	timeout time.Duration
	nextID  uint64
}

// DialUDP connects a UDP client. A non-positive timeout defaults to 2s.
func DialUDP(addr string, timeout time.Duration) (*UDPClient, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", nil)
	if err != nil {
		return nil, err
	}
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return &UDPClient{conn: conn, server: udpAddr, timeout: timeout}, nil
}

// Close drops the socket.
func (c *UDPClient) Close() error { return c.conn.Close() }

// Ping round-trips a liveness datagram.
func (c *UDPClient) Ping() error {
	reply, err := c.roundTrip(&wire.Envelope{Type: wire.TypePing, ID: c.id()})
	if err != nil {
		return err
	}
	if reply.Type != wire.TypePing {
		return fmt.Errorf("core: udp ping got %q", reply.Type)
	}
	return nil
}

// Request submits a query over UDP.
func (c *UDPClient) Request(text string) (*Grant, error) {
	env, err := wire.NewEnvelope(wire.TypeQuery, c.id(), wire.QueryRequest{Text: text})
	if err != nil {
		return nil, err
	}
	reply, err := c.roundTrip(env)
	if err != nil {
		return nil, err
	}
	var qr wire.QueryReply
	if err := reply.Decode(&qr); err != nil {
		return nil, err
	}
	if qr.Lease == nil {
		return nil, fmt.Errorf("core: udp server granted no lease")
	}
	g := &Grant{Lease: qr.Lease, Fragments: qr.Fragments, Succeeded: qr.Succeeded}
	if qr.Shadow != nil {
		g.Shadow = *qr.Shadow
	}
	return g, nil
}

// Release returns a grant over UDP.
func (c *UDPClient) Release(g *Grant) error {
	if g == nil || g.Lease == nil {
		return fmt.Errorf("core: nil grant")
	}
	req := wire.ReleaseRequest{Lease: *g.Lease}
	if g.Shadow.User != "" {
		sh := g.Shadow
		req.Shadow = &sh
	}
	env, err := wire.NewEnvelope(wire.TypeRelease, c.id(), req)
	if err != nil {
		return err
	}
	reply, err := c.roundTrip(env)
	if err != nil {
		return err
	}
	if reply.Type != wire.TypeRelease {
		return fmt.Errorf("core: udp release got %q", reply.Type)
	}
	return nil
}

func (c *UDPClient) id() uint64 {
	c.nextID++
	return c.nextID
}

func (c *UDPClient) roundTrip(env *wire.Envelope) (*wire.Envelope, error) {
	deadline := time.Now().Add(c.timeout)
	// Datagrams are JSON, so the deadline always propagates: a server
	// running overload control sheds this request once it cannot be
	// answered in time instead of occupying a worker.
	env.SetDeadline(deadline)
	raw, err := wire.EncodeDatagram(env)
	if err != nil {
		return nil, err
	}
	if _, err := c.conn.WriteToUDP(raw, c.server); err != nil {
		return nil, err
	}
	buf := make([]byte, 64*1024)
	for {
		if err := c.conn.SetReadDeadline(deadline); err != nil {
			return nil, err
		}
		n, _, err := c.conn.ReadFromUDP(buf)
		if err != nil {
			return nil, fmt.Errorf("core: udp read: %w", err)
		}
		reply, err := wire.DecodeDatagram(buf[:n])
		if err != nil {
			continue // malformed datagram; keep waiting for ours
		}
		if reply.ID != env.ID {
			continue // stale reply from an earlier (timed-out) exchange
		}
		if reply.Type == wire.TypeError {
			var e wire.ErrorReply
			if err := reply.Decode(&e); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("core: server: %s", e.Message)
		}
		if reply.Type == wire.TypeBusy {
			var b wire.BusyReply
			if err := reply.Decode(&b); err != nil {
				return nil, err
			}
			return nil, &wire.BusyError{RetryAfter: time.Duration(b.RetryAfterMS) * time.Millisecond, Reason: b.Reason}
		}
		return reply, nil
	}
}
