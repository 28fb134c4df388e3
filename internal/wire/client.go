package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"actyp/internal/metrics"
)

// DialFunc opens the transport connection a Client multiplexes. The client
// invokes it lazily on first use and again after a connection failure, so
// reconnection policy lives in one place.
type DialFunc func() (net.Conn, error)

// ErrClosed is returned by calls issued against (or in flight on) a client
// that has been closed.
var ErrClosed = errors.New("wire: client closed")

// ErrConnLost wraps failures of calls that died with their connection; the
// request may or may not have executed. Idempotent calls retry on it.
var ErrConnLost = errors.New("wire: connection lost")

// ErrDial wraps failures to establish (or negotiate) a connection, except
// a handshake the server refused (ErrRefused). Idempotent calls retry on
// it.
var ErrDial = errors.New("wire: dial")

// RemoteError is a failure the server reported through an error envelope.
// The connection itself is healthy; only this call failed.
type RemoteError struct {
	Message string
}

func (e *RemoteError) Error() string { return e.Message }

// BusyError is a Busy reply: the server shed the request before any
// worker touched it (admission limit, full lane queue, or expired
// deadline). The connection is healthy. Busy is deliberately NOT
// Retryable — hammering an overloaded server defeats the shedding — but
// CallIdempotent retries it after honouring RetryAfter (plus jitter).
type BusyError struct {
	// RetryAfter is the server's hint for when capacity should exist
	// again (zero when it offered none).
	RetryAfter time.Duration
	Reason     string
}

func (e *BusyError) Error() string {
	if e.Reason != "" {
		return "wire: server busy: " + e.Reason
	}
	return "wire: server busy"
}

// ClientOptions configures a Client beyond its dial function.
type ClientOptions struct {
	// Timeout bounds each call that arrives without its own context
	// deadline; zero means no bound.
	Timeout time.Duration
	// Codecs is the negotiation preference, best first (nil means
	// DefaultCodecs). Offering only JSON pins connections to JSON.
	Codecs []Codec
	// From names the requesting account or group. It is stamped on every
	// outgoing envelope as the server's admission-bucket key.
	From string
	// Stats, when set, accounts every frame the client writes and reads
	// (bytes, frames, compressed-vs-raw) under the connection codec's
	// name.
	Stats *metrics.WireStats
}

// Client multiplexes concurrent requests over one connection: every call
// writes a frame tagged with a fresh envelope id and parks on a private
// reply channel, while a single reader goroutine demultiplexes whatever
// reply arrives next to the call that owns its id. Replies may therefore
// return in any order, and N callers share one connection without waiting
// for each other's round trips. Each new connection starts with the
// handshake, so frames travel in the best codec both ends speak.
//
// A failed connection fails every in-flight call; a background loop then
// redials with exponential backoff so heartbeating callers find a live
// connection again without paying the dial themselves (the next call also
// redials on demand, whichever comes first). Client is safe for concurrent
// use.
type Client struct {
	dialFn  DialFunc
	timeout time.Duration
	codecs  []Codec
	from    string
	stats   *metrics.WireStats

	writeMu sync.Mutex // serializes frame writes on the live connection

	mu           sync.Mutex
	conn         net.Conn
	framer       *Framer
	pending      map[uint64]chan callResult
	streams      map[uint64]*ClientStream // live server-push subscriptions (see stream.go)
	nextID       uint64
	closed       bool
	reconnecting bool
}

type callResult struct {
	env *Envelope
	err error
}

// NewClient builds a client over dial with the default codec preference.
// timeout bounds each call that arrives without its own context deadline;
// zero means no bound.
func NewClient(dial DialFunc, timeout time.Duration) *Client {
	return NewClientOpts(dial, ClientOptions{Timeout: timeout})
}

// NewClientOpts builds a client over dial with explicit options.
func NewClientOpts(dial DialFunc, opts ClientOptions) *Client {
	codecs := opts.Codecs
	if codecs == nil {
		codecs = DefaultCodecs()
	}
	return &Client{
		dialFn:  dial,
		timeout: opts.Timeout,
		codecs:  codecs,
		from:    opts.From,
		stats:   opts.Stats,
		pending: make(map[uint64]chan callResult),
	}
}

// Connect ensures a live connection, dialing (and running the handshake)
// if necessary. Calls dial lazily anyway; Connect exists so constructors
// can surface dial errors immediately. A server that refuses the handshake
// fails Connect with an error wrapping ErrRefused that names the server's
// address and the protocol.
func (c *Client) Connect() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	return c.ensureConnLocked()
}

// CodecName reports the codec of the live connection ("" when none is up).
func (c *Client) CodecName() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil || c.framer == nil {
		return ""
	}
	return c.framer.Codec().Name()
}

// Close fails every in-flight call and drops the connection. Subsequent
// calls return ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	c.conn = nil
	c.framer = nil
	c.failPendingLocked(ErrClosed)
	c.failStreamsLocked(ErrClosed)
	c.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}

// Call round-trips one request under the client's default timeout.
func (c *Client) Call(typ string, payload any) (*Envelope, error) {
	return c.CallContext(context.Background(), typ, payload)
}

// CallContext round-trips one request. A nil payload sends a bare
// envelope. The reply envelope is returned as-is unless it is an error
// envelope, which is decoded into a *RemoteError. Cancelling the context
// abandons the call (a late reply is discarded); it does not disturb other
// calls in flight on the same connection.
func (c *Client) CallContext(ctx context.Context, typ string, payload any) (*Envelope, error) {
	env := &Envelope{Type: typ, Msg: payload, From: c.from}

	if c.timeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.timeout)
			defer cancel()
		}
	}
	// The caller's deadline travels in the envelope so the server can
	// shed work that cannot finish in time.
	if dl, ok := ctx.Deadline(); ok {
		env.SetDeadline(dl)
	}

	// Register the call: id assignment, pending entry, and the connection
	// it will travel on are decided under one lock.
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if err := c.ensureConnLocked(); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	env.ID = c.nextID
	ch := make(chan callResult, 1)
	c.pending[env.ID] = ch
	conn, framer := c.conn, c.framer
	c.mu.Unlock()

	c.writeMu.Lock()
	err := framer.WriteFrame(conn, env)
	c.writeMu.Unlock()
	if err != nil {
		if preWire(err) {
			// Rejected before any bytes hit the wire: the connection is
			// fine, only this call fails.
			c.mu.Lock()
			delete(c.pending, env.ID)
			c.mu.Unlock()
			return nil, err
		}
		// Any other frame-write failure means the connection is broken:
		// tear it down (failing every call in flight on it, ourselves
		// included).
		c.connFailed(conn, err)
	}

	select {
	case res := <-ch:
		if res.err != nil {
			return nil, res.err
		}
		if res.env.Type == TypeError {
			var e ErrorReply
			if err := res.env.Decode(&e); err != nil {
				return nil, err
			}
			return nil, &RemoteError{Message: e.Message}
		}
		if res.env.Type == TypeBusy {
			var b BusyReply
			if err := res.env.Decode(&b); err != nil {
				return nil, err
			}
			return nil, &BusyError{RetryAfter: time.Duration(b.RetryAfterMS) * time.Millisecond, Reason: b.Reason}
		}
		return res.env, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, env.ID)
		c.mu.Unlock()
		return nil, fmt.Errorf("wire: call %s: %w", typ, ctx.Err())
	}
}

// CallIdempotent is CallContext for requests that are safe to re-send
// (Ping, Renew): a call that dies with its connection, or cannot dial, is
// retried with jittered exponential backoff until the context — or the
// client's default timeout — expires, so a short server outage is
// invisible to the caller. A Busy shed is retried too, but only after the
// server's retry-after hint has elapsed (plus jittered backoff) — shed
// clients back off instead of hammering an overloaded server. Failures
// the server reports (RemoteError), encode failures, and a closed client
// are not retried. The caller owns the idempotency claim: a retried
// request may execute twice on the server.
func (c *Client) CallIdempotent(ctx context.Context, typ string, payload any) (*Envelope, error) {
	if c.timeout > 0 {
		if _, has := ctx.Deadline(); !has {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.timeout)
			defer cancel()
		}
	}
	// Without any deadline the loop needs its own bound; with one, the
	// context cuts the retries off.
	maxAttempts := math.MaxInt
	if _, has := ctx.Deadline(); !has {
		maxAttempts = 8
	}
	backoff := 5 * time.Millisecond
	const maxBackoff = 250 * time.Millisecond
	for attempt := 1; ; attempt++ {
		reply, err := c.CallContext(ctx, typ, payload)
		if err == nil || attempt >= maxAttempts {
			return reply, err
		}
		// Full jitter on every wait: synchronized heartbeaters must not
		// retry in lockstep (see jitter.go).
		var wait time.Duration
		var busy *BusyError
		switch {
		case errors.As(err, &busy):
			wait = busy.RetryAfter + fullJitter(backoff)
		case Retryable(err):
			wait = fullJitter(backoff)
		default:
			return reply, err
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("wire: call %s: %w", typ, ctx.Err())
		case <-time.After(wait):
		}
		backoff = min(backoff*2, maxBackoff)
	}
}

// Retryable reports whether a call failure is a transport-level loss (the
// connection died or could not be established) that an idempotent request
// may safely retry immediately. A refused handshake is not: the same peer
// refuses the same hello again. A BusyError is deliberately NOT retryable:
// the server shed that request to survive overload, and an immediate
// retry re-applies the load it just rejected. CallIdempotent handles Busy
// separately, waiting out the server's retry-after hint first.
func Retryable(err error) bool {
	return errors.Is(err, ErrConnLost) || errors.Is(err, ErrDial)
}

// ensureConnLocked dials and negotiates if no connection is live, and
// starts the connection's reader. Caller holds c.mu.
func (c *Client) ensureConnLocked() error {
	if c.conn != nil {
		return nil
	}
	conn, framer, err := c.dialAndNegotiate()
	if err != nil {
		return err
	}
	c.installConnLocked(conn, framer)
	return nil
}

// negotiateTimeout bounds the handshake round trip on a fresh connection
// when the client has no tighter per-call timeout: dialing is the one
// moment the client blocks on a peer that has not yet proven it speaks
// the protocol, so a hung accept must not wedge Connect (and the mutex
// behind it) forever.
const negotiateTimeout = 10 * time.Second

// dialAndNegotiate opens a fresh connection and runs the codec handshake
// on it (one round trip). It holds no client locks, so the background
// reconnect loop can use it without blocking callers.
func (c *Client) dialAndNegotiate() (net.Conn, *Framer, error) {
	conn, err := c.dialFn()
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrDial, err)
	}
	bound := negotiateTimeout
	if c.timeout > 0 && c.timeout < bound {
		bound = c.timeout
	}
	_ = conn.SetDeadline(time.Now().Add(bound)) // best effort: not every conn has deadlines
	chosen, err := negotiateClient(conn, c.codecs, nil)
	if err != nil {
		_ = conn.Close()
		if errors.Is(err, ErrRefused) {
			return nil, nil, err
		}
		return nil, nil, fmt.Errorf("%w: negotiate: %v", ErrDial, err)
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, NewFramerStats(chosen, c.stats), nil
}

func (c *Client) installConnLocked(conn net.Conn, framer *Framer) {
	c.conn = conn
	c.framer = framer
	go c.readLoop(conn, framer)
}

// readLoop demultiplexes replies on one connection until it fails.
func (c *Client) readLoop(conn net.Conn, framer *Framer) {
	br := bufio.NewReader(conn) // the handshake before it read unbuffered
	for {
		env, err := framer.ReadFrame(br)
		if err != nil {
			c.connFailed(conn, err)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[env.ID]
		if ok {
			delete(c.pending, env.ID)
		}
		var st *ClientStream
		if !ok {
			st = c.streams[env.ID]
		}
		c.mu.Unlock()
		if ok {
			ch <- callResult{env: env} // buffered; single send per entry
			continue
		}
		if st != nil {
			// Stream frames deliver without deregistering the id; a consumer
			// that overflowed its buffer is dropped here so it never stalls
			// this loop (it resubscribes and re-baselines).
			if !st.deliver(env) {
				c.mu.Lock()
				if c.streams[env.ID] == st {
					delete(c.streams, env.ID)
				}
				c.mu.Unlock()
			}
		}
		// Unmatched ids are replies to abandoned (timed-out) calls: drop.
	}
}

// connFailed retires a broken connection, fails the calls in flight on it,
// and starts the proactive redial loop. The next call also redials on
// demand, whichever comes first.
func (c *Client) connFailed(conn net.Conn, err error) {
	c.mu.Lock()
	if c.conn == conn {
		c.conn = nil
		c.framer = nil
		c.failPendingLocked(fmt.Errorf("%w: %v", ErrConnLost, err))
		c.failStreamsLocked(fmt.Errorf("%w: %v", ErrConnLost, err))
		if !c.closed && !c.reconnecting {
			c.reconnecting = true
			go c.reconnectLoop()
		}
	}
	c.mu.Unlock()
	_ = conn.Close()
}

// reconnectLoop proactively redials a lost connection with jittered
// exponential backoff, so heartbeating clients regain a connection without
// waiting for their next call to pay the dial — and without the whole
// fleet redialing a restarted server in lockstep (each sleep is drawn
// uniformly from [0, backoff), see jitter.go). It stops as soon as a
// connection exists (its own or one a call-path dial installed) or the
// client closes.
func (c *Client) reconnectLoop() {
	backoff := 10 * time.Millisecond
	const maxBackoff = time.Second
	for {
		time.Sleep(fullJitter(backoff))
		c.mu.Lock()
		if c.closed || c.conn != nil {
			c.reconnecting = false
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		conn, framer, err := c.dialAndNegotiate()
		if err == nil {
			// reconnecting must clear in the same critical section that
			// installs the connection: the new readLoop may fail
			// immediately, and its connFailed must see reconnecting=false
			// so it starts the next loop instead of assuming this one is
			// still alive.
			c.mu.Lock()
			stale := c.closed || c.conn != nil
			if !stale {
				c.installConnLocked(conn, framer)
			}
			c.reconnecting = false
			c.mu.Unlock()
			if stale {
				_ = conn.Close()
			}
			return
		}
		backoff = min(backoff*2, maxBackoff)
	}
}

func (c *Client) failPendingLocked(err error) {
	for id, ch := range c.pending {
		delete(c.pending, id)
		ch <- callResult{err: err}
	}
}
