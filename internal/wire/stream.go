package wire

// Streaming extends the request/reply multiplexers on both ends of a
// connection to server push, which the watch message family rides on.
//
// Client side: Stream registers the request id in a streams table the
// read loop consults after the one-shot pending table, so every frame the
// server sends with that id is delivered to the stream's channel instead
// of completing (and deregistering) a call. Server side: ServeConnOpts
// routes registered stream types to a StreamHandler running in its own
// tracked goroutine — long-lived subscriptions must not occupy a slot of
// the window-bounded worker pool — whose Send enqueues frames on the same
// reply channel the workers use, keeping the single-writer discipline.
//
// Delivery to a slow stream consumer never blocks the connection's read
// loop: an overflowing stream fails with ErrStreamOverflow and the
// consumer re-subscribes and re-baselines, the same lossy-but-honest
// contract as the registry's in-process subscription rings.

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrStreamOverflow reports that a stream's receive buffer filled faster
// than the consumer drained it; the stream is dead and the subscription
// state is gone (resubscribe and re-baseline).
var ErrStreamOverflow = errors.New("wire: stream receive buffer overflow")

// ErrStreamEnded reports an orderly stream end (the consumer closed it).
var ErrStreamEnded = errors.New("wire: stream closed")

// DefaultStreamBuffer is the client-side receive buffer used when Stream
// is called with buf <= 0.
const DefaultStreamBuffer = 256

// ClientStream is one server-push subscription multiplexed on a Client's
// connection alongside its request/reply calls.
type ClientStream struct {
	c  *Client
	id uint64
	ch chan *Envelope

	mu     sync.Mutex
	failed bool
	err    error
}

// Stream opens a server-push subscription: the request is written like a
// call, but the id stays registered and every subsequent frame the server
// sends with it is delivered through Recv (including the server's error
// reply, if the subscription is rejected — Recv surfaces it as a
// *RemoteError). buf bounds the receive buffer (<=0 means
// DefaultStreamBuffer); a consumer that falls that far behind fails with
// ErrStreamOverflow rather than stalling the connection's read loop.
// Connection loss fails the stream; re-subscription is the caller's
// policy, not the transport's.
func (c *Client) Stream(typ string, payload any, buf int) (*ClientStream, error) {
	if buf <= 0 {
		buf = DefaultStreamBuffer
	}
	env := &Envelope{Type: typ, Msg: payload, From: c.from}

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
	s := &ClientStream{c: c, id: env.ID, ch: make(chan *Envelope, buf)}
	if c.streams == nil {
		c.streams = make(map[uint64]*ClientStream)
	}
	c.streams[env.ID] = s
	conn, framer := c.conn, c.framer
	c.mu.Unlock()

	c.writeMu.Lock()
	err := framer.WriteFrame(conn, env)
	c.writeMu.Unlock()
	if err != nil {
		if preWire(err) {
			c.mu.Lock()
			delete(c.streams, env.ID)
			c.mu.Unlock()
			return nil, err
		}
		c.connFailed(conn, err)
		return nil, fmt.Errorf("%w: %v", ErrConnLost, err)
	}
	return s, nil
}

// deliver hands one frame to the stream's consumer without ever blocking
// the read loop; it reports false when the stream overflowed and must be
// deregistered.
func (s *ClientStream) deliver(env *Envelope) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return false
	}
	select {
	case s.ch <- env:
		return true
	default:
		s.failLocked(ErrStreamOverflow)
		return false
	}
}

// fail kills the stream with err; pending buffered frames stay readable,
// then Recv returns err.
func (s *ClientStream) fail(err error) {
	s.mu.Lock()
	s.failLocked(err)
	s.mu.Unlock()
}

func (s *ClientStream) failLocked(err error) {
	if s.failed {
		return
	}
	s.failed = true
	s.err = err
	close(s.ch)
}

// Recv blocks for the next streamed frame. Error-reply frames decode to a
// *RemoteError (the server rejected or tore down the subscription); a
// dead stream returns the terminal error after the buffered frames drain.
func (s *ClientStream) Recv(ctx context.Context) (*Envelope, error) {
	select {
	case env, ok := <-s.ch:
		if !ok {
			s.mu.Lock()
			err := s.err
			s.mu.Unlock()
			return nil, err
		}
		if env.Type == TypeError {
			var e ErrorReply
			if err := env.Decode(&e); err != nil {
				return nil, err
			}
			return nil, &RemoteError{Message: e.Message}
		}
		return env, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close deregisters the stream and tells the server to stop sending
// (best effort: nothing is left listening for an answer).
func (s *ClientStream) Close() error {
	c := s.c
	c.mu.Lock()
	if c.streams[s.id] != s {
		c.mu.Unlock()
		return nil
	}
	delete(c.streams, s.id)
	conn, framer := c.conn, c.framer
	c.mu.Unlock()
	s.fail(ErrStreamEnded)
	if conn != nil {
		c.writeMu.Lock()
		_ = framer.WriteFrame(conn, &Envelope{Type: TypeStreamCancel, ID: s.id})
		c.writeMu.Unlock()
	}
	return nil
}

// failStreamsLocked kills every registered stream (connection loss or
// client close). Caller holds c.mu.
func (c *Client) failStreamsLocked(err error) {
	for id, s := range c.streams {
		delete(c.streams, id)
		s.fail(err)
	}
}

// StreamHandler serves one long-lived subscription on a server
// connection. It runs in its own goroutine (outside the worker window)
// and must return promptly after st.Done() closes — connection teardown
// waits for it. env is the subscribing request.
type StreamHandler func(env *Envelope, st *ServerStream)

// ServerStream is the server half of one subscription: Send enqueues
// frames on the connection's writer, Done signals teardown (peer gone or
// subscription cancelled).
type ServerStream struct {
	id      uint64
	replies chan<- *Envelope
	done    chan struct{}
	stop    sync.Once
}

// ID returns the subscription's envelope id; every sent frame should
// carry it so the client can demultiplex the stream.
func (st *ServerStream) ID() uint64 { return st.id }

// Done returns a channel closed when the subscription must end: the
// connection is tearing down or the client cancelled the stream.
func (st *ServerStream) Done() <-chan struct{} { return st.done }

// Send enqueues one frame for the connection writer. It fails once the
// subscription is done; the handler should then return. Send may block
// briefly on the writer's bounded queue, never indefinitely: the writer
// drains the queue until every stream handler has exited.
func (st *ServerStream) Send(env *Envelope) error {
	select {
	case <-st.done:
		return ErrStreamEnded
	default:
	}
	select {
	case st.replies <- env:
		return nil
	case <-st.done:
		return ErrStreamEnded
	}
}

func (st *ServerStream) cancel() {
	st.stop.Do(func() { close(st.done) })
}

// serverStreams tracks one connection's live subscriptions through
// teardown: the reader registers them, a client cancel or connection
// close stops them, and close() waits for every handler to return before
// the reply channel may be closed.
type serverStreams struct {
	mu      sync.Mutex
	active  map[uint64]*ServerStream
	closing bool
	wg      sync.WaitGroup
}

// start launches a handler for one subscription; it reports false (and
// starts nothing) when the id is already subscribed or the connection is
// tearing down.
func (ss *serverStreams) start(env *Envelope, h StreamHandler, replies chan<- *Envelope) bool {
	ss.mu.Lock()
	if ss.closing || ss.active[env.ID] != nil {
		ss.mu.Unlock()
		return false
	}
	if ss.active == nil {
		ss.active = make(map[uint64]*ServerStream)
	}
	st := &ServerStream{id: env.ID, replies: replies, done: make(chan struct{})}
	ss.active[env.ID] = st
	ss.wg.Add(1)
	ss.mu.Unlock()
	go func() {
		defer ss.wg.Done()
		defer func() {
			st.cancel()
			ss.mu.Lock()
			delete(ss.active, env.ID)
			ss.mu.Unlock()
		}()
		h(env, st)
	}()
	return true
}

// cancelID stops the subscription with the given id (client cancel).
func (ss *serverStreams) cancelID(id uint64) {
	ss.mu.Lock()
	st := ss.active[id]
	ss.mu.Unlock()
	if st != nil {
		st.cancel()
	}
}

// close stops every subscription and waits for the handlers to return.
func (ss *serverStreams) close() {
	ss.mu.Lock()
	ss.closing = true
	for _, st := range ss.active {
		st.cancel()
	}
	ss.mu.Unlock()
	ss.wg.Wait()
}
