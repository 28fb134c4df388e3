package wire

import (
	"errors"
	"net"
	"sync"

	"actyp/internal/metrics"
)

// DefaultWindow is the per-connection in-flight window used when a server
// is not configured with one: how many decoded requests may be executing
// (or waiting to be written back) concurrently on a single connection.
const DefaultWindow = 32

// Handler processes one decoded request envelope and returns the reply
// envelope; nil means the request produces no reply.
type Handler func(*Envelope) *Envelope

// ServeOptions configures the server side of a TCP endpoint and of each
// connection it serves.
type ServeOptions struct {
	// Window is the per-connection in-flight request window, under the
	// rule of ResolveWindow: 0 means DefaultWindow, 1 serializes the
	// connection (the pre-multiplexing behaviour), negative is an error.
	Window int
	// Codecs is the negotiation preference, best first (nil means
	// DefaultCodecs). Offering only JSON pins every connection to JSON.
	Codecs []Codec
	// Overload enables the overload-control dispatch path: decoded
	// requests route through priority lanes (control > lease > bulk)
	// with admission and deadline-aware shedding instead of the single
	// FIFO. Nil keeps the original FIFO behaviour. See OverloadPolicy.
	Overload *OverloadPolicy
	// Streams maps envelope types to long-lived subscription handlers
	// (watch). A frame whose type is a key here bypasses the worker pool:
	// the reader registers the subscription and spawns the handler in its
	// own goroutine, which pushes frames through the connection's writer
	// until the peer cancels or the connection tears down. Nil serves no
	// streams; unknown types still reach the regular handler (which
	// answers with an error reply).
	Streams map[string]StreamHandler
	// Stats, when set, accounts every frame this connection reads and
	// writes (bytes, frames, compressed-vs-raw) under its codec's name.
	Stats *metrics.WireStats
	// Logf receives a Server's per-connection terminal errors (protocol
	// refusals among them) other than io.EOF and net.ErrClosed; nil
	// discards them.
	Logf func(format string, args ...any)
}

// workItem is one request handed to a worker; lane is meaningful only on
// the overload path (goodput accounting).
type workItem struct {
	env  *Envelope
	lane Lane
}

// ServeConnOpts multiplexes one connection: a reader loop decodes frames
// and hands each to a pool of `window` workers, and a single writer
// goroutine drains the reply channel, so replies interleave out of order
// (the envelope id correlates them) and a slow request never blocks
// service of the requests queued behind it.
//
// The first frame must be a hello at Protocol or above: the server answers
// with the best mutual codec and both directions switch to it. Any other
// first frame is refused with one JSON error reply, after which
// ServeConnOpts closes conn and returns an error wrapping ErrRefused.
//
// Backpressure is structural: when all workers are busy the reader blocks
// handing off the next frame, so at most `window` requests execute
// concurrently and at most `window` replies queue for the writer; beyond
// that, frames accumulate in the kernel socket buffer and TCP flow control
// pushes back on the client.
//
// ServeConnOpts returns when the connection fails or the peer closes it,
// after all in-flight handlers finish; the returned error is the terminal
// read or write failure (io.EOF for a clean peer close). Except on a
// refusal it does not close conn; the caller owns its lifecycle. A
// negative opts.Window fails before the handshake.
//
// With Overload set, the reader feeds per-lane queues instead of the
// FIFO: a dispatcher goroutine pops them strict-control-first (then
// weighted between lease and bulk) and hands to the same worker pool, so
// a saturated window always serves control frames next; over-limit,
// queue-full, and expired requests are answered with a cheap Busy reply
// from the read side without ever occupying a worker.
func ServeConnOpts(conn net.Conn, opts ServeOptions, handle Handler) error {
	window, err := ResolveWindow(opts.Window)
	if err != nil {
		return err
	}
	codecs := opts.Codecs
	if codecs == nil {
		codecs = DefaultCodecs()
	}
	// The handshake runs before any goroutine starts, so the ack is
	// necessarily the first frame the server writes.
	chosen, first, err := acceptHello(conn, codecs, opts.Stats)
	if err != nil {
		if errors.Is(err, ErrRefused) {
			_ = conn.Close()
		}
		return err
	}
	framer := NewFramerStats(chosen, opts.Stats)
	work := make(chan workItem)
	replies := make(chan *Envelope, window)
	var lanes *Lanes
	if opts.Overload != nil {
		lanes = NewLanes(opts.Overload, func(env *Envelope, _ any, busy *BusyReply) {
			replies <- BusyEnvelope(env.ID, busy)
		})
	}
	var workers sync.WaitGroup
	spawned := 0
	worker := func() {
		defer workers.Done()
		for item := range work {
			if reply := handle(item.env); reply != nil {
				replies <- reply
			}
			if lanes != nil {
				lanes.Done(item.lane)
			}
		}
	}
	// dispatch hands one frame to an idle worker, growing the pool on
	// demand up to the window: a mostly-idle connection costs one parked
	// goroutine, not `window` of them, with identical semantics.
	dispatch := func(item workItem) {
		select {
		case work <- item:
			return
		default:
		}
		if spawned < window {
			spawned++
			workers.Add(1)
			go worker()
		}
		work <- item // blocks only when all `window` workers are busy
	}
	// enqueue routes one decoded request toward the workers: straight to
	// dispatch on the FIFO path, through the lane queues when overload
	// control is on (the dispatcher below moves them to the workers).
	enqueue := func(env *Envelope) {
		if lanes != nil {
			lanes.Offer(env, nil)
			return
		}
		dispatch(workItem{env: env})
	}
	// Subscription frames route around the worker pool entirely: a watch
	// lives as long as the connection, so parking it on a worker would
	// permanently burn a slot of the window.
	var streams serverStreams
	handleStream := func(env *Envelope) bool {
		if env.Type == TypeStreamCancel {
			streams.cancelID(env.ID)
			return true
		}
		h, ok := opts.Streams[env.Type]
		if !ok {
			return false
		}
		if !streams.start(env, h, replies) {
			replies <- ErrorEnvelope(env.ID, errors.New("wire: duplicate stream id"))
		}
		return true
	}
	dispatcherDone := make(chan struct{})
	if lanes != nil {
		// The dispatcher serializes lane picks; `dispatch` itself is not
		// safe for concurrent use, and priority is decided at pop time.
		go func() {
			defer close(dispatcherDone)
			for {
				env, _, lane, ok := lanes.Pop()
				if !ok {
					return
				}
				dispatch(workItem{env: env, lane: lane})
			}
		}()
	} else {
		close(dispatcherDone)
	}
	writerDone := make(chan struct{})
	var writeErr error
	go func() {
		defer close(writerDone)
		for env := range replies {
			err := framer.WriteFrame(conn, env)
			if err != nil && preWire(err) && env.Type != TypeError {
				// The reply failed to encode before any byte hit the wire:
				// the connection is healthy, so degrade to an error reply
				// for the same id instead of losing the correlation.
				err = framer.WriteFrame(conn, ErrorEnvelope(env.ID, err))
			}
			if err != nil && !preWire(err) {
				// The write side failed: close the connection so the
				// reader unblocks, then keep draining so no worker ever
				// blocks on the reply channel.
				writeErr = err
				_ = conn.Close()
				for range replies {
				}
				return
			}
		}
	}()
	if first != nil {
		// The piggybacked first request dispatches like any other frame;
		// its reply (in the chosen codec) follows the ack.
		enqueue(&Envelope{Type: first.Type, ID: first.ID, Payload: first.Payload, codec: JSON})
	}
	var readErr error
	for {
		env, err := framer.ReadFrame(conn)
		if err != nil {
			readErr = err // peer went away or sent garbage
			break
		}
		if handleStream(env) {
			continue
		}
		enqueue(env)
	}
	if lanes != nil {
		// Drain: Pop keeps returning what was queued before the close,
		// then the dispatcher closes nothing further and exits.
		lanes.Close()
	}
	<-dispatcherDone
	close(work)
	workers.Wait()
	// Stream handlers push through `replies` too, so they must all be
	// stopped and gone before the channel may close. Their Sends select on
	// the stream's done channel, so cancelling never deadlocks against a
	// writer that already failed (it drains until the close).
	streams.close()
	close(replies)
	<-writerDone
	if writeErr != nil {
		return writeErr
	}
	return readErr
}

// preWire reports whether a write failure happened before any byte reached
// the connection (encode failures, oversized frames): the connection is
// still healthy and only the one message is lost.
func preWire(err error) bool {
	return errors.Is(err, ErrEncode) || errors.Is(err, ErrFrameTooLarge)
}

// ErrorEnvelope wraps a failure in an error-reply envelope correlated to
// the failed request.
func ErrorEnvelope(id uint64, err error) *Envelope {
	return &Envelope{Type: TypeError, ID: id, Msg: ErrorReply{Message: err.Error()}}
}
