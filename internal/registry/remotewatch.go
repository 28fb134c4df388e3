package registry

// RemoteWatch extends the change stream across the process boundary: it
// mirrors a remote registry into a local replica DB by subscribing to the
// remote's watch endpoint, so everything already built on a local DB —
// pool.Dispatcher fan-out, incremental Allocator.Apply, Select — runs
// against the replica unchanged while deltas, not polls, carry freshness
// over the wire.
//
// The transport is an interface (implemented by core.Client over the wire
// protocol; wire imports registry, so the reverse import would cycle),
// which also keeps the protocol machinery testable with in-memory fakes.
//
// Degradation ladder, in order:
//
//  1. watch stream — event batches applied incrementally, in order.
//  2. resync — on a resync marker (remote ring overflow or wholesale
//     Load), stream overflow, or reconnect, the replica re-baselines from
//     a full snapshot fetch and the stream resumes.
//
// A failed subscribe retries with backoff like every other failure. Poll
// mode (periodic snapshot fetches, no stream) runs only when ForcePoll
// asks for it: it is the poll-and-rebuild baseline the federation figure
// measures the stream against.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"actyp/internal/metrics"
)

// WatchBatch is one received unit of the remote change stream: either a
// batch of events or a resync marker (never both; a marker means the
// remote dropped events and the replica must re-baseline). The events'
// Machine records are read-only: decoded from one binary batch they may
// share their slices (see DecodeEventBatch), so Clone one before
// writing to it.
type WatchBatch struct {
	Resync bool
	Events []WireEvent
}

// WatchStream is one live subscription to a remote change stream.
type WatchStream interface {
	// Recv blocks for the next batch. It fails permanently when the
	// stream dies (connection loss, server shutdown, stream overflow);
	// the watcher then re-subscribes from scratch.
	Recv() (WatchBatch, error)
	// Close releases the subscription (best effort) and unblocks Recv.
	Close() error
}

// WatchTransport is the wire-agnostic face RemoteWatch drives.
type WatchTransport interface {
	// WatchSubscribe opens a stream of changes to records matching filter
	// ("" = all), with a server-side event FIFO of the given size (<=0 =
	// server default, which is also the most a server grants).
	WatchSubscribe(ctx context.Context, filter string, ring int) (WatchStream, error)
	// FetchSnapshot returns the current records matching filter — the
	// resync baseline and poll mode's freshness unit.
	FetchSnapshot(ctx context.Context, filter string) ([]*Machine, error)
}

// Remote-watch modes reported by Mode.
const (
	WatchModeStream = "watch"
	WatchModePoll   = "poll"
)

// RemoteWatchConfig configures a RemoteWatch.
type RemoteWatchConfig struct {
	// Transport reaches the remote registry. Required.
	Transport WatchTransport
	// Replica is the local mirror the stream is applied to. Required.
	Replica *DB
	// Filter restricts the mirrored slice to records matching this basic
	// query text ("" mirrors everything).
	Filter string
	// Ring sizes the remote subscription's event FIFO (<=0 uses the
	// server default, which is also the most a server grants).
	Ring int
	// PollInterval paces poll mode and defaults to 2s.
	PollInterval time.Duration
	// RetryBackoff is the initial resubscribe backoff after a stream
	// failure (default 50ms, capped at 2s, full jitter not needed — each
	// watcher owns one upstream).
	RetryBackoff time.Duration
	// ForcePoll skips the subscribe and runs poll mode unconditionally
	// (benchmark baseline; also a kill switch).
	ForcePoll bool
	// Stats, when set, counts events, resyncs, polls, and reconnects.
	Stats *metrics.FederationStats
	// Logf receives rare diagnostics (failed resync and poll fetches);
	// nil discards.
	Logf func(format string, args ...any)
}

// RemoteWatch is a running replica-maintenance loop. Create with
// StartRemoteWatch; stop with Close.
type RemoteWatch struct {
	cfg    RemoteWatchConfig
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	synced     chan struct{}
	syncedOnce sync.Once

	streamMu sync.Mutex
	stream   WatchStream
}

// StartRemoteWatch validates cfg and starts the maintenance loop. The
// replica converges to the remote's state shortly after; WaitSynced
// blocks until the first full baseline lands.
func StartRemoteWatch(cfg RemoteWatchConfig) (*RemoteWatch, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("registry: remote watch needs a transport")
	}
	if cfg.Replica == nil {
		return nil, fmt.Errorf("registry: remote watch needs a replica DB")
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 2 * time.Second
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	w := &RemoteWatch{
		cfg:    cfg,
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
		synced: make(chan struct{}),
	}
	go w.run()
	return w, nil
}

// Mode reports the freshness mode: WatchModeStream when the event stream
// feeds the replica, WatchModePoll under ForcePoll.
func (w *RemoteWatch) Mode() string {
	if w.cfg.ForcePoll {
		return WatchModePoll
	}
	return WatchModeStream
}

// WaitSynced blocks until the replica holds its first complete baseline
// (or ctx expires, or the watcher is closed).
func (w *RemoteWatch) WaitSynced(ctx context.Context) error {
	select {
	case <-w.synced:
		return nil
	case <-w.done:
		return fmt.Errorf("registry: remote watch closed before first sync")
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops the loop and releases the live subscription.
func (w *RemoteWatch) Close() {
	w.cancel()
	w.streamMu.Lock()
	if w.stream != nil {
		_ = w.stream.Close()
	}
	w.streamMu.Unlock()
	<-w.done
}

func (w *RemoteWatch) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

func (w *RemoteWatch) markSynced() {
	w.syncedOnce.Do(func() { close(w.synced) })
}

// setStream records the live stream so Close can unblock Recv; it closes
// the new stream immediately when the watcher is already shutting down.
func (w *RemoteWatch) setStream(st WatchStream) bool {
	w.streamMu.Lock()
	defer w.streamMu.Unlock()
	if w.ctx.Err() != nil {
		if st != nil {
			_ = st.Close()
		}
		return false
	}
	w.stream = st
	return true
}

func (w *RemoteWatch) run() {
	defer close(w.done)
	backoff := w.cfg.RetryBackoff
	const maxBackoff = 2 * time.Second
	if w.cfg.ForcePoll {
		w.pollLoop()
		return
	}
	for w.ctx.Err() == nil {
		st, err := w.cfg.Transport.WatchSubscribe(w.ctx, w.cfg.Filter, w.cfg.Ring)
		if err != nil {
			if !w.sleep(backoff) {
				return
			}
			backoff = min(backoff*2, maxBackoff)
			continue
		}
		if !w.setStream(st) {
			return
		}
		// Baseline AFTER the subscription is live: every mutation between
		// this fetch and the subscribe is already queued on the stream, so
		// nothing falls in a gap (replays are absorbed by the idempotent
		// upserts).
		if err := w.resync(); err != nil {
			_ = st.Close()
			if !w.sleep(backoff) {
				return
			}
			backoff = min(backoff*2, maxBackoff)
			continue
		}
		backoff = w.cfg.RetryBackoff
		w.markSynced()
		w.consume(st)
		_ = st.Close()
		if w.ctx.Err() == nil {
			w.cfg.Stats.WatchReconnect()
		}
	}
}

// consume drains one live stream until it fails.
func (w *RemoteWatch) consume(st WatchStream) {
	for {
		batch, err := st.Recv()
		if err != nil {
			return
		}
		if batch.Resync {
			// The remote dropped events (ring overflow or wholesale Load):
			// incremental state is gone, re-baseline from a snapshot. A
			// failed fetch falls through to the reconnect path via the next
			// Recv (the stream itself is still live, so keep consuming).
			w.cfg.Stats.WatchResync()
			if err := w.resync(); err != nil {
				w.logf("registry: remote watch resync fetch failed: %v", err)
			}
			continue
		}
		if len(batch.Events) > 0 {
			w.cfg.Stats.WatchEvents(len(batch.Events))
			ApplyWireEvents(w.cfg.Replica, batch.Events)
		}
	}
}

// resync re-baselines the replica from a full snapshot fetch.
func (w *RemoteWatch) resync() error {
	ms, err := w.cfg.Transport.FetchSnapshot(w.ctx, w.cfg.Filter)
	if err != nil {
		return err
	}
	ReconcileSnapshot(w.cfg.Replica, ms)
	return nil
}

// pollLoop is ForcePoll's mode: periodic snapshot fetches, no stream. It
// runs until the watcher closes.
func (w *RemoteWatch) pollLoop() {
	poll := func() {
		w.cfg.Stats.WatchPoll()
		if err := w.resync(); err != nil {
			w.logf("registry: remote watch poll failed: %v", err)
			return
		}
		w.markSynced()
	}
	poll()
	t := time.NewTicker(w.cfg.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-w.ctx.Done():
			return
		case <-t.C:
			poll()
		}
	}
}

// sleep waits d or until the watcher closes; it reports whether to keep
// running.
func (w *RemoteWatch) sleep(d time.Duration) bool {
	select {
	case <-w.ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}
