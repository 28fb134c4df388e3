package registry

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"actyp/internal/metrics"
)

// fakeWatchStream is an in-memory WatchStream a test feeds by hand.
type fakeWatchStream struct {
	ch     chan WatchBatch
	closed chan struct{}
	once   sync.Once
}

func newFakeWatchStream() *fakeWatchStream {
	return &fakeWatchStream{ch: make(chan WatchBatch, 64), closed: make(chan struct{})}
}

func (s *fakeWatchStream) Recv() (WatchBatch, error) {
	select {
	case b := <-s.ch:
		return b, nil
	case <-s.closed:
		return WatchBatch{}, errors.New("fake stream closed")
	}
}

func (s *fakeWatchStream) Close() error {
	s.once.Do(func() { close(s.closed) })
	return nil
}

// fakeTransport implements WatchTransport against a live source backend:
// FetchSnapshot reads the backend, WatchSubscribe hands out hand-fed
// streams once it has refused the first failSubs subscribes.
type fakeTransport struct {
	src Backend

	mu       sync.Mutex
	failSubs int
	subs     int
	fetches  int
	cur      *fakeWatchStream
}

func (f *fakeTransport) WatchSubscribe(ctx context.Context, filter string, ring int) (WatchStream, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failSubs > 0 {
		f.failSubs--
		return nil, fmt.Errorf("subscribe refused, %d more to go", f.failSubs)
	}
	f.subs++
	f.cur = newFakeWatchStream()
	return f.cur, nil
}

func (f *fakeTransport) FetchSnapshot(ctx context.Context, filter string) ([]*Machine, error) {
	f.mu.Lock()
	f.fetches++
	f.mu.Unlock()
	names := f.src.Names()
	out := make([]*Machine, 0, len(names))
	for _, n := range names {
		if m, err := f.src.Get(n); err == nil {
			out = append(out, m)
		}
	}
	return out, nil
}

func (f *fakeTransport) stream() *fakeWatchStream {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cur
}

func (f *fakeTransport) counts() (subs, fetches int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.subs, f.fetches
}

func watchSrc(t *testing.T, n int) Backend {
	t.Helper()
	b := NewLocked()
	for i := 0; i < n; i++ {
		if err := b.Add(testMachine(fmt.Sprintf("rw%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

func waitConverged(t *testing.T, src, rep Backend) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if convergedOnce(src, rep) {
			return
		}
		if time.Now().After(deadline) {
			backendsEqual(t, src, rep) // produce the detailed failure
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func convergedOnce(src, rep Backend) bool {
	names := src.Names()
	if len(names) != len(rep.Names()) {
		return false
	}
	for _, n := range names {
		w, err1 := src.Get(n)
		g, err2 := rep.Get(n)
		if err1 != nil || err2 != nil || !machineEqual(w, g) {
			return false
		}
	}
	return true
}

func TestRemoteWatchStreamSyncAndApply(t *testing.T) {
	src := watchSrc(t, 8)
	tr := &fakeTransport{src: src}
	rep := NewDB()
	stats := metrics.NewFederationStats()
	w, err := StartRemoteWatch(RemoteWatchConfig{
		Transport: tr, Replica: rep, Stats: stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.WaitSynced(ctx); err != nil {
		t.Fatal(err)
	}
	if w.Mode() != WatchModeStream {
		t.Fatalf("mode = %q, want stream", w.Mode())
	}
	backendsEqual(t, src, rep)

	// Mutate the source and push the events by hand, as the server would.
	_ = src.UpdateDynamic("rw000", Dynamic{Load: 42})
	_ = src.Remove("rw001")
	m0, _ := src.Get("rw000")
	tr.stream().ch <- WatchBatch{Events: []WireEvent{
		{Kind: EventDynamicUpdated, Name: "rw000", Dynamic: m0.Dynamic},
		{Kind: EventRemoved, Name: "rw001"},
	}}
	waitConverged(t, src, rep)
	if got := stats.Snapshot().WatchEvents; got != 2 {
		t.Fatalf("stats counted %d watch events, want 2", got)
	}
}

func TestRemoteWatchResyncMarker(t *testing.T) {
	src := watchSrc(t, 4)
	tr := &fakeTransport{src: src}
	rep := NewDB()
	stats := metrics.NewFederationStats()
	w, err := StartRemoteWatch(RemoteWatchConfig{Transport: tr, Replica: rep, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.WaitSynced(ctx); err != nil {
		t.Fatal(err)
	}

	// Mutate behind the stream's back (events "lost"), then send a resync
	// marker: the replica must re-baseline from a fresh snapshot.
	_ = src.SetState("rw002", StateDown)
	_ = src.Add(testMachine("rw-late"))
	tr.stream().ch <- WatchBatch{Resync: true}
	waitConverged(t, src, rep)
	if got := stats.Snapshot().WatchResyncs; got != 1 {
		t.Fatalf("stats counted %d resyncs, want 1", got)
	}
}

func TestRemoteWatchReconnect(t *testing.T) {
	src := watchSrc(t, 4)
	tr := &fakeTransport{src: src}
	rep := NewDB()
	stats := metrics.NewFederationStats()
	w, err := StartRemoteWatch(RemoteWatchConfig{
		Transport: tr, Replica: rep, Stats: stats, RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.WaitSynced(ctx); err != nil {
		t.Fatal(err)
	}

	// Kill the stream; mutations that happened during the outage must land
	// via the re-subscribe's baseline fetch.
	_ = src.UpdateDynamic("rw003", Dynamic{Load: 7})
	first := tr.stream()
	first.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if subs, _ := tr.counts(); subs >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("watcher never resubscribed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitConverged(t, src, rep)
	if got := stats.Snapshot().Reconnects; got < 1 {
		t.Fatalf("stats counted %d reconnects, want >= 1", got)
	}
}

// TestRemoteWatchRetriesFailedSubscribe: a refused subscribe is retried
// with backoff like any other failure, and the watcher ends up streaming.
func TestRemoteWatchRetriesFailedSubscribe(t *testing.T) {
	src := watchSrc(t, 4)
	tr := &fakeTransport{src: src, failSubs: 3}
	rep := NewDB()
	w, err := StartRemoteWatch(RemoteWatchConfig{
		Transport: tr, Replica: rep, RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.WaitSynced(ctx); err != nil {
		t.Fatal(err)
	}
	if subs, _ := tr.counts(); subs != 1 || w.Mode() != WatchModeStream {
		t.Fatalf("%d live subscribes in %q mode, want 1 streaming", subs, w.Mode())
	}
	backendsEqual(t, src, rep)
}

// TestRemoteWatchForcePoll: the poll baseline never subscribes, baselines
// by fetch, and stays fresh on the poll ticker alone.
func TestRemoteWatchForcePoll(t *testing.T) {
	src := watchSrc(t, 4)
	tr := &fakeTransport{src: src}
	rep := NewDB()
	stats := metrics.NewFederationStats()
	w, err := StartRemoteWatch(RemoteWatchConfig{
		Transport: tr, Replica: rep, Stats: stats, ForcePoll: true, PollInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.WaitSynced(ctx); err != nil {
		t.Fatal(err)
	}
	if subs, _ := tr.counts(); subs != 0 {
		t.Fatalf("ForcePoll still subscribed %d times", subs)
	}
	if w.Mode() != WatchModePoll {
		t.Fatalf("mode = %q, want poll", w.Mode())
	}
	backendsEqual(t, src, rep)

	_ = src.UpdateDynamic("rw000", Dynamic{Load: 3})
	_ = src.Remove("rw002")
	waitConverged(t, src, rep)
	if got := stats.Snapshot().WatchPolls; got < 1 {
		t.Fatalf("stats counted %d polls, want >= 1", got)
	}
}
