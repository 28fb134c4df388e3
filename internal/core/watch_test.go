package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"actyp/internal/metrics"
	"actyp/internal/netsim"
	"actyp/internal/pool"
	"actyp/internal/query"
	"actyp/internal/registry"
	"actyp/internal/wire"
)

// dbsConverged compares two registries record by record (JSON form, which
// carries every white-pages field including the taken mark).
func dbsConverged(a, b *registry.DB) bool {
	an, bn := a.Names(), b.Names()
	if len(an) != len(bn) {
		return false
	}
	for _, n := range an {
		am, err1 := a.Get(n)
		bm, err2 := b.Get(n)
		if err1 != nil || err2 != nil {
			return false
		}
		aj, _ := json.Marshal(am)
		bj, _ := json.Marshal(bm)
		if !bytes.Equal(aj, bj) {
			return false
		}
	}
	return true
}

func waitDBConverged(t *testing.T, want, got *registry.DB) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !dbsConverged(want, got) {
		if time.Now().After(deadline) {
			t.Fatalf("replica never converged: %d source records, %d replica records",
				len(want.Names()), len(got.Names()))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func startWatch(t *testing.T, c *Client, rep *registry.DB, cfg registry.RemoteWatchConfig) *registry.RemoteWatch {
	t.Helper()
	cfg.Transport = c
	cfg.Replica = rep
	w, err := registry.StartRemoteWatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.WaitSynced(ctx); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestWatchOverWireIncremental runs the whole fast path end to end: a
// client subscribes over a real connection, baselines, and then tracks
// server-side mutations through pushed event batches — no polling.
func TestWatchOverWireIncremental(t *testing.T) {
	srv, svc := startServer(t, 16, netsim.Local())
	c, err := Dial(srv.Addr(), netsim.Local())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rep := registry.NewDB()
	stats := metrics.NewFederationStats()
	w := startWatch(t, c, rep, registry.RemoteWatchConfig{Stats: stats})
	db := svc.DB()
	waitDBConverged(t, db, rep)

	// Server-side churn: dynamic sweep, state flip, removal, late join.
	names := db.Names()
	for i, n := range names {
		_ = db.UpdateDynamic(n, registry.Dynamic{Load: float64(i), FreeMemory: 256,
			LastUpdate: time.Unix(int64(5000+i), 0)})
	}
	_ = db.SetState(names[0], registry.StateDown)
	_ = db.Remove(names[1])
	waitDBConverged(t, db, rep)

	if w.Mode() != registry.WatchModeStream {
		t.Fatalf("mode = %q, want stream", w.Mode())
	}
	snap := stats.Snapshot()
	if snap.WatchEvents == 0 {
		t.Error("no watch events counted; freshness rode something else")
	}
	if snap.WatchPolls != 0 {
		t.Errorf("watch mode fell back to %d polls", snap.WatchPolls)
	}
}

// TestWatchFilterOverWire proves the filter is applied server side: the
// replica mirrors only the matching slice of the fleet.
func TestWatchFilterOverWire(t *testing.T) {
	srv, svc := startServer(t, 16, netsim.Local())
	c, err := Dial(srv.Addr(), netsim.Local())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rep := registry.NewDB()
	startWatch(t, c, rep, registry.RemoteWatchConfig{Filter: "punch.rsrc.arch = sun"})
	db := svc.DB()
	for _, n := range rep.Names() {
		m, err := rep.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := m.Policy.Params.Get("arch"); got.Str != "sun" {
			t.Fatalf("replica holds %s with arch %q; filter leaked", n, got.Str)
		}
	}
	// A matching machine's update still flows.
	var sun string
	for _, n := range rep.Names() {
		sun = n
		break
	}
	if sun == "" {
		t.Fatal("no sun machines in the default fleet")
	}
	_ = db.UpdateDynamic(sun, registry.Dynamic{Load: 99, LastUpdate: time.Unix(6000, 0)})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m, err := rep.Get(sun); err == nil && m.Dynamic.Load == 99 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("filtered update never reached the replica")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestWatchLoadTriggersResync replaces the server registry wholesale
// (db.Load): the change stream emits a resync marker, which must travel
// the wire and re-baseline the replica from a fresh snapshot.
func TestWatchLoadTriggersResync(t *testing.T) {
	srv, svc := startServer(t, 8, netsim.Local())
	c, err := Dial(srv.Addr(), netsim.Local())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rep := registry.NewDB()
	stats := metrics.NewFederationStats()
	startWatch(t, c, rep, registry.RemoteWatchConfig{Stats: stats})
	db := svc.DB()
	waitDBConverged(t, db, rep)

	// Snapshot a different fleet and Load it over the registry.
	other := registry.NewDB()
	if err := registry.DefaultFleetSpec(12).Populate(other, time.Unix(0, 7)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := other.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := db.Load(&buf); err != nil {
		t.Fatal(err)
	}
	waitDBConverged(t, db, rep)
	if got := stats.Snapshot().WatchResyncs; got < 1 {
		t.Fatalf("counted %d resyncs, want >= 1", got)
	}
}

// TestWatchForcePollOverWire drives the federation figure's poll-and-
// rebuild baseline over a real connection: a ForcePoll watcher converges
// through snapshot fetches alone, stays fresh on the poll ticker, and
// leaves regular request traffic on the same connection untouched.
func TestWatchForcePollOverWire(t *testing.T) {
	db := registry.NewDB()
	if err := registry.DefaultFleetSpec(8).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	svc, err := New(Options{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv, err := Serve(svc, "127.0.0.1:0", netsim.Local())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), netsim.Local())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rep := registry.NewDB()
	stats := metrics.NewFederationStats()
	w := startWatch(t, c, rep, registry.RemoteWatchConfig{
		Stats: stats, PollInterval: 5 * time.Millisecond, ForcePoll: true,
	})
	if w.Mode() != registry.WatchModePoll {
		t.Fatalf("mode = %q, want poll under ForcePoll", w.Mode())
	}
	waitDBConverged(t, db, rep)

	// Freshness rides the poll ticker.
	_ = db.UpdateDynamic(db.Names()[0], registry.Dynamic{Load: 42, LastUpdate: time.Unix(8000, 0)})
	waitDBConverged(t, db, rep)
	if got := stats.Snapshot(); got.WatchPolls < 2 || got.WatchEvents != 0 {
		t.Fatalf("counted %d polls and %d streamed events, want >= 2 and none", got.WatchPolls, got.WatchEvents)
	}
	// The same connection still serves the classic request path.
	g, err := c.Request("punch.rsrc.arch = sun")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Release(g); err != nil {
		t.Fatal(err)
	}
}

// TestWatchJSONFloorStreams pins the connection to the JSON codec: the
// watch family must work at the codec floor too.
func TestWatchJSONFloorStreams(t *testing.T) {
	srv, svc := startServer(t, 8, netsim.Local())
	c, err := DialOpts(srv.Addr(), netsim.Local(), DialConfig{Codecs: []wire.Codec{wire.JSON}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rep := registry.NewDB()
	w := startWatch(t, c, rep, registry.RemoteWatchConfig{})
	db := svc.DB()
	waitDBConverged(t, db, rep)
	_ = db.UpdateDynamic(db.Names()[0], registry.Dynamic{Load: 7, LastUpdate: time.Unix(9000, 0)})
	waitDBConverged(t, db, rep)
	if w.Mode() != registry.WatchModeStream {
		t.Fatalf("mode = %q; JSON codec should still stream", w.Mode())
	}
}

// TestFetchSnapshotPages pins the snapshot paging path: a fleet whose
// full record batch exceeds wire.MaxFrame (~10k machines) must arrive
// complete and duplicate-free through sorted-name select pages — the
// regression that used to fail every baseline, resync, and poll fetch
// at that scale with a frame-limit error.
func TestFetchSnapshotPages(t *testing.T) {
	const n = 10000
	srv, svc := startServer(t, n, netsim.Local())
	c, err := Dial(srv.Addr(), netsim.Local())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ms, err := c.FetchSnapshot(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != n {
		t.Fatalf("fetched %d records, want %d", len(ms), n)
	}
	seen := make(map[string]struct{}, len(ms))
	for _, m := range ms {
		if _, dup := seen[m.Static.Name]; dup {
			t.Fatalf("record %s duplicated across pages", m.Static.Name)
		}
		seen[m.Static.Name] = struct{}{}
	}
	for _, name := range svc.DB().Names() {
		if _, ok := seen[name]; !ok {
			t.Fatalf("record %s missing from the paged snapshot", name)
		}
	}
}

// TestWatchFedPoolMatchesRefresh is the allocation-equivalence oracle: a
// pool living on a watch-fed replica (events applied incrementally through
// the dispatcher) must allocate exactly like a pool built fresh from a
// full snapshot of the same post-churn state.
func TestWatchFedPoolMatchesRefresh(t *testing.T) {
	srv, svc := startServer(t, 32, netsim.Local())
	c, err := Dial(srv.Addr(), netsim.Local())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rep := registry.NewDB()
	startWatch(t, c, rep, registry.RemoteWatchConfig{})
	db := svc.DB()
	waitDBConverged(t, db, rep)

	q, err := query.ParseBasic("punch.rsrc.arch = sun")
	if err != nil {
		t.Fatal(err)
	}
	disp := pool.NewDispatcher(rep, 4096)
	disp.Start()
	defer disp.Stop()
	watchFed, err := pool.New(pool.Config{
		Name: query.Name(q), DB: rep, Exclusive: false, Events: disp,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer watchFed.Close()

	// Churn the authoritative registry so loads diverge from the baseline;
	// the watch-fed pool sees it only through dispatched events.
	for i, n := range db.Names() {
		_ = db.UpdateDynamic(n, registry.Dynamic{Load: float64((i * 7) % 13),
			ActiveJobs: i % 3, LastUpdate: time.Unix(int64(9500+i), 0)})
	}
	waitDBConverged(t, db, rep)

	// Reference: a brand-new pool over a fresh full snapshot of the same
	// state (the Refresh path the watch feed replaces).
	ms, err := c.FetchSnapshot(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	fresh := registry.NewDB()
	for _, m := range ms {
		if err := fresh.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	reference, err := pool.New(pool.Config{
		Name: query.Name(q), DB: fresh, Exclusive: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reference.Close()

	if watchFed.Size() != reference.Size() {
		t.Fatalf("pool sizes diverged: watch-fed %d, reference %d", watchFed.Size(), reference.Size())
	}
	// Drain both pools: identical state and objective must yield the same
	// machine sequence.
	for i := 0; ; i++ {
		wl, werr := watchFed.Allocate(q)
		rl, rerr := reference.Allocate(q)
		if (werr == nil) != (rerr == nil) {
			t.Fatalf("allocation %d diverged: watch-fed err %v, reference err %v", i, werr, rerr)
		}
		if werr != nil {
			break
		}
		if wl.Machine != rl.Machine {
			t.Fatalf("allocation %d diverged: watch-fed %q, reference %q", i, wl.Machine, rl.Machine)
		}
	}
}

// ringBackend records the ring size every Watch asks the engine for.
type ringBackend struct {
	registry.Backend
	rings chan int
}

func (b *ringBackend) Watch(buffer int) *registry.Subscription {
	b.rings <- buffer
	return b.Backend.Watch(buffer)
}

// TestWatchRingClampedOverWire: the ring size of a wire watch comes from
// the remote client, and a stalled watcher buffers up to that many events.
// A request for 1<<30 must reach the engine as DB.Watch's limit,
// max(DefaultWatchBuffer, 2×fleet), as the service's own subscription does.
func TestWatchRingClampedOverWire(t *testing.T) {
	rec := &ringBackend{Backend: registry.NewSharded(0), rings: make(chan int, 4)}
	db := registry.NewDBWith(rec)
	if err := registry.DefaultFleetSpec(16).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	limit := max(registry.DefaultWatchBuffer, 2*db.Len())
	svc, err := New(Options{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if got := <-rec.rings; got != limit {
		t.Fatalf("the dispatcher's ring is %d, want %d", got, limit)
	}
	srv, err := Serve(svc, "127.0.0.1:0", netsim.Local())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), netsim.Local())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := c.WatchSubscribe(ctx, "", 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := <-rec.rings; got != limit {
		t.Fatalf("a wire watch asking for 1<<30 got a ring of %d, want %d", got, limit)
	}
}
