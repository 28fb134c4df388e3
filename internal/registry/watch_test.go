package registry

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"actyp/internal/query"
)

func watchFleet(t *testing.T, b Backend, n int) []string {
	t.Helper()
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("w%04d", i)
		m := &Machine{
			Static: Static{Name: names[i], Speed: 100, CPUs: 2, MaxLoad: 4},
		}
		if err := b.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	return names
}

func watchBackends() map[string]func() Backend {
	return map[string]func() Backend{
		BackendLocked:  func() Backend { return NewLocked() },
		BackendSharded: func() Backend { return NewSharded(4) },
	}
}

// TestWatchEmitsTypedEvents drives one mutation of every kind through each
// engine and asserts the subscription sees exactly the typed events, in
// order, with the dynamic payload riding on DynamicUpdated.
func TestWatchEmitsTypedEvents(t *testing.T) {
	for kind, mk := range watchBackends() {
		t.Run(kind, func(t *testing.T) {
			b := mk()
			watchFleet(t, b, 2)
			sub := b.Watch(64)
			defer sub.Close()

			d := Dynamic{Load: 1.5, ActiveJobs: 2, FreeMemory: 256}
			if err := b.UpdateDynamic("w0000", d); err != nil {
				t.Fatal(err)
			}
			if err := b.SetState("w0000", StateDown); err != nil {
				t.Fatal(err)
			}
			if err := b.SetParam("w0001", "arch", query.StrAttr("sun")); err != nil {
				t.Fatal(err)
			}
			q, err := query.ParseBasic("punch.rsrc.name = w0001")
			if err != nil {
				t.Fatal(err)
			}
			if got := b.Take(q, "pool#0", 1); len(got) != 1 {
				t.Fatalf("took %d machines, want 1", len(got))
			}
			if rel := b.Release("pool#0", "w0001"); rel != 1 {
				t.Fatalf("released %d, want 1", rel)
			}
			if err := b.Remove("w0000"); err != nil {
				t.Fatal(err)
			}
			if err := b.Add(&Machine{Static: Static{Name: "w0009", Speed: 1, CPUs: 1, MaxLoad: 1}}); err != nil {
				t.Fatal(err)
			}

			events, resync := sub.Poll()
			if resync {
				t.Fatal("unexpected resync")
			}
			want := []Event{
				{Kind: EventDynamicUpdated, Name: "w0000", Dynamic: d},
				{Kind: EventStateSet, Name: "w0000"},
				{Kind: EventParamSet, Name: "w0001"},
				{Kind: EventTaken, Name: "w0001"},
				{Kind: EventReleased, Name: "w0001"},
				{Kind: EventRemoved, Name: "w0000"},
				{Kind: EventAdded, Name: "w0009"},
			}
			if len(events) != len(want) {
				t.Fatalf("got %d events, want %d: %+v", len(events), len(want), events)
			}
			for i, ev := range events {
				if ev != want[i] {
					t.Errorf("event %d = %+v, want %+v", i, ev, want[i])
				}
			}
		})
	}
}

// TestWatchCoalesces pins what a subscription keeps of one machine's
// updates. While the FIFO holds them, 100 updates arrive as 100 events
// carrying their payloads in publish order. A 4-slot FIFO folds to the
// newest snapshot whenever it fills, so it polls the last updates, in
// order. A 4-slot FIFO that the fold cannot free (5 machines) latches
// resync.
func TestWatchCoalesces(t *testing.T) {
	for kind, mk := range watchBackends() {
		t.Run(kind, func(t *testing.T) {
			b := mk()
			names := watchFleet(t, b, 5)
			sub := b.Watch(128)
			defer sub.Close()
			small := b.Watch(4)
			defer small.Close()
			for i := 0; i < 100; i++ {
				if err := b.UpdateDynamic("w0000", Dynamic{Load: float64(i) / 25}); err != nil {
					t.Fatal(err)
				}
			}
			events, resync := sub.Poll()
			if resync {
				t.Fatal("100 events must fit a 128-slot ring")
			}
			if len(events) != 100 {
				t.Fatalf("got %d events, want 100", len(events))
			}
			for i, ev := range events {
				if want := (Dynamic{Load: float64(i) / 25}); ev.Kind != EventDynamicUpdated || ev.Dynamic != want {
					t.Fatalf("event %d = %+v, want the update carrying %+v", i, ev, want)
				}
			}
			events, resync = small.Poll()
			if resync || len(events) == 0 || len(events) > 4 {
				t.Fatalf("a 4-slot ring after 100 updates of one machine polled %d events, resync=%v; want the last few", len(events), resync)
			}
			first := 100 - len(events)
			for i, ev := range events {
				if want := (Dynamic{Load: float64(first+i) / 25}); ev.Dynamic != want {
					t.Fatalf("4-slot ring event %d = %+v, want the update carrying %+v", i, ev, want)
				}
			}
			for _, name := range names {
				if err := b.UpdateDynamic(name, Dynamic{Load: 1}); err != nil {
					t.Fatal(err)
				}
			}
			if events, resync := small.Poll(); !resync || len(events) != 0 {
				t.Fatalf("a 4-slot ring after updates of 5 machines polled %d events, resync=%v; want the resync marker", len(events), resync)
			}
		})
	}
}

// watchOrderReplica starts a replica holding the same records as b.
func watchOrderReplica(t *testing.T, b Backend) Backend {
	t.Helper()
	replica := NewLocked()
	for _, name := range b.Names() {
		m, err := b.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := replica.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	return replica
}

// pollKinds polls sub, feeds the events to replica the way the wire watch
// does, and returns their kinds.
func pollKinds(t *testing.T, b, replica Backend, sub *Subscription) []string {
	t.Helper()
	events, resync := sub.Poll()
	if resync {
		t.Fatal("unexpected resync")
	}
	var got []string
	for _, ev := range events {
		got = append(got, ev.Kind.String())
	}
	ApplyWireEvents(replica, ResolveEvents(b, events, nil))
	return got
}

// TestWatchCoalescingKeepsMachineOrder: a machine re-added, removed and
// re-added arrives as exactly that sequence. When the stream coalesced,
// folding the second add into the first slot put it ahead of the removal,
// and a consumer that re-reads on the add and then removes (the journal,
// a watch replica) lost a record the registry holds.
func TestWatchCoalescingKeepsMachineOrder(t *testing.T) {
	for kind, mk := range watchBackends() {
		t.Run(kind, func(t *testing.T) {
			b := mk()
			watchFleet(t, b, 1)
			m, err := b.Get("w0000")
			if err != nil {
				t.Fatal(err)
			}
			replica := watchOrderReplica(t, b)
			sub := b.Watch(8)
			defer sub.Close()
			if err := b.Remove("w0000"); err != nil {
				t.Fatal(err)
			}
			pollKinds(t, b, replica, sub) // the removal is consumed: the add starts the next batch
			for i, step := range []func() error{
				func() error { return b.Add(m) },
				func() error { return b.Remove("w0000") },
				func() error { return b.Add(m) },
			} {
				if err := step(); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			if got, want := pollKinds(t, b, replica, sub), []string{"added", "removed", "added"}; !slices.Equal(got, want) {
				t.Fatalf("pending events of w0000 %q, want %q", got, want)
			}
			backendsEqual(t, b, replica)
		})
	}
}

// TestWatchSecondRemovalMovesBehind: a machine removed, re-added, updated
// by the monitor, and removed and re-added again arrives in that order.
// When the stream coalesced, the second removal could land in the first's
// slot, ahead of the update: a consumer then applied the update, which
// carries its own payload, to the record re-added last, and the journal's
// replay held a load the registry no longer did.
func TestWatchSecondRemovalMovesBehind(t *testing.T) {
	for kind, mk := range watchBackends() {
		t.Run(kind, func(t *testing.T) {
			b := mk()
			watchFleet(t, b, 1)
			m, err := b.Get("w0000")
			if err != nil {
				t.Fatal(err)
			}
			replica := watchOrderReplica(t, b)
			sub := b.Watch(8)
			defer sub.Close()
			for i, step := range []func() error{
				func() error { return b.Remove("w0000") },
				func() error { return b.Add(m) },
				func() error { return b.UpdateDynamic("w0000", Dynamic{Load: 48}) },
				func() error { return b.Remove("w0000") },
				func() error { return b.Add(m) },
			} {
				if err := step(); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			want := []string{"removed", "added", "dynamic-updated", "removed", "added"}
			if got := pollKinds(t, b, replica, sub); !slices.Equal(got, want) {
				t.Fatalf("pending events of w0000 %q, want %q", got, want)
			}
			backendsEqual(t, b, replica)
		})
	}
}

// TestWatchOverflowResync proves the bounded ring degrades to the resync
// marker instead of blocking writers: with nobody draining, a flood of
// distinct-machine updates completes promptly and the next Poll reports a
// resync, after which the stream is live again.
func TestWatchOverflowResync(t *testing.T) {
	for kind, mk := range watchBackends() {
		t.Run(kind, func(t *testing.T) {
			b := mk()
			names := watchFleet(t, b, 64)
			sub := b.Watch(8)
			defer sub.Close()

			done := make(chan struct{})
			go func() {
				defer close(done)
				for i, name := range names {
					_ = b.UpdateDynamic(name, Dynamic{Load: float64(i)})
				}
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("writers blocked on an undrained subscription")
			}

			events, resync := sub.Poll()
			if !resync {
				t.Fatal("ring overflow must latch the resync marker")
			}
			if len(events) != 0 {
				t.Fatalf("resync poll carried %d stale events", len(events))
			}

			// The stream recovers after the poll.
			if err := b.UpdateDynamic(names[0], Dynamic{Load: 9}); err != nil {
				t.Fatal(err)
			}
			events, resync = sub.Poll()
			if resync || len(events) != 1 {
				t.Fatalf("post-resync poll = %d events, resync=%v", len(events), resync)
			}
		})
	}
}

// TestDBWatchClampsRing: whatever size it is asked for, DB.Watch holds at
// most max(DefaultWatchBuffer, 2×Len()) events before it latches resync,
// so a ring size from a remote client cannot grow a stalled watcher's
// backlog without bound. Param sets fill it: the fold of a full FIFO
// frees only superseded dynamic updates.
func TestDBWatchClampsRing(t *testing.T) {
	for _, fleet := range []int{4, DefaultWatchBuffer/2 + 500} {
		db := NewDB()
		names := watchFleet(t, db, fleet)
		limit := max(DefaultWatchBuffer, 2*fleet)
		setParams := func(n int) {
			for i := 0; i < n; i++ {
				if err := db.SetParam(names[i%fleet], "p", query.NumAttr(float64(i))); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, ask := range []int{1 << 40, 0} {
			sub := db.Watch(ask)
			setParams(limit)
			if evs, resync := sub.Poll(); resync || len(evs) != limit {
				t.Fatalf("fleet %d, Watch(%d): %d events polled (resync %v), want all %d", fleet, ask, len(evs), resync, limit)
			}
			setParams(limit + 1)
			if evs, resync := sub.Poll(); !resync || len(evs) != 0 {
				t.Fatalf("fleet %d, Watch(%d): %d events polled (resync %v) past the limit of %d, want the resync marker", fleet, ask, len(evs), resync, limit)
			}
			sub.Close()
		}
	}
}

// TestFoldDynamic: only dynamic updates that a later one of the same
// machine supersedes are dropped; every other event keeps its place.
func TestFoldDynamic(t *testing.T) {
	dyn := func(name string, load float64) Event {
		return Event{Kind: EventDynamicUpdated, Name: name, Dynamic: Dynamic{Load: load}}
	}
	evs := []Event{
		dyn("a", 1), {Kind: EventAdded, Name: "b"}, dyn("a", 2), {Kind: EventRemoved, Name: "a"},
		dyn("b", 1), {Kind: EventAdded, Name: "a"}, {Kind: EventParamSet, Name: "b"}, dyn("a", 3), dyn("b", 2),
	}
	want := []Event{
		{Kind: EventAdded, Name: "b"}, {Kind: EventRemoved, Name: "a"}, {Kind: EventAdded, Name: "a"},
		{Kind: EventParamSet, Name: "b"}, dyn("a", 3), dyn("b", 2),
	}
	seen := map[string]struct{}{"stale": {}}
	if got := FoldDynamic(evs, seen); !slices.Equal(got, want) {
		t.Fatalf("FoldDynamic = %+v, want %+v", got, want)
	}
}

// TestWatchLaggingSweepsFold: a consumer that does not poll while a
// monitor sweeps the fleet over and over is not forced to resync. The
// FIFO DB.Watch hands out folds to one snapshot per machine whenever it
// fills, and the newest snapshot of every machine is delivered last. The
// larger fleet is past the DefaultWatchBuffer floor, where the FIFO holds
// just two sweeps.
func TestWatchLaggingSweepsFold(t *testing.T) {
	for _, tc := range []struct{ fleet, sweeps int }{{1000, 200}, {DefaultWatchBuffer/2 + 500, 5}} {
		db := NewDB()
		names := watchFleet(t, db, tc.fleet)
		limit := max(DefaultWatchBuffer, 2*tc.fleet)
		sub := db.Watch(0)
		ups := make([]DynamicUpdate, len(names))
		for sweep := 0; sweep < tc.sweeps; sweep++ {
			for i, name := range names {
				ups[i] = DynamicUpdate{Name: name, Dynamic: Dynamic{Load: float64(sweep)}}
			}
			db.UpdateDynamicBatch(ups)
		}
		evs, resync := sub.Poll()
		if resync || len(evs) > limit {
			t.Fatalf("fleet %d: after %d sweeps polled %d events, resync=%v; want at most %d and no resync", tc.fleet, tc.sweeps, len(evs), resync, limit)
		}
		last := make(map[string]float64)
		for _, ev := range evs {
			last[ev.Name] = ev.Dynamic.Load
		}
		for _, name := range names {
			if got, ok := last[name]; !ok || got != float64(tc.sweeps-1) {
				t.Fatalf("fleet %d, %s: newest delivered load %v (present %v), want %d", tc.fleet, name, got, ok, tc.sweeps-1)
			}
		}
		sub.Close()
	}
}

// TestWatchLoadForcesResync: replacing the world via Load cannot be
// described incrementally.
func TestWatchLoadForcesResync(t *testing.T) {
	for kind, mk := range watchBackends() {
		t.Run(kind, func(t *testing.T) {
			src := mk()
			watchFleet(t, src, 3)
			var snap bytes.Buffer
			if err := src.Save(&snap); err != nil {
				t.Fatal(err)
			}
			dst := mk()
			sub := dst.Watch(16)
			defer sub.Close()
			if err := dst.Load(&snap); err != nil {
				t.Fatal(err)
			}
			if _, resync := sub.Poll(); !resync {
				t.Fatal("Load must latch the resync marker")
			}
		})
	}
}

// TestUpdateDynamicBatch pins the batch API to the serial loop on both
// engines: same final state, same count, same events.
func TestUpdateDynamicBatch(t *testing.T) {
	for kind, mk := range watchBackends() {
		t.Run(kind, func(t *testing.T) {
			b := mk()
			names := watchFleet(t, b, 16)
			sub := b.Watch(64)
			defer sub.Close()
			updates := make([]DynamicUpdate, 0, len(names)+1)
			for i, name := range names {
				updates = append(updates, DynamicUpdate{Name: name, Dynamic: Dynamic{Load: float64(i) / 4, ActiveJobs: i}})
			}
			updates = append(updates, DynamicUpdate{Name: "no-such-machine", Dynamic: Dynamic{Load: 9}})
			if n := b.UpdateDynamicBatch(updates); n != len(names) {
				t.Fatalf("batch updated %d, want %d", n, len(names))
			}
			for i, name := range names {
				m, err := b.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				if m.Dynamic.ActiveJobs != i {
					t.Errorf("%s: ActiveJobs = %d, want %d", name, m.Dynamic.ActiveJobs, i)
				}
			}
			events, resync := sub.Poll()
			if resync {
				t.Fatal("unexpected resync")
			}
			if len(events) != len(names) {
				t.Fatalf("batch emitted %d events, want %d", len(events), len(names))
			}
			seen := map[string]bool{}
			for _, ev := range events {
				if ev.Kind != EventDynamicUpdated {
					t.Errorf("batch emitted %v", ev.Kind)
				}
				seen[ev.Name] = true
			}
			if len(seen) != len(names) {
				t.Errorf("batch covered %d machines, want %d", len(seen), len(names))
			}
		})
	}
}

// TestWatchConcurrentPublishers hammers one subscription from many writers
// under -race: publication must stay data-race free and every poll must
// return internally consistent results.
func TestWatchConcurrentPublishers(t *testing.T) {
	b := NewSharded(8)
	names := watchFleet(t, b, 32)
	sub := b.Watch(32) // small: overflow paths race with drains
	defer sub.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = b.UpdateDynamic(names[(w*8+i)%len(names)], Dynamic{Load: float64(i % 5)})
			}
		}(w)
	}
	deadline := time.After(200 * time.Millisecond)
	polls, resyncs, total := 0, 0, 0
drain:
	for {
		select {
		case <-deadline:
			break drain
		case <-sub.Ready():
			events, resync := sub.Poll()
			polls++
			total += len(events)
			if resync {
				resyncs++
			}
			for _, ev := range events {
				if ev.Kind != EventDynamicUpdated || ev.Name == "" {
					t.Errorf("malformed event %+v", ev)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
	if polls == 0 || total == 0 {
		t.Errorf("drained nothing (polls=%d events=%d resyncs=%d)", polls, total, resyncs)
	}
}

// sweepRig is a 10k-machine registry on 16 shards with subs subscribers:
// sweep is one monitor pass (every record's load moves) and a Poll per
// subscriber, the fan-out the change stream costs a sweep.
type sweepRig struct {
	db   *DB
	subs []*Subscription
	st   []Status
	ups  []DynamicUpdate
	n    int
}

func newSweepRig(tb testing.TB, subs int) *sweepRig {
	tb.Helper()
	db := NewDBWith(NewSharded(16))
	if err := DefaultFleetSpec(10000).Populate(db, time.Unix(0, 0)); err != nil {
		tb.Fatal(err)
	}
	r := &sweepRig{db: db}
	for range subs {
		sub := db.Watch(0)
		tb.Cleanup(sub.Close)
		r.subs = append(r.subs, sub)
	}
	return r
}

func (r *sweepRig) sweep(tb testing.TB) {
	r.n++
	r.st = r.db.Statuses(r.st[:0])
	r.ups = r.ups[:0]
	for _, st := range r.st {
		st.Dynamic.Load = float64(r.n % 4)
		r.ups = append(r.ups, DynamicUpdate{Name: st.Name, Dynamic: st.Dynamic})
	}
	r.db.UpdateDynamicBatch(r.ups)
	for _, sub := range r.subs {
		if evs, resync := sub.Poll(); resync || len(evs) != len(r.ups) {
			tb.Fatalf("polled %d events (resync %v), want %d", len(evs), resync, len(r.ups))
		}
	}
}

// BenchmarkRegistrySweepSubscribers prices the change stream on the write
// path: a 10k-machine sweep with 0, 1 and 3 subscribers polling after it.
// The bar is 3 subscribers at most 3 times a sweep with none. A coalescing
// index per subscriber cost about 10 times; FIFOs filled a shard run at a
// time cost about 2 times (2-vCPU host, GOMAXPROCS 2).
func BenchmarkRegistrySweepSubscribers(b *testing.B) {
	for _, subs := range []int{0, 1, 3} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			r := newSweepRig(b, subs)
			r.sweep(b)
			r.sweep(b) // both halves of every ring reach their steady size
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				r.sweep(b)
			}
		})
	}
}

// TestWatchSweepAllocs pins that, rings at their steady size, a sweep and
// the polls of three subscribers allocate nothing.
func TestWatchSweepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	r := newSweepRig(t, 3)
	r.sweep(t)
	r.sweep(t)
	if allocs := testing.AllocsPerRun(5, func() { r.sweep(t) }); allocs != 0 {
		t.Errorf("a steady-state sweep with 3 subscribers allocated %.0f times, want 0", allocs)
	}
}
