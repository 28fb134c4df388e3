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

// TestWatchCoalesces asserts repeated updates of the same machine collapse
// to one pending slot carrying the newest payload.
func TestWatchCoalesces(t *testing.T) {
	for kind, mk := range watchBackends() {
		t.Run(kind, func(t *testing.T) {
			b := mk()
			watchFleet(t, b, 1)
			sub := b.Watch(4)
			defer sub.Close()
			var last Dynamic
			for i := 0; i < 100; i++ {
				last = Dynamic{Load: float64(i) / 25}
				if err := b.UpdateDynamic("w0000", last); err != nil {
					t.Fatal(err)
				}
			}
			events, resync := sub.Poll()
			if resync {
				t.Fatal("coalescing must not overflow a ring on one machine")
			}
			if len(events) != 1 {
				t.Fatalf("got %d events, want 1 coalesced", len(events))
			}
			if events[0].Dynamic != last {
				t.Errorf("coalesced payload = %+v, want the newest %+v", events[0].Dynamic, last)
			}
		})
	}
}

// TestWatchCoalescingKeepsMachineOrder: a re-add coalesced while a
// removal of its machine is pending after it moves behind that removal.
// Coalescing into the older slot put the re-add first, and a consumer that
// re-reads on the add and then removes (the journal, a watch replica) lost
// a record the registry holds.
func TestWatchCoalescingKeepsMachineOrder(t *testing.T) {
	for kind, mk := range watchBackends() {
		t.Run(kind, func(t *testing.T) {
			b := mk()
			watchFleet(t, b, 1)
			m, err := b.Get("w0000")
			if err != nil {
				t.Fatal(err)
			}
			sub := b.Watch(8)
			defer sub.Close()
			if err := b.Remove("w0000"); err != nil {
				t.Fatal(err)
			}
			sub.Poll() // the removal is consumed: the add starts the next batch
			for i, step := range []func() error{
				func() error { return b.Add(m) },
				func() error { return b.Remove("w0000") },
				func() error { return b.Add(m) },
			} {
				if err := step(); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			events, resync := sub.Poll()
			if resync {
				t.Fatal("unexpected resync")
			}
			var got []string
			for _, ev := range events {
				got = append(got, ev.Kind.String())
			}
			if want := []string{"removed", "added"}; !slices.Equal(got, want) {
				t.Fatalf("pending events of w0000 %q, want %q", got, want)
			}
		})
	}
}

// TestWatchSecondRemovalMovesBehind: a machine removed, re-added, updated
// by the monitor, and removed and re-added again. The second removal must
// not coalesce into the first's slot, ahead of the update: a consumer then
// applied the update, which carries its own payload, to the record re-added
// last, and the journal's replay held a load the registry no longer did.
func TestWatchSecondRemovalMovesBehind(t *testing.T) {
	for kind, mk := range watchBackends() {
		t.Run(kind, func(t *testing.T) {
			b := mk()
			watchFleet(t, b, 1)
			m, err := b.Get("w0000")
			if err != nil {
				t.Fatal(err)
			}
			replica := NewLocked()
			if err := replica.Add(m); err != nil {
				t.Fatal(err)
			}
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
			events, resync := sub.Poll()
			if resync {
				t.Fatal("unexpected resync")
			}
			var got []string
			for _, ev := range events {
				got = append(got, ev.Kind.String())
			}
			if want := []string{"dynamic-updated", "removed", "added"}; !slices.Equal(got, want) {
				t.Fatalf("pending events of w0000 %q, want %q", got, want)
			}
			ApplyWireEvents(replica, ResolveEvents(b, events, nil))
			if r, _ := replica.Get("w0000"); r == nil || r.Dynamic.Load != m.Dynamic.Load {
				t.Errorf("the replica holds %+v, the registry %+v", r, m)
			}
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
// engines: same final state, same count, same (coalesced) events.
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
