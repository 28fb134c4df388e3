package pool

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"actyp/internal/query"
	"actyp/internal/registry"
	"actyp/internal/schedule"
)

// The event-path differential test: the indexed engine folds freshness in
// through Apply(events) from a real registry subscription while the oracle
// full-Refreshes after every mutation burst, and the two must keep making
// identical allocation decisions. Even-numbered seeds run with a
// deliberately tiny ring, so the overflow -> resync -> full-Refresh
// fallback is exercised in lockstep too.

// checkParity asserts every machine's candidate view and lease state is
// bit-for-bit identical across the engines — the strongest form of
// "event-applied state is allocation-equivalent to a full rebuild", since
// the candidate view is the entire scheduling input.
func checkParity(t *testing.T, step int, oracle, subject *Pool) {
	t.Helper()
	o := oracle.engine.(*oracleAlloc)
	x := subject.engine.(*indexedAlloc)
	for _, oe := range o.cache {
		name := oe.machine.Static.Name
		xe := x.byName[name]
		if oc := candidateOf(oe.machine); oc != xe.cand {
			t.Fatalf("step %d: cand diverged for %s:\noracle  %+v\nindexed %+v", step, name, oc, xe.cand)
		}
		if oe.leased != xe.leased {
			t.Fatalf("step %d: lease state diverged for %s: %v vs %v", step, name, oe.leased, xe.leased)
		}
	}
}
func TestDifferentialApplyVsRefresh(t *testing.T) {
	objectives := []schedule.Objective{
		schedule.LeastLoad{}, schedule.MostMemory{}, schedule.FewestJobs{},
		schedule.FastestCPU{}, &schedule.RoundRobin{},
	}
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(100 + seed))
			db := registry.NewDB()
			machines := diffFleet(t, rng, 24+rng.Intn(40))
			members := make([]string, len(machines))
			for i, m := range machines {
				if err := db.Add(m); err != nil {
					t.Fatal(err)
				}
				members[i] = m.Static.Name
			}
			store := diffPolicyStore(t)
			clk := &fakeClock{now: time.Unix(2000, 0)}

			name := sunName(t)
			instance := rng.Intn(3)
			replicas := 1 + rng.Intn(3)
			mk := func(engine string) *Pool {
				p, err := New(Config{
					Name:      name,
					Instance:  instance,
					Replicas:  replicas,
					DB:        db,
					Members:   members,
					Objective: objectives[int(seed)%len(objectives)],
					Policies:  store,
					Clock:     clk.Now,
					LeaseTTL:  time.Minute,
					Engine:    engine,
				})
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			oracle := mk(EngineOracle)
			subject := mk(EngineIndexed)

			// The subscription opens after pool creation, so it carries
			// exactly the mutations the loop below makes. Even seeds force
			// the overflow path with a ring smaller than one burst.
			ring := 4096
			if seed%2 == 0 {
				ring = 4
			}
			sub := db.Watch(ring)
			defer sub.Close()

			// fold drains the stream into the subject (incremental, or the
			// resync fallback) and full-refreshes the oracle, the engines'
			// respective freshness contracts.
			fold := func() {
				events, resync := sub.Poll()
				if resync {
					subject.Refresh()
				} else {
					subject.Apply(events)
				}
				oracle.Refresh()
			}

			var live []diffLease
			steps := 2000
			if testing.Short() {
				steps = 400
			}
			for step := 0; step < steps; step++ {
				op := rng.Intn(10)
				checkParity(t, step, oracle, subject)
				switch op {
				case 0, 1, 2, 3: // Allocate
					q := diffAllocQuery(t, rng)
					l1, e1 := oracle.Allocate(q)
					l2, e2 := subject.Allocate(q)
					if (e1 == nil) != (e2 == nil) {
						t.Fatalf("step %d: Allocate err diverged: oracle %v, indexed %v\nquery:\n%s", step, e1, e2, q)
					}
					if e1 != nil {
						continue
					}
					if l1.Machine != l2.Machine {
						t.Fatalf("step %d: Allocate diverged: oracle %s, indexed %s\nquery:\n%s", step, l1.Machine, l2.Machine, q)
					}
					live = append(live, diffLease{l1.ID, l2.ID, l1.Machine})
				case 4, 5: // Release
					if len(live) == 0 {
						continue
					}
					i := rng.Intn(len(live))
					e1 := oracle.Release(live[i].oracleID)
					e2 := subject.Release(live[i].indexedID)
					if (e1 == nil) != (e2 == nil) {
						t.Fatalf("step %d: Release diverged: %v vs %v", step, e1, e2)
					}
					live = append(live[:i], live[i+1:]...)
				case 6: // Reap after advancing the clock
					clk.Advance(time.Duration(rng.Intn(90)) * time.Second)
					r1, r2 := oracle.Reap(), subject.Reap()
					if len(r1) != len(r2) {
						t.Fatalf("step %d: Reap count diverged: %d vs %d", step, len(r1), len(r2))
					}
					reaped := map[string]bool{}
					for _, id := range r1 {
						reaped[id] = true
					}
					var kept []diffLease
					for _, l := range live {
						if !reaped[l.oracleID] {
							kept = append(kept, l)
						}
					}
					live = kept
				case 7, 8: // Monitor burst: dynamic updates and state flaps
					burst := make([]registry.DynamicUpdate, 0, 8)
					for i := 0; i < 1+rng.Intn(6); i++ {
						name := members[rng.Intn(len(members))]
						m, err := db.Get(name)
						if err != nil {
							t.Fatal(err)
						}
						d := m.Dynamic
						d.Load = float64(rng.Intn(40)) / 10
						d.ActiveJobs = rng.Intn(5)
						d.FreeMemory = float64(rng.Intn(2048))
						d.LastUpdate = time.Unix(1000001000+int64(step), 0).UTC()
						if rng.Intn(2) == 0 {
							burst = append(burst, registry.DynamicUpdate{Name: name, Dynamic: d})
						} else if err := db.UpdateDynamic(name, d); err != nil {
							t.Fatal(err)
						}
						if rng.Intn(4) == 0 {
							if err := db.SetState(name, registry.State(rng.Intn(3))); err != nil {
								t.Fatal(err)
							}
						}
					}
					db.UpdateDynamicBatch(burst)
					fold()
				case 9: // Gate change: re-register with new groups, which the
					// event path must fold as a re-bucket (Removed+Added).
					name := members[rng.Intn(len(members))]
					m, err := db.Get(name)
					if err != nil {
						t.Fatal(err)
					}
					m.Policy.UserGroups = [][]string{nil, {"ece"}, {"cs"}, {"guest"}}[rng.Intn(4)]
					m.Policy.ToolGroups = [][]string{nil, {"spice"}, {"spice", "tsuprem4"}}[rng.Intn(3)]
					m.Policy.UsagePolicy = []string{"", "no-guests", "light-load"}[rng.Intn(3)]
					if err := db.Remove(name); err != nil {
						t.Fatal(err)
					}
					if err := db.Add(m); err != nil {
						t.Fatal(err)
					}
					fold()
				}

				if step%100 == 0 && oracle.Free() != subject.Free() {
					t.Fatalf("step %d: Free diverged: %d vs %d", step, oracle.Free(), subject.Free())
				}
			}

			a1, mi1, _ := oracle.Stats()
			a2, mi2, _ := subject.Stats()
			if a1 != a2 || mi1 != mi2 {
				t.Errorf("stats diverged: oracle %d/%d, indexed %d/%d", a1, mi1, a2, mi2)
			}
			for _, l := range live {
				if err := oracle.Release(l.oracleID); err != nil {
					t.Errorf("oracle drain: %v", err)
				}
				if err := subject.Release(l.indexedID); err != nil {
					t.Errorf("indexed drain: %v", err)
				}
			}
			if oracle.Free() != oracle.Size() || subject.Free() != subject.Size() {
				t.Errorf("drain incomplete: oracle %d/%d, indexed %d/%d",
					oracle.Free(), oracle.Size(), subject.Free(), subject.Size())
			}
		})
	}
}

// TestDispatcherRoutesEvents proves the dispatcher end to end without its
// background loop: a monitor write reaches a subscribed pool's scheduling
// decision through one synchronous Dispatch.
func TestDispatcherRoutesEvents(t *testing.T) {
	db := fleetDB(t, 2)
	d := NewDispatcher(db, 64)
	defer d.Stop()
	p := newSunPool(t, db, func(c *Config) { c.Events = d })
	defer p.Close()
	if d.Pools() != 1 {
		t.Fatalf("subscribed pools = %d, want 1", d.Pools())
	}

	// Load the first machine; the pool must re-sort once dispatched.
	members := p.Members()
	m, err := db.Get(members[0])
	if err != nil {
		t.Fatal(err)
	}
	dyn := m.Dynamic
	dyn.Load = 3.9
	if err := db.UpdateDynamic(members[0], dyn); err != nil {
		t.Fatal(err)
	}
	d.Dispatch()
	l, err := p.Allocate(sunQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	if l.Machine == members[0] {
		t.Fatalf("allocated the loaded machine %s; dispatch did not fold the update", l.Machine)
	}
	if err := p.Release(l.ID); err != nil {
		t.Fatal(err)
	}

	batches, applied, _ := d.Stats()
	if batches == 0 || applied == 0 {
		t.Errorf("dispatcher counted batches=%d applied=%d", batches, applied)
	}
}

// TestDispatcherOverflowResync forces the ring over capacity with nobody
// draining and asserts the dispatcher degrades to a full Refresh — and
// that the registry writers were never blocked by the undrained ring.
func TestDispatcherOverflowResync(t *testing.T) {
	db := fleetDB(t, 32)
	d := NewDispatcher(db, 4) // far smaller than one burst
	defer d.Stop()
	p := newSunPool(t, db, func(c *Config) { c.Events = d })
	defer p.Close()

	members := p.Members()
	writes := make(chan struct{})
	go func() {
		defer close(writes)
		for i, name := range members {
			m, err := db.Get(name)
			if err != nil {
				continue
			}
			dyn := m.Dynamic
			dyn.Load = float64(i%8) / 2
			_ = db.UpdateDynamic(name, dyn)
		}
	}()
	select {
	case <-writes:
	case <-time.After(5 * time.Second):
		t.Fatal("registry writers blocked on an overflowing subscription")
	}

	d.Dispatch()
	if _, _, resyncs := d.Stats(); resyncs == 0 {
		t.Fatal("overflow did not degrade to a resync")
	}
	// The fallback Refresh must have folded the updates regardless.
	m, err := db.Get(members[3])
	if err != nil {
		t.Fatal(err)
	}
	if m.Dynamic.Load == 0 {
		t.Fatal("test fleet update did not land")
	}
}

// TestDispatcherDropsClosedPools: a closed pool (e.g. the loser of a
// cross-manager creation race) is unsubscribed lazily on the next
// dispatch, and its close path unsubscribes it eagerly too.
func TestDispatcherDropsClosedPools(t *testing.T) {
	db := fleetDB(t, 4)
	d := NewDispatcher(db, 64)
	defer d.Stop()
	p := newSunPool(t, db, func(c *Config) { c.Events = d })
	if d.Pools() != 1 {
		t.Fatalf("subscribed pools = %d, want 1", d.Pools())
	}
	p.Close()
	if d.Pools() != 0 {
		t.Fatalf("closed pool still subscribed (%d)", d.Pools())
	}
	// A pool closed behind the dispatcher's back is dropped on dispatch.
	p2 := newSunPool(t, db)
	d.Subscribe(p2)
	p2.Close()
	if err := db.SetState(p2.Members()[0], registry.StateUp); err != nil {
		t.Fatal(err)
	}
	d.Dispatch()
	if d.Pools() != 0 {
		t.Fatalf("dispatch kept a closed pool subscribed (%d)", d.Pools())
	}
}

// TestDispatcherSurvivesDuplicateIDRace: managers racing to create one
// pool name momentarily hold two pools with the SAME instance id; the
// race loser's Close must detach only itself, never the surviving winner.
func TestDispatcherSurvivesDuplicateIDRace(t *testing.T) {
	db := fleetDB(t, 8)
	d := NewDispatcher(db, 64)
	defer d.Stop()
	members := db.Names()
	mk := func() *Pool {
		p, err := New(Config{Name: sunName(t), DB: db, Members: members, Events: d})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	winner, loser := mk(), mk()
	if winner.ID() != loser.ID() {
		t.Fatalf("ids differ: %q vs %q", winner.ID(), loser.ID())
	}
	loser.Close()
	defer winner.Close()
	if d.Pools() != 1 {
		t.Fatalf("subscribed pools = %d, want the winner alone", d.Pools())
	}
	// The winner still receives events.
	m, err := db.Get(members[0])
	if err != nil {
		t.Fatal(err)
	}
	dyn := m.Dynamic
	dyn.Load = 3.7
	if err := db.UpdateDynamic(members[0], dyn); err != nil {
		t.Fatal(err)
	}
	d.Dispatch()
	x := winner.engine.(*indexedAlloc)
	if got := x.byName[members[0]].cand.Load; got != 3.7 {
		t.Fatalf("winner cand load = %v, want 3.7 (event not delivered)", got)
	}
}

// TestStressEventDispatch races sustained batched sweeps, the dispatcher's
// background drain, allocations, and releases, with a ring small enough to
// force overflow resyncs along the way. Run under -race in CI; the
// invariants are lease exclusivity and a fully drained pool at the end.
func TestStressEventDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	db := registry.NewDB()
	machines := diffFleet(t, rng, 96)
	members := make([]string, len(machines))
	for i, m := range machines {
		if err := db.Add(m); err != nil {
			t.Fatal(err)
		}
		members[i] = m.Static.Name
	}
	d := NewDispatcher(db, 48) // < one full-fleet sweep: overflows happen
	d.Start()
	defer d.Stop()
	p, err := New(Config{
		Name:     sunName(t),
		DB:       db,
		Members:  members,
		Policies: diffPolicyStore(t),
		Engine:   EngineIndexed,
		Events:   d,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() { // monitor: batched fleet sweeps plus state flaps
		defer bg.Done()
		wrng := rand.New(rand.NewSource(71))
		batch := make([]registry.DynamicUpdate, 0, len(members))
		var deadline time.Time
		for i := 0; ; i++ {
			select {
			case <-stop:
				// Keep sweeping until the dispatcher has drained a batch
				// and fallen back to a resync at least once: on a busy
				// host the clients can finish before the dispatcher
				// goroutine ever runs.
				if deadline.IsZero() {
					deadline = time.Now().Add(10 * time.Second)
				}
				if batches, _, resyncs := d.Stats(); batches > 0 && resyncs > 0 || time.Now().After(deadline) {
					return
				}
			default:
			}
			batch = batch[:0]
			for _, name := range members {
				batch = append(batch, registry.DynamicUpdate{
					Name:    name,
					Dynamic: registry.Dynamic{Load: float64(wrng.Intn(40)) / 10, ActiveJobs: wrng.Intn(4)},
				})
			}
			db.UpdateDynamicBatch(batch)
			if i%5 == 0 {
				_ = db.SetState(members[wrng.Intn(len(members))], registry.State(wrng.Intn(3)))
			}
		}
	}()

	workers := 8
	iters := 300
	if testing.Short() {
		iters = 60
	}
	queries := []*query.Query{
		sunQuery(t),
		sunQuery(t).Set("punch.user.accessgroup", query.Eq("ece")),
		sunQuery(t).Set("punch.appl.tool", query.Eq("spice")),
	}
	var claims sync.Map
	var count leaseCount
	fail := make(chan string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var held []*Lease
			for i := 0; i < iters; i++ {
				l, err := p.Allocate(queries[(w+i)%len(queries)])
				if err == nil {
					count.granted.Add(1)
					if prev, loaded := claims.LoadOrStore(l.Machine, w); loaded {
						fail <- fmt.Sprintf("machine %q leased to worker %d while held by %v", l.Machine, w, prev)
						return
					}
					held = append(held, l)
				}
				for len(held) > 0 && (err != nil || i%2 == 0) {
					l := held[0]
					held = held[1:]
					claims.Delete(l.Machine)
					if rerr := p.Release(l.ID); rerr != nil {
						fail <- fmt.Sprintf("release %s: %v", l.ID, rerr)
						return
					}
					count.released.Add(1)
					if err == nil {
						break
					}
				}
			}
			for _, l := range held {
				claims.Delete(l.Machine)
				if err := p.Release(l.ID); err != nil {
					fail <- fmt.Sprintf("drain %s: %v", l.ID, err)
					return
				}
				count.released.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	if p.Free() != p.Size() {
		t.Errorf("free = %d after full drain, want %d", p.Free(), p.Size())
	}
	count.check(t, p)
	batches, _, resyncs := d.Stats()
	if batches == 0 {
		t.Error("dispatcher drained nothing under stress")
	}
	if resyncs == 0 {
		t.Error("undersized ring never overflowed to a resync (stress did not cover the fallback)")
	}
}
