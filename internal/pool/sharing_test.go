package pool

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"actyp/internal/query"
	"actyp/internal/registry"
)

// archPools builds the daemon's usual pools over a DefaultFleetSpec fleet:
// one exclusive indexed pool per architecture, subscribed to events.
func archPools(t testing.TB, db *registry.DB, events *Dispatcher) []*Pool {
	t.Helper()
	var pools []*Pool
	for _, arch := range []string{"sun", "hp", "alpha", "x86"} {
		q, err := query.ParseBasic("punch.rsrc.arch = " + arch)
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(Config{Name: query.Name(q), DB: db, Exclusive: true, Engine: EngineIndexed, Events: events})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		pools = append(pools, p)
	}
	return pools
}

// TestStressSharedViews races every writer of the white pages against four
// pools that allocate and release, under -race in CI. The pools hold views
// that share their cold part with the store, so the two promises that
// sharing rests on are checked from both sides: a record handed out by
// Allocate reads the same for as long as the caller holds it (no update is
// folded into it in place, no SetParam writes into the Params it shares),
// and once the writers stop and the stream is drained every pool's view
// equals the store's record.
func TestStressSharedViews(t *testing.T) {
	const fleet = 96
	db := registry.NewDB()
	if err := registry.DefaultFleetSpec(fleet).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	names := db.Names()
	events := NewDispatcher(db, 0)
	defer events.Stop()
	pools := archPools(t, db, events)

	stop := make(chan struct{})
	var writers sync.WaitGroup
	writer := func(seed int64, step func(rng *rand.Rand, i int)) {
		writers.Add(1)
		go func() {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					step(rng, i)
				}
			}
		}()
	}
	writer(1, func(rng *rand.Rand, i int) { // the administrator
		name := names[rng.Intn(len(names))]
		switch i % 3 {
		case 0:
			_ = db.SetParam(name, "rack", query.NumAttr(float64(i)))
		case 1:
			_ = db.SetParam(name, "license", query.ListAttr("spice", fmt.Sprint("tool", i)))
		default:
			_ = db.SetParam(name, "memory", query.NumAttr(float64(int(128)<<rng.Intn(4))))
		}
	})
	writer(2, func(rng *rand.Rand, i int) { // the monitor
		batch := make([]registry.DynamicUpdate, 0, len(names))
		for _, s := range db.Statuses(nil) {
			s.Dynamic.Load = rng.Float64()
			s.Dynamic.LastUpdate = time.Unix(int64(i), 0)
			batch = append(batch, registry.DynamicUpdate{Name: s.Name, Dynamic: s.Dynamic})
		}
		db.UpdateDynamicBatch(batch)
		_ = db.SetState(names[rng.Intn(len(names))], registry.State(rng.Intn(6)/4)) // mostly up
	})
	writer(3, func(rng *rand.Rand, i int) { // a machine is unregistered and comes back
		name := names[rng.Intn(len(names))]
		if m, err := db.Get(name); err == nil && db.Remove(name) == nil {
			if err := db.Add(m); err != nil {
				t.Error(err)
			}
		}
	})
	writer(4, func(rng *rand.Rand, i int) { // the dispatcher's drain loop, and a resync now and then
		events.Dispatch()
		if i%50 == 0 {
			pools[rng.Intn(len(pools))].Refresh()
		}
		runtime.Gosched()
	})

	iters := 400
	if testing.Short() {
		iters = 80
	}
	var clients sync.WaitGroup
	for w := 0; w < 2*len(pools); w++ {
		clients.Add(1)
		go func(w int) {
			defer clients.Done()
			p := pools[w%len(pools)]
			// A query the pool's name does not cover makes Allocate verify
			// it against each candidate's Params: the pool reads the shared
			// maps while SetParam runs.
			misrouted := query.New().Set("punch.rsrc.arch", query.Any()).Set("punch.rsrc.memory", query.Ge(1))
			for i := 0; i < iters; i++ {
				if i%4 == 3 {
					if l, err := p.Allocate(misrouted); err == nil {
						if err := p.Release(l.ID); err != nil {
							t.Error(err)
							return
						}
					}
					continue
				}
				slot, m, err := p.engine.Allocate(&allocRequest{newID: func() error { return nil }})
				if err != nil {
					continue // every candidate down or loaded just now
				}
				asRead := m.Clone()
				for k := 0; k < 1+i%8; k++ {
					runtime.Gosched()
				}
				if !reflect.DeepEqual(m, asRead) {
					t.Errorf("the record of %s changed while its lease was held:\n%+v, as allocated\n%+v", asRead.Static.Name, m, asRead)
				}
				p.engine.Return(slot)
			}
		}(w)
	}
	clients.Wait()
	close(stop)
	writers.Wait()
	events.Dispatch()

	for _, p := range pools {
		x := p.engine.(*indexedAlloc)
		for _, e := range x.entries {
			stored, err := db.Get(e.machine.Static.Name)
			if err != nil {
				t.Fatal(err)
			}
			got := *e.machine
			got.TakenBy = stored.TakenBy // a record re-added by hand is free; the pool's claim is not at issue here
			if !reflect.DeepEqual(&got, stored) {
				t.Errorf("pool %s holds\n%+v, the store\n%+v", p.ID(), &got, stored)
			}
		}
		if p.Free() != p.Size() {
			t.Errorf("pool %s: free = %d after full drain, want %d", p.ID(), p.Free(), p.Size())
		}
	}
}

// TestApplyDynamicAllocatesNothing pins the steady-state cost of a monitor
// sweep in the pools: a DynamicUpdated event is folded into the entry's own
// view, and the membership filter reuses its buffer, so Apply allocates
// only for the machines a caller was handed since the sweep before.
func TestApplyDynamicAllocatesNothing(t *testing.T) {
	db := registry.NewDB()
	if err := registry.DefaultFleetSpec(400).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	x := archPools(t, db, nil)[0].engine.(*indexedAlloc)
	sweepAt := func(load float64) []registry.Event {
		var evs []registry.Event
		for _, s := range db.Statuses(nil) {
			s.Dynamic.Load = load
			evs = append(evs, registry.Event{Kind: registry.EventDynamicUpdated, Name: s.Name, Dynamic: s.Dynamic})
		}
		return evs
	}
	low, high := sweepAt(0.25), sweepAt(0.5)
	get := db.View
	x.Apply(low, get) // the filter's buffer reaches its size
	if n := testing.AllocsPerRun(20, func() { x.Apply(low, get) }); n != 0 {
		t.Errorf("Apply of a %d-event sweep allocates %v times, want 0", len(low), n)
	}

	// A handed-out view is the exception: the caller keeps the record it
	// was given, the entry moves on to a copy of its header.
	slot, m, err := x.Allocate(&allocRequest{newID: func() error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	x.Apply(high, get)
	if m.Dynamic.Load != 0.25 {
		t.Errorf("the allocated record took the next sweep's update in place: load %v", m.Dynamic.Load)
	}
	if e := x.byName[m.Static.Name]; e.machine == m || e.machine.Dynamic.Load != 0.5 {
		t.Errorf("the entry did not move on from the view it handed out: %+v", e.machine)
	}
	x.Return(slot)
	if n := testing.AllocsPerRun(20, func() { x.Apply(low, get) }); n != 0 {
		t.Errorf("Apply allocates %v times again after the successor took over, want 0", n)
	}
}
