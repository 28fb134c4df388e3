package pool

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"actyp/internal/query"
	"actyp/internal/registry"
)

func fleetDB(t testing.TB, n int) *registry.DB {
	t.Helper()
	db := registry.NewDB()
	if err := registry.HomogeneousFleetSpec(n).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	return db
}

func sunName(t testing.TB) query.PoolName {
	t.Helper()
	q, err := query.ParseBasic("punch.rsrc.arch = sun")
	if err != nil {
		t.Fatal(err)
	}
	return query.Name(q)
}

func sunQuery(t testing.TB) *query.Query {
	t.Helper()
	q, err := query.ParseBasic("punch.rsrc.arch = sun")
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func newSunPool(t testing.TB, db *registry.DB, cfgMut ...func(*Config)) *Pool {
	t.Helper()
	cfg := Config{Name: sunName(t), DB: db, Exclusive: true}
	for _, f := range cfgMut {
		f(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	db := fleetDB(t, 4)
	if _, err := New(Config{DB: db}); err == nil {
		t.Error("missing name should fail")
	}
	if _, err := New(Config{Name: sunName(t)}); err == nil {
		t.Error("missing db should fail")
	}
	// No matching machines: hp pool over a sun fleet.
	q, _ := query.ParseBasic("punch.rsrc.arch = hp")
	if _, err := New(Config{Name: query.Name(q), DB: db, Exclusive: true}); err == nil {
		t.Error("empty pool should fail")
	}
}

func TestNewWalksWhitePagesAndTakes(t *testing.T) {
	db := fleetDB(t, 10)
	p := newSunPool(t, db)
	if p.Size() != 10 {
		t.Fatalf("size = %d", p.Size())
	}
	if got := db.TakenBy(p.ID()); len(got) != 10 {
		t.Errorf("taken = %d", len(got))
	}
	// A second exclusive pool with the same criteria finds nothing left.
	if _, err := New(Config{Name: sunName(t), DB: db, Instance: 1, Exclusive: true}); err == nil {
		t.Error("second exclusive pool should find no machines")
	}
	p.Close()
	if got := db.TakenBy(p.ID()); len(got) != 0 {
		t.Errorf("Close left %d machines taken", len(got))
	}
	// Closed pools refuse allocations; double close is a no-op.
	p.Close()
	if _, err := p.Allocate(sunQuery(t)); err == nil {
		t.Error("closed pool should refuse allocation")
	}
}

// TestCloseReleasesOnlyOwnClaims pins the create-race repair path: when
// two managers race to build the same pool name, both exclusive pools
// carry the same instance id, and closing the loser (or failing to build
// it at all) must not strip the winner's white-pages claims.
func TestCloseReleasesOnlyOwnClaims(t *testing.T) {
	db := fleetDB(t, 8)
	winner := newSunPool(t, db, func(c *Config) { c.MaxMachines = 5 })
	loser, err := New(Config{Name: sunName(t), DB: db, Exclusive: true}) // same id "...#0"
	if err != nil {
		t.Fatal(err)
	}
	if winner.ID() != loser.ID() {
		t.Fatalf("ids differ: %q vs %q", winner.ID(), loser.ID())
	}
	if loser.Size() != 3 {
		t.Fatalf("loser took %d machines, want the 3 remaining", loser.Size())
	}
	// With the fleet fully taken, a third creation attempt fails — and
	// its error path must not release anything under the shared id.
	if _, err := New(Config{Name: sunName(t), DB: db, Exclusive: true}); err == nil {
		t.Fatal("expected exhaustion")
	}
	if got := db.TakenBy(winner.ID()); len(got) != 8 {
		t.Fatalf("failed creation stripped live claims: %d taken, want 8", len(got))
	}
	loser.Close()
	if got := db.TakenBy(winner.ID()); len(got) != 5 {
		t.Fatalf("losing pool's close stripped the winner's claims: %d taken, want 5", len(got))
	}
	winner.Close()
	if got := db.TakenBy(winner.ID()); len(got) != 0 {
		t.Fatalf("winner's close left %d taken", len(got))
	}
}

func TestNewWithMembers(t *testing.T) {
	db := fleetDB(t, 6)
	p, err := New(Config{
		Name: sunName(t), DB: db,
		Members: []string{"m0001", "m0003"},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := p.Members()
	if len(got) != 2 || got[0] != "m0001" || got[1] != "m0003" {
		t.Errorf("members = %v", got)
	}
	// Non-exclusive: nothing marked taken.
	if taken := db.TakenBy(p.ID()); len(taken) != 0 {
		t.Errorf("member pool took machines: %v", taken)
	}
	if _, err := New(Config{Name: sunName(t), DB: db, Members: []string{"ghost"}}); err == nil {
		t.Error("unknown member should fail")
	}
}

func TestMaxMachines(t *testing.T) {
	db := fleetDB(t, 10)
	p, err := New(Config{Name: sunName(t), DB: db, Exclusive: true, MaxMachines: 3})
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 3 {
		t.Errorf("size = %d", p.Size())
	}
}

func TestAllocateReleaseLifecycle(t *testing.T) {
	for _, engine := range []string{EngineOracle, EngineIndexed} {
		t.Run("engine="+engine, func(t *testing.T) {
			db := fleetDB(t, 3)
			p := newSunPool(t, db, func(c *Config) { c.Engine = engine })
			if p.Engine() != engine {
				t.Fatalf("engine = %q, want %q", p.Engine(), engine)
			}
			q := sunQuery(t)

			seen := map[string]bool{}
			var leases []*Lease
			for i := 0; i < 3; i++ {
				l, err := p.Allocate(q)
				if err != nil {
					t.Fatal(err)
				}
				if seen[l.Machine] {
					t.Errorf("machine %s leased twice", l.Machine)
				}
				seen[l.Machine] = true
				if l.AccessKey == "" || len(l.AccessKey) != 32 {
					t.Errorf("access key = %q", l.AccessKey)
				}
				if l.Addr == "" || l.ExecUnitPort == 0 {
					t.Errorf("lease missing coordinates: %+v", l)
				}
				if l.Pool != p.ID() {
					t.Errorf("lease pool = %q", l.Pool)
				}
				leases = append(leases, l)
			}
			if p.Free() != 0 {
				t.Errorf("free = %d", p.Free())
			}
			if _, err := p.Allocate(q); err != ErrExhausted {
				t.Errorf("exhausted pool returned %v", err)
			}

			if err := p.Release(leases[0].ID); err != nil {
				t.Fatal(err)
			}
			if err := p.Release(leases[0].ID); err == nil {
				t.Error("double release should fail")
			}
			if err := p.Release("bogus"); err == nil {
				t.Error("unknown lease should fail")
			}
			if p.Free() != 1 {
				t.Errorf("free after release = %d", p.Free())
			}
			// Released machine is allocatable again.
			if _, err := p.Allocate(q); err != nil {
				t.Errorf("re-allocate: %v", err)
			}

			allocs, misses, scanned := p.Stats()
			if allocs != 4 || misses != 1 {
				t.Errorf("stats = %d allocs, %d misses", allocs, misses)
			}
			if engine == EngineOracle {
				// The oracle scans the whole cache per allocation attempt.
				if scanned < int64(4*p.Size()) {
					t.Errorf("scanned = %d", scanned)
				}
			} else if scanned < int64(allocs) {
				// The indexed engine examines only popped heap entries: at
				// least one per successful allocation, far less than a scan.
				t.Errorf("scanned = %d", scanned)
			}
		})
	}
}

func TestAllocatePrefersLeastLoad(t *testing.T) {
	db := fleetDB(t, 3)
	// Make m0001 clearly the least loaded.
	for _, upd := range []struct {
		name string
		load float64
	}{{"m0000", 1.5}, {"m0001", 0.1}, {"m0002", 1.0}} {
		m, _ := db.Get(upd.name)
		d := m.Dynamic
		d.Load = upd.load
		if err := db.UpdateDynamic(upd.name, d); err != nil {
			t.Fatal(err)
		}
	}
	p := newSunPool(t, db)
	l, err := p.Allocate(sunQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	if l.Machine != "m0001" {
		t.Errorf("allocated %s, want m0001", l.Machine)
	}
}

func TestAllocateLocalLoadAccounting(t *testing.T) {
	db := fleetDB(t, 2)
	p := newSunPool(t, db)
	q := sunQuery(t)
	a, err := p.Allocate(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Allocate(q)
	if err != nil {
		t.Fatal(err)
	}
	// The first grant leaves its machine leased, so the second allocation
	// must land on the other machine.
	if a.Machine == b.Machine {
		t.Errorf("both allocations hit %s", a.Machine)
	}
}

func TestAllocateRespectsAccessPolicy(t *testing.T) {
	db := registry.NewDB()
	machines, err := registry.HomogeneousFleetSpec(2).Build(time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	machines[0].Policy.UserGroups = []string{"ece"}
	machines[1].Policy.UserGroups = []string{"cs"}
	for _, m := range machines {
		if err := db.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	p := newSunPool(t, db)
	q := sunQuery(t).Set("punch.user.accessgroup", query.Eq("ece"))
	l, err := p.Allocate(q)
	if err != nil {
		t.Fatal(err)
	}
	if l.Machine != "m0000" {
		t.Errorf("ece user got %s", l.Machine)
	}
	// Only one machine admits ece; a second ece query starves even though
	// the cs machine is free.
	if _, err := p.Allocate(q); err != ErrExhausted {
		t.Errorf("second ece allocation = %v", err)
	}
}

func TestAllocateRespectsToolGroups(t *testing.T) {
	db := registry.NewDB()
	machines, err := registry.HomogeneousFleetSpec(2).Build(time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	machines[0].Policy.ToolGroups = []string{"spice"}
	machines[1].Policy.ToolGroups = []string{"tsuprem4"}
	for _, m := range machines {
		if err := db.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	p := newSunPool(t, db)
	q := sunQuery(t).Set("punch.appl.tool", query.Eq("tsuprem4"))
	l, err := p.Allocate(q)
	if err != nil {
		t.Fatal(err)
	}
	if l.Machine != "m0001" {
		t.Errorf("tsuprem4 run landed on %s", l.Machine)
	}
}

func TestAllocateSkipsDownMachines(t *testing.T) {
	db := fleetDB(t, 2)
	if err := db.SetState("m0000", registry.StateDown); err != nil {
		t.Fatal(err)
	}
	p := newSunPool(t, db)
	p.Refresh()
	l, err := p.Allocate(sunQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	if l.Machine != "m0001" {
		t.Errorf("allocated down machine's peer wrong: %s", l.Machine)
	}
	if _, err := p.Allocate(sunQuery(t)); err != ErrExhausted {
		t.Errorf("down machine allocated: %v", err)
	}
}

func TestRefreshFoldsMonitorUpdates(t *testing.T) {
	db := fleetDB(t, 2)
	p := newSunPool(t, db)
	// Lease one machine, then let the "monitor" report new loads.
	l, err := p.Allocate(sunQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"m0000", "m0001"} {
		m, _ := db.Get(name)
		d := m.Dynamic
		d.Load = 3.0
		if err := db.UpdateDynamic(name, d); err != nil {
			t.Fatal(err)
		}
	}
	p.Refresh()
	// The refresh keeps the lease; releasing it frees both machines.
	if err := p.Release(l.ID); err != nil {
		t.Fatal(err)
	}
	if p.Free() != 2 {
		t.Errorf("free = %d", p.Free())
	}
}

// TestJobChargeFollowsMonitor: a candidate's job count is the monitor's.
// A machine reported with 40 jobs and then with none is allocatable at
// once, however the reports reach the pool: the first before the pool is
// built and the second through Refresh, each through a dispatch of its
// own, or both in one batch.
func TestJobChargeFollowsMonitor(t *testing.T) {
	report := func(t *testing.T, db *registry.DB, jobs int) {
		t.Helper()
		m, _ := db.Get("m0000")
		d := m.Dynamic
		d.Load, d.ActiveJobs = 0.1, jobs
		if err := db.UpdateDynamic("m0000", d); err != nil {
			t.Fatal(err)
		}
	}
	for _, engine := range []string{EngineOracle, EngineIndexed} {
		for _, leg := range []struct {
			name  string
			built int // jobs the monitor reports before the pool is built
			fold  func(t *testing.T, db *registry.DB, p *Pool)
		}{
			{"refresh", 40, func(t *testing.T, db *registry.DB, p *Pool) {
				report(t, db, 0)
				p.Refresh()
			}},
			{"two-dispatches", 0, func(t *testing.T, db *registry.DB, p *Pool) {
				sub := db.Watch(16)
				defer sub.Close()
				for _, jobs := range []int{40, 0} {
					report(t, db, jobs)
					events, _ := sub.Poll()
					p.Apply(events)
				}
			}},
			{"one-batch", 0, func(t *testing.T, db *registry.DB, p *Pool) {
				sub := db.Watch(16)
				defer sub.Close()
				report(t, db, 40)
				report(t, db, 0)
				events, _ := sub.Poll()
				if len(events) != 2 {
					t.Fatalf("batch holds %d events, want 2", len(events))
				}
				p.Apply(events)
			}},
		} {
			t.Run(engine+"/"+leg.name, func(t *testing.T) {
				db := fleetDB(t, 1)
				report(t, db, leg.built)
				p := newSunPool(t, db, func(c *Config) { c.Engine = engine })
				leg.fold(t, db, p)
				if jobs := candJobs(p, "m0000"); jobs != 0 {
					t.Errorf("candidate jobs = %d after the fold, want the monitor's 0", jobs)
				}
				l, err := p.Allocate(sunQuery(t))
				if err != nil {
					t.Fatalf("allocate after the monitor reported no jobs: %v", err)
				}
				if l.Machine != "m0000" {
					t.Errorf("granted %s, want m0000", l.Machine)
				}
				if jobs := candJobs(p, "m0000"); jobs != 0 {
					t.Errorf("candidate jobs = %d after the grant, want the monitor's 0", jobs)
				}
			})
		}
	}
}

// candJobs reads the named machine's candidate job count from either engine.
func candJobs(p *Pool, name string) int {
	switch x := p.engine.(type) {
	case *oracleAlloc:
		for _, e := range x.cache {
			if e.machine.Static.Name == name {
				return candidateOf(e.machine).ActiveJobs
			}
		}
	case *indexedAlloc:
		return x.byName[name].cand.ActiveJobs
	}
	return -1
}

func TestSplitPartitions(t *testing.T) {
	db := fleetDB(t, 10)
	p := newSunPool(t, db)
	parts, err := p.Split(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
	total := 0
	seen := map[string]bool{}
	for _, part := range parts {
		total += len(part)
		for _, m := range part {
			if seen[m] {
				t.Errorf("machine %s in two parts", m)
			}
			seen[m] = true
		}
	}
	if total != 10 {
		t.Errorf("split lost machines: %d", total)
	}
	// 10 into 3: sizes 4,3,3.
	if len(parts[0]) != 4 || len(parts[1]) != 3 || len(parts[2]) != 3 {
		t.Errorf("sizes = %d,%d,%d", len(parts[0]), len(parts[1]), len(parts[2]))
	}

	if _, err := p.Split(0); err == nil {
		t.Error("split 0 should fail")
	}
	if _, err := p.Split(11); err == nil {
		t.Error("split beyond size should fail")
	}
}

func TestReplicasShareMachinesWithBias(t *testing.T) {
	db := fleetDB(t, 8)
	members := []string{"m0000", "m0001", "m0002", "m0003", "m0004", "m0005", "m0006", "m0007"}
	mk := func(inst int) *Pool {
		p, err := New(Config{
			Name: sunName(t), DB: db, Members: members,
			Instance: inst, Replicas: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	r0, r1 := mk(0), mk(1)
	q := sunQuery(t)
	l0, err := r0.Allocate(q)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := r1.Allocate(q)
	if err != nil {
		t.Fatal(err)
	}
	// Instance 0 prefers even member indices, instance 1 odd ones. With
	// two replicas over eight machines, the stripes cannot collide while
	// each stripe has free machines.
	idx := func(machine string) int {
		for i, m := range members {
			if m == machine {
				return i
			}
		}
		return -1
	}
	if i := idx(l0.Machine); i%2 != 0 {
		t.Errorf("replica 0 allocated %s (index %d), want even stripe", l0.Machine, i)
	}
	if i := idx(l1.Machine); i%2 != 1 {
		t.Errorf("replica 1 allocated %s (index %d), want odd stripe", l1.Machine, i)
	}
}

func TestConcurrentAllocateNoDoubleLease(t *testing.T) {
	db := fleetDB(t, 64)
	p := newSunPool(t, db)
	q := sunQuery(t)
	var mu sync.Mutex
	seen := map[string]int{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				l, err := p.Allocate(q)
				if err != nil {
					return
				}
				mu.Lock()
				seen[l.Machine]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != 64 {
		t.Errorf("leased %d machines, want 64", len(seen))
	}
	for m, c := range seen {
		if c != 1 {
			t.Errorf("machine %s leased %d times", m, c)
		}
	}
}

func TestLeaseIDsUnique(t *testing.T) {
	db := fleetDB(t, 16)
	p := newSunPool(t, db)
	q := sunQuery(t)
	ids := map[string]bool{}
	keys := map[string]bool{}
	for i := 0; i < 16; i++ {
		l, err := p.Allocate(q)
		if err != nil {
			t.Fatal(err)
		}
		if ids[l.ID] {
			t.Errorf("duplicate lease id %s", l.ID)
		}
		if keys[l.AccessKey] {
			t.Errorf("duplicate access key")
		}
		ids[l.ID] = true
		keys[l.AccessKey] = true
	}
}

// Property: for any interleaving of allocations and releases, the number of
// free machines equals size minus outstanding leases.
func TestFreeCountInvariantProperty(t *testing.T) {
	db := fleetDB(t, 12)
	p := newSunPool(t, db)
	q := sunQuery(t)
	var live []*Lease
	f := func(ops []bool) bool {
		for _, alloc := range ops {
			if alloc {
				l, err := p.Allocate(q)
				if err == nil {
					live = append(live, l)
				} else if err != ErrExhausted {
					return false
				}
			} else if len(live) > 0 {
				if err := p.Release(live[0].ID); err != nil {
					return false
				}
				live = live[1:]
			}
		}
		return p.Free() == p.Size()-len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPoolAccessors(t *testing.T) {
	db := fleetDB(t, 2)
	p, err := New(Config{Name: sunName(t), DB: db, Instance: 3, Exclusive: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.Instance() != 3 {
		t.Errorf("instance = %d", p.Instance())
	}
	if !strings.HasSuffix(p.ID(), "#3") {
		t.Errorf("id = %q", p.ID())
	}
	if p.Name() != sunName(t) {
		t.Errorf("name = %+v", p.Name())
	}
}
