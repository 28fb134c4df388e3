package pool

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"actyp/internal/query"
	"actyp/internal/registry"
)

// The stress test hammers Allocate/Release/Refresh (plus monitor-style
// database churn) from many goroutines, run under -race in CI, and
// asserts the lease-exclusivity guarantee: no machine ever carries two
// live leases at once. Ownership is tracked in a claims map — an Allocate
// returning a machine already present in the map is a double lease.

// leaseCount tallies a stress test's lease operations on the test side for
// the conservation check: every grant is released, reaped, or still live.
type leaseCount struct {
	granted, released, reaped atomic.Int64
}

// check asserts granted = released + reaped + live, and that the pool's
// free count is its size less the live leases.
func (c *leaseCount) check(t *testing.T, p *Pool) {
	t.Helper()
	live := len(p.Leases())
	g, r, x := c.granted.Load(), c.released.Load(), c.reaped.Load()
	if g != r+x+int64(live) {
		t.Errorf("lease conservation: granted %d, released %d + reaped %d + live %d", g, r, x, live)
	}
	if p.Free() != p.Size()-live {
		t.Errorf("free = %d, want size %d - live %d", p.Free(), p.Size(), live)
	}
}

func TestStressAllocateExclusive(t *testing.T) {
	for _, engine := range []string{EngineOracle, EngineIndexed} {
		engine := engine
		t.Run("engine="+engine, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(7))
			db := registry.NewDB()
			machines := diffFleet(t, rng, 96)
			members := make([]string, len(machines))
			for i, m := range machines {
				if err := db.Add(m); err != nil {
					t.Fatal(err)
				}
				members[i] = m.Static.Name
			}
			p, err := New(Config{
				Name:     sunName(t),
				DB:       db,
				Members:  members,
				Policies: diffPolicyStore(t),
				Engine:   engine,
			})
			if err != nil {
				t.Fatal(err)
			}
			if p.Engine() != engine {
				t.Fatalf("engine = %q", p.Engine())
			}

			workers := 8
			iters := 400
			if testing.Short() {
				iters = 80
			}
			queries := []*query.Query{
				sunQuery(t),
				sunQuery(t).Set("punch.user.accessgroup", query.Eq("ece")),
				sunQuery(t).Set("punch.appl.tool", query.Eq("spice")),
				sunQuery(t).Set("punch.rsrc.speed", query.Ge(150)),
			}

			var claims sync.Map // machine name -> worker
			var count leaseCount
			fail := make(chan string, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					var held []*Lease
					for i := 0; i < iters; i++ {
						q := queries[(w+i)%len(queries)]
						l, err := p.Allocate(q)
						if err == nil {
							count.granted.Add(1)
							if prev, loaded := claims.LoadOrStore(l.Machine, w); loaded {
								fail <- fmt.Sprintf("machine %q leased to worker %d while held by %v", l.Machine, w, prev)
								return
							}
							held = append(held, l)
						}
						// Release about half of what we hold, oldest first.
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

			// Monitor-style writer plus the pool's background scheduling
			// process: dynamic updates land in the database and Refresh
			// folds them in while allocations run.
			stop := make(chan struct{})
			var bg sync.WaitGroup
			bg.Add(1)
			go func() {
				defer bg.Done()
				wrng := rand.New(rand.NewSource(99))
				i := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					name := members[i%len(members)]
					if m, err := db.Get(name); err == nil {
						d := m.Dynamic
						d.Load = float64(wrng.Intn(40)) / 10
						d.ActiveJobs = wrng.Intn(4)
						d.LastUpdate = time.Unix(1000002000+int64(i), 0).UTC()
						_ = db.UpdateDynamic(name, d)
					}
					if i%7 == 0 {
						_ = db.SetState(name, registry.State(wrng.Intn(3)))
					}
					if i%5 == 0 {
						p.Refresh()
					}
					_ = p.Free()
					_, _, _ = p.Stats()
					i++
				}
			}()

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
		})
	}
}

// TestStressReapRenewRace exercises lease expiry under concurrency: holders
// renew or release while a reaper sweeps, and at the end every machine is
// accounted for exactly once (free, or held by a live lease).
func TestStressReapRenewRace(t *testing.T) {
	for _, engine := range []string{EngineOracle, EngineIndexed} {
		engine := engine
		t.Run("engine="+engine, func(t *testing.T) {
			t.Parallel()
			db := fleetDB(t, 48)
			clk := &fakeClock{now: time.Unix(5000, 0)}
			p := newSunPool(t, db, func(c *Config) {
				c.Engine = engine
				c.Clock = clk.Now
				c.LeaseTTL = 40 * time.Second
			})
			q := sunQuery(t)
			var count leaseCount

			stop := make(chan struct{})
			var bg sync.WaitGroup
			bg.Add(1)
			go func() { // reaper
				defer bg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					clk.Advance(time.Second)
					count.reaped.Add(int64(len(p.Reap())))
				}
			}()

			var wg sync.WaitGroup
			iters := 300
			if testing.Short() {
				iters = 60
			}
			for w := 0; w < 6; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						l, err := p.Allocate(q)
						if err != nil {
							continue
						}
						count.granted.Add(1)
						switch i % 3 {
						case 0:
							// Heartbeat then let the lease expire: only the
							// reaper may free it.
							_ = p.Renew(l.ID)
						case 1:
							if err := p.Release(l.ID); err != nil {
								// The reaper may have beaten us to it; the
								// lease must then be unknown, not half-freed.
								_, rerr := p.Allocate(q)
								if rerr == nil {
									count.granted.Add(1)
								} else if rerr != ErrExhausted {
									t.Errorf("pool wedged after release race: %v", rerr)
									return
								}
							} else {
								count.released.Add(1)
							}
						}
					}
				}(w)
			}
			wg.Wait()
			close(stop)
			bg.Wait()
			count.check(t, p)

			// Expire everything still outstanding; the pool must drain.
			clk.Advance(time.Hour)
			count.reaped.Add(int64(len(p.Reap())))
			count.check(t, p)
			if p.Free() != p.Size() {
				t.Errorf("free = %d, want %d after final reap", p.Free(), p.Size())
			}
			allocs, _, _ := p.Stats()
			if allocs == 0 {
				t.Error("stress made no allocations")
			}
		})
	}
}
