package pool

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// fakeClock is a controllable time source shared by pool and test.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestLeaseExpiryAndReap(t *testing.T) {
	db := fleetDB(t, 2)
	clk := &fakeClock{now: time.Unix(1000, 0)}
	p, err := New(Config{Name: sunName(t), DB: db, Exclusive: true, Clock: clk.Now, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	q := sunQuery(t)

	l1, err := p.Allocate(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Allocate(q); err != nil {
		t.Fatal(err)
	}
	if p.Free() != 0 {
		t.Fatalf("free = %d", p.Free())
	}

	// Nothing expires before the TTL.
	clk.Advance(30 * time.Second)
	if got := p.Reap(); len(got) != 0 {
		t.Errorf("premature reap: %v", got)
	}

	// Renew one lease; the other dies at the deadline.
	if err := p.Renew(l1.ID); err != nil {
		t.Fatal(err)
	}
	clk.Advance(45 * time.Second) // l1 renewed at t+30 -> expires t+90; l2 expires t+60; now t+75
	reaped := p.Reap()
	if len(reaped) != 1 {
		t.Fatalf("reaped %v", reaped)
	}
	if reaped[0] == l1.ID {
		t.Error("renewed lease was reaped")
	}
	if p.Free() != 1 {
		t.Errorf("free after reap = %d", p.Free())
	}
	// The reaped lease can no longer be released or renewed.
	if err := p.Release(reaped[0]); err == nil {
		t.Error("release of reaped lease should fail")
	}
	if err := p.Renew(reaped[0]); err == nil {
		t.Error("renew of reaped lease should fail")
	}
	// The survivor is still live.
	if err := p.Release(l1.ID); err != nil {
		t.Fatal(err)
	}
}

func TestLeaseNoTTLNeverReaps(t *testing.T) {
	db := fleetDB(t, 1)
	clk := &fakeClock{now: time.Unix(0, 0)}
	p, err := New(Config{Name: sunName(t), DB: db, Exclusive: true, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Allocate(sunQuery(t)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(1000 * time.Hour)
	if got := p.Reap(); got != nil {
		t.Errorf("reaped without TTL: %v", got)
	}
}

func TestRenewUnknownLease(t *testing.T) {
	db := fleetDB(t, 1)
	p := newSunPool(t, db)
	if err := p.Renew("ghost"); err == nil {
		t.Error("renew of unknown lease should fail")
	}
}

// TestRenewWithTTLDisabledKeepsDeadline pins a subtlety: on a pool
// without a TTL, Renew is a validity check and must not erase a deadline
// the lease already carries (one adopted from a journal or a handoff), or
// the lease would dodge every reaper it later meets.
func TestRenewWithTTLDisabledKeepsDeadline(t *testing.T) {
	for _, engine := range []string{EngineOracle, EngineIndexed} {
		t.Run("engine="+engine, func(t *testing.T) {
			p := newSunPool(t, fleetDB(t, 1), func(c *Config) { c.Engine = engine })
			deadline := time.Unix(60, 0)
			l := &Lease{ID: p.ID() + ":1:deadbeef", Machine: p.Members()[0]}
			if err := p.AdoptLease(l, deadline); err != nil {
				t.Fatal(err)
			}
			if err := p.Renew(l.ID); err != nil { // validity check only
				t.Fatal(err)
			}
			want := []LeaseInfo{{ID: l.ID, Machine: l.Machine, Expires: deadline}}
			if got := p.Leases(); !reflect.DeepEqual(got, want) {
				t.Errorf("leases after renew = %+v, want the adopted deadline to stand: %+v", got, want)
			}
		})
	}
}

func TestReaperSweepsAllPools(t *testing.T) {
	db := fleetDB(t, 4)
	clk := &fakeClock{now: time.Unix(0, 0)}
	mk := func(members []string) *Pool {
		p, err := New(Config{Name: sunName(t), DB: db, Members: members, Clock: clk.Now, LeaseTTL: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p1 := mk([]string{"m0000", "m0001"})
	p2 := mk([]string{"m0002", "m0003"})
	q := sunQuery(t)
	for _, p := range []*Pool{p1, p2} {
		if _, err := p.Allocate(q); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReaper(func() []*Pool { return []*Pool{p1, p2} }, time.Millisecond)
	clk.Advance(2 * time.Second)
	if n := r.Sweep(); n != 2 {
		t.Errorf("swept %d, want 2", n)
	}
	if r.Reaped() != 2 {
		t.Errorf("reaped counter = %d", r.Reaped())
	}
	// Start/Stop lifecycle is safe and idempotent.
	r.Start()
	r.Start()
	r.Stop()
	r.Stop()
	// Default interval guard.
	if r2 := NewReaper(func() []*Pool { return nil }, 0); r2.interval != 30*time.Second {
		t.Errorf("default interval = %v", r2.interval)
	}
}

func TestExpiredMachineIsReallocatable(t *testing.T) {
	db := fleetDB(t, 1)
	clk := &fakeClock{now: time.Unix(0, 0)}
	p, err := New(Config{Name: sunName(t), DB: db, Exclusive: true, Clock: clk.Now, LeaseTTL: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	q := sunQuery(t)
	l1, err := p.Allocate(q)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second)
	if got := p.Reap(); len(got) != 1 {
		t.Fatalf("reap = %v", got)
	}
	l2, err := p.Allocate(q)
	if err != nil {
		t.Fatalf("machine not reallocatable after reap: %v", err)
	}
	if l1.ID == l2.ID {
		t.Error("lease ids must differ")
	}
}

// TestUnknownLeaseIsSentinel: both engines wrap ErrUnknownLease in
// Release and Renew of a lease they do not hold, with the error text the
// engines have always printed.
func TestUnknownLeaseIsSentinel(t *testing.T) {
	for _, engine := range []string{EngineOracle, EngineIndexed} {
		for _, op := range []struct {
			name string
			call func(p *Pool, id string) error
		}{
			{"release", (*Pool).Release},
			{"renew", (*Pool).Renew},
		} {
			t.Run(engine+"/"+op.name, func(t *testing.T) {
				p := newSunPool(t, fleetDB(t, 1), func(c *Config) { c.Engine = engine })
				err := op.call(p, "ghost")
				if !errors.Is(err, ErrUnknownLease) {
					t.Fatalf("%s of an unknown lease = %v, want ErrUnknownLease", op.name, err)
				}
				if want := "pool " + p.ID() + ": unknown lease ghost"; err.Error() != want {
					t.Errorf("error text = %q, want %q", err, want)
				}
			})
		}
	}
}

// TestAdoptLease pins recovery's adoption on both engines: an adopted
// lease is live like a granted one, adoption is idempotent per (id,
// machine), a busy or foreign machine refuses it, and the pool's sequence
// moves past the adopted id.
func TestAdoptLease(t *testing.T) {
	for _, engine := range []string{EngineOracle, EngineIndexed} {
		t.Run("engine="+engine, func(t *testing.T) {
			db := fleetDB(t, 3)
			clk := &fakeClock{now: time.Unix(0, 0)}
			p := newSunPool(t, db, func(c *Config) {
				c.Engine = engine
				c.Clock = clk.Now
				c.LeaseTTL = time.Minute
			})
			members := p.Members()
			deadline := time.Unix(500, 0)
			adopted := &Lease{ID: p.ID() + ":41:deadbeef", Machine: members[1]}
			if err := p.AdoptLease(adopted, deadline); err != nil {
				t.Fatal(err)
			}
			want := []LeaseInfo{{ID: adopted.ID, Machine: members[1], Expires: deadline}}
			if got := p.Leases(); !reflect.DeepEqual(got, want) {
				t.Fatalf("leases = %+v, want %+v", got, want)
			}
			if p.Free() != p.Size()-1 {
				t.Fatalf("free = %d after adoption, want %d", p.Free(), p.Size()-1)
			}

			// The same lease again is a no-op.
			if err := p.AdoptLease(adopted, deadline); err != nil {
				t.Fatalf("re-adoption: %v", err)
			}
			if got := p.Leases(); !reflect.DeepEqual(got, want) || p.Free() != p.Size()-1 {
				t.Fatalf("re-adoption changed the pool: leases %+v, free %d", got, p.Free())
			}
			// Another id onto the busy machine, or a machine outside the
			// pool, is refused.
			if err := p.AdoptLease(&Lease{ID: p.ID() + ":42:cafebabe", Machine: members[1]}, deadline); err == nil {
				t.Error("adopting a second lease onto a busy machine succeeded")
			}
			if err := p.AdoptLease(&Lease{ID: p.ID() + ":43:0badf00d", Machine: "no-such-machine"}, deadline); err == nil {
				t.Error("adopting a lease onto a non-member succeeded")
			}
			if got := p.Leases(); !reflect.DeepEqual(got, want) || p.Free() != p.Size()-1 {
				t.Fatalf("a refused adoption changed the pool: leases %+v, free %d", got, p.Free())
			}

			// Fresh grants mint above the adopted sequence.
			l, err := p.Allocate(sunQuery(t))
			if err != nil {
				t.Fatal(err)
			}
			if seq, ok := leaseSeq(l.ID); !ok || seq <= 41 {
				t.Errorf("grant after adoption minted %q, want a sequence above 41", l.ID)
			}
			if l.Machine == members[1] {
				t.Errorf("granted the adopted machine %s", l.Machine)
			}

			// Releasing the adopted lease frees its machine, once.
			if err := p.Release(adopted.ID); err != nil {
				t.Fatal(err)
			}
			if err := p.Release(adopted.ID); !errors.Is(err, ErrUnknownLease) {
				t.Errorf("second release = %v, want ErrUnknownLease", err)
			}
			l2, err := p.Allocate(sunQuery(t))
			if err != nil {
				t.Fatalf("adopted machine not returned: %v", err)
			}
			if l2.Machine == l.Machine {
				t.Errorf("granted %s twice", l2.Machine)
			}
			for _, id := range []string{l.ID, l2.ID} {
				if err := p.Release(id); err != nil {
					t.Fatal(err)
				}
			}
			if p.Free() != p.Size() || len(p.Leases()) != 0 {
				t.Errorf("free = %d, leases %+v after draining", p.Free(), p.Leases())
			}
		})
	}
}
