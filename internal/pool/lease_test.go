package pool

import (
	"errors"
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
	p, err := New(Config{Name: sunName(t), DB: db, Exclusive: true, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	p.SetLeaseTTL(time.Minute)
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

// TestRenewWithTTLDisabledKeepsDeadline pins a subtlety: renewing while
// expiry is administratively disabled must not erase a deadline granted
// earlier, or the lease would dodge the reaper forever once expiry is
// re-enabled.
func TestRenewWithTTLDisabledKeepsDeadline(t *testing.T) {
	for _, engine := range []string{EngineOracle, EngineIndexed} {
		t.Run("engine="+engine, func(t *testing.T) {
			db := fleetDB(t, 1)
			clk := &fakeClock{now: time.Unix(0, 0)}
			p := newSunPool(t, db, func(c *Config) {
				c.Engine = engine
				c.Clock = clk.Now
				c.LeaseTTL = time.Minute
			})
			l, err := p.Allocate(sunQuery(t))
			if err != nil {
				t.Fatal(err)
			}
			p.SetLeaseTTL(0)
			if err := p.Renew(l.ID); err != nil { // validity check only
				t.Fatal(err)
			}
			p.SetLeaseTTL(time.Minute)
			clk.Advance(2 * time.Minute)
			if got := p.Reap(); len(got) != 1 || got[0] != l.ID {
				t.Errorf("reap = %v, want the original deadline to stand", got)
			}
		})
	}
}

func TestReaperSweepsAllPools(t *testing.T) {
	db := fleetDB(t, 4)
	clk := &fakeClock{now: time.Unix(0, 0)}
	mk := func(members []string) *Pool {
		p, err := New(Config{Name: sunName(t), DB: db, Members: members, Clock: clk.Now})
		if err != nil {
			t.Fatal(err)
		}
		p.SetLeaseTTL(time.Second)
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
	p, err := New(Config{Name: sunName(t), DB: db, Exclusive: true, Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	p.SetLeaseTTL(time.Second)
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
