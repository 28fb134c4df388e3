package core

import (
	"testing"
	"time"

	"actyp/internal/netsim"
	"actyp/internal/registry"
)

func TestRenewKeepsLeaseAlive(t *testing.T) {
	db := registry.NewDB()
	if err := registry.HomogeneousFleetSpec(1).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	svc, err := New(Options{
		DB:           db,
		LeaseTTL:     40 * time.Millisecond,
		ReapInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	g, err := svc.Request("punch.rsrc.arch = sun")
	if err != nil {
		t.Fatal(err)
	}
	// Heartbeat well past the original TTL.
	deadline := time.Now().Add(150 * time.Millisecond)
	for time.Now().Before(deadline) {
		if err := svc.Renew(g); err != nil {
			t.Fatalf("renew failed mid-run: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Still ours: release succeeds.
	if err := svc.Release(g); err != nil {
		t.Fatalf("release after renewals: %v", err)
	}

	// Errors: nil grant and unknown pool.
	if err := svc.Renew(nil); err == nil {
		t.Error("nil grant should fail")
	}
	g.Lease.Pool = "ghost"
	if err := svc.Renew(g); err == nil {
		t.Error("unknown pool should fail")
	}
}

func TestRenewOverTCP(t *testing.T) {
	db := registry.NewDB()
	if err := registry.HomogeneousFleetSpec(2).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	svc, err := New(Options{DB: db, LeaseTTL: time.Minute})
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

	g, err := c.Request("punch.rsrc.arch = sun")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Renew(g); err != nil {
		t.Fatalf("renew over tcp: %v", err)
	}
	if err := c.Release(g); err != nil {
		t.Fatal(err)
	}
	// Renewing a released lease fails.
	if err := c.Renew(g); err == nil {
		t.Error("renew after release should fail")
	}
	if err := c.Renew(nil); err == nil {
		t.Error("nil grant should fail")
	}
}

// TestRequestRenewReleaseAllocs pins the allocations of one lease cycle
// through the service: the query manager answers a text it has compiled
// before from its cache, a one-fragment query resolves on the caller's
// goroutine, its pool name is derived without splitting keys, and a query
// resolved where it was submitted builds no visited set. The cycle took 53
// allocations when every query ran on a fragment goroutine, and 31 when
// every request parsed and decomposed its text again; it takes 14.
func TestRequestRenewReleaseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	db := registry.NewDB()
	if err := registry.HomogeneousFleetSpec(16).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	svc, err := New(Options{DB: db, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var cycleErr error
	cycle := func() {
		g, err := svc.Request("punch.rsrc.arch = sun")
		if err == nil {
			err = svc.Renew(g)
			if rerr := svc.Release(g); err == nil {
				err = rerr
			}
		}
		if err != nil && cycleErr == nil {
			cycleErr = err
		}
	}
	allocs := testing.AllocsPerRun(200, cycle)
	if cycleErr != nil {
		t.Fatal(cycleErr)
	}
	const want = 16
	if allocs > want {
		t.Errorf("Request+Renew+Release: %.0f allocations, want at most %d", allocs, want)
	}
	t.Logf("Request+Renew+Release: %.0f allocations", allocs)
}
