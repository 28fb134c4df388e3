package core

import (
	"testing"
	"time"

	"actyp/internal/registry"
)

// TestLeaseTTLReapsCrashedClients verifies the end-to-end crash-recovery
// path: a grant that is never released (a crashed desktop) is reclaimed by
// the background reaper and its machine becomes allocatable again.
func TestLeaseTTLReapsCrashedClients(t *testing.T) {
	db := registry.NewDB()
	if err := registry.HomogeneousFleetSpec(1).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	svc, err := New(Options{
		DB:           db,
		LeaseTTL:     20 * time.Millisecond,
		ReapInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.Reaper() == nil {
		t.Fatal("reaper not started")
	}

	// The "crashing" client takes the only machine and vanishes.
	if _, err := svc.Request("punch.rsrc.arch = sun"); err != nil {
		t.Fatal(err)
	}
	// A second request fails while the lease is live...
	if _, err := svc.Request("punch.rsrc.arch = sun"); err == nil {
		t.Fatal("machine should be busy before expiry")
	}
	// ...and succeeds once the reaper reclaims the expired lease.
	deadline := time.Now().Add(3 * time.Second)
	for {
		g, err := svc.Request("punch.rsrc.arch = sun")
		if err == nil {
			if svc.Reaper().Reaped() == 0 {
				t.Error("reaper counter did not move")
			}
			if err := svc.Release(g); err != nil {
				t.Fatal(err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("expired lease never reclaimed")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLeaseTTLDisabledByDefault pins that services without a TTL never
// reap.
func TestLeaseTTLDisabledByDefault(t *testing.T) {
	s := fleetService(t, 2)
	if s.Reaper() != nil {
		t.Error("reaper should not exist without LeaseTTL")
	}
}

// reapNow builds a service over n homogeneous machines whose leases expire
// as soon as they are granted and whose reaper never sweeps on its own:
// the test reaps with Reaper().Sweep(), so nothing races it.
func reapNow(t *testing.T, n int, mut ...func(*Options)) *Service {
	t.Helper()
	return homogService(t, n, append([]func(*Options){func(o *Options) {
		o.LeaseTTL = time.Nanosecond
		o.ReapInterval = time.Hour
	}}, mut...)...)
}

// TestReapFreesShadowAccount: a reaped lease gives its shadow account
// back, so clients that never release cannot exhaust a machine's accounts.
func TestReapFreesShadowAccount(t *testing.T) {
	svc := reapNow(t, 1, func(o *Options) { o.ShadowAccounts = 2 })
	for i := 0; i < 3; i++ {
		if _, err := svc.Request("punch.rsrc.arch = sun"); err != nil {
			t.Fatalf("grant %d: %v", i, err)
		}
		if n := svc.Reaper().Sweep(); n != 1 {
			t.Fatalf("sweep %d reaped %d leases, want 1", i, n)
		}
	}
	g, err := svc.Request("punch.rsrc.arch = sun")
	if err != nil {
		t.Fatalf("fourth grant after three reaps: %v", err)
	}
	if free := svc.shadows.Free(g.Lease.Machine); free != 1 {
		t.Errorf("%d accounts free with one grant live, want 1", free)
	}
}

// TestSplitReapsParentLease: a lease granted before a split stays with the
// retired parent, and the reaper still reaches it there: the sweep ends the
// lease in the lease log and frees its shadow account, and only then does
// the factory forget the parent.
func TestSplitReapsParentLease(t *testing.T) {
	const crit = "punch.rsrc.arch = sun"
	log := &countingLog{}
	svc := reapNow(t, 4, func(o *Options) {
		o.ShadowAccounts = 2
		o.LeaseLog = log
	})
	if err := svc.Precreate(crit); err != nil {
		t.Fatal(err)
	}
	g, err := svc.Request(crit)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.SplitPool(crit, 2); err != nil {
		t.Fatal(err)
	}
	if n := len(svc.factory.Pools()); n != 3 {
		t.Fatalf("factory lists %d pools with the parent's lease live, want the parent and 2 children", n)
	}
	if n := svc.Reaper().Sweep(); n != 1 {
		t.Fatalf("sweep reaped %d leases, want the parent's 1", n)
	}
	if got := log.released.Load(); got != 1 {
		t.Errorf("lease log saw %d releases, want 1", got)
	}
	if free := svc.shadows.Free(g.Lease.Machine); free != 2 {
		t.Errorf("%s has %d free accounts after the reap, want 2", g.Lease.Machine, free)
	}
	if n := len(svc.factory.Pools()); n != 2 {
		t.Errorf("factory lists %d pools after the parent's last lease ended, want 2", n)
	}
}

// TestReleaseFreesOwnAccount: Release frees the account recorded for the
// lease, whatever account the client's grant names.
func TestReleaseFreesOwnAccount(t *testing.T) {
	svc := homogService(t, 2)
	g1, err := svc.Request("punch.rsrc.arch = sun")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := svc.Request("punch.rsrc.arch = sun")
	if err != nil {
		t.Fatal(err)
	}
	forged := &Grant{Lease: g1.Lease, Shadow: g2.Shadow}
	if err := svc.Release(forged); err != nil {
		t.Fatal(err)
	}
	if free := svc.shadows.Free(g1.Lease.Machine); free != 8 {
		t.Errorf("released grant's machine %s has %d free accounts, want 8", g1.Lease.Machine, free)
	}
	if free := svc.shadows.Free(g2.Lease.Machine); free != 7 {
		t.Errorf("live grant's machine %s has %d free accounts, want 7", g2.Lease.Machine, free)
	}
	if err := svc.Release(g2); err != nil {
		t.Fatal(err)
	}
	if free := svc.shadows.Free(g2.Lease.Machine); free != 8 {
		t.Errorf("after both releases %s has %d free accounts, want 8", g2.Lease.Machine, free)
	}
}
