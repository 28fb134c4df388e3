package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"actyp/internal/policy"
	"actyp/internal/pool"
	"actyp/internal/registry"
)

func homogService(t testing.TB, n int, mut ...func(*Options)) *Service {
	t.Helper()
	db := registry.NewDB()
	if err := registry.HomogeneousFleetSpec(n).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	opts := Options{DB: db}
	for _, f := range mut {
		f(&opts)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestPrecreate(t *testing.T) {
	s := homogService(t, 8)
	if err := s.Precreate("punch.rsrc.arch = sun"); err != nil {
		t.Fatal(err)
	}
	if s.Directory().Instances() != 1 {
		t.Errorf("instances = %d", s.Directory().Instances())
	}
	// Idempotent.
	if err := s.Precreate("punch.rsrc.arch = sun"); err != nil {
		t.Fatal(err)
	}
	if s.Directory().Instances() != 1 {
		t.Errorf("precreate duplicated the pool")
	}
	if err := s.Precreate("not a query"); err == nil {
		t.Error("bad criteria should fail")
	}
}

func TestStripeAndWarmPools(t *testing.T) {
	s := homogService(t, 12)
	if err := s.StripePools(4); err != nil {
		t.Fatal(err)
	}
	if err := s.StripePools(0); err == nil {
		t.Error("zero stripes should fail")
	}
	if err := s.WarmPools(4); err != nil {
		t.Fatal(err)
	}
	sizes := s.PoolSizes()
	if len(sizes) != 4 {
		t.Fatalf("pool sizes = %v", sizes)
	}
	for inst, size := range sizes {
		if size != 3 {
			t.Errorf("pool %s size = %d, want 3", inst, size)
		}
	}
	// Queries against each stripe allocate from disjoint machine sets.
	seen := map[string]bool{}
	for k := 0; k < 4; k++ {
		g, err := s.Request(fmt.Sprintf("punch.rsrc.pool = %d", k))
		if err != nil {
			t.Fatalf("stripe %d: %v", k, err)
		}
		if seen[g.Lease.Machine] {
			t.Errorf("machine %s served two stripes", g.Lease.Machine)
		}
		seen[g.Lease.Machine] = true
		if err := s.Release(g); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSplitPool(t *testing.T) {
	s := homogService(t, 12)
	crit := "punch.rsrc.arch = sun"
	if err := s.SplitPool(crit, 2); err == nil {
		t.Error("splitting a non-existent pool should fail")
	}
	if err := s.Precreate(crit); err != nil {
		t.Fatal(err)
	}
	if err := s.SplitPool(crit, 4); err != nil {
		t.Fatal(err)
	}
	sizes := s.PoolSizes()
	if len(sizes) != 4 {
		t.Fatalf("after split: %v", sizes)
	}
	for inst, size := range sizes {
		if size != 3 {
			t.Errorf("child %s size = %d", inst, size)
		}
	}
	// Allocation still works and covers all children.
	var grants []*Grant
	for i := 0; i < 12; i++ {
		g, err := s.Request(crit)
		if err != nil {
			t.Fatalf("request %d after split: %v", i, err)
		}
		grants = append(grants, g)
	}
	seen := map[string]bool{}
	for _, g := range grants {
		if seen[g.Lease.Machine] {
			t.Errorf("machine %s double-leased after split", g.Lease.Machine)
		}
		seen[g.Lease.Machine] = true
		if err := s.Release(g); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 12 {
		t.Errorf("split pools served %d machines, want 12", len(seen))
	}
	// Splitting again fails: more than one instance now exists.
	if err := s.SplitPool(crit, 2); err == nil {
		t.Error("splitting a split pool should fail")
	}
}

func TestReplicatePool(t *testing.T) {
	s := homogService(t, 8)
	crit := "punch.rsrc.arch = sun"
	if err := s.ReplicatePool(crit, 2); err == nil {
		t.Error("replicating a non-existent pool should fail")
	}
	if err := s.Precreate(crit); err != nil {
		t.Fatal(err)
	}
	if err := s.ReplicatePool(crit, 0); err == nil {
		t.Error("zero replicas should fail")
	}
	if err := s.ReplicatePool(crit, 3); err != nil {
		t.Fatal(err)
	}
	sizes := s.PoolSizes()
	if len(sizes) != 3 {
		t.Fatalf("after replicate: %v", sizes)
	}
	// Replicas share the full machine set.
	for inst, size := range sizes {
		if size != 8 {
			t.Errorf("replica %s size = %d, want 8", inst, size)
		}
	}
	// Replicas do not share allocation state — the instance bias is the
	// paper's (approximate) integrity mechanism, and machines are
	// timeshared. Assert that requests succeed and spread widely, and
	// that no single replica double-leases a machine.
	seen := map[string]bool{}
	perPool := map[string]map[string]bool{}
	var grants []*Grant
	for i := 0; i < 8; i++ {
		g, err := s.Request(crit)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if perPool[g.Lease.Pool] == nil {
			perPool[g.Lease.Pool] = map[string]bool{}
		}
		if perPool[g.Lease.Pool][g.Lease.Machine] {
			t.Errorf("replica %s double-leased %s", g.Lease.Pool, g.Lease.Machine)
		}
		perPool[g.Lease.Pool][g.Lease.Machine] = true
		seen[g.Lease.Machine] = true
		grants = append(grants, g)
	}
	if len(seen) < 5 {
		t.Errorf("bias spread allocations over only %d machines", len(seen))
	}
	for _, g := range grants {
		if err := s.Release(g); err != nil {
			t.Fatal(err)
		}
	}
}

// countingLog counts lease transitions (a stand-in for the journal).
type countingLog struct{ granted, released atomic.Int64 }

func (l *countingLog) LeaseGranted(*pool.Lease, time.Time) { l.granted.Add(1) }
func (l *countingLog) LeaseReleased(string)                { l.released.Add(1) }
func (l *countingLog) LeaseRenewed(string, time.Time)      {}

// TestSplitKeepsNodeSettings: split children and replicas are built with
// the node's pool settings, so their grants reach the lease log, expire
// under the lease TTL, and obey the usage policies. m0000 of four carries
// a policy that refuses public users.
func TestSplitKeepsNodeSettings(t *testing.T) {
	const criteria = "punch.rsrc.arch = sun"
	const public = criteria + "\npunch.user.accessgroup = public"
	for _, tc := range []struct {
		name   string
		reform func(*Service) error
		grants int // public grants before the fleet starves
	}{
		{"split", func(s *Service) error { return s.SplitPool(criteria, 2) }, 3},
		{"replicate", func(s *Service) error { return s.ReplicatePool(criteria, 2) }, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			machines, err := registry.HomogeneousFleetSpec(4).Build(time.Unix(0, 0))
			if err != nil {
				t.Fatal(err)
			}
			machines[0].Policy.UsagePolicy = "/punch/policies/public-threshold"
			machines[0].Dynamic.Load = 1.5
			db := registry.NewDB()
			for _, m := range machines {
				if err := db.Add(m); err != nil {
					t.Fatal(err)
				}
			}
			store := policy.NewStore()
			if err := store.Register("/punch/policies/public-threshold",
				"deny if group == public && load >= 0.5\nallow"); err != nil {
				t.Fatal(err)
			}
			log := &countingLog{}
			svc, err := New(Options{DB: db, Policies: store, LeaseLog: log,
				LeaseTTL: time.Nanosecond, ReapInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			if err := svc.Precreate(criteria); err != nil {
				t.Fatal(err)
			}
			if err := tc.reform(svc); err != nil {
				t.Fatal(err)
			}
			granted := 0
			for ; granted <= tc.grants; granted++ {
				g, err := svc.Request(public)
				if err != nil {
					break
				}
				if g.Lease.Machine == "m0000" {
					t.Fatalf("public grant %d landed on m0000, which the policy refuses", granted)
				}
			}
			if granted != tc.grants {
				t.Fatalf("%d public grants, want %d", granted, tc.grants)
			}
			if got := log.granted.Load(); got != int64(tc.grants) {
				t.Errorf("lease log saw %d grants, want %d", got, tc.grants)
			}
			if n := svc.Reaper().Sweep(); n != tc.grants {
				t.Errorf("sweep reaped %d leases, want %d", n, tc.grants)
			}
			if got := log.released.Load(); got != int64(tc.grants) {
				t.Errorf("lease log saw %d releases, want %d", got, tc.grants)
			}
			if _, err := svc.Request(public); err != nil {
				t.Errorf("public request after the reap: %v", err)
			}
		})
	}
}

// TestDropDomainRebuildsSpanningPool: dropping a domain closes a pool that
// spans it and others, and the next query rebuilds a pool over the
// machines of the domain that stayed.
func TestDropDomainRebuildsSpanningPool(t *testing.T) {
	const crit = "punch.rsrc.memory = >=0"
	s := fleetService(t, 8)
	if err := s.Precreate(crit); err != nil {
		t.Fatal(err)
	}
	exp, err := s.ExportDomain("purdue", 3)
	if err != nil {
		t.Fatal(err)
	}
	if dropped := s.DropDomain(exp); dropped != 4 {
		t.Fatalf("dropped %d records, want 4", dropped)
	}
	if sizes := s.PoolSizes(); len(sizes) != 0 {
		t.Errorf("closed pools still registered: %v", sizes)
	}
	g, err := s.Request(crit)
	if err != nil {
		t.Fatalf("request after the drop: %v", err)
	}
	if _, err := s.db.View(g.Lease.Machine); err != nil {
		t.Fatalf("granted %s of the dropped domain: %v", g.Lease.Machine, err)
	}
	if err := s.Release(g); err != nil {
		t.Fatal(err)
	}
}

// TestDropDomainForgetsClosedPools: the factory lists only open pools, so
// neither a split parent nor a dropped domain's pools linger in it.
func TestDropDomainForgetsClosedPools(t *testing.T) {
	const crit = "punch.rsrc.arch = sun"
	s := homogService(t, 8)
	if err := s.Precreate(crit); err != nil {
		t.Fatal(err)
	}
	if err := s.SplitPool(crit, 2); err != nil {
		t.Fatal(err)
	}
	if n := len(s.factory.Pools()); n != 2 {
		t.Fatalf("after split the factory lists %d pools, want the 2 children", n)
	}
	exp, err := s.ExportDomain("purdue", 0)
	if err != nil {
		t.Fatal(err)
	}
	if dropped := s.DropDomain(exp); dropped != 8 {
		t.Fatalf("dropped %d records, want 8", dropped)
	}
	for _, p := range s.factory.Pools() {
		t.Errorf("factory still lists pool %s (closed %v)", p.ID(), p.Closed())
	}
}
