package core

import (
	"testing"
	"time"

	"actyp/internal/registry"
)

// TestEventDispatchFoldsMonitorUpdates verifies the self-optimizing loop
// end to end: the monitor writes fresh loads to the white pages, the
// change-stream dispatcher folds them into the pool cache, and scheduling
// decisions follow.
func TestEventDispatchFoldsMonitorUpdates(t *testing.T) {
	db := registry.NewDB()
	if err := registry.HomogeneousFleetSpec(2).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	svc, err := New(Options{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.Events() == nil {
		t.Fatal("the service built no dispatcher")
	}
	if err := svc.Precreate("punch.rsrc.arch = sun"); err != nil {
		t.Fatal(err)
	}
	if got := svc.Events().Pools(); got != 1 {
		t.Fatalf("subscribed pools = %d, want 1", got)
	}

	m, err := db.Get("m0000")
	if err != nil {
		t.Fatal(err)
	}
	d := m.Dynamic
	d.Load = 3.5
	if err := db.UpdateDynamic("m0000", d); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(3 * time.Second)
	for {
		g, err := svc.Request("punch.rsrc.arch = sun")
		if err != nil {
			t.Fatal(err)
		}
		machine := g.Lease.Machine
		if err := svc.Release(g); err != nil {
			t.Fatal(err)
		}
		if machine == "m0001" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("scheduler kept choosing %s despite the load update", machine)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSplitReplicaResubscribe: split children and replicas take over the
// parent's change-stream subscription across the admin swap.
func TestSplitReplicaResubscribe(t *testing.T) {
	db := registry.NewDB()
	if err := registry.HomogeneousFleetSpec(8).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	svc, err := New(Options{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	const criteria = "punch.rsrc.arch = sun"
	if err := svc.Precreate(criteria); err != nil {
		t.Fatal(err)
	}
	if got := svc.Events().Pools(); got != 1 {
		t.Fatalf("after precreate: %d subscriptions, want 1", got)
	}
	if err := svc.SplitPool(criteria, 2); err != nil {
		t.Fatal(err)
	}
	if got := svc.Events().Pools(); got != 2 {
		t.Fatalf("after split: %d subscriptions, want 2 (children in, parent out)", got)
	}
}

func TestStatsAggregation(t *testing.T) {
	s := fleetService(t, 16)
	for i := 0; i < 3; i++ {
		g, err := s.Request("punch.rsrc.arch = sun | hp")
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Release(g); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Queries != 3 || st.Fragments != 6 {
		t.Errorf("queries/fragments = %d/%d", st.Queries, st.Fragments)
	}
	if st.Resolved < 6 || st.PoolsCreated != 2 || st.Pools != 2 {
		t.Errorf("resolved=%d created=%d pools=%d", st.Resolved, st.PoolsCreated, st.Pools)
	}
	if st.Machines != 16 {
		t.Errorf("machines = %d", st.Machines)
	}
}
