package registry

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"actyp/internal/query"
)

// TestStreamReplicaDifferential feeds a replica from the change stream
// alone, the way the wire watch and RemoteWatch do, while a seeded random
// mix of every mutation kind runs against the source: adds, removals,
// re-adds of removed names, monitor updates (single and batched, often of
// one machine several times between polls), state flips, parameter sets,
// takes and releases. It polls at random points, and after every poll the
// replica must equal the source. Some seeds use a ring small enough to
// overflow; there the resync marker re-baselines the replica through
// ReconcileSnapshot, as RemoteWatch does.
func TestStreamReplicaDifferential(t *testing.T) {
	for kind, mk := range watchBackends() {
		for seed := int64(1); seed <= 6; seed++ {
			ring := 4096
			if seed%3 == 0 {
				ring = 8
			}
			t.Run(fmt.Sprintf("%s/seed=%d/ring=%d", kind, seed, ring), func(t *testing.T) {
				streamReplicaRun(t, mk, seed, ring)
			})
		}
	}
}

func streamReplicaRun(t *testing.T, mk func() Backend, seed int64, ring int) {
	rng := rand.New(rand.NewSource(seed))
	src, rep := mk(), mk()
	var live, gone []string
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("r%03d", i)
		m := diffMachine(rng, name)
		if err := src.Add(m); err != nil {
			t.Fatal(err)
		}
		if err := rep.Add(m); err != nil {
			t.Fatal(err)
		}
		live = append(live, name)
	}
	sub := src.Watch(ring)
	defer sub.Close()

	pick := func(names []string) (string, int) {
		i := rng.Intn(len(names))
		return names[i], i
	}
	dynamic := func() Dynamic {
		return Dynamic{
			Load:       float64(rng.Intn(40)) / 10,
			ActiveJobs: rng.Intn(5),
			FreeMemory: float64(int(64) << uint(rng.Intn(5))),
			LastUpdate: time.Unix(1000000000+int64(rng.Intn(1000)), 0).UTC(),
		}
	}
	pools := []string{"pool#a", "pool#b"}
	next, polls, resyncs := len(live), 0, 0
	for step := 0; step < 600; step++ {
		switch op := rng.Intn(12); {
		case op == 0 && len(live) > 4:
			name, i := pick(live)
			if err := src.Remove(name); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
			gone = append(gone, name)
		case op == 1 && len(gone) > 0:
			name, i := pick(gone)
			if err := src.Add(diffMachine(rng, name)); err != nil {
				t.Fatal(err)
			}
			gone = append(gone[:i], gone[i+1:]...)
			live = append(live, name)
		case op == 2:
			name := fmt.Sprintf("r%03d", next)
			next++
			if err := src.Add(diffMachine(rng, name)); err != nil {
				t.Fatal(err)
			}
			live = append(live, name)
		case op <= 5:
			name, _ := pick(live)
			for n := 1 + rng.Intn(3); n > 0; n-- {
				if err := src.UpdateDynamic(name, dynamic()); err != nil {
					t.Fatal(err)
				}
			}
		case op == 6:
			batch := make([]DynamicUpdate, 1+rng.Intn(8))
			for i := range batch {
				batch[i] = DynamicUpdate{Name: live[rng.Intn(len(live))], Dynamic: dynamic()}
			}
			src.UpdateDynamicBatch(batch)
		case op == 7:
			name, _ := pick(live)
			if err := src.SetState(name, State(rng.Intn(3))); err != nil {
				t.Fatal(err)
			}
		case op == 8:
			name, _ := pick(live)
			if err := src.SetParam(name, "tag", query.NumAttr(float64(rng.Intn(3)))); err != nil {
				t.Fatal(err)
			}
		case op == 9:
			src.Take(diffQuery(rng), pools[rng.Intn(len(pools))], 1+rng.Intn(3))
		case op == 10:
			pool := pools[rng.Intn(len(pools))]
			if held := src.TakenBy(pool); len(held) > 0 {
				src.Release(pool, held[rng.Intn(len(held))])
			}
		default:
			src.ReleaseAll(pools[rng.Intn(len(pools))])
		}
		if rng.Intn(8) == 0 || step == 599 {
			polls++
			if streamReplicaPoll(t, src, rep, sub) {
				resyncs++
			}
			backendsEqual(t, src, rep)
		}
	}
	if ring < 64 && resyncs == 0 {
		t.Errorf("a %d-slot ring never overflowed in %d polls", ring, polls)
	}
}

// streamReplicaPoll drains sub into rep and reports whether it had to
// re-baseline from a snapshot of src.
func streamReplicaPoll(t *testing.T, src, rep Backend, sub *Subscription) bool {
	t.Helper()
	events, resync := sub.Poll()
	if !resync {
		ApplyWireEvents(rep, ResolveEvents(src, events, nil))
		return false
	}
	var snap []*Machine
	for _, name := range src.Names() {
		m, err := src.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		snap = append(snap, m)
	}
	ReconcileSnapshot(rep, snap)
	return true
}
