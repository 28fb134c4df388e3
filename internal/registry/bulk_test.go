package registry

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"actyp/internal/query"
)

// TestBulkLoadDifferential holds AddOwnedAll on the sharded engine to two
// references: the same batches inserted one AddOwned at a time into a
// second sharded store, and AddOwnedAll on the single-lock oracle. Batches
// are random records named m0000 to m19999, so past m9999 names sort
// between m1000 and m1001, and they land on stores that already hold
// records, some removed between batches, so shards both start empty and
// merge. Some batches are refused, for a name given twice, a name the
// store holds, or an invalid record, and must leave every store as it was
// and publish nothing; an accepted one publishes each name's EventAdded
// exactly once. After every batch the three stores read and save alike, so
// a refused batch changed none of them, and the shards' bookkeeping holds.
func TestBulkLoadDifferential(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			shards := 1 + rng.Intn(8)
			bulk, loop, oracle := NewSharded(shards), NewSharded(shards), NewLocked()
			sub := bulk.Watch(1 << 16)
			defer sub.Close()
			var refused, accepted int
			for round := 0; round < 16; round++ {
				batch, ok := bulkBatch(rng, oracle)
				errBulk := bulk.AddOwnedAll(cloneAll(batch))
				errOracle := oracle.AddOwnedAll(cloneAll(batch))
				if (errBulk == nil) != ok || (errOracle == nil) != ok {
					t.Fatalf("round %d: batch acceptable %v, sharded err %v, oracle err %v", round, ok, errBulk, errOracle)
				}
				evs, resync := sub.Poll()
				if resync {
					t.Fatalf("round %d: resync", round)
				}
				if !ok {
					// The one-at-a-time store skips a refused batch, so
					// the state comparisons below find any change.
					refused++
					if len(evs) != 0 {
						t.Fatalf("round %d: refused batch published %d events", round, len(evs))
					}
				} else {
					accepted++
					for _, m := range batch {
						if err := loop.AddOwned(m.Clone()); err != nil {
							t.Fatalf("round %d: one at a time: %v", round, err)
						}
					}
					seen := map[string]int{}
					for _, ev := range evs {
						if ev.Kind != EventAdded {
							t.Fatalf("round %d: published %v", round, ev.Kind)
						}
						seen[ev.Name]++
					}
					for _, m := range batch {
						if seen[m.Static.Name] != 1 {
							t.Fatalf("round %d: %s added, seen %d times", round, m.Static.Name, seen[m.Static.Name])
						}
					}
					if len(seen) != len(batch) {
						t.Fatalf("round %d: %d names published for a batch of %d", round, len(seen), len(batch))
					}
				}
				compareState(t, round, oracle, bulk)
				compareState(t, round, oracle, loop)
				for _, s := range []*Sharded{bulk, loop} {
					if err := s.checkInvariants(); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
				}
				for i := 0; i < 4; i++ {
					conds := query.CompileRsrc(diffQuery(rng))
					c := Cursor{Limit: rng.Intn(20) - 1, Total: true}
					want, wantTotal := oracle.Page(conds, c)
					for _, s := range []*Sharded{bulk, loop} {
						got, total := s.Page(conds, c)
						if !sameNames(machineNames(got), machineNames(want)) || total != wantTotal {
							t.Fatalf("round %d: Page(%v) = %v (%d), oracle %v (%d)", round, conds, machineNames(got), total, machineNames(want), wantTotal)
						}
					}
				}
				// Remove a few, so later batches merge into shards with holes.
				names := oracle.Names()
				for i := 0; i < 3 && len(names) > 0; i++ {
					name := names[rng.Intn(len(names))]
					e1, e2, e3 := oracle.Remove(name), bulk.Remove(name), loop.Remove(name)
					if (e1 == nil) != (e2 == nil) || (e1 == nil) != (e3 == nil) {
						t.Fatalf("round %d: Remove(%s): %v, %v, %v", round, name, e1, e2, e3)
					}
				}
				sub.Poll()
			}
			if refused == 0 || accepted == 0 {
				t.Fatalf("%d batches refused and %d accepted: both paths must run", refused, accepted)
			}
		})
	}

	// The generated fleet past m9999, through Populate, against the oracle
	// filled a record at a time.
	t.Run("fleet", func(t *testing.T) {
		if raceEnabled {
			t.Skip("serial: the concurrent case below is the one for the race detector")
		}
		t.Parallel()
		spec := DefaultFleetSpec(10100)
		now := time.Unix(1000000000, 0).UTC()
		bulk := NewSharded(4)
		if err := spec.Populate(NewDBWith(bulk), now); err != nil {
			t.Fatal(err)
		}
		oracle := NewLocked()
		if err := spec.Each(now, oracle.AddOwned); err != nil {
			t.Fatal(err)
		}
		compareState(t, 0, oracle, bulk)
		if err := bulk.checkInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := spec.Populate(NewDBWith(bulk), now); err == nil {
			t.Fatal("the fleet added twice was accepted")
		}
	})

	// Batches beside readers and single-record writers on other names (run
	// under -race in CI): every batch lands whole, and the store ends as the
	// oracle that ran the same writes serially.
	t.Run("concurrent", func(t *testing.T) {
		t.Parallel()
		rng := rand.New(rand.NewSource(9))
		bulk, oracle := NewSharded(8), NewLocked()
		var batches [][]*Machine
		for b := 0; b < 6; b++ {
			var batch []*Machine
			for i := 0; i < 200; i++ {
				batch = append(batch, diffMachine(rng, fmt.Sprintf("b%d-%05d", b, rng.Intn(100000)*10+i%10)))
			}
			batch = dedupNames(batch)
			batches = append(batches, batch)
		}
		var singles []*Machine
		for i := 0; i < 300; i++ {
			singles = append(singles, diffMachine(rng, fmt.Sprintf("s%04d", i)))
		}
		stop := make(chan struct{})
		var readers, writers sync.WaitGroup
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				bulk.Page(query.CompileRsrc(sunArch()), Cursor{Limit: 16, Total: true})
				taken := bulk.Take(sunArch(), "p", 4)
				bulk.Release("p", machineNames(taken)...)
			}
		}()
		writers.Add(2)
		go func() {
			defer writers.Done()
			for _, b := range batches {
				if err := bulk.AddOwnedAll(cloneAll(b)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer writers.Done()
			for _, m := range singles {
				if err := bulk.AddOwned(m.Clone()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		writers.Wait()
		close(stop)
		readers.Wait()
		for _, b := range batches {
			if err := oracle.AddOwnedAll(cloneAll(b)); err != nil {
				t.Fatal(err)
			}
		}
		if err := oracle.AddOwnedAll(cloneAll(singles)); err != nil {
			t.Fatal(err)
		}
		compareState(t, 0, oracle, bulk)
		if err := bulk.checkInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// bulkBatch draws a batch of fresh records named m0000..m19999 and, now and
// then, spoils it: a name given twice, a name the store holds, or an
// invalid record. ok reports whether the batch should be accepted.
func bulkBatch(rng *rand.Rand, store Backend) (batch []*Machine, ok bool) {
	n := rng.Intn(60)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("m%04d", rng.Intn(20000))
		if store.Has(name) {
			continue
		}
		m := diffMachine(rng, name)
		if rng.Intn(4) == 0 { // an indexed list naming one member twice
			m.Policy.Params = m.Policy.Params.With("license", query.ListAttr("spice", "spice", "matlab"))
		}
		batch = append(batch, m)
	}
	batch = dedupNames(batch)
	switch rng.Intn(6) {
	case 0:
		if len(batch) > 0 {
			dup := batch[rng.Intn(len(batch))].Clone()
			return append(batch, dup), false
		}
	case 1:
		if names := store.Names(); len(names) > 0 {
			return append(batch, diffMachine(rng, names[rng.Intn(len(names))])), false
		}
	case 2:
		bad := diffMachine(rng, fmt.Sprintf("m%04d", 20000+rng.Intn(100)))
		bad.Static.CPUs = 0
		at := rng.Intn(len(batch) + 1)
		return append(batch[:at], append([]*Machine{bad}, batch[at:]...)...), false
	}
	return batch, true
}

// dedupNames keeps the first record of each name.
func dedupNames(ms []*Machine) []*Machine {
	seen := map[string]bool{}
	out := ms[:0]
	for _, m := range ms {
		if !seen[m.Static.Name] {
			seen[m.Static.Name] = true
			out = append(out, m)
		}
	}
	return out
}

func cloneAll(ms []*Machine) []*Machine {
	out := make([]*Machine, len(ms))
	for i, m := range ms {
		out[i] = m.Clone()
	}
	return out
}

func sunArch() *query.Query {
	q := query.New()
	q.Set("punch.rsrc.arch", query.Eq("sun"))
	return q
}
