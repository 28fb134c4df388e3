package registry

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"actyp/internal/query"
)

// The differential test drives randomized operation sequences against the
// sharded engine and the single-lock oracle in lockstep, asserting that
// every return value and the full observable state stay identical — the
// shadow-oracle pattern of internal/shadow applied to the registry.

// diffMachine builds a deterministic machine for the differential tests.
// Some names are deliberately odd (commas promote to list attributes in
// StrAttr; unicode exercises the name hash).
func diffMachine(rng *rand.Rand, name string) *Machine {
	archs := []string{"sun", "hp", "alpha", "x86", ""}
	domains := []string{"purdue", "upc", "5.8"}
	oses := []string{"solaris", "hpux", "linux"}
	m := &Machine{
		State: State(rng.Intn(3)),
		Dynamic: Dynamic{
			Load:       float64(rng.Intn(40)) / 10,
			ActiveJobs: rng.Intn(5),
			FreeMemory: float64(int(64) << uint(rng.Intn(5))),
			LastUpdate: time.Unix(1000000000+int64(rng.Intn(1000)), 0).UTC(),
		},
		Static: Static{
			Speed:   100 + float64(rng.Intn(400)),
			CPUs:    1 + rng.Intn(8),
			MaxLoad: 1 + float64(rng.Intn(8)),
			Name:    name,
		},
		Policy: Policy{
			Params: query.NewParams(
				query.Param{Key: "arch", Attr: query.StrAttr(archs[rng.Intn(len(archs))])},
				query.Param{Key: "domain", Attr: query.StrAttr(domains[rng.Intn(len(domains))])},
				query.Param{Key: "ostype", Attr: query.StrAttr(oses[rng.Intn(len(oses))])},
				query.Param{Key: "cms", Attr: query.ListAttr("sge", "pbs")},
			),
		},
	}
	if rng.Intn(3) == 0 {
		m.Policy.UserGroups = []string{"ece", "cs"}[0:1]
	}
	if rng.Intn(4) == 0 {
		m.Policy.Params = m.Policy.Params.With("pool", query.NumAttr(float64(rng.Intn(4))))
	}
	return m
}

// diffQuery builds a random query mixing indexable equality/membership
// conditions, non-indexable numeric ranges, conditions on built-in
// attributes, wildcards, and conditions on absent attributes.
func diffQuery(rng *rand.Rand) *query.Query {
	q := query.New()
	add := func(key string, c query.Condition) {
		if rng.Intn(2) == 0 {
			q.Set(key, c)
		}
	}
	add("punch.rsrc.arch", []query.Condition{
		query.Eq("sun"), query.Eq("hp"), query.Ne("sun"),
		query.In("sun", "x86"), query.Eq(""), query.Any(),
	}[rng.Intn(6)])
	add("punch.rsrc.domain", []query.Condition{
		query.Eq("purdue"), query.Eq("5.8"), query.EqNum(5.8),
	}[rng.Intn(3)])
	add("punch.rsrc.ostype", query.In("solaris", "linux"))
	add("punch.rsrc.speed", []query.Condition{
		query.Ge(float64(100 + rng.Intn(300))), query.Lt(300), query.Between(150, 450),
	}[rng.Intn(3)])
	add("punch.rsrc.load", query.Le(float64(rng.Intn(4))))
	add("punch.rsrc.pool", query.EqNum(float64(rng.Intn(4))))
	add("punch.rsrc.cms", query.Eq("sge"))
	add("punch.rsrc.usergroup", query.Eq("ece"))
	add("punch.rsrc.nosuchattr", query.Eq("x"))
	add("punch.rsrc.name", query.Eq(fmt.Sprintf("d%03d", rng.Intn(40))))
	return q
}

func machineNames(ms []*Machine) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Static.Name
	}
	return out
}

func sameNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// compareState asserts the two backends serialize to identical snapshots.
func compareState(t *testing.T, step int, oracle, subject Backend) {
	t.Helper()
	var a, b bytes.Buffer
	if err := oracle.Save(&a); err != nil {
		t.Fatalf("step %d: oracle save: %v", step, err)
	}
	if err := subject.Save(&b); err != nil {
		t.Fatalf("step %d: subject save: %v", step, err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("step %d: states diverged\noracle:\n%s\nsubject:\n%s", step, a.String(), b.String())
	}
}

func TestDifferentialShardedVsLocked(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			oracle := Backend(NewLocked())
			subject := NewSharded(1 + rng.Intn(64))
			pools := []string{"pool-a", "pool-b", "pool-c"}
			names := make([]string, 40)
			for i := range names {
				names[i] = fmt.Sprintf("d%03d", i)
			}
			names = append(names, "węird-ñame", "has,comma", "")

			// Every view the subject hands out (View, Take, a Shared page)
			// is kept beside a deep copy made on the spot: whatever the
			// later operations do to the record, the view must still read
			// as it did then.
			type heldView struct{ view, asRead *Machine }
			var held []heldView
			hold := func(views ...*Machine) {
				for _, v := range views {
					held = append(held, heldView{v, v.Clone()})
				}
			}
			checkHeld := func(step int) {
				t.Helper()
				for _, h := range held {
					if !machineEqual(h.view, h.asRead) {
						t.Fatalf("step %d: a view of %q changed after it was read:\nnow:     %+v\nas read: %+v",
							step, h.asRead.Static.Name, h.view, h.asRead)
					}
				}
				held = held[:0]
			}

			steps := 3000
			if testing.Short() {
				steps = 600
			}
			for step := 0; step < steps; step++ {
				name := names[rng.Intn(len(names))]
				pool := pools[rng.Intn(len(pools))]
				switch op := rng.Intn(16); op {
				case 0, 1: // Add
					mrng := rand.New(rand.NewSource(rng.Int63()))
					m := diffMachine(mrng, name)
					e1, e2 := oracle.Add(m), subject.Add(m.Clone())
					if (e1 == nil) != (e2 == nil) {
						t.Fatalf("step %d: Add(%q): oracle err %v, subject err %v", step, name, e1, e2)
					}
				case 2: // Remove
					e1, e2 := oracle.Remove(name), subject.Remove(name)
					if (e1 == nil) != (e2 == nil) {
						t.Fatalf("step %d: Remove(%q): %v vs %v", step, name, e1, e2)
					}
				case 3: // SetState
					st := State(rng.Intn(3))
					e1, e2 := oracle.SetState(name, st), subject.SetState(name, st)
					if (e1 == nil) != (e2 == nil) {
						t.Fatalf("step %d: SetState(%q): %v vs %v", step, name, e1, e2)
					}
				case 4: // UpdateDynamic
					d := Dynamic{Load: float64(rng.Intn(50)) / 10, ActiveJobs: rng.Intn(9),
						FreeMemory: float64(rng.Intn(2048)), LastUpdate: time.Unix(1000001000+int64(step), 0).UTC()}
					e1, e2 := oracle.UpdateDynamic(name, d), subject.UpdateDynamic(name, d)
					if (e1 == nil) != (e2 == nil) {
						t.Fatalf("step %d: UpdateDynamic(%q): %v vs %v", step, name, e1, e2)
					}
				case 5: // SetParam, indexed and non-indexed keys, changing values
					keys := []string{"arch", "domain", "pool", "customkey", "license"}
					key := keys[rng.Intn(len(keys))]
					var attr query.Attr
					switch rng.Intn(3) {
					case 0:
						attr = query.StrAttr([]string{"sun", "hp", "x86", "5.8", ""}[rng.Intn(5)])
					case 1:
						attr = query.NumAttr(float64(rng.Intn(6)))
					default:
						attr = query.ListAttr("tsuprem4", "spice")
					}
					e1, e2 := oracle.SetParam(name, key, attr), subject.SetParam(name, key, attr)
					if (e1 == nil) != (e2 == nil) {
						t.Fatalf("step %d: SetParam(%q, %q): %v vs %v", step, name, key, e1, e2)
					}
				case 6, 7: // Take
					q := diffQuery(rng)
					limit := rng.Intn(8) - 1 // includes 0 and -1 ("no limit")
					got1 := machineNames(oracle.Take(q, pool, limit))
					taken := subject.Take(q, pool, limit)
					hold(taken...)
					got2 := machineNames(taken)
					if !sameNames(got1, got2) {
						t.Fatalf("step %d: Take(%q, %d) diverged\nquery:\n%s\noracle:  %v\nsubject: %v",
							step, pool, limit, q, got1, got2)
					}
				case 8: // Release a random subset of what the pool holds (plus noise)
					held := oracle.TakenBy(pool)
					var victims []string
					for _, h := range held {
						if rng.Intn(2) == 0 {
							victims = append(victims, h)
						}
					}
					victims = append(victims, names[rng.Intn(len(names))], "no-such-machine")
					n1 := oracle.Release(pool, victims...)
					n2 := subject.Release(pool, victims...)
					if n1 != n2 {
						t.Fatalf("step %d: Release(%q, %v) = %d vs %d", step, pool, victims, n1, n2)
					}
				case 9: // ReleaseAll
					n1, n2 := oracle.ReleaseAll(pool), subject.ReleaseAll(pool)
					if n1 != n2 {
						t.Fatalf("step %d: ReleaseAll(%q) = %d vs %d", step, pool, n1, n2)
					}
				case 10, 11: // Select
					q := diffQuery(rng)
					got1 := machineNames(oracle.Select(q))
					got2 := machineNames(subject.Select(q))
					if !sameNames(got1, got2) {
						t.Fatalf("step %d: Select diverged\nquery:\n%s\noracle:  %v\nsubject: %v",
							step, q, got1, got2)
					}
				case 12: // Walk with early stop
					stop := rng.Intn(10)
					var w1, w2 []string
					oracle.Walk(func(m *Machine) bool {
						w1 = append(w1, m.Static.Name)
						return len(w1) < stop
					})
					subject.Walk(func(m *Machine) bool {
						w2 = append(w2, m.Static.Name)
						return len(w2) < stop
					})
					if !sameNames(w1, w2) {
						t.Fatalf("step %d: Walk diverged: %v vs %v", step, w1, w2)
					}
				case 14, 15: // Page: random predicate, limit, offset and resume point
					conds := query.CompileRsrc(diffQuery(rng))
					if rng.Intn(4) == 0 {
						conds = nil
					}
					c := Cursor{Limit: rng.Intn(8) - 1, Offset: rng.Intn(6) - 1, Total: rng.Intn(2) == 0, Shared: rng.Intn(2) == 0}
					switch rng.Intn(3) {
					case 0:
						c.After = name // a registered name, mostly
					case 1:
						c.After = fmt.Sprintf("d%03dx", rng.Intn(40)) // between two names
					}
					ms1, total1 := oracle.Page(conds, c)
					ms2, total2 := subject.Page(conds, c)
					if c.Shared {
						hold(ms2...)
					}
					if got1, got2 := machineNames(ms1), machineNames(ms2); !sameNames(got1, got2) || total1 != total2 {
						t.Fatalf("step %d: Page(%v, %+v) diverged\noracle:  %v total %d\nsubject: %v total %d",
							step, conds, c, got1, total1, got2, total2)
					}
				case 13: // point reads
					if !sameNames(oracle.Names(), subject.Names()) {
						t.Fatalf("step %d: Names diverged", step)
					}
					if !sameNames(oracle.TakenBy(pool), subject.TakenBy(pool)) {
						t.Fatalf("step %d: TakenBy(%q) diverged", step, pool)
					}
					if oracle.Len() != subject.Len() {
						t.Fatalf("step %d: Len %d vs %d", step, oracle.Len(), subject.Len())
					}
					m1, e1 := oracle.Get(name)
					m2, e2 := subject.Get(name)
					if (e1 == nil) != (e2 == nil) {
						t.Fatalf("step %d: Get(%q): %v vs %v", step, name, e1, e2)
					}
					if e1 == nil && m1.Static.Name != m2.Static.Name {
						t.Fatalf("step %d: Get(%q) returned different machines", step, name)
					}
					// The shared read: same record as the oracle's deep copy,
					// field for field.
					v1, e1 := oracle.View(name)
					v2, e2 := subject.View(name)
					if (e1 == nil) != (e2 == nil) {
						t.Fatalf("step %d: View(%q): %v vs %v", step, name, e1, e2)
					}
					if e1 == nil {
						if !machineEqual(v1, v2) {
							t.Fatalf("step %d: View(%q) diverged\noracle:  %+v\nsubject: %+v", step, name, v1, v2)
						}
						hold(v2)
					}
				}
				if step%250 == 0 {
					checkHeld(step)
					compareState(t, step, oracle, subject)
					if err := subject.checkInvariants(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}
			checkHeld(steps)
			compareState(t, steps, oracle, subject)
			if err := subject.checkInvariants(); err != nil {
				t.Fatal(err)
			}

			// Snapshots written by one backend must load into the other
			// and round back out identically.
			var snap bytes.Buffer
			if err := subject.Save(&snap); err != nil {
				t.Fatal(err)
			}
			reloaded := NewSharded(4)
			if err := reloaded.Load(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatal(err)
			}
			oracle2 := NewLocked()
			if err := oracle2.Load(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatal(err)
			}
			compareState(t, steps+1, oracle2, reloaded)
			if err := reloaded.checkInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
