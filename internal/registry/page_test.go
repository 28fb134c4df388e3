package registry

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"actyp/internal/query"
)

// TestStressPagePass reads whole match sets by resume point (run under
// -race in CI) while writers remove and re-add, reconfigure and
// monitor-update the records around it. Half the fleet is stable: present
// and matching from start to finish, so every pass must return each of
// those exactly once — which also holds Page to "a short page means the end
// of the match set" when a record chosen in phase one is gone by phase two,
// since the pass stops at the first short page. The other half flaps, and
// whatever a pass returns of it must satisfy the predicate as cloned.
func TestStressPagePass(t *testing.T) {
	preds := map[string]*query.Query{
		"indexed": query.New().Set("punch.rsrc.license", query.Eq("site")),
		"scan":    query.New().Set("punch.rsrc.tier", query.Eq("gold")).Set("punch.rsrc.speed", query.Ge(1)),
		"empty":   query.New(),
	}
	for predName, q := range preds {
		t.Run("pred="+predName, func(t *testing.T) {
			t.Parallel()
			b := NewSharded(0)
			db := NewDBWith(b)
			const fleet = 300
			stressFleet(t, db, fleet)
			matching := func(on bool) (license, tier query.Attr) {
				if on {
					return query.StrAttr("site"), query.StrAttr("gold")
				}
				return query.StrAttr("none"), query.StrAttr("lead")
			}
			machines := make([]*Machine, fleet)
			for i := range machines {
				name := fmt.Sprintf("m%04d", i)
				license, tier := matching(true)
				if err := db.SetParam(name, "license", license); err != nil {
					t.Fatal(err)
				}
				if err := db.SetParam(name, "tier", tier); err != nil {
					t.Fatal(err)
				}
				m, err := db.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				machines[i] = m
			}
			// Even records are stable; the writers touch only odd ones.
			volatile := func(i int) *Machine { return machines[(2*i+1)%fleet] }

			stop := make(chan struct{})
			var writers sync.WaitGroup
			writer := func(step func(i int)) {
				writers.Add(1)
				go func() {
					defer writers.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
							step(i)
						}
					}
				}()
			}
			writer(func(i int) { // registrations come and go
				m := volatile(i * 7)
				if db.Remove(m.Static.Name) != nil {
					_ = db.Add(m)
				}
			})
			writer(func(i int) { // admins move records in and out of the predicate
				license, tier := matching(i%3 == 0)
				name := volatile(i * 11).Static.Name
				_ = db.SetParam(name, "license", license)
				_ = db.SetParam(name, "tier", tier)
			})
			writer(func(i int) { // monitor sweeps touch everything
				batch := make([]DynamicUpdate, 0, fleet)
				for _, st := range db.Statuses(nil) {
					st.Dynamic.Load = float64(i % 4)
					st.Dynamic.LastUpdate = time.Unix(1000000000+int64(i), 0)
					batch = append(batch, DynamicUpdate{Name: st.Name, Dynamic: st.Dynamic})
				}
				db.UpdateDynamicBatch(batch)
			})

			conds := query.CompileRsrc(q)
			passes := 30
			if testing.Short() {
				passes = 8
			}
			for pass := 0; pass < passes && !t.Failed(); pass++ {
				seen := make(map[string]bool, fleet)
				last := ""
				db.EachPage(conds, Cursor{Limit: 2 + pass%17}, func(page []*Machine) {
					for _, m := range page {
						name := m.Static.Name
						if name <= last {
							t.Errorf("pass %d: %q returned after %q", pass, name, last)
						}
						last = name
						seen[name] = true
						if !m.Attrs().MatchConds(conds) {
							t.Errorf("pass %d: %q returned but fails the predicate as cloned", pass, name)
						}
					}
				})
				for i := 0; i < fleet; i += 2 {
					if name := machines[i].Static.Name; !seen[name] {
						t.Errorf("pass %d: stable record %q missed", pass, name)
					}
				}
			}
			close(stop)
			writers.Wait()
			if err := b.checkInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

// Matching on numeric built-ins must not allocate: a scan tests every
// record of a shard, and one formatted string per record was 10k
// allocations per select on speed, cpus or load conditions.
func TestMatchCondsNumericBuiltinsDoNotAllocate(t *testing.T) {
	m := &Machine{
		Static:  Static{Name: "m0001", Speed: 312.5, CPUs: 2, MaxLoad: 4},
		Dynamic: Dynamic{Load: 0.25, ActiveJobs: 1, FreeMemory: 512, FreeSwap: 1024},
	}
	q := query.New().
		Set("punch.rsrc.speed", query.Ge(300)).
		Set("punch.rsrc.cpus", query.Eq("2")).
		Set("punch.rsrc.maxload", query.Between(1, 8)).
		Set("punch.rsrc.load", query.Ne("0.5")).
		Set("punch.rsrc.activejobs", query.In("0", "1")).
		Set("punch.rsrc.freememory", query.Condition{Op: query.OpEq, Str: "512"}). // string equality against a number
		Set("punch.rsrc.freeswap", query.Gt(1000))
	conds := query.CompileRsrc(q)
	if !m.matchConds(conds) {
		t.Fatal("record should match")
	}
	if m.Attrs().MatchConds(conds) != m.matchConds(conds) {
		t.Fatal("matchConds disagrees with the materialized attribute set")
	}
	if allocs := testing.AllocsPerRun(100, func() { m.matchConds(conds) }); allocs != 0 {
		t.Errorf("matchConds allocates %.0f times per record on numeric built-ins", allocs)
	}
}

// A page costs what it returns: its allocations must not grow with the
// number of records the predicate matches.
func TestPageAllocsIndependentOfMatches(t *testing.T) {
	db := NewDBWith(NewSharded(8))
	if err := DefaultFleetSpec(8000).Populate(db, time.Unix(1000000000, 0)); err != nil {
		t.Fatal(err)
	}
	page := func(text string) (allocs float64, total int) {
		q, err := query.ParseBasic(text)
		if err != nil {
			t.Fatal(err)
		}
		conds := query.CompileRsrc(q)
		allocs = testing.AllocsPerRun(10, func() {
			var ms []*Machine
			if ms, total = db.Page(conds, Cursor{Limit: 64, Total: true}); len(ms) != 64 {
				t.Fatalf("%s: page of %d", text, len(ms))
			}
		})
		return allocs, total
	}
	few, fewTotal := page("punch.rsrc.speed = >=500")
	many, manyTotal := page("punch.rsrc.speed = >=200")
	if manyTotal < 3*fewTotal {
		t.Fatalf("predicates match %d and %d records: not far enough apart to show growth", fewTotal, manyTotal)
	}
	// The two pages hold different records, whose clones differ by a few
	// allocations; growth with matches would be thousands.
	if many > few*1.1 {
		t.Errorf("64-record page: %.0f allocations over %d matches, %.0f over %d", few, fewTotal, many, manyTotal)
	}
}
