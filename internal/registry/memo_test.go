package registry

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"actyp/internal/query"
)

// memoPreds is the fixed predicate pool of the count-memo tests: the
// benchmark's three browse predicates, an indexed equality, a list
// membership, a name, a dynamic built-in (which the memo must skip) and the
// empty predicate.
func memoPreds(t testing.TB) [][]query.RsrcCond {
	texts := []string{
		"punch.rsrc.memory = >=256",
		"punch.rsrc.cpus = >=2",
		"punch.rsrc.speed = >=300",
		"punch.rsrc.arch = sun",
		"punch.rsrc.license = tsuprem4,matlab",
		"punch.rsrc.name = d007",
		"punch.rsrc.load = <=1",
		"",
	}
	out := make([][]query.RsrcCond, len(texts))
	for i, text := range texts {
		q, err := query.ParseBasic(text)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = query.CompileRsrc(q)
	}
	return out
}

// memoMachine is diffMachine with the parameters the browse predicates and
// the membership predicate read.
func memoMachine(rng *rand.Rand, name string) *Machine {
	m := diffMachine(rng, name)
	licenses := [][]string{{"tsuprem4"}, {"spice", "matlab"}, {"minimos"}}
	m.Policy.Params = m.Policy.Params.
		With("memory", query.NumAttr(float64(int(64)<<uint(rng.Intn(4))))).
		With("license", query.ListAttr(licenses[rng.Intn(len(licenses))]...))
	return m
}

// TestPageTotalMemoDifferential drives the sharded engine and the
// single-lock oracle through every writer, interleaved, and compares Page
// names and totals of a fixed predicate pool after every step. The pool is
// small and repeats, so most totals come from the shards' count memos; a
// writer that changes what a predicate matches without moving its shard's
// generation shows as a wrong total here.
func TestPageTotalMemoDifferential(t *testing.T) {
	preds := memoPreds(t)
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(seed))
			oracle := Backend(NewLocked())
			subject := NewSharded(1 + rng.Intn(8))
			names := make([]string, 40)
			for i := range names {
				names[i] = fmt.Sprintf("d%03d", i)
			}
			pools := []string{"pool-a", "pool-b"}
			check := func(step int, op string) {
				t.Helper()
				for i, conds := range preds {
					if i == 0 && rng.Intn(4) == 0 { // now and then a predicate from outside the pool, to cycle the rings
						conds = query.CompileRsrc(diffQuery(rng))
					}
					c := Cursor{Limit: rng.Intn(6) - 1, Offset: rng.Intn(3), Total: rng.Intn(8) != 0}
					if rng.Intn(3) == 0 {
						c.After = names[rng.Intn(len(names))]
					}
					ms1, total1 := oracle.Page(conds, c)
					ms2, total2 := subject.Page(conds, c)
					if got1, got2 := machineNames(ms1), machineNames(ms2); !sameNames(got1, got2) || total1 != total2 {
						t.Fatalf("step %d, after %s: Page(%v, %+v) diverged\noracle:  %v total %d\nsubject: %v total %d",
							step, op, conds, c, got1, total1, got2, total2)
					}
				}
			}
			same := func(step int, op string, e1, e2 error) {
				t.Helper()
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("step %d: %s: oracle err %v, subject err %v", step, op, e1, e2)
				}
			}
			steps := 600
			if testing.Short() {
				steps = 200
			}
			for step := 0; step < steps; step++ {
				name := names[rng.Intn(len(names))]
				pool := pools[rng.Intn(len(pools))]
				var op string
				switch rng.Intn(13) {
				case 0, 1:
					op = "AddOwned"
					m := memoMachine(rand.New(rand.NewSource(rng.Int63())), name)
					same(step, op, oracle.AddOwned(m.Clone()), subject.AddOwned(m))
				case 2:
					op = "Remove"
					same(step, op, oracle.Remove(name), subject.Remove(name))
				case 3, 4:
					keys := []string{"arch", "license", "memory", "customkey"} // indexed and not
					key := keys[rng.Intn(len(keys))]
					attrs := []query.Attr{query.StrAttr("sun"), query.StrAttr("hp"), query.NumAttr(float64(int(128) << uint(rng.Intn(3)))),
						query.ListAttr("tsuprem4", "spice"), query.ListAttr("minimos")}
					attr := attrs[rng.Intn(len(attrs))]
					op = "SetParam " + key
					same(step, op, oracle.SetParam(name, key, attr), subject.SetParam(name, key, attr))
				case 5:
					op = "SetState"
					st := State(rng.Intn(3))
					same(step, op, oracle.SetState(name, st), subject.SetState(name, st))
				case 6:
					op = "UpdateDynamic"
					d := Dynamic{Load: float64(rng.Intn(30)) / 10, ActiveJobs: rng.Intn(4), LastUpdate: time.Unix(1000000000+int64(step), 0).UTC()}
					same(step, op, oracle.UpdateDynamic(name, d), subject.UpdateDynamic(name, d))
				case 7:
					op = "UpdateDynamicBatch"
					var batch []DynamicUpdate
					for _, st := range oracle.Statuses(nil) {
						st.Dynamic.Load = float64(rng.Intn(30)) / 10
						batch = append(batch, DynamicUpdate{Name: st.Name, Dynamic: st.Dynamic})
					}
					if n1, n2 := oracle.UpdateDynamicBatch(batch), subject.UpdateDynamicBatch(batch); n1 != n2 {
						t.Fatalf("step %d: UpdateDynamicBatch: %d vs %d", step, n1, n2)
					}
				case 8:
					op = "Take"
					q := diffQuery(rng)
					limit := rng.Intn(5) - 1
					if got1, got2 := machineNames(oracle.Take(q, pool, limit)), machineNames(subject.Take(q, pool, limit)); !sameNames(got1, got2) {
						t.Fatalf("step %d: Take diverged: %v vs %v", step, got1, got2)
					}
				case 9:
					op = "Release"
					victims := append(oracle.TakenBy(pool), name)[rng.Intn(2):]
					if n1, n2 := oracle.Release(pool, victims...), subject.Release(pool, victims...); n1 != n2 {
						t.Fatalf("step %d: Release: %d vs %d", step, n1, n2)
					}
				case 10:
					op = "ReleaseAll"
					if n1, n2 := oracle.ReleaseAll(pool), subject.ReleaseAll(pool); n1 != n2 {
						t.Fatalf("step %d: ReleaseAll: %d vs %d", step, n1, n2)
					}
				case 11:
					// A snapshot of a few of the records (none, some times):
					// most shards of the subject receive no record, and their
					// old counts must go all the same.
					op = "Load"
					part := NewLocked()
					keep := rng.Intn(6)
					oracle.Walk(func(m *Machine) bool {
						if rng.Intn(4) == 0 {
							_ = part.AddOwned(m)
						}
						return part.Len() < keep
					})
					var snap bytes.Buffer
					if err := part.Save(&snap); err != nil {
						t.Fatal(err)
					}
					same(step, op, oracle.Load(bytes.NewReader(snap.Bytes())), subject.Load(bytes.NewReader(snap.Bytes())))
				case 12:
					// A few records at once, refused whole when a name is
					// held or given twice.
					op = "AddOwnedAll"
					var batch []*Machine
					for i := rng.Intn(5); i > 0; i-- {
						batch = append(batch, memoMachine(rand.New(rand.NewSource(rng.Int63())), names[rng.Intn(len(names))]))
					}
					clones := make([]*Machine, len(batch))
					for i, m := range batch {
						clones[i] = m.Clone()
					}
					same(step, op, oracle.AddOwnedAll(clones), subject.AddOwnedAll(batch))
				}
				check(step, op)
			}
			compareState(t, steps, oracle, subject)
			if err := subject.checkInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}

	// Writers that change what the predicates match, beside readers taking
	// totals (run under -race in CI): the readers' totals are bounded by the
	// fleet while the writers run, and once they stop every total equals a
	// fresh count.
	t.Run("concurrent", func(t *testing.T) {
		t.Parallel()
		s := NewSharded(4)
		const fleet = 200
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < fleet; i++ {
			if err := s.AddOwned(memoMachine(rng, fmt.Sprintf("d%03d", i))); err != nil {
				t.Fatal(err)
			}
		}
		stop := make(chan struct{})
		var writers, readers sync.WaitGroup
		for w := 0; w < 2; w++ {
			writers.Add(1)
			go func(w int) {
				defer writers.Done()
				rng := rand.New(rand.NewSource(int64(100 + w)))
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					name := fmt.Sprintf("d%03d", rng.Intn(fleet))
					switch i % 3 {
					case 0:
						_ = s.SetParam(name, []string{"arch", "memory"}[rng.Intn(2)],
							[]query.Attr{query.StrAttr("sun"), query.NumAttr(512), query.NumAttr(64)}[rng.Intn(3)])
					case 1:
						_ = s.AddOwned(memoMachine(rng, name))
					case 2:
						_ = s.Remove(name)
					}
				}
			}(w)
		}
		for r := 0; r < 2; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for i := 0; i < 300; i++ {
					conds := preds[i%len(preds)]
					if _, total := s.Page(conds, Cursor{Limit: 8, Total: true}); total < 0 || total > fleet {
						t.Errorf("total %d out of [0, %d]", total, fleet)
						return
					}
				}
			}()
		}
		readers.Wait()
		close(stop)
		writers.Wait()
		for _, conds := range preds {
			all, _ := s.Page(conds, Cursor{})
			if _, total := s.Page(conds, Cursor{Limit: 8, Total: true}); total != len(all) {
				t.Errorf("%v: total %d, a fresh count %d", conds, total, len(all))
			}
		}
		if err := s.checkInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// Every built-in whose value a new Dynamic changes must be marked dynamic,
// or the count memo would keep a count a sweep has made stale; and only
// those are marked, or the memo would skip predicates it could serve.
func TestDynamicBuiltinsMarked(t *testing.T) {
	m := &Machine{
		Static:  Static{Name: "m0001", Speed: 300, CPUs: 2, MaxLoad: 4},
		Dynamic: Dynamic{Load: 0.5, ActiveJobs: 1, FreeMemory: 512, FreeSwap: 1024, LastUpdate: time.Unix(1000000000, 0), ServiceFlag: FlagExecUnit},
		Policy:  Policy{UserGroups: []string{"ece"}, ToolGroups: []string{"spice"}},
	}
	swept := m.Clone()
	swept.Dynamic = Dynamic{Load: 2.5, ActiveJobs: 3, FreeMemory: 64, FreeSwap: 128, LastUpdate: time.Unix(1000000060, 0), ServiceFlag: FlagMountMgr}
	for name, b := range builtinAttrs {
		before, ok1 := b.value(m)
		after, ok2 := b.value(swept)
		changed := ok1 != ok2 || !reflect.DeepEqual(before, after)
		if changed && !b.dynamic {
			t.Errorf("built-in %q changes with Dynamic (%v -> %v) but is not marked dynamic", name, before, after)
		}
		if !changed && b.dynamic {
			t.Errorf("built-in %q is marked dynamic but a new Dynamic leaves it at %v", name, before)
		}
	}
}

// sameConds decides whether a remembered count answers a predicate, so a
// field of query.Condition it does not compare would let two different
// predicates share a count. Each field in turn is made to differ.
func TestSameCondsReadsEveryField(t *testing.T) {
	base := []query.RsrcCond{{Name: "speed", Cond: query.Ge(300)}}
	if !sameConds(base, cloneConds(base)) {
		t.Fatal("a predicate differs from its copy")
	}
	if sameConds(base, []query.RsrcCond{{Name: "cpus", Cond: base[0].Cond}}) {
		t.Error("sameConds ignores the attribute name")
	}
	ct := reflect.TypeOf(query.Condition{})
	for i := 0; i < ct.NumField(); i++ {
		other := cloneConds(base)
		f := reflect.ValueOf(&other[0].Cond).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Float64:
			f.SetFloat(f.Float() + 1)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Slice:
			f.Set(reflect.ValueOf([]string{"x"}))
		default:
			t.Fatalf("query.Condition.%s has kind %v, which this test cannot vary", ct.Field(i).Name, f.Kind())
		}
		if sameConds(base, other) {
			t.Errorf("sameConds ignores query.Condition.%s", ct.Field(i).Name)
		}
	}
}

// The browse predicates of the benchmark's lease_browse workload.
var memoBenchPreds = []string{
	"punch.rsrc.memory = >=256",
	"punch.rsrc.cpus = >=2",
	"punch.rsrc.speed = >=300",
}

func memoBenchFleet(b *testing.B) *DB {
	db := NewDBWith(NewSharded(0)) // the daemon's shard count
	if err := DefaultFleetSpec(10000).Populate(db, time.Unix(1000000000, 0)); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkRegistryPageTotal is what one wire select costs the registry: a
// 64-record page of a 10k fleet with the match total, the benchmark's three
// predicates in turn, so after the first round every total is remembered.
func BenchmarkRegistryPageTotal(b *testing.B) {
	db := memoBenchFleet(b)
	preds := make([][]query.RsrcCond, len(memoBenchPreds))
	for i, text := range memoBenchPreds {
		q, err := query.ParseBasic(text)
		if err != nil {
			b.Fatal(err)
		}
		preds[i] = query.CompileRsrc(q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ms, total := db.Page(preds[i%len(preds)], Cursor{Limit: 64, Total: true}); len(ms) != 64 || total < 64 {
			b.Fatalf("page of %d, total %d", len(ms), total)
		}
	}
}

// BenchmarkRegistryPageTotalDistinct is the same page with a predicate no
// call has asked before (a bound that moves by a hair each call, matching
// the same records), so every total is counted: the memo's miss path.
func BenchmarkRegistryPageTotalDistinct(b *testing.B) {
	db := memoBenchFleet(b)
	names := []string{"memory", "cpus", "speed"}
	bounds := []float64{256, 2, 300}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(names)
		conds := []query.RsrcCond{{Name: names[k], Cond: query.Ge(bounds[k] - float64(i+1)*1e-9)}}
		if ms, total := db.Page(conds, Cursor{Limit: 64, Total: true}); len(ms) != 64 || total < 64 {
			b.Fatalf("page of %d, total %d", len(ms), total)
		}
	}
}
