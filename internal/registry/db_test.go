package registry

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"actyp/internal/query"
)

func sunQuery(t *testing.T) *query.Query {
	t.Helper()
	q, err := query.ParseBasic("punch.rsrc.arch = sun")
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestDBAddGetRemove(t *testing.T) {
	db := NewDB()
	if err := db.Add(testMachine("a")); err != nil {
		t.Fatal(err)
	}
	if err := db.Add(testMachine("a")); err == nil {
		t.Error("duplicate add should fail")
	}
	if db.Len() != 1 {
		t.Errorf("Len = %d", db.Len())
	}
	m, err := db.Get("a")
	if err != nil || m.Static.Name != "a" {
		t.Fatalf("Get: %v, %v", m, err)
	}
	// Get returns a copy.
	m.Policy.Params[0].Attr = query.StrAttr("hp") // arch, written in place
	m2, _ := db.Get("a")
	if param(m2, "arch").Str != "sun" {
		t.Error("Get aliases stored record")
	}
	if err := db.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := db.Remove("a"); err == nil {
		t.Error("double remove should fail")
	}
	if _, err := db.Get("a"); err == nil {
		t.Error("Get after remove should fail")
	}
}

func TestDBAddValidates(t *testing.T) {
	db := NewDB()
	bad := testMachine("x")
	bad.Static.CPUs = 0
	if err := db.Add(bad); err == nil {
		t.Error("invalid machine accepted")
	}
}

func TestDBSetStateAndDynamic(t *testing.T) {
	db := NewDB()
	if err := db.Add(testMachine("a")); err != nil {
		t.Fatal(err)
	}
	if err := db.SetState("a", StateBlocked); err != nil {
		t.Fatal(err)
	}
	m, _ := db.Get("a")
	if m.State != StateBlocked {
		t.Errorf("state = %v", m.State)
	}
	d := Dynamic{Load: 1.5, ActiveJobs: 3, FreeMemory: 64, FreeSwap: 128, LastUpdate: time.Unix(2000, 0)}
	if err := db.UpdateDynamic("a", d); err != nil {
		t.Fatal(err)
	}
	m, _ = db.Get("a")
	if m.Dynamic != d {
		t.Errorf("dynamic = %+v", m.Dynamic)
	}
	if err := db.SetState("ghost", StateUp); err == nil {
		t.Error("SetState on missing machine should fail")
	}
	if err := db.UpdateDynamic("ghost", d); err == nil {
		t.Error("UpdateDynamic on missing machine should fail")
	}
}

func TestDBSetParam(t *testing.T) {
	db := NewDB()
	if err := db.Add(testMachine("a")); err != nil {
		t.Fatal(err)
	}
	if err := db.SetParam("a", "license", query.StrAttr("spice")); err != nil {
		t.Fatal(err)
	}
	m, _ := db.Get("a")
	if param(m, "license").Str != "spice" {
		t.Errorf("param not set: %+v", m.Policy.Params)
	}
	if err := db.SetParam("ghost", "k", query.StrAttr("v")); err == nil {
		t.Error("SetParam on missing machine should fail")
	}
}

func TestDBWalkOrderAndEarlyStop(t *testing.T) {
	db := NewDB()
	for _, n := range []string{"c", "a", "b"} {
		if err := db.Add(testMachine(n)); err != nil {
			t.Fatal(err)
		}
	}
	var seen []string
	db.Walk(func(m *Machine) bool {
		seen = append(seen, m.Static.Name)
		return true
	})
	if strings.Join(seen, "") != "abc" {
		t.Errorf("walk order = %v", seen)
	}
	seen = nil
	db.Walk(func(m *Machine) bool {
		seen = append(seen, m.Static.Name)
		return len(seen) < 2
	})
	if len(seen) != 2 {
		t.Errorf("early stop walked %d", len(seen))
	}
}

func TestDBSelect(t *testing.T) {
	db := NewDB()
	sun := testMachine("sun1")
	hp := testMachine("hp1")
	hp.Policy.Params = hp.Policy.Params.With("arch", query.StrAttr("hp"))
	if err := db.Add(sun); err != nil {
		t.Fatal(err)
	}
	if err := db.Add(hp); err != nil {
		t.Fatal(err)
	}
	got := db.Select(sunQuery(t))
	if len(got) != 1 || got[0].Static.Name != "sun1" {
		t.Errorf("Select = %v", got)
	}
}

func TestDBTakeRelease(t *testing.T) {
	db := NewDB()
	for i := 0; i < 4; i++ {
		m := testMachine(string(rune('a' + i)))
		if err := db.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	q := sunQuery(t)

	taken := db.Take(q, "pool-1", 2)
	if len(taken) != 2 {
		t.Fatalf("took %d, want 2", len(taken))
	}
	// A second pool cannot take the same machines.
	taken2 := db.Take(q, "pool-2", 0)
	if len(taken2) != 2 {
		t.Fatalf("pool-2 took %d, want the remaining 2", len(taken2))
	}
	if got := db.Take(q, "pool-3", 0); len(got) != 0 {
		t.Errorf("pool-3 took %d from an exhausted db", len(got))
	}
	if names := db.TakenBy("pool-1"); len(names) != 2 {
		t.Errorf("TakenBy(pool-1) = %v", names)
	}

	// Release only frees machines held by the named instance.
	if n := db.Release("pool-2", taken[0].Static.Name); n != 0 {
		t.Errorf("pool-2 released pool-1's machine")
	}
	if n := db.Release("pool-1", taken[0].Static.Name); n != 1 {
		t.Errorf("release = %d", n)
	}
	if n := db.ReleaseAll("pool-2"); n != 2 {
		t.Errorf("ReleaseAll = %d", n)
	}
	// Empty instance name takes nothing.
	if got := db.Take(q, "", 0); got != nil {
		t.Error("empty instance should take nothing")
	}
}

func TestDBTakeRespectsQuery(t *testing.T) {
	db := NewDB()
	m := testMachine("hp1")
	m.Policy.Params = m.Policy.Params.With("arch", query.StrAttr("hp"))
	if err := db.Add(m); err != nil {
		t.Fatal(err)
	}
	if got := db.Take(sunQuery(t), "p", 0); len(got) != 0 {
		t.Errorf("took non-matching machines: %v", got)
	}
}

func TestDBSaveLoadRoundTrip(t *testing.T) {
	db := NewDB()
	if err := DefaultFleetSpec(20).Populate(db, time.Unix(100, 0).UTC()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := NewDB()
	if err := db2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if db2.Len() != db.Len() {
		t.Fatalf("loaded %d machines, want %d", db2.Len(), db.Len())
	}
	for _, name := range db.Names() {
		a, _ := db.Get(name)
		b, err := db2.Get(name)
		if err != nil {
			t.Fatalf("missing %s after load", name)
		}
		if a.Static != b.Static || a.Access != b.Access {
			t.Errorf("machine %s differs after round trip", name)
		}
	}
}

func TestDBLoadRejectsBadInput(t *testing.T) {
	db := NewDB()
	if err := db.Load(strings.NewReader("not json")); err == nil {
		t.Error("garbage should fail")
	}
	if err := db.Load(strings.NewReader(`{"machines":[{"static":{"name":""}}]}`)); err == nil {
		t.Error("invalid machine should fail")
	}
	dup := `{"machines":[
		{"static":{"name":"a","speed":1,"cpus":1,"maxLoad":1}},
		{"static":{"name":"a","speed":1,"cpus":1,"maxLoad":1}}]}`
	if err := db.Load(strings.NewReader(dup)); err == nil {
		t.Error("duplicate machines should fail")
	}
}

func TestDBConcurrentTakeExclusive(t *testing.T) {
	db := NewDB()
	if err := HomogeneousFleetSpec(200).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	q := sunQuery(t)
	const workers = 8
	var wg sync.WaitGroup
	takenBy := make([][]string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			inst := "pool-" + string(rune('0'+w))
			for _, m := range db.Take(q, inst, 50) {
				takenBy[w] = append(takenBy[w], m.Static.Name)
			}
		}(w)
	}
	wg.Wait()
	seen := map[string]int{}
	total := 0
	for _, names := range takenBy {
		for _, n := range names {
			seen[n]++
			total++
		}
	}
	if total != 200 {
		t.Errorf("total taken = %d, want 200", total)
	}
	for n, c := range seen {
		if c != 1 {
			t.Errorf("machine %s taken %d times", n, c)
		}
	}
}

// Property: Take then ReleaseAll always restores every machine of that
// instance to the free state, regardless of how many were taken.
func TestTakeReleaseInvariantProperty(t *testing.T) {
	f := func(limit uint8) bool {
		db := NewDB()
		if err := HomogeneousFleetSpec(30).Populate(db, time.Unix(0, 0)); err != nil {
			return false
		}
		q, err := query.ParseBasic("punch.rsrc.arch = sun")
		if err != nil {
			return false
		}
		taken := db.Take(q, "p", int(limit%40))
		released := db.ReleaseAll("p")
		if released != len(taken) {
			return false
		}
		return len(db.TakenBy("p")) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
