package main

import (
	"runtime"
	"testing"
	"time"

	"actyp/internal/registry"
	"actyp/internal/route"
)

// allocated reports the bytes fn allocates, by the runtime's own count.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPruneForeignReadsByPage: a partitioned node that booted from a full
// fleet (-db, a journal) drops exactly the records of the domains it does
// not own, and looks at them through pages of views. It used to Walk the
// fleet, a deep copy of every record to read one attribute, which on a
// partitioned node was the boot transient that set the peak resident size.
func TestPruneForeignReadsByPage(t *testing.T) {
	const fleet = 4000
	db := registry.NewDB()
	if err := registry.DefaultFleetSpec(fleet).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	static, err := route.ParseStatic("na-0", "upc,purdue=nb-0")
	if err != nil {
		t.Fatal(err)
	}
	routes := route.New("na-0")
	routes.Reload(static, []string{"na-0", "nb-0"})

	walk := allocated(func() { db.Walk(func(*registry.Machine) bool { return true }) })
	var pruned int
	prune := allocated(func() { pruned = pruneForeign(db, routes) })
	if pruned != fleet/2 || db.Len() != fleet/2 {
		t.Fatalf("pruned %d records and kept %d, want %d and %d", pruned, db.Len(), fleet/2, fleet/2)
	}
	db.Walk(func(m *registry.Machine) bool {
		if d := route.MachineDomain(m); d != "upc" {
			t.Fatalf("%s of domain %q survived the prune", m.Static.Name, d)
		}
		return true
	})
	if prune > walk/4 {
		t.Errorf("pruneForeign allocated %d bytes, a Walk of the fleet %d: want under a quarter", prune, walk)
	}
	t.Logf("pruneForeign %d bytes, Walk %d bytes", prune, walk)
}
