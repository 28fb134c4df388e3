package registry

import (
	"slices"
	"testing"
	"time"

	"actyp/internal/query"
)

// scribble writes to everything reachable from a record a read returned.
func scribble(m *Machine) {
	m.State = StateBlocked
	m.Dynamic.Load = 99
	m.TakenBy = "scribbler"
	m.Static.Name += "!"
	m.Static.Speed = -1
	m.Access.Addr = "0.0.0.0"
	for i := range m.Policy.UserGroups {
		m.Policy.UserGroups[i] = "scribbled"
	}
	for i := range m.Policy.ToolGroups {
		m.Policy.ToolGroups[i] = "scribbled"
	}
	m.Policy.UsagePolicy = "scribbled"
	for i := range m.Policy.Params {
		p := &m.Policy.Params[i]
		for j := range p.Attr.List {
			p.Attr.List[j] = "scribbled"
		}
		p.Attr = query.StrAttr("scribbled")
	}
	m.Policy.Params = m.Policy.Params.With("scribbled", query.NumAttr(1))
}

// TestViewSharingContract is the two halves of the sharing rule. The
// copying reads (Get, Page, Select, Walk) hand out records the caller owns:
// nothing written to them shows in the store or in a view. The store in
// turn never writes what a view shares: after SetParam the record and a
// view taken before it differ in that one key, and the view reads as it did.
func TestViewSharingContract(t *testing.T) {
	for _, kind := range []string{BackendLocked, BackendSharded} {
		t.Run(kind, func(t *testing.T) {
			b, err := OpenBackend(kind, 4)
			if err != nil {
				t.Fatal(err)
			}
			db := NewDBWith(b)
			spec := DefaultFleetSpec(8)
			if err := spec.Populate(db, time.Unix(0, 0)); err != nil {
				t.Fatal(err)
			}
			if err := db.SetParam("m0003", "tags", query.ListAttr("a", "b")); err != nil {
				t.Fatal(err)
			}
			pristine, err := spec.Build(time.Unix(0, 0))
			if err != nil {
				t.Fatal(err)
			}
			pristine[3].Policy.Params = pristine[3].Policy.Params.With("tags", query.ListAttr("a", "b"))
			views := make([]*Machine, len(pristine))
			for i, want := range pristine {
				if views[i], err = db.View(want.Static.Name); err != nil {
					t.Fatal(err)
				}
			}
			check := func(after string) {
				t.Helper()
				for i, want := range pristine {
					got, err := db.Get(want.Static.Name)
					if err != nil {
						t.Fatal(err)
					}
					if !machineEqual(got, want) {
						t.Errorf("after writing to the result of %s the store holds\n%+v, want\n%+v", after, got, want)
					}
					if !machineEqual(views[i], want) {
						t.Errorf("after writing to the result of %s a view reads\n%+v, want\n%+v", after, views[i], want)
					}
				}
			}

			for _, m := range pristine {
				got, err := db.Get(m.Static.Name)
				if err != nil {
					t.Fatal(err)
				}
				scribble(got)
			}
			check("Get")
			page, _ := db.Page(nil, Cursor{Limit: 5})
			for _, m := range page {
				scribble(m)
			}
			check("Page")
			for _, m := range db.Select(query.New()) {
				scribble(m)
			}
			check("Select")
			db.Walk(func(m *Machine) bool {
				scribble(m)
				return true
			})
			check("Walk")

			// SetParam: an indexed key, a new key, and a list value.
			for _, set := range []struct {
				key  string
				attr query.Attr
			}{
				{"arch", query.StrAttr("vax")},
				{"rack", query.NumAttr(7)},
				{"tags", query.ListAttr("c")},
			} {
				const name = "m0003"
				before, err := db.View(name)
				if err != nil {
					t.Fatal(err)
				}
				asRead := before.Clone()
				if err := db.SetParam(name, set.key, set.attr); err != nil {
					t.Fatal(err)
				}
				if !machineEqual(before, asRead) {
					t.Errorf("SetParam(%q) changed a view taken before it:\n%+v, was\n%+v", set.key, before, asRead)
				}
				stored, err := db.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				if got, _ := stored.Policy.Params.Get(set.key); !attrEqual(got, set.attr) {
					t.Errorf("SetParam(%q): the store holds %+v, want %+v", set.key, got, set.attr)
				}
				// Exactly that key: put the old value back (or take the new
				// key out) and nothing else differs.
				if old, had := before.Policy.Params.Get(set.key); had {
					stored.Policy.Params = stored.Policy.Params.With(set.key, old)
				} else {
					stored.Policy.Params = slices.DeleteFunc(stored.Policy.Params, func(p query.Param) bool { return p.Key == set.key })
				}
				if !machineEqual(stored, asRead) {
					t.Errorf("SetParam(%q) changed more than its key:\n%+v, was\n%+v", set.key, stored, asRead)
				}
			}

			if kind != BackendSharded {
				return
			}
			// What makes a view cheap: two of one record share their cold part.
			v1, _ := db.View("m0001")
			v2, _ := db.View("m0001")
			if &v1.Policy.ToolGroups[0] != &v2.Policy.ToolGroups[0] {
				t.Error("two views of one record hold separate copies of its tool groups")
			}
			v1.Dynamic.Load = 3 // the header is the holder's own
			if v2.Dynamic.Load == 3 {
				t.Error("two views of one record share their header")
			}
		})
	}
}
