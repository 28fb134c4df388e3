package registry

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"actyp/internal/query"
)

func testMachine(name string) *Machine {
	return &Machine{
		State: StateUp,
		Dynamic: Dynamic{
			Load: 0.2, ActiveJobs: 1, FreeMemory: 256, FreeSwap: 512,
			LastUpdate: time.Unix(1000, 0), ServiceFlag: FlagExecUnit | FlagMountMgr,
		},
		Static: Static{Speed: 300, CPUs: 2, MaxLoad: 4, Name: name},
		Access: Access{
			ObjectRef: "/punch/machines/" + name + ".obj", SharedAccount: "nobody",
			ExecUnitPort: 7000, MountMgrPort: 7001, Addr: "10.0.0.1",
		},
		Policy: Policy{
			UserGroups: []string{"ece"}, ToolGroups: []string{"tsuprem4"},
			ShadowPoolRef: "/punch/shadow/" + name,
			Params: query.NewParams(
				query.Param{Key: "arch", Attr: query.StrAttr("sun")},
				query.Param{Key: "memory", Attr: query.NumAttr(256)},
				query.Param{Key: "domain", Attr: query.StrAttr("purdue")},
			),
		},
	}
}

// param reads one of m's admin parameters, the zero attribute if absent.
func param(m *Machine, key string) query.Attr {
	a, _ := m.Policy.Params.Get(key)
	return a
}

func TestStateStringParse(t *testing.T) {
	for _, s := range []State{StateUp, StateDown, StateBlocked} {
		got, err := ParseState(s.String())
		if err != nil || got != s {
			t.Errorf("round trip %v: got %v, err %v", s, got, err)
		}
	}
	if _, err := ParseState("sideways"); err == nil {
		t.Error("unknown state should fail")
	}
	if got := State(9).String(); !strings.Contains(got, "9") {
		t.Errorf("unknown state string = %q", got)
	}
}

func TestMachineCloneIsDeep(t *testing.T) {
	m := testMachine("a")
	c := m.Clone()
	c.Policy.UserGroups[0] = "mutated"
	c.Policy.Params[0].Attr = query.StrAttr("hp") // arch, written in place
	c.Static.Name = "b"
	if m.Policy.UserGroups[0] != "ece" {
		t.Error("Clone shares UserGroups")
	}
	if param(m, "arch").Str != "sun" {
		t.Error("Clone shares Params")
	}
	if m.Static.Name != "a" {
		t.Error("Clone shares Static")
	}
}

func TestMachineAttrs(t *testing.T) {
	m := testMachine("a")
	attrs := m.Attrs()
	// Admin params present.
	if attrs["arch"].Str != "sun" {
		t.Errorf("arch = %+v", attrs["arch"])
	}
	// Built-ins derived from other fields.
	if attrs["name"].Str != "a" {
		t.Errorf("name = %+v", attrs["name"])
	}
	if attrs["speed"].Num != 300 || attrs["cpus"].Num != 2 {
		t.Errorf("speed/cpus = %+v/%+v", attrs["speed"], attrs["cpus"])
	}
	if attrs["load"].Num != 0.2 || attrs["freememory"].Num != 256 {
		t.Errorf("dynamic attrs wrong")
	}
	if len(attrs["usergroup"].List) != 1 || attrs["usergroup"].List[0] != "ece" {
		t.Errorf("usergroup = %+v", attrs["usergroup"])
	}
	// Attrs must be a copy: mutating it must not touch the record.
	attrs["arch"] = query.StrAttr("hp")
	if param(m, "arch").Str != "sun" {
		t.Error("Attrs aliases Params")
	}
}

func TestMachineUsable(t *testing.T) {
	m := testMachine("a")
	if !m.Usable() {
		t.Error("fresh machine should be usable")
	}
	m.State = StateDown
	if m.Usable() {
		t.Error("down machine should not be usable")
	}
	m.State = StateUp
	m.Dynamic.Load = m.Static.MaxLoad
	if m.Usable() {
		t.Error("machine at max load should not be usable")
	}
}

func TestGroupChecks(t *testing.T) {
	m := testMachine("a")
	if !m.AllowsUserGroup("ece") || m.AllowsUserGroup("cs") {
		t.Error("user group check wrong")
	}
	if !m.SupportsToolGroup("tsuprem4") || m.SupportsToolGroup("matlab") {
		t.Error("tool group check wrong")
	}
	m.Policy.UserGroups = nil
	m.Policy.ToolGroups = nil
	if !m.AllowsUserGroup("anyone") || !m.SupportsToolGroup("anything") {
		t.Error("empty lists should admit everyone")
	}
}

func TestMachineValidate(t *testing.T) {
	good := testMachine("a")
	if err := good.Validate(); err != nil {
		t.Errorf("valid machine rejected: %v", err)
	}
	cases := []func(*Machine){
		func(m *Machine) { m.Static.Name = "" },
		func(m *Machine) { m.Static.CPUs = 0 },
		func(m *Machine) { m.Static.Speed = 0 },
		func(m *Machine) { m.Static.MaxLoad = 0 },
		func(m *Machine) { m.Access.ExecUnitPort = -1 },
		func(m *Machine) { m.Access.MountMgrPort = 70000 },
		// Parameters out of order: a literal, and a key written in place.
		func(m *Machine) { m.Policy.Params = query.Params{{Key: "memory"}, {Key: "arch"}} },
		func(m *Machine) { m.Policy.Params[0].Key = "zzz" },
	}
	for i, mut := range cases {
		m := testMachine("a")
		mut(m)
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid machine accepted", i)
		}
		if err := NewDB().Add(m); err == nil {
			t.Errorf("case %d: invalid machine added", i)
		}
	}
}

// TestRecordBytes bars the live heap one record holds as the store keeps
// it after Add, which stores a Clone: the struct, its strings and slices,
// and its admin parameters. With the parameters in a map (nine entries
// take sixteen slots of 72 bytes) a generated record held 1939 bytes
// (go1.24, linux/amd64); one sorted slice of them brings it to 1285-1295.
// The bar is 1400. What keeps it above 1.2 KB: the nine 72-byte entries
// fill 648 bytes of a 704-byte size class, and the slice header moves the
// record struct from the 288-byte class to the 320-byte one.
func TestRecordBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes heap sizes")
	}
	const n = 10000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ms, err := DefaultFleetSpec(n).Build(time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	held := make([]*Machine, n)
	for i, m := range ms {
		held[i] = m.Clone()
	}
	ms = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	perRecord := float64(after.HeapAlloc-before.HeapAlloc) / n
	runtime.KeepAlive(held)
	t.Logf("%.0f bytes of live heap per stored record", perRecord)
	if perRecord > 1400 {
		t.Errorf("%.0f bytes of live heap per stored record, want at most 1400", perRecord)
	}
}

func TestFleetSpecBuild(t *testing.T) {
	now := time.Unix(5000, 0)
	machines, err := DefaultFleetSpec(100).Build(now)
	if err != nil {
		t.Fatal(err)
	}
	if len(machines) != 100 {
		t.Fatalf("built %d machines", len(machines))
	}
	archs := map[string]int{}
	for _, m := range machines {
		if err := m.Validate(); err != nil {
			t.Fatalf("generated machine invalid: %v", err)
		}
		archs[param(m, "arch").Str]++
		if !m.Usable() {
			t.Fatalf("generated machine %s not usable", m.Static.Name)
		}
		if m.Dynamic.LastUpdate != now {
			t.Fatalf("machine %s LastUpdate = %v", m.Static.Name, m.Dynamic.LastUpdate)
		}
	}
	if len(archs) != 4 {
		t.Errorf("expected 4 architectures, got %v", archs)
	}
	for a, n := range archs {
		if n != 25 {
			t.Errorf("arch %s count = %d, want 25", a, n)
		}
	}
}

func TestFleetSpecDeterministic(t *testing.T) {
	a, err := DefaultFleetSpec(50).Build(time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := DefaultFleetSpec(50).Build(time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Static != b[i].Static {
			t.Fatalf("machine %d differs across builds", i)
		}
	}
}

func TestFleetSpecErrors(t *testing.T) {
	if _, err := (FleetSpec{N: 0, Archs: []string{"x"}, Domains: []string{"d"}}).Build(time.Time{}); err == nil {
		t.Error("zero-size fleet should fail")
	}
	if _, err := (FleetSpec{N: 1}).Build(time.Time{}); err == nil {
		t.Error("fleet without archs should fail")
	}
}

func TestHomogeneousFleet(t *testing.T) {
	machines, err := HomogeneousFleetSpec(10).Build(time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range machines {
		if param(m, "arch").Str != "sun" || param(m, "domain").Str != "purdue" {
			t.Fatalf("machine %s not homogeneous", m.Static.Name)
		}
	}
}
