// Package registry implements the ActYP "white pages" resource database of
// Section 4.1: one record per machine carrying the twenty fields of
// Figure 3, a concurrency-safe store with the walk-and-take protocol used by
// pool objects during initialization, and snapshot persistence.
package registry

import (
	"fmt"
	"time"

	"actyp/internal/query"
)

// State is the first database field: the coarse availability of a machine.
type State int

// The three machine states of Figure 3, field 1.
const (
	StateUp State = iota
	StateDown
	StateBlocked
)

func (s State) String() string {
	switch s {
	case StateUp:
		return "up"
	case StateDown:
		return "down"
	case StateBlocked:
		return "blocked"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// ParseState converts the textual state back to a State.
func ParseState(s string) (State, error) {
	switch s {
	case "up":
		return StateUp, nil
	case "down":
		return StateDown, nil
	case "blocked":
		return StateBlocked, nil
	}
	return StateDown, fmt.Errorf("registry: unknown state %q", s)
}

// Dynamic holds the monitor-maintained fields 2–7 of Figure 3. The resource
// monitoring service overwrites these as a unit.
type Dynamic struct {
	Load        float64   `json:"load"`        // field 2: current load
	ActiveJobs  int       `json:"activeJobs"`  // field 3: active jobs
	FreeMemory  float64   `json:"freeMemory"`  // field 4: available memory (MB)
	FreeSwap    float64   `json:"freeSwap"`    // field 5: available swap (MB)
	LastUpdate  time.Time `json:"lastUpdate"`  // field 6: time of last update
	ServiceFlag uint32    `json:"serviceFlag"` // field 7: PUNCH service status flags
}

// Service status flag bits (field 7).
const (
	FlagExecUnit  uint32 = 1 << iota // PUNCH execution unit reachable
	FlagMountMgr                     // PVFS mount manager reachable
	FlagShadowOK                     // shadow account pool has free accounts
	FlagMonitorOK                    // monitor heartbeat fresh
)

// Static holds the manually-updated fields 8–11 of Figure 3.
type Static struct {
	Speed   float64 `json:"speed"`   // field 8: effective speed (SPEC-like units)
	CPUs    int     `json:"cpus"`    // field 9: number of CPUs
	MaxLoad float64 `json:"maxLoad"` // field 10: maximum allowed load
	Name    string  `json:"name"`    // field 11: machine name
}

// Access mirrors fields 12–15: how PUNCH reaches and drives the machine.
// The machine object pointer of the paper (a file path holding ssh keys and
// start-up instructions) is represented by ObjectRef.
type Access struct {
	ObjectRef     string `json:"objectRef"`     // field 12: machine object pointer
	SharedAccount string `json:"sharedAccount"` // field 13: shared account id ("" if none)
	ExecUnitPort  int    `json:"execUnitPort"`  // field 14: execution unit TCP port
	MountMgrPort  int    `json:"mountMgrPort"`  // field 15: PVFS mount manager TCP port
	Addr          string `json:"addr"`          // IP address handed to clients
}

// Policy mirrors fields 16–20: who may use the machine and for what.
//
// UserGroups, ToolGroups and Params are immutable once a record is stored:
// Sharded points every record whose list or parameter set equals a stored
// one by value at that one backing array, and views share it too. A writer
// replaces the slice (SetParam swaps in Params.With's copy), never an
// element; Clone deep-copies all three for whatever leaves the process.
type Policy struct {
	UserGroups    []string     `json:"userGroups"`    // field 16: allowed user groups (immutable once stored)
	ToolGroups    []string     `json:"toolGroups"`    // field 17: runnable tool groups (immutable once stored)
	ShadowPoolRef string       `json:"shadowPoolRef"` // field 18: shadow account pool pointer
	UsagePolicy   string       `json:"usagePolicy"`   // field 19: usage policy metaprogram ref
	Params        query.Params `json:"params"`        // field 20: admin-defined key-value pairs (immutable once stored)
}

// Machine is one white-pages record: the twenty fields of Figure 3 plus the
// taken flag pool objects set while they hold the machine.
type Machine struct {
	State   State   `json:"state"`
	Dynamic Dynamic `json:"dynamic"`
	Static  Static  `json:"static"`
	Access  Access  `json:"access"`
	Policy  Policy  `json:"policy"`

	// TakenBy names the pool instance currently holding this machine, or
	// "" when the machine is free. Pool objects mark machines taken while
	// loading them into their local caches (Section 5.2.3).
	TakenBy string `json:"takenBy,omitempty"`
}

// Clone returns a deep copy of the machine record.
func (m *Machine) Clone() *Machine {
	c := *m
	c.Policy.UserGroups = append([]string(nil), m.Policy.UserGroups...)
	c.Policy.ToolGroups = append([]string(nil), m.Policy.ToolGroups...)
	c.Policy.Params = m.Policy.Params.Clone()
	return &c
}

// view returns a copy of the record's struct alone: the header is the
// caller's, everything behind the cold part's strings and slices is still
// m's (see Backend.View for who may hold one).
func (m *Machine) view() *Machine {
	v := *m
	return &v
}

// builtinAttr derives one attribute from record fields. Exactly one of
// num and attr is set: numeric built-ins expose the bare number, so the
// per-record matcher tests them without formatting a string per record.
// dynamic marks the built-ins derived from Dynamic, which every monitor
// sweep rewrites: the sharded backend remembers no match count of a
// predicate that names one (TestDynamicBuiltinsMarked holds the marks to
// the fields).
type builtinAttr struct {
	num     func(*Machine) float64
	attr    func(*Machine) (query.Attr, bool)
	dynamic bool
}

// value is the attribute as Attrs exposes it.
func (b builtinAttr) value(m *Machine) (query.Attr, bool) {
	if b.num != nil {
		return query.NumAttr(b.num(m)), true
	}
	return b.attr(m)
}

// builtinAttrs is the single schema of the attributes derived from record
// fields rather than admin parameters. Attrs, the per-record matcher
// (attrNamed, matchConds), the sharded backend's index guard and its count
// memo all read this table, so a new derived attribute added here is
// consistently exposed by every backend and never shadowed by a stale index
// or a stale count. An extractor returning ok=false (the empty
// usergroup/toolgroup lists) lets a same-named admin parameter show through
// instead.
var builtinAttrs = map[string]builtinAttr{
	"name":       {attr: func(m *Machine) (query.Attr, bool) { return query.StrAttr(m.Static.Name), true }},
	"speed":      {num: func(m *Machine) float64 { return m.Static.Speed }},
	"cpus":       {num: func(m *Machine) float64 { return float64(m.Static.CPUs) }},
	"maxload":    {num: func(m *Machine) float64 { return m.Static.MaxLoad }},
	"load":       {num: func(m *Machine) float64 { return m.Dynamic.Load }, dynamic: true},
	"activejobs": {num: func(m *Machine) float64 { return float64(m.Dynamic.ActiveJobs) }, dynamic: true},
	"freememory": {num: func(m *Machine) float64 { return m.Dynamic.FreeMemory }, dynamic: true},
	"freeswap":   {num: func(m *Machine) float64 { return m.Dynamic.FreeSwap }, dynamic: true},
	"usergroup": {attr: func(m *Machine) (query.Attr, bool) {
		if len(m.Policy.UserGroups) == 0 {
			return query.Attr{}, false
		}
		return query.ListAttr(m.Policy.UserGroups...), true
	}},
	"toolgroup": {attr: func(m *Machine) (query.Attr, bool) {
		if len(m.Policy.ToolGroups) == 0 {
			return query.Attr{}, false
		}
		return query.ListAttr(m.Policy.ToolGroups...), true
	}},
}

// Attrs flattens the record into the attribute set seen by query matching:
// the admin-defined parameters of field 20 plus the built-in attributes
// derived from the other fields (name, speed, cpus, load, memory, swap,
// usergroup, toolgroup).
func (m *Machine) Attrs() query.AttrSet {
	out := m.Policy.Params.AttrSet()
	for name, b := range builtinAttrs {
		if attr, ok := b.value(m); ok {
			out[name] = attr
		}
	}
	return out
}

// attrNamed returns the single attribute Attrs would expose under name,
// without materializing (and deep-copying) the whole set. Built-in
// attributes shadow same-named admin parameters, exactly as in Attrs.
func (m *Machine) attrNamed(name string) (query.Attr, bool) {
	b, builtin := builtinAttrs[name]
	return m.attrFrom(b, builtin, name)
}

// attrFrom is attrNamed past its lookup of name in builtinAttrs.
func (m *Machine) attrFrom(b builtinAttr, builtin bool, name string) (query.Attr, bool) {
	if builtin {
		if attr, ok := b.value(m); ok {
			return attr, true
		}
	}
	return m.Policy.Params.Get(name)
}

// matchConds is the per-record hot path of Page, Select and Take:
// equivalent to m.Attrs().MatchConds(conds) but without building the
// attribute set, without allocating on numeric built-ins, and with one
// lookup in builtinAttrs per condition.
func (m *Machine) matchConds(conds []query.RsrcCond) bool {
	for _, rc := range conds {
		b, builtin := builtinAttrs[rc.Name]
		if b.num != nil {
			if !query.NumMatches(b.num(m), rc.Cond) {
				return false
			}
			continue
		}
		attr, ok := m.attrFrom(b, builtin, rc.Name)
		if !ok || !attr.Matches(rc.Cond) {
			return false
		}
	}
	return true
}

// Usable reports whether the machine can be handed out at all: it must be
// up and below its administrator-set load ceiling.
func (m *Machine) Usable() bool {
	return m.State == StateUp && m.Dynamic.Load < m.Static.MaxLoad
}

// AllowsUserGroup reports whether the machine's user-group list admits the
// given group. An empty list admits everyone (a public machine).
func (m *Machine) AllowsUserGroup(group string) bool {
	if len(m.Policy.UserGroups) == 0 {
		return true
	}
	for _, g := range m.Policy.UserGroups {
		if g == group {
			return true
		}
	}
	return false
}

// SupportsToolGroup reports whether the machine can run tools of the given
// group. An empty list supports every tool.
func (m *Machine) SupportsToolGroup(group string) bool {
	if len(m.Policy.ToolGroups) == 0 {
		return true
	}
	for _, g := range m.Policy.ToolGroups {
		if g == group {
			return true
		}
	}
	return false
}

// Validate checks the structural invariants a record must satisfy before it
// may enter the database.
func (m *Machine) Validate() error {
	if m.Static.Name == "" {
		return fmt.Errorf("registry: machine needs a name")
	}
	if m.Static.CPUs <= 0 {
		return fmt.Errorf("registry: machine %s: cpus must be positive", m.Static.Name)
	}
	if m.Static.Speed <= 0 {
		return fmt.Errorf("registry: machine %s: speed must be positive", m.Static.Name)
	}
	if m.Static.MaxLoad <= 0 {
		return fmt.Errorf("registry: machine %s: maxLoad must be positive", m.Static.Name)
	}
	if m.Access.ExecUnitPort < 0 || m.Access.ExecUnitPort > 65535 {
		return fmt.Errorf("registry: machine %s: bad exec unit port %d", m.Static.Name, m.Access.ExecUnitPort)
	}
	if m.Access.MountMgrPort < 0 || m.Access.MountMgrPort > 65535 {
		return fmt.Errorf("registry: machine %s: bad mount manager port %d", m.Static.Name, m.Access.MountMgrPort)
	}
	if err := m.Policy.Params.Check(); err != nil {
		return fmt.Errorf("registry: machine %s: %w", m.Static.Name, err)
	}
	return nil
}
