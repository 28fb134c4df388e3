package registry

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

	"actyp/internal/query"
)

// Locked is the original white-pages engine: a single-RWMutex map from
// machine name to record. Every query operation snapshots, clones and
// name-sorts whatever it touches under the one lock, which makes it easy
// to reason about — it is the reference oracle the differential tests run
// the sharded engine against — but makes Select/Take O(n log n) plus a
// full deep copy per call. Use Sharded on hot paths.
type Locked struct {
	mu       sync.RWMutex
	machines map[string]*Machine

	// watchHub implements Watch; mutators emit change events under the
	// engine lock, exactly as the sharded engine does per shard.
	watchHub
}

// NewLocked returns an empty single-lock backend.
func NewLocked() *Locked {
	return &Locked{machines: make(map[string]*Machine)}
}

// Add inserts a copy of a machine record. It fails if the record is
// invalid or a machine with the same name already exists.
func (db *Locked) Add(m *Machine) error {
	return db.AddOwned(m.Clone())
}

// AddOwned inserts the record itself; the caller gives it up.
func (db *Locked) AddOwned(m *Machine) error {
	if err := m.Validate(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	name := m.Static.Name
	if _, ok := db.machines[name]; ok {
		return fmt.Errorf("registry: machine %q already registered", name)
	}
	db.machines[name] = m
	db.emit(Event{Kind: EventAdded, Name: name})
	return nil
}

// AddOwnedAll is a loop of AddOwned that checks every record before it
// inserts any: a refused batch leaves the store unchanged.
func (db *Locked) AddOwnedAll(ms []*Machine) error {
	for _, m := range ms {
		if err := m.Validate(); err != nil {
			return err
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for i, m := range ms {
		name := m.Static.Name
		if prev, ok := db.machines[name]; ok {
			for _, m := range ms[:i] {
				delete(db.machines, m.Static.Name)
			}
			if slices.Contains(ms[:i], prev) {
				return fmt.Errorf("registry: machine %q given twice in one batch", name)
			}
			return fmt.Errorf("registry: machine %q already registered", name)
		}
		db.machines[name] = m
	}
	for _, m := range ms {
		db.emit(Event{Kind: EventAdded, Name: m.Static.Name})
	}
	return nil
}

// Remove deletes a machine record by name.
func (db *Locked) Remove(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.machines[name]; !ok {
		return fmt.Errorf("registry: machine %q not registered", name)
	}
	delete(db.machines, name)
	db.emit(Event{Kind: EventRemoved, Name: name})
	return nil
}

// Get returns a copy of the record for name.
func (db *Locked) Get(name string) (*Machine, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	m, ok := db.machines[name]
	if !ok {
		return nil, fmt.Errorf("registry: machine %q not registered", name)
	}
	return m.Clone(), nil
}

// View is Get: the oracle shares nothing, which the contract allows.
func (db *Locked) View(name string) (*Machine, error) { return db.Get(name) }

// Has reports whether a record for name exists.
func (db *Locked) Has(name string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.machines[name]
	return ok
}

// Len returns the number of registered machines.
func (db *Locked) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.machines)
}

// Names returns all machine names, sorted.
func (db *Locked) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.machines))
	for n := range db.machines {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SetState updates field 1 for a machine.
func (db *Locked) SetState(name string, s State) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	m, ok := db.machines[name]
	if !ok {
		return fmt.Errorf("registry: machine %q not registered", name)
	}
	m.State = s
	db.emit(Event{Kind: EventStateSet, Name: name})
	return nil
}

// UpdateDynamic overwrites the monitor-maintained fields 2–7 as a unit.
// This is the entry point the resource monitoring service uses.
func (db *Locked) UpdateDynamic(name string, d Dynamic) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	m, ok := db.machines[name]
	if !ok {
		return fmt.Errorf("registry: machine %q not registered", name)
	}
	m.Dynamic = d
	db.emit(Event{Kind: EventDynamicUpdated, Name: name, Dynamic: d})
	return nil
}

// UpdateDynamicBatch applies many dynamic updates under one lock
// acquisition. Unknown machines are skipped; it returns how many records
// were updated.
func (db *Locked) UpdateDynamicBatch(updates []DynamicUpdate) int {
	if len(updates) == 0 {
		return 0
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	n := 0
	for _, u := range updates {
		m, ok := db.machines[u.Name]
		if !ok {
			continue
		}
		m.Dynamic = u.Dynamic
		db.emit(Event{Kind: EventDynamicUpdated, Name: u.Name, Dynamic: u.Dynamic})
		n++
	}
	return n
}

// SetParam sets one administrator-defined parameter (field 20).
func (db *Locked) SetParam(name, key string, attr query.Attr) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	m, ok := db.machines[name]
	if !ok {
		return fmt.Errorf("registry: machine %q not registered", name)
	}
	m.Policy.Params = m.Policy.Params.With(key, attr)
	db.emit(Event{Kind: EventParamSet, Name: name})
	return nil
}

// Walk calls fn for every machine in name order, stopping early if fn
// returns false. The callback receives a copy; mutations do not write back.
func (db *Locked) Walk(fn func(*Machine) bool) {
	db.mu.RLock()
	names := make([]string, 0, len(db.machines))
	for n := range db.machines {
		names = append(names, n)
	}
	sort.Strings(names)
	clones := make([]*Machine, 0, len(names))
	for _, n := range names {
		clones = append(clones, db.machines[n].Clone())
	}
	db.mu.RUnlock()
	for _, m := range clones {
		if !fn(m) {
			return
		}
	}
}

// Select returns copies of the machines whose attributes satisfy the rsrc
// constraints of the query, regardless of taken state.
func (db *Locked) Select(q *query.Query) []*Machine {
	var out []*Machine
	db.Walk(func(m *Machine) bool {
		if m.Attrs().MatchRsrc(q) {
			out = append(out, m)
		}
		return true
	})
	return out
}

// Page is the oracle for the sharded engine's paged read, and the one place
// where a full scan is cut down afterwards: every record is cloned and
// tested through the materialized attribute set, then the resume point,
// offset and limit are applied to the name-sorted matches.
func (db *Locked) Page(conds []query.RsrcCond, c Cursor) ([]*Machine, int) {
	ms := []*Machine{}
	db.Walk(func(m *Machine) bool {
		if m.Attrs().MatchConds(conds) {
			ms = append(ms, m)
		}
		return true
	})
	total := 0
	if c.Total {
		total = len(ms)
	}
	ms = ms[sort.Search(len(ms), func(i int) bool { return ms[i].Static.Name > c.After }):]
	if c.Offset > 0 {
		ms = ms[min(c.Offset, len(ms)):]
	}
	if c.Limit > 0 && len(ms) > c.Limit {
		ms = ms[:c.Limit]
	}
	return ms, total
}

// Statuses appends every record's name, state and dynamic fields to buf.
func (db *Locked) Statuses(buf []Status) []Status {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for name, m := range db.machines {
		buf = append(buf, Status{Name: name, State: m.State, Dynamic: m.Dynamic})
	}
	return buf
}

// Take implements the pool-initialization protocol of Section 5.2.3: it
// atomically selects up to limit machines that satisfy the query, are not
// already taken, and marks them taken by the named pool instance. A limit
// of zero or less means "no limit". It returns copies of the taken records.
func (db *Locked) Take(q *query.Query, poolInstance string, limit int) []*Machine {
	if poolInstance == "" {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	names := make([]string, 0, len(db.machines))
	for n := range db.machines {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []*Machine
	for _, n := range names {
		if limit > 0 && len(out) >= limit {
			break
		}
		m := db.machines[n]
		if m.TakenBy != "" {
			continue
		}
		if !m.Attrs().MatchRsrc(q) {
			continue
		}
		m.TakenBy = poolInstance
		out = append(out, m.Clone())
		db.emit(Event{Kind: EventTaken, Name: n})
	}
	return out
}

// Release clears the taken mark on the named machines, but only if they are
// held by the given pool instance. It returns how many it released.
func (db *Locked) Release(poolInstance string, names ...string) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	n := 0
	for _, name := range names {
		m, ok := db.machines[name]
		if !ok {
			continue
		}
		if m.TakenBy == poolInstance {
			m.TakenBy = ""
			n++
			db.emit(Event{Kind: EventReleased, Name: name})
		}
	}
	return n
}

// ReleaseAll clears every taken mark held by the pool instance, returning
// the count. Pool objects call this when they shut down.
func (db *Locked) ReleaseAll(poolInstance string) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	n := 0
	for name, m := range db.machines {
		if m.TakenBy == poolInstance {
			m.TakenBy = ""
			n++
			db.emit(Event{Kind: EventReleased, Name: name})
		}
	}
	return n
}

// TakenBy returns the names of machines currently held by the pool
// instance, sorted.
func (db *Locked) TakenBy(poolInstance string) []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []string
	for n, m := range db.machines {
		if m.TakenBy == poolInstance {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Save writes the database as JSON to w.
func (db *Locked) Save(w io.Writer) error {
	db.mu.RLock()
	snap := snapshot{Machines: make([]*Machine, 0, len(db.machines))}
	names := make([]string, 0, len(db.machines))
	for n := range db.machines {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		snap.Machines = append(snap.Machines, db.machines[n].Clone())
	}
	db.mu.RUnlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// Load replaces the database contents with the JSON snapshot read from r.
func (db *Locked) Load(r io.Reader) error {
	ms, err := decodeSnapshot(r)
	if err != nil {
		return err
	}
	fresh := NewLocked()
	if err := fresh.AddOwnedAll(ms); err != nil {
		return err
	}
	db.mu.Lock()
	db.machines = fresh.machines
	db.mu.Unlock()
	// A wholesale replacement has no incremental description: subscribers
	// get the resync marker and re-read.
	db.emitResync()
	return nil
}
