package registry

import (
	"encoding/json"
	"fmt"
	"io"

	"actyp/internal/query"
)

// Backend is the storage engine behind a DB. Two implementations exist:
//
//   - Locked: the original single-RWMutex map, kept as the reference
//     oracle for differential tests and comparison benchmarks.
//   - Sharded: hash-sharded with per-shard locks, inverted indexes over
//     discrete admin parameters, and one stored copy per shard of each
//     distinct parameter set and group list — the default.
//
// All implementations share the semantics the pipeline depends on:
// name-sorted deterministic ordering of Walk/Select/Page/Take/Names/TakenBy,
// copy-out isolation (callers never alias stored records; the one shared
// read, View, is read-only by contract), and the atomic
// mark-taken protocol of Section 5.2.3 (no machine is ever handed to two
// pool instances at once).
type Backend interface {
	// Add inserts a machine record. It fails if the record is invalid or
	// a machine with the same name already exists.
	Add(m *Machine) error
	// AddOwned is Add without the copy: the store keeps m itself, so the
	// caller must not touch m, or anything it references, afterwards.
	AddOwned(m *Machine) error
	// AddOwnedAll is AddOwned for a batch, the population paths' insert:
	// every record is validated, and its name checked against the batch
	// and the store, before any is inserted, so a refused batch leaves the
	// store unchanged. An accepted batch publishes one EventAdded per
	// record, as AddOwned would.
	AddOwnedAll(ms []*Machine) error
	// Remove deletes a machine record by name.
	Remove(name string) error
	// Get returns a copy of the record for name.
	Get(name string) (*Machine, error)
	// View is the read for in-process holders that keep many records for
	// long, the pools above all: a copy of the record's mutable header
	// (State, Dynamic, TakenBy) whose cold part (Static, Access, Policy,
	// with the slices behind it, Params among them) may be the store's
	// own. A store never writes a published cold part, it replaces it, so
	// a view stays consistent as of its read; in return the holder must
	// treat everything outside the header as read-only.
	View(name string) (*Machine, error)
	// Has reports whether a record for name exists, copying nothing.
	Has(name string) bool
	// Len returns the number of registered machines.
	Len() int
	// Names returns all machine names, sorted.
	Names() []string
	// SetState updates field 1 for a machine.
	SetState(name string, s State) error
	// UpdateDynamic overwrites the monitor-maintained fields 2–7 as a unit.
	UpdateDynamic(name string, d Dynamic) error
	// UpdateDynamicBatch applies many dynamic updates in one call,
	// amortizing lock acquisitions (the sharded engine locks a shard once
	// per run of updates that hash to it, so once per shard for a batch
	// in Statuses order). Unknown machines are skipped; it returns how
	// many records were updated.
	UpdateDynamicBatch(updates []DynamicUpdate) int
	// SetParam sets one administrator-defined parameter (field 20).
	SetParam(name, key string, attr query.Attr) error
	// Walk calls fn for every machine in name order, stopping early if fn
	// returns false. The callback receives a copy.
	Walk(fn func(*Machine) bool)
	// Select returns copies of the machines whose attributes satisfy the
	// rsrc constraints of the query, regardless of taken state, in name
	// order.
	Select(q *query.Query) []*Machine
	// Page is the paged read behind every reader that wants part of a
	// match set: copies of at most c.Limit records satisfying conds (the
	// compiled form, query.CompileRsrc; none matches every record), in
	// global name order, past the resume point and offset c names. It
	// costs one predicate test per candidate stepped over to fill the page
	// and one clone per record returned, and a page shorter than a
	// positive c.Limit means the scan reached the end of the match set.
	// The second result is the number of matches in the whole registry
	// when c.Total asks for it, else 0; counting it tests every candidate,
	// unless the engine remembers the count (Sharded keeps, per shard, the
	// counts of its last few predicates until a write that could change
	// them).
	Page(conds []query.RsrcCond, c Cursor) ([]*Machine, int)
	// Statuses appends the monitor's view of every record (name, state
	// and dynamic fields, copied by value, nothing cloned) to buf, in no
	// particular order, and returns the extended slice.
	Statuses(buf []Status) []Status
	// Take atomically selects up to limit machines that satisfy the
	// query, are not already taken, and marks them taken by the named
	// pool instance. A limit of zero or less means "no limit". The
	// records returned are views (see View).
	Take(q *query.Query, poolInstance string, limit int) []*Machine
	// Release clears the taken mark on the named machines, but only if
	// they are held by the given pool instance.
	Release(poolInstance string, names ...string) int
	// ReleaseAll clears every taken mark held by the pool instance.
	ReleaseAll(poolInstance string) int
	// TakenBy returns the names of machines currently held by the pool
	// instance, sorted.
	TakenBy(poolInstance string) []string
	// Save writes the database as JSON to w.
	Save(w io.Writer) error
	// Load replaces the database contents with the JSON snapshot read
	// from r.
	Load(r io.Reader) error
	// Watch subscribes to the change stream: every mutation the backend
	// commits is published as a typed Event through a bounded
	// per-subscriber FIFO of buffer events (a positive size) that degrades
	// to a resync marker on overflow instead of ever blocking a writer.
	// See watch.go for the contract, and DB.Watch for the size a database
	// hands out.
	Watch(buffer int) *Subscription
}

// Cursor names the part of a match set one Page call returns. A reader of
// a whole set passes the last name it saw as After and stops at the first
// short page: every record present for the whole pass is then returned
// exactly once, whatever is added or removed meanwhile, which paging by
// Offset cannot promise.
type Cursor struct {
	After  string // resume point: only names greater than After are returned
	Offset int    // matches past After to skip before the page starts
	Limit  int    // page size; zero or less returns every match past Offset
	Total  bool   // also count the matches in the whole registry (exact; see Page for its cost)
	Shared bool   // the caller only reads the page: views (see View) will do
}

// Status is what a monitor sweep reads of one record.
type Status struct {
	Name    string
	State   State
	Dynamic Dynamic
}

// Backend kind names accepted by OpenBackend and actyp-bench's flags.
const (
	BackendLocked  = "locked"
	BackendSharded = "sharded"
)

// OpenBackend constructs a backend by kind name. An empty kind selects the
// default (sharded). For the sharded backend, shards <= 0 picks a
// GOMAXPROCS-scaled shard count; the locked backend ignores shards.
func OpenBackend(kind string, shards int) (Backend, error) {
	switch kind {
	case BackendLocked:
		return NewLocked(), nil
	case BackendSharded, "":
		return NewSharded(shards), nil
	}
	return nil, fmt.Errorf("registry: unknown backend %q (want %q or %q)", kind, BackendLocked, BackendSharded)
}

// snapshot is the on-disk shape of the database, shared by every backend so
// snapshots written by one can be loaded by another.
type snapshot struct {
	Machines []*Machine `json:"machines"`
}

// decodeSnapshot reads a snapshot's records. Every backend's Load decodes
// through it and checks the records as its AddOwnedAll does, so the engines
// can never drift in which snapshots they accept, and a bad snapshot is
// rejected before any store is touched.
func decodeSnapshot(r io.Reader) ([]*Machine, error) {
	var snap snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("registry: load: %w", err)
	}
	return snap.Machines, nil
}
