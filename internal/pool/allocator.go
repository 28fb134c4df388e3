package pool

import (
	"errors"
	"fmt"
	"time"

	"actyp/internal/policy"
	"actyp/internal/query"
	"actyp/internal/registry"
	"actyp/internal/schedule"
)

// Allocation engine kinds accepted by Config.Engine and actyp-bench's
// -pool-engine flag.
const (
	// EngineOracle is the original single-mutex full-scan allocator: every
	// Allocate builds a candidate view of the whole cache and runs the
	// paper's linear search inside one critical section. It carries the
	// Figures 6-8 ScanCost model — whose whole point is that concurrent
	// queries serialize on the scan — and serves as the reference oracle
	// for the differential tests.
	EngineOracle = "oracle"
	// EngineIndexed is the concurrent allocator: free machines are
	// bucketed by their discrete eligibility gates (user groups, tool
	// groups, usage-policy reference) and kept in per-bucket heaps ordered
	// by the scheduling objective, so Allocate claims the best eligible
	// machine in O(log n) under short per-bucket locks instead of scanning
	// the cache under one mutex.
	EngineIndexed = "indexed"
)

// Allocator is the selection engine behind one Pool: it owns the machine
// cache and one busy bit per machine, picks a free machine for a request,
// marks it busy, and takes it back. It knows no lease: the Pool keeps the
// lease table (ids and deadlines) above it, once for both engines, and
// names a machine it holds by its slot, the machine's cache position,
// which is fixed after construction.
//
// Engines must agree on serial semantics (which machine a given request
// gets, and every observable count); the differential tests in
// differential_test.go enforce this the same way internal/registry pins
// its storage engines to each other.
type Allocator interface {
	// Kind returns the engine kind name.
	Kind() string
	// Size returns the number of machines in the cache.
	Size() int
	// Members returns the machine names in cache order.
	Members() []string
	// Allocate selects the best eligible free machine for the request,
	// marks it busy, and returns its slot and record. It returns
	// ErrExhausted when no machine qualifies. req.newID is called once,
	// after a machine is claimed and while the claim is still in flight,
	// so misses stay free of id-generation work; its error aborts the
	// allocation and leaves the machine free.
	Allocate(req *allocRequest) (slot int, m *registry.Machine, err error)
	// Return frees a machine that Allocate or Claim handed out. The
	// caller must hold the slot: each one is returned once.
	Return(slot int)
	// Claim marks the named machine busy for recovery, the inverse of
	// Return, and returns its slot. It fails for a machine outside the
	// cache or one already busy. Busy like a grant, counted like neither
	// (allocs/misses stay untouched).
	Claim(machine string) (slot int, err error)
	// Refresh re-reads every cached machine through get and rebuilds its
	// candidate view from the record (candidateOf). Machines get reports
	// as unknown keep their last view.
	Refresh(get func(name string) (*registry.Machine, error))
	// Apply folds a batch of registry change events into the candidate
	// view: the incremental counterpart of Refresh, touching only the
	// machines the events name, in event order, so the last event of a
	// machine decides its view. DynamicUpdated events carry their snapshot
	// and cost no database read; other kinds re-read the record through
	// get (a failing get keeps the last view, as in Refresh). The oracle
	// engine deliberately keeps full-scan semantics and treats any Apply
	// as a full Refresh — which is exactly what lets the differential
	// tests pin the event-applied indexed state to a full rebuild.
	Apply(events []registry.Event, get func(name string) (*registry.Machine, error))
	// Stats reports successful allocations, exhausted misses, and the
	// total number of cache entries examined while selecting.
	Stats() (allocs, misses int, scanned int64)
}

// errNotMember and errBusy are Claim's two refusals.
var (
	errNotMember = errors.New("not in cache")
	errBusy      = errors.New("already leased")
)

// allocRequest carries one allocation's identity and eligibility gates,
// precomputed by the Pool so engines never touch the query twice.
type allocRequest struct {
	userGroup string       // punch.user.accessgroup, "" when absent
	toolGroup string       // punch.appl.tool, "" when absent
	login     string       // punch.user.login, "" when absent
	verify    *query.Query // non-nil: re-verify rsrc constraints per machine (mis-routed query)
	// newID mints the lease id (key generation and all) into the Pool's
	// keeping, called exactly once per successful claim, while the claimed
	// machine is exclusively held. An error aborts the allocation; engines
	// must return the machine to the free state.
	newID func() error
}

// engineConfig is the static per-pool configuration shared by engines.
type engineConfig struct {
	obj      schedule.Objective
	instance int
	replicas int
	scanCost time.Duration
	policies *policy.Store
}

// resolveEngine maps the configured kind to the engine to build. A
// positive ScanCost pins the pool to the oracle: the modelled linear
// search must serialize inside one critical section to mean anything
// (Figures 6-8), which is exactly what the indexed engine removes.
func resolveEngine(kind string, scanCost time.Duration) (string, error) {
	switch kind {
	case "", EngineOracle, EngineIndexed:
	default:
		return "", fmt.Errorf("pool: unknown engine %q (want %q or %q)", kind, EngineOracle, EngineIndexed)
	}
	if scanCost > 0 || kind == EngineOracle {
		return EngineOracle, nil
	}
	return EngineIndexed, nil
}

// ValidateEngine rejects unknown engine kinds; core.New uses it to fail
// fast on a bad engine name.
func ValidateEngine(kind string) error {
	_, err := resolveEngine(kind, 0)
	return err
}

// newAllocator builds the resolved engine over the loaded machines.
func newAllocator(kind string, machines []*registry.Machine, cfg engineConfig) Allocator {
	if kind == EngineIndexed {
		return newIndexedAlloc(machines, cfg)
	}
	return newOracleAlloc(machines, cfg)
}

// policyDenied evaluates a machine's field-19 usage-policy metaprogram
// against the requester and the machine's live candidate state. A nil
// policy (no store, empty or unresolvable reference) behaves like the
// paper's unimplemented field: allow.
func policyDenied(pol *policy.Policy, m *registry.Machine, cand *schedule.Candidate, group, tool, login string) bool {
	if pol == nil {
		return false
	}
	ctx := policy.Context{
		"load":       query.NumAttr(cand.Load),
		"freememory": query.NumAttr(cand.FreeMemory),
		"activejobs": query.NumAttr(float64(cand.ActiveJobs)),
		"machine":    query.StrAttr(m.Static.Name),
	}
	if group != "" {
		ctx["group"] = query.StrAttr(group)
	}
	if tool != "" {
		ctx["tool"] = query.StrAttr(tool)
	}
	if login != "" {
		ctx["login"] = query.StrAttr(login)
	}
	return pol.Evaluate(ctx) == policy.Deny
}

// candidateOf is a machine's candidate view: a pure function of its
// record, so Apply and Refresh land on the same view bit for bit. It adds
// no charge for the pool's own grants: a leased machine is never a
// candidate in its pool until Return, and the monitor's next report
// carries the job to everyone else.
func candidateOf(m *registry.Machine) schedule.Candidate {
	return schedule.Candidate{
		Name:       m.Static.Name,
		Load:       m.Dynamic.Load,
		FreeMemory: m.Dynamic.FreeMemory,
		FreeSwap:   m.Dynamic.FreeSwap,
		Speed:      m.Static.Speed,
		CPUs:       m.Static.CPUs,
		ActiveJobs: m.Dynamic.ActiveJobs,
	}
}

// lookupPolicy resolves a usage-policy reference, mapping "no store",
// "no reference", and "unresolvable reference" to nil (allow-all).
func lookupPolicy(store *policy.Store, ref string) *policy.Policy {
	if store == nil || ref == "" {
		return nil
	}
	pol, ok := store.Lookup(ref)
	if !ok {
		return nil
	}
	return pol
}
