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
	// cache or one already busy. Charged like a grant (local load
	// accounting), counted like neither (allocs/misses stay untouched).
	Claim(machine string) (slot int, err error)
	// Refresh re-reads every cached machine through get, folding monitor
	// updates into the candidate view while preserving locally-accounted
	// jobs. Machines get reports as unknown keep their last view.
	Refresh(get func(name string) (*registry.Machine, error))
	// Apply folds a batch of registry change events into the candidate
	// view: the incremental counterpart of Refresh, touching only the
	// machines the events name. DynamicUpdated events carry their snapshot
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

// The local-accounting arithmetic lives here, shared by both engines,
// because the differential tests require the engines to stay observably
// identical: a tweak to the math must be impossible to make in one engine
// only. The candidate load is always DERIVED — recomputed from the record
// plus the locally-charged job count — never incrementally accumulated:
// an accumulated float (+= on place, -= on release) drifts from the
// recomputed one by ulps, so an engine that folds only changed machines
// (Apply) would diverge on objective ties from one that re-reads
// everything (Refresh). Derivation makes the view a pure function of
// (record, local jobs), which both paths land on bit-for-bit.

// localJobs is the number of locally-charged jobs the monitor has not yet
// observed: the candidate's job count minus the record's, floored at zero.
func localJobs(cand *schedule.Candidate, m *registry.Machine) int {
	l := cand.ActiveJobs - m.Dynamic.ActiveJobs
	if l < 0 {
		l = 0
	}
	return l
}

// chargeLocal recomputes the candidate's load from the record plus the
// local job charge.
func chargeLocal(cand *schedule.Candidate, m *registry.Machine) {
	cand.Load = m.Dynamic.Load + float64(localJobs(cand, m))/float64(max(1, m.Static.CPUs))
}

// placeAccounting charges a just-granted lease to the candidate view so
// subsequent scheduling decisions see the machine as more loaded even
// before the monitor reports it.
func placeAccounting(cand *schedule.Candidate, m *registry.Machine) {
	cand.ActiveJobs++
	chargeLocal(cand, m)
}

// releaseAccounting undoes one lease's local charge. It never pushes the
// job count below the record's own: once the monitor has folded our job
// into its report the local charge is spent, and decrementing past the
// record would double-subtract — and leave a view that the next refresh
// of an unchanged record "corrects" back up, which would make folding
// frequency observable (Refresh must be a no-op on an unchanged record
// for Apply and Refresh to stay equivalent).
func releaseAccounting(cand *schedule.Candidate, m *registry.Machine) {
	if cand.ActiveJobs > m.Dynamic.ActiveJobs {
		cand.ActiveJobs--
	}
	chargeLocal(cand, m)
}

// refreshCandidate folds a fresh monitor record into the candidate view,
// preserving locally-accounted jobs the monitor has not observed yet.
func refreshCandidate(cand *schedule.Candidate, m *registry.Machine) {
	local := localJobs(cand, m)
	*cand = candidateOf(m)
	cand.ActiveJobs += local
	chargeLocal(cand, m)
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
