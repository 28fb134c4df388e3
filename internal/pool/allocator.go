package pool

import (
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

// Allocator is the storage-and-selection engine behind one Pool: it owns
// the machine cache and the lease table, and implements the allocate/
// release/renew/reap/refresh operations. The Pool wraps it with lease-id
// generation, access keys, TTL policy, and lifecycle.
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
	// Free returns how many machines are currently unleased.
	Free() int
	// Members returns the machine names in cache order.
	Members() []string
	// Allocate selects the best eligible free machine for the request,
	// marks it leased under an id drawn from req.newID, and returns its
	// record. It returns ErrExhausted when no machine qualifies; newID is
	// called only after a machine is claimed, so misses stay free of
	// id-generation work.
	Allocate(req *allocRequest) (*registry.Machine, error)
	// Release frees the machine held by a lease.
	Release(leaseID string) error
	// Renew overwrites a live lease's expiry deadline. A zero expires
	// leaves the deadline unchanged (a pure validity check), so renewing
	// on a TTL-disabled pool never erases a deadline granted earlier.
	Renew(leaseID string, expires time.Time) error
	// Reap releases every lease whose deadline has passed, returning the
	// reaped lease ids (in no particular order).
	Reap(now time.Time) []string
	// Adopt marks the named machine leased under an externally-minted
	// lease id (journal replay): the inverse of Allocate for recovery.
	// Adopting an id the engine already holds on the same machine is a
	// no-op; adopting a machine leased under another id, or a machine
	// outside the cache, is an error. Charged like a grant (local load
	// accounting), counted like neither (allocs/misses stay untouched).
	Adopt(leaseID, machine string, expires time.Time) error
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
	// Leases enumerates the live leases (unordered): the domain-migration
	// drain reads them to ship a domain's grants to the new owner.
	Leases() []LeaseInfo
	// Stats reports successful allocations, exhausted misses, and the
	// total number of cache entries examined while selecting.
	Stats() (allocs, misses int, scanned int64)
}

// LeaseInfo is one live lease as an engine tracks it: enough to re-adopt
// the grant elsewhere (the full pool.Lease the holder carries is not kept
// by engines — only the holder needs access keys and ports).
type LeaseInfo struct {
	ID      string
	Machine string
	Expires time.Time // zero: no expiry
}

// allocRequest carries one allocation's identity and eligibility gates,
// precomputed by the Pool so engines never touch the query twice.
type allocRequest struct {
	userGroup string       // punch.user.accessgroup, "" when absent
	toolGroup string       // punch.appl.tool, "" when absent
	login     string       // punch.user.login, "" when absent
	verify    *query.Query // non-nil: re-verify rsrc constraints per machine (mis-routed query)
	// newID mints the lease id (key generation and all), called exactly
	// once per successful claim, while the claimed machine is exclusively
	// held. An error aborts the allocation; engines must return the
	// machine to the free state.
	newID   func() (string, error)
	expires time.Time // lease deadline; zero means no expiry
}

// engineConfig is the static per-pool configuration shared by engines.
type engineConfig struct {
	poolID   string // for error messages
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
