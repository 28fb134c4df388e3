package pool

import (
	"sync"
	"sync/atomic"
	"time"

	"actyp/internal/registry"
	"actyp/internal/schedule"
)

// entry is one machine in the oracle engine's cache.
type entry struct {
	machine *registry.Machine
	leased  bool // handed out by Allocate or Claim, not yet returned
}

// oracleAlloc is the reference engine: the paper's linear search over the
// full cache, inside a single critical section. Concurrent queries to the
// same pool instance serialize on the scan — the bottleneck Figures 6-8
// measure, modelled by scanCost — so this engine stays deliberately
// serialized and acts as the semantic oracle for the indexed engine.
type oracleAlloc struct {
	cfg engineConfig

	mu    sync.Mutex
	cache []*entry
	// scratch buffers reused across Allocate calls (guarded by mu) so a
	// 3,200-entry scan does not allocate per query.
	scratch    []schedule.Candidate
	scratchPtr []*schedule.Candidate

	allocs  atomic.Int64
	misses  atomic.Int64
	scanned atomic.Int64 // total entries scanned, for the linear-search benches
}

func newOracleAlloc(machines []*registry.Machine, cfg engineConfig) *oracleAlloc {
	o := &oracleAlloc{cfg: cfg}
	for _, m := range machines {
		o.cache = append(o.cache, &entry{machine: m})
	}
	return o
}

// Kind implements Allocator.
func (o *oracleAlloc) Kind() string { return EngineOracle }

// Size implements Allocator.
func (o *oracleAlloc) Size() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.cache)
}

// Members implements Allocator.
func (o *oracleAlloc) Members() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]string, len(o.cache))
	for i, e := range o.cache {
		out[i] = e.machine.Static.Name
	}
	return out
}

// Allocate implements Allocator with the paper's linear search, honouring
// the scheduling objective, the replication bias, machine usability, and
// the user- and tool-group access policies carried in the request.
func (o *oracleAlloc) Allocate(req *allocRequest) (int, *registry.Machine, error) {
	o.mu.Lock()
	defer o.mu.Unlock()

	// One linear pass builds the candidate view; ineligible machines are
	// folded into the Busy flag so selection stays a single linear scan.
	// The scratch buffers live on the engine (mu held) to keep the hot
	// path allocation-free.
	if cap(o.scratch) < len(o.cache) {
		o.scratch = make([]schedule.Candidate, len(o.cache))
		o.scratchPtr = make([]*schedule.Candidate, len(o.cache))
	}
	cands := o.scratchPtr[:len(o.cache)]
	for i, e := range o.cache {
		c := &o.scratch[i]
		m := e.machine
		*c = candidateOf(m)
		c.Busy = e.leased ||
			!m.Usable() || c.Load >= m.Static.MaxLoad ||
			(req.userGroup != "" && !m.AllowsUserGroup(req.userGroup)) ||
			(req.toolGroup != "" && !m.SupportsToolGroup(req.toolGroup)) ||
			(req.verify != nil && !m.Attrs().MatchRsrc(req.verify)) ||
			policyDenied(lookupPolicy(o.cfg.policies, m.Policy.UsagePolicy), m, c,
				req.userGroup, req.toolGroup, req.login)
		cands[i] = c
	}
	o.scanned.Add(int64(len(cands)))
	if o.cfg.scanCost > 0 {
		// Charge the modelled per-entry search cost inside the critical
		// section: concurrent queries to the same pool instance serialize
		// on its scan, which is the bottleneck Figures 6-8 measure.
		time.Sleep(o.cfg.scanCost * time.Duration(len(cands)))
	}

	idx := schedule.SelectBiased(cands, o.cfg.obj, nil, o.cfg.instance, o.cfg.replicas)
	if idx < 0 {
		o.misses.Add(1)
		return 0, nil, ErrExhausted
	}

	e := o.cache[idx]
	if err := req.newID(); err != nil {
		return 0, nil, err // nothing marked yet; the candidate stays free
	}
	e.leased = true
	o.allocs.Add(1)
	return idx, e.machine, nil
}

// Claim implements Allocator. The linear scan is fine: recovery claims
// once per lease at boot, never on the request path.
func (o *oracleAlloc) Claim(machine string) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for i, e := range o.cache {
		if e.machine.Static.Name != machine {
			continue
		}
		if e.leased {
			return 0, errBusy
		}
		e.leased = true
		return i, nil
	}
	return 0, errNotMember
}

// Return implements Allocator.
func (o *oracleAlloc) Return(slot int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.cache[slot].leased = false
}

// Refresh implements Allocator: it re-reads every cached machine.
func (o *oracleAlloc) Refresh(get func(name string) (*registry.Machine, error)) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, e := range o.cache {
		m, err := get(e.machine.Static.Name)
		if err != nil {
			continue // machine unregistered; keep last view
		}
		e.machine = m
	}
}

// Apply implements Allocator as a full Refresh: the oracle re-reads
// everything by design — its whole value is full-scan reference semantics
// — so an event batch simply triggers the complete re-read the events are
// guaranteed to be a subset of.
func (o *oracleAlloc) Apply(events []registry.Event, get func(name string) (*registry.Machine, error)) {
	if len(events) == 0 {
		return
	}
	o.Refresh(get)
}

// Stats implements Allocator.
func (o *oracleAlloc) Stats() (allocs, misses int, scanned int64) {
	return int(o.allocs.Load()), int(o.misses.Load()), o.scanned.Load()
}
