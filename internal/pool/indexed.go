package pool

import (
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"actyp/internal/policy"
	"actyp/internal/registry"
	"actyp/internal/schedule"
)

// indexedAlloc is the concurrent allocation engine. Machines are bucketed
// by their discrete eligibility gates — the user-group list, the
// tool-group list, and the usage-policy reference, the only per-machine
// inputs an allocation filters on wholesale — and each bucket keeps its
// free entries in heaps ordered by the scheduling objective (one heap for
// the replica's preferred stride, one for the rest, Section 7 bias).
//
// Allocate visits only the buckets whose gates admit the requester, pops
// each bucket's best eligible entry under that bucket's own mutex, and
// claims the global best: O(buckets + log n) instead of the oracle's full
// scan, with no engine-wide critical section. A popped entry is invisible
// to every other allocation, so claiming is race-free without a global
// lock; losers are pushed back. Dynamic eligibility (machine down, load
// ceiling, per-request policy verdicts, mis-routed-query verification) is
// re-checked per candidate at pop time, exactly as the oracle folds it
// into Busy.
//
// Lock order: the engine RWMutex is held in read mode by Allocate and
// Return and in write mode only by Refresh (which rebuilds buckets
// wholesale, the resync fallback), Apply (which folds registry change
// events in bounded chunks, repositioning or re-bucketing only the
// entries the events name) and Claim. Bucket mutexes are leaves: never is
// one taken while holding another.
// An entry's candidate view is written only under the write lock (Refresh,
// Apply) and at construction, so it is read-only to every read-mode
// holder. Allocate and Return write an entry's lease bits only while they
// hold it exclusively: popped from a heap but not yet marked leased, or
// being returned by the one caller that holds the slot. Apply takes its
// own mutex first.
type indexedAlloc struct {
	cfg engineConfig

	rw      sync.RWMutex       // write: Refresh/Apply restructure buckets; read: everything else
	entries []*ientry          // cache order, immutable after construction
	byName  map[string]*ientry // name -> entry, immutable after construction
	groups  []*igroup          // bucket list, rebuilt by Refresh, sorted key order

	applyMu sync.Mutex // serializes Apply, which owns mine; taken before rw
	mine    []int32    // positions of this pool's members in the batch being applied

	claiming atomic.Int64  // claims mid-flight (may hold entries out of the heaps)
	claimGen atomic.Uint64 // completed claim attempts, for miss revalidation

	allocs  atomic.Int64
	misses  atomic.Int64
	scanned atomic.Int64 // entries popped while selecting
}

// ientry is one machine in the indexed engine. machine is a registry view
// whose header the engine owns: updates land in it in place until Allocate
// has returned it (handed), after which a caller may be reading it and it
// is never written again.
type ientry struct {
	idx     int  // cache position: the oracle's scan order, used for tie-breaks
	pref    bool // on this replica's preferred stride (idx%replicas == instance%replicas)
	pos     int  // index in its bucket heap; -1 while leased or mid-claim
	machine *registry.Machine
	handed  bool // Allocate has returned machine to a caller
	leased  bool // handed out by Allocate or Claim, not yet returned
	cand    schedule.Candidate
	grp     *igroup
}

// igroup is one eligibility bucket.
type igroup struct {
	key        string
	userGroups []string
	toolGroups []string
	policyRef  string

	mu    sync.Mutex
	pref  iheap // free entries on the preferred stride (all entries when unreplicated)
	other iheap
}

// admits reports whether every machine in the bucket passes the request's
// group gates, mirroring Machine.AllowsUserGroup / SupportsToolGroup.
func (g *igroup) admits(userGroup, toolGroup string) bool {
	return (userGroup == "" || listAdmits(g.userGroups, userGroup)) &&
		(toolGroup == "" || listAdmits(g.toolGroups, toolGroup))
}

// listAdmits mirrors the machine-record semantics: an empty list admits
// everyone.
func listAdmits(list []string, member string) bool {
	if len(list) == 0 {
		return true
	}
	for _, v := range list {
		if v == member {
			return true
		}
	}
	return false
}

// groupKey derives the bucket identity from the machine's gate attributes.
func groupKey(m *registry.Machine) string {
	return strings.Join(m.Policy.UserGroups, "\x1f") + "\x1e" +
		strings.Join(m.Policy.ToolGroups, "\x1f") + "\x1e" +
		m.Policy.UsagePolicy
}

func newIndexedAlloc(machines []*registry.Machine, cfg engineConfig) *indexedAlloc {
	x := &indexedAlloc{
		cfg:    cfg,
		byName: make(map[string]*ientry, len(machines)),
	}
	for i, m := range machines {
		e := &ientry{
			idx:     i,
			pos:     -1,
			machine: m,
			cand:    candidateOf(m),
		}
		e.pref = cfg.replicas <= 1 || i%cfg.replicas == cfg.instance%cfg.replicas
		x.entries = append(x.entries, e)
		x.byName[m.Static.Name] = e
	}
	x.rebuildGroups()
	return x
}

// rebuildGroups re-derives the bucket partition and re-heapifies the free
// entries. The caller must hold rw exclusively (or be the constructor).
func (x *indexedAlloc) rebuildGroups() {
	byKey := make(map[string]*igroup)
	for _, e := range x.entries {
		key := groupKey(e.machine)
		g, ok := byKey[key]
		if !ok {
			g = &igroup{
				key:        key,
				userGroups: e.machine.Policy.UserGroups,
				toolGroups: e.machine.Policy.ToolGroups,
				policyRef:  e.machine.Policy.UsagePolicy,
			}
			byKey[key] = g
		}
		e.grp = g
		if e.leased {
			e.pos = -1
			continue // leased entries rejoin a heap on Return
		}
		if e.pref {
			g.pref.items = append(g.pref.items, e)
		} else {
			g.other.items = append(g.other.items, e)
		}
	}
	x.groups = x.groups[:0]
	for _, g := range byKey {
		g.pref.init(x)
		g.other.init(x)
		x.groups = append(x.groups, g)
	}
	sort.Slice(x.groups, func(i, j int) bool { return x.groups[i].key < x.groups[j].key })
}

// entryLess is the total order the oracle's linear search induces: the
// scheduling objective first, cache position as the tie-break (the scan
// keeps the earliest of equals).
func (x *indexedAlloc) entryLess(a, b *ientry) bool {
	if x.cfg.obj.Less(&a.cand, &b.cand) {
		return true
	}
	if x.cfg.obj.Less(&b.cand, &a.cand) {
		return false
	}
	return a.idx < b.idx
}

// Kind implements Allocator.
func (x *indexedAlloc) Kind() string { return EngineIndexed }

// Size implements Allocator.
func (x *indexedAlloc) Size() int { return len(x.entries) }

// Members implements Allocator. The read lock orders the e.machine reads
// against Refresh's pointer swaps.
func (x *indexedAlloc) Members() []string {
	x.rw.RLock()
	defer x.rw.RUnlock()
	out := make([]string, len(x.entries))
	for i, e := range x.entries {
		out[i] = e.machine.Static.Name
	}
	return out
}

// eligible re-checks the dynamic gates the oracle folds into Busy. The
// caller holds the entry's bucket mutex.
func (x *indexedAlloc) eligible(e *ientry, pol *policy.Policy, req *allocRequest) bool {
	m := e.machine
	if !m.Usable() || e.cand.Load >= m.Static.MaxLoad {
		return false
	}
	if req.verify != nil && !m.Attrs().MatchRsrc(req.verify) {
		return false
	}
	return !policyDenied(pol, m, &e.cand, req.userGroup, req.toolGroup, req.login)
}

// claim pops the globally best eligible free entry from the admitted
// buckets' heaps (preferred or fallback stride) and returns it exclusively
// held, or nil when every admitted bucket is exhausted. The caller holds
// rw in read mode.
func (x *indexedAlloc) claim(req *allocRequest, usePref bool) *ientry {
	var best *ientry
	for _, g := range x.groups {
		if !g.admits(req.userGroup, req.toolGroup) {
			continue
		}
		g.mu.Lock()
		h := &g.other
		if usePref {
			h = &g.pref
		}
		// Resolve the bucket's usage policy per request, as the oracle
		// does per scan, so policies registered after pool creation are
		// honoured — but only once the bucket is known non-empty, so
		// exhausted buckets cost no Store lock traffic. The Store's own
		// RWMutex is a leaf; taking it under g.mu cannot deadlock.
		var pol *policy.Policy
		if h.len() > 0 {
			pol = lookupPolicy(x.cfg.policies, g.policyRef)
		}
		// Pop until an eligible entry surfaces; dynamically ineligible
		// ones (machine down, over the load ceiling, policy-denied) go
		// back afterwards so they stay allocatable once the condition
		// clears.
		var rejected []*ientry
		var cand *ientry
		for h.len() > 0 {
			e := h.pop(x)
			x.scanned.Add(1)
			if x.eligible(e, pol, req) {
				cand = e
				break
			}
			rejected = append(rejected, e)
		}
		for _, e := range rejected {
			h.push(x, e)
		}
		var demoted *ientry
		if cand != nil {
			if best == nil || x.entryLess(cand, best) {
				demoted, best = best, cand
			} else {
				h.push(x, cand)
			}
		}
		g.mu.Unlock()
		if demoted != nil {
			// Push the displaced candidate back under its own bucket's
			// lock only — never while holding another bucket's.
			x.pushFree(demoted)
		}
	}
	return best
}

// pushFree returns an exclusively-held free entry to its bucket's heap.
func (x *indexedAlloc) pushFree(e *ientry) {
	g := e.grp
	g.mu.Lock()
	if e.pref {
		g.pref.push(x, e)
	} else {
		g.other.push(x, e)
	}
	g.mu.Unlock()
}

// Allocate implements Allocator. Preferred-stride entries win over the
// rest across all buckets, matching schedule.SelectBiased.
//
// A racing claim transiently holds its candidates outside the heaps, so a
// miss that overlaps one may be spurious. A miss is only final once an
// attempt overlapped no other claim (none in flight, none completed
// during ours); otherwise Allocate retries, bounded so sustained churn on
// a genuinely exhausted pool cannot livelock it. Serially the first
// attempt is always conclusive.
func (x *indexedAlloc) Allocate(req *allocRequest) (int, *registry.Machine, error) {
	x.rw.RLock()
	defer x.rw.RUnlock()
	var e *ientry
	for attempt := 0; ; attempt++ {
		gen := x.claimGen.Load()
		x.claiming.Add(1)
		e = x.claim(req, true)
		if e == nil && x.cfg.replicas > 1 {
			e = x.claim(req, false)
		}
		if e != nil {
			break // settled below, still flagged as in flight
		}
		// Generation first, then the in-flight drop: an observer that
		// sees claiming==0 is then guaranteed to also see our generation
		// bump, so it cannot judge a miss conclusive while our pushbacks
		// were the reason its scan came up empty.
		x.claimGen.Add(1)
		x.claiming.Add(-1)
		conclusive := x.claiming.Load() == 0 && x.claimGen.Load() == gen+1
		if conclusive || attempt >= 3 {
			x.misses.Add(1)
			return 0, nil, ErrExhausted
		}
		runtime.Gosched()
	}
	if err := req.newID(); err != nil {
		// The claim stays flagged in flight until the entry is back in
		// its heap, so no concurrent miss can be judged conclusive while
		// the machine is invisible yet destined to stay free.
		x.pushFree(e)
		x.claimGen.Add(1)
		x.claiming.Add(-1)
		return 0, nil, err
	}
	// The entry is exclusively held: popped from its heap and not yet
	// marked leased, so no other goroutine can observe these writes.
	e.leased = true
	e.handed = true
	// Once the entry is marked leased the machine is genuinely gone, so a
	// concurrent miss that now looks conclusive is correct.
	x.claimGen.Add(1)
	x.claiming.Add(-1)
	x.allocs.Add(1)
	return e.idx, e.machine, nil
}

// Claim implements Allocator. It takes the engine lock exclusively —
// recovery runs before the pool serves, so there is no hot path to contend
// with, and exclusivity guarantees the entry is either in its heap or
// leased.
func (x *indexedAlloc) Claim(machine string) (int, error) {
	x.rw.Lock()
	defer x.rw.Unlock()
	e, ok := x.byName[machine]
	if !ok {
		return 0, errNotMember
	}
	if e.leased {
		return 0, errBusy
	}
	if e.pos >= 0 {
		x.heapOf(e).remove(x, e.pos)
	}
	e.leased = true
	return e.idx, nil
}

// Return implements Allocator: it frees the entry, which its one returning
// caller holds exclusively, and pushes it back into its bucket.
func (x *indexedAlloc) Return(slot int) {
	x.rw.RLock()
	defer x.rw.RUnlock()
	e := x.entries[slot]
	e.leased = false
	x.pushFree(e)
}

// Refresh implements Allocator. It runs exclusively: gate attributes may
// have changed, so the bucket partition is rebuilt wholesale. This is the
// resync fallback of the event path; steady-state freshness flows through
// Apply instead.
func (x *indexedAlloc) Refresh(get func(name string) (*registry.Machine, error)) {
	x.rw.Lock()
	defer x.rw.Unlock()
	for _, e := range x.entries {
		m, err := get(e.machine.Static.Name)
		if err != nil {
			continue // machine unregistered; keep last view
		}
		e.machine, e.handed, e.cand = m, false, candidateOf(m)
	}
	x.rebuildGroups()
}

// applyChunk bounds how many events one exclusive critical section folds:
// a sustained event stream interleaves with allocations in short windows
// instead of recreating the stop-the-world rebuild Apply exists to remove.
const applyChunk = 256

// Apply implements Allocator: the incremental counterpart of Refresh. Only
// machines named by events are touched — a DynamicUpdated event carries its
// new snapshot and costs one heap reposition (O(log bucket)); every other
// kind re-reads the record through get and re-buckets the entry only when
// its gate key actually changed. Events for machines outside the cache are
// ignored, and a failing get keeps the last view, exactly as Refresh does.
// Events fold in order, so a machine's last event in the batch decides its
// view, as the newest record decides Refresh's.
func (x *indexedAlloc) Apply(events []registry.Event, get func(name string) (*registry.Machine, error)) {
	x.applyMu.Lock()
	defer x.applyMu.Unlock()
	// Membership pre-filter, outside the engine lock: byName is immutable
	// after construction, so a pool holding few of the fleet's machines pays
	// exclusive-lock time for its own changes, not for every sweep event
	// the dispatcher fans out. The shared batch is never mutated (other
	// pools receive the same slice); what is kept is positions in it, in a
	// buffer recycled across batches.
	mine := x.mine[:0]
	for i := range events {
		if _, ok := x.byName[events[i].Name]; ok {
			mine = append(mine, int32(i))
		}
	}
	x.mine = mine
	for len(mine) > 0 {
		n := min(applyChunk, len(mine))
		x.applyBatch(events, mine[:n], get)
		mine = mine[n:]
	}
}

// applyBatch folds the events at the given positions, all of them members'.
func (x *indexedAlloc) applyBatch(events []registry.Event, mine []int32, get func(name string) (*registry.Machine, error)) {
	x.rw.Lock()
	defer x.rw.Unlock()
	// Under the exclusive lock no claim is in flight, so every entry is
	// either in its bucket heap (pos >= 0) or leased.
	for _, i := range mine {
		ev := &events[i]
		e := x.byName[ev.Name]
		if ev.Kind == registry.EventDynamicUpdated {
			// The event carries the whole update: no database read, and no
			// allocation unless a caller may still hold the view, which
			// then gets a successor (a copy of the header; the cold part
			// stays the store's).
			if e.handed {
				m := *e.machine
				e.machine, e.handed = &m, false
			}
			e.machine.Dynamic = ev.Dynamic
			x.reposition(e)
			continue
		}
		m, err := get(ev.Name)
		if err != nil {
			continue // machine unregistered; keep last view
		}
		e.machine, e.handed = m, false
		x.rebucket(e, m)
	}
}

// reposition folds the entry's refreshed record into its candidate view
// and restores heap order around it (leased entries re-sort on release).
func (x *indexedAlloc) reposition(e *ientry) {
	e.cand = candidateOf(e.machine)
	if e.pos >= 0 {
		x.heapOf(e).fix(x, e.pos)
	}
}

// rebucket is reposition plus gate maintenance: when the refreshed record's
// gate key changed, the entry moves to its new bucket (created and inserted
// in key order if unseen; buckets emptied this way linger harmlessly until
// the next full Refresh sweeps them).
func (x *indexedAlloc) rebucket(e *ientry, m *registry.Machine) {
	e.cand = candidateOf(m)
	key := groupKey(m)
	if key == e.grp.key {
		if e.pos >= 0 {
			x.heapOf(e).fix(x, e.pos)
		}
		return
	}
	if e.pos >= 0 {
		x.heapOf(e).remove(x, e.pos)
	}
	e.grp = x.groupFor(key, m)
	if !e.leased {
		x.heapOf(e).push(x, e)
	}
}

// heapOf returns the heap the entry belongs to inside its bucket.
func (x *indexedAlloc) heapOf(e *ientry) *iheap {
	if e.pref {
		return &e.grp.pref
	}
	return &e.grp.other
}

// groupFor finds (or creates, preserving sorted key order) the bucket for
// a gate key. The caller holds rw exclusively.
func (x *indexedAlloc) groupFor(key string, m *registry.Machine) *igroup {
	i := sort.Search(len(x.groups), func(i int) bool { return x.groups[i].key >= key })
	if i < len(x.groups) && x.groups[i].key == key {
		return x.groups[i]
	}
	g := &igroup{
		key:        key,
		userGroups: m.Policy.UserGroups,
		toolGroups: m.Policy.ToolGroups,
		policyRef:  m.Policy.UsagePolicy,
	}
	x.groups = append(x.groups, nil)
	copy(x.groups[i+1:], x.groups[i:])
	x.groups[i] = g
	return g
}

// Stats implements Allocator. Scanned counts heap pops, not full-cache
// passes: with every machine eligible it stays near one per allocation,
// which is the point.
func (x *indexedAlloc) Stats() (allocs, misses int, scanned int64) {
	return int(x.allocs.Load()), int(x.misses.Load()), x.scanned.Load()
}

// iheap is a binary min-heap of free entries under the engine's total
// order. Each resident entry tracks its index (ientry.pos), so Apply can
// reposition or remove an arbitrary entry in O(log n) when a change event
// reorders or re-buckets it; entries outside any heap carry pos == -1.
type iheap struct {
	items []*ientry
}

func (h *iheap) len() int { return len(h.items) }

// init heapifies items in place.
func (h *iheap) init(x *indexedAlloc) {
	for i, e := range h.items {
		e.pos = i
	}
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.siftDown(x, i)
	}
}

func (h *iheap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].pos = i
	h.items[j].pos = j
}

func (h *iheap) push(x *indexedAlloc, e *ientry) {
	h.items = append(h.items, e)
	e.pos = len(h.items) - 1
	h.siftUp(x, e.pos)
}

func (h *iheap) pop(x *indexedAlloc) *ientry {
	n := len(h.items)
	top := h.items[0]
	top.pos = -1
	h.items[0] = h.items[n-1]
	h.items[n-1] = nil
	h.items = h.items[:n-1]
	if len(h.items) > 0 {
		h.items[0].pos = 0
		h.siftDown(x, 0)
	}
	return top
}

// remove detaches the entry at index i, preserving heap order.
func (h *iheap) remove(x *indexedAlloc, i int) *ientry {
	e := h.items[i]
	n := len(h.items) - 1
	if i != n {
		h.items[i] = h.items[n]
		h.items[i].pos = i
	}
	h.items[n] = nil
	h.items = h.items[:n]
	e.pos = -1
	if i < n {
		h.fix(x, i)
	}
	return e
}

// fix restores heap order around index i after items[i]'s key changed in
// place.
func (h *iheap) fix(x *indexedAlloc, i int) {
	e := h.items[i]
	h.siftDown(x, i)
	if e.pos == i {
		h.siftUp(x, i)
	}
}

func (h *iheap) siftUp(x *indexedAlloc, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !x.entryLess(h.items[i], h.items[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *iheap) siftDown(x *indexedAlloc, i int) {
	n := len(h.items)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && x.entryLess(h.items[left], h.items[smallest]) {
			smallest = left
		}
		if right < n && x.entryLess(h.items[right], h.items[smallest]) {
			smallest = right
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
