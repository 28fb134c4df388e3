package registry

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"sync"

	"actyp/internal/query"
)

// Sharded is the scalable white-pages engine: machine records are hash-
// partitioned across N shards, each with its own RWMutex, so updates and
// queries on different machines do not serialize on one lock. Each shard
// additionally keeps
//
//   - its records sorted by name, so a scan yields name order and a page
//     can start at a resume point and stop at its limit,
//   - one stored copy of each distinct parameter set and group list its
//     records hold, which every record with that value points at (see
//     canon),
//   - an inverted index over discrete admin parameters (arch, OS, domain,
//     ... — see DefaultIndexedAttrs), so Page and Take visit only the
//     posting list of the most selective indexed condition instead of the
//     whole shard, and
//   - the match counts of the last few predicates Page totalled, kept
//     until a write that could change them (see countMemo), so a repeated
//     total costs no scan.
//
// Observable semantics match Locked exactly: results are name-sorted,
// callers only ever see copies (or views, which share only what the store
// never writes in place: see View), and the mark-taken protocol of Section
// 5.2.3 is atomic per machine. Page (and Select, Walk and Save on top of
// it), Names and Len assemble their results shard by shard, so under
// concurrent writes they see a possibly interleaved (but per-machine
// consistent) view, where Locked sees a single frozen instant; serial
// callers cannot tell the difference.
type Sharded struct {
	shards  []*shard
	indexed map[string]bool

	// watchHub implements Watch; mutators emit change events while holding
	// the record's shard lock, so each machine's events are totally
	// ordered. Subscriber rings never block a writer (see watch.go).
	watchHub
}

type shard struct {
	mu       sync.RWMutex
	machines map[string]*Machine
	all      []*Machine // every record, sorted by name
	idx      attrIndex
	canon    canon

	// gen moves, under the write lock, with every write a predicate can
	// see: a record added or removed (a batch moves it once), a parameter
	// set, a Load. The taken mark, the state and the dynamic fields are
	// outside every predicate (matchConds reads none of the first two, and
	// the dynamic built-ins keep their predicates out of counts), so their
	// writers leave it.
	gen    uint64
	counts countMemo
}

// NewSharded returns an empty sharded backend with the default indexed
// attributes. shards <= 0 selects a GOMAXPROCS-scaled count; positive
// values are honored, rounded up to a power of two (capped at 8192).
func NewSharded(shards int) *Sharded {
	return NewShardedIndexed(shards, DefaultIndexedAttrs)
}

// NewShardedIndexed returns an empty sharded backend indexing the given
// admin parameters. Built-in attribute names (the builtinAttrs table) are
// silently dropped from the set: they are derived from record fields, not
// parameters, so indexing them would produce wrong (partial) answers.
func NewShardedIndexed(shards int, attrs []string) *Sharded {
	if shards <= 0 {
		// Auto: enough shards that concurrent pipeline stages rarely
		// collide, without thousands of locks on huge hosts.
		shards = 4 * runtime.GOMAXPROCS(0)
		if shards < 8 {
			shards = 8
		}
		if shards > 512 {
			shards = 512
		}
	}
	// Explicit counts are honored (a 1-shard store is a legitimate sweep
	// point) up to a sanity cap, then rounded up to a power of two.
	if shards > 8192 {
		shards = 8192
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	s := &Sharded{
		shards:  make([]*shard, n),
		indexed: make(map[string]bool, len(attrs)),
	}
	for i := range s.shards {
		s.shards[i] = newShard()
	}
	for _, a := range attrs {
		if _, builtin := builtinAttrs[a]; !builtin {
			s.indexed[a] = true
		}
	}
	return s
}

func newShard() *shard {
	return &shard{
		machines: make(map[string]*Machine),
		idx:      make(attrIndex),
	}
}

// ShardCount reports the number of shards (observability and tests).
func (s *Sharded) ShardCount() int { return len(s.shards) }

// shardIndex hashes a machine name to its shard index (FNV-1a).
func (s *Sharded) shardIndex(name string) int {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return int(h & uint32(len(s.shards)-1))
}

func (s *Sharded) shardFor(name string) *shard {
	return s.shards[s.shardIndex(name)]
}

// Add inserts a copy of a machine record. It fails if the record is
// invalid or a machine with the same name already exists.
func (s *Sharded) Add(m *Machine) error {
	return s.AddOwned(m.Clone())
}

// AddOwned inserts the record itself; the caller gives it up.
func (s *Sharded) AddOwned(m *Machine) error {
	if err := m.Validate(); err != nil {
		return err
	}
	name := m.Static.Name
	sh := s.shardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.machines[name]; ok {
		return fmt.Errorf("registry: machine %q already registered", name)
	}
	sh.insert(s.indexed, m)
	s.emit(Event{Kind: EventAdded, Name: name})
	return nil
}

// after returns the position in all of the first record named greater than
// name.
func (sh *shard) after(name string) int {
	if name == "" {
		return 0
	}
	return sort.Search(len(sh.all), func(i int) bool { return sh.all[i].Static.Name > name })
}

// insert wires a record into the shard's map, sorted list and index, and
// points its parameters and group lists at the shard's stored copies: the
// runtime insert, one record at a time (batches go through fill). The
// caller holds the shard lock and guarantees the name is unused.
func (sh *shard) insert(indexed map[string]bool, m *Machine) {
	name := m.Static.Name
	sh.gen++
	sh.canon.intern(m)
	sh.machines[name] = m
	if n := len(sh.all); n == 0 || sh.all[n-1].Static.Name < name {
		sh.all = append(sh.all, m) // a name that sorts last moves nothing
	} else {
		sh.all = slices.Insert(sh.all, sh.after(name), m)
	}
	for k, v := range m.Policy.Params.All() {
		if indexed[k] {
			sh.idx.add(k, v, name)
		}
	}
}

// Remove deletes a machine record by name.
func (s *Sharded) Remove(name string) error {
	sh := s.shardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m, ok := sh.machines[name]
	if !ok {
		return fmt.Errorf("registry: machine %q not registered", name)
	}
	sh.gen++
	delete(sh.machines, name)
	i := sh.after(name) - 1
	sh.all = slices.Delete(sh.all, i, i+1)
	for k, v := range m.Policy.Params.All() {
		if s.indexed[k] {
			sh.idx.remove(k, v, name)
		}
	}
	s.emit(Event{Kind: EventRemoved, Name: name})
	return nil
}

// Get returns a copy of the record for name.
func (s *Sharded) Get(name string) (*Machine, error) {
	sh := s.shardFor(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	m, ok := sh.machines[name]
	if !ok {
		return nil, fmt.Errorf("registry: machine %q not registered", name)
	}
	return m.Clone(), nil
}

// View returns the record's header by value and the store's own cold part
// behind it. Every writer below replaces what a view may share (SetParam
// swaps the Params slice) and writes in place only what the copy took by
// value, which is what lets a pool hold its members without a second deep
// copy of the fleet.
func (s *Sharded) View(name string) (*Machine, error) {
	sh := s.shardFor(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	m, ok := sh.machines[name]
	if !ok {
		return nil, fmt.Errorf("registry: machine %q not registered", name)
	}
	return m.view(), nil
}

// Has reports whether a record for name exists.
func (s *Sharded) Has(name string) bool {
	sh := s.shardFor(name)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.machines[name]
	return ok
}

// Len returns the number of registered machines.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += len(sh.machines)
		sh.mu.RUnlock()
	}
	return n
}

// Names returns all machine names, sorted.
func (s *Sharded) Names() []string {
	lists := make([][]string, 0, len(s.shards))
	for _, sh := range s.shards {
		sh.mu.RLock()
		names := make([]string, len(sh.all))
		for i, m := range sh.all {
			names[i] = m.Static.Name
		}
		sh.mu.RUnlock()
		lists = append(lists, names)
	}
	return mergeSorted(lists, 0, 0)
}

// SetState updates field 1 for a machine.
func (s *Sharded) SetState(name string, st State) error {
	sh := s.shardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m, ok := sh.machines[name]
	if !ok {
		return fmt.Errorf("registry: machine %q not registered", name)
	}
	m.State = st
	s.emit(Event{Kind: EventStateSet, Name: name})
	return nil
}

// UpdateDynamic overwrites the monitor-maintained fields 2–7 as a unit.
// Dynamic fields are never indexed, so no index maintenance happens on
// this (very hot) monitor path.
func (s *Sharded) UpdateDynamic(name string, d Dynamic) error {
	sh := s.shardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m, ok := sh.machines[name]
	if !ok {
		return fmt.Errorf("registry: machine %q not registered", name)
	}
	m.Dynamic = d
	s.emit(Event{Kind: EventDynamicUpdated, Name: name, Dynamic: d})
	return nil
}

// UpdateDynamicBatch applies many dynamic updates in one call, the
// monitor's per-sweep entry point. A shard's lock is held across each run
// of consecutive updates that hash to it, so a batch in Statuses order (the
// monitor's) costs O(shards) lock acquisitions instead of O(machines), and
// no batch is regrouped or copied to get there. Unknown machines are
// skipped; it returns how many records were updated.
func (s *Sharded) UpdateDynamicBatch(updates []DynamicUpdate) int {
	n := 0
	var held *shard
	// Events go out a run at a time, before the run's shard unlocks: one
	// lock of each subscriber per run instead of one per event.
	var run [64]Event
	k := 0
	for i := range updates {
		u := &updates[i]
		if sh := s.shardFor(u.Name); sh != held {
			if held != nil {
				s.emit(run[:k]...)
				k = 0
				held.mu.Unlock()
			}
			sh.mu.Lock()
			held = sh
		}
		if m, ok := held.machines[u.Name]; ok {
			m.Dynamic = u.Dynamic
			n++
			if !s.active() {
				continue
			}
			run[k] = Event{Kind: EventDynamicUpdated, Name: u.Name, Dynamic: u.Dynamic}
			if k++; k == len(run) {
				s.emit(run[:k]...)
				k = 0
			}
		}
	}
	if held != nil {
		s.emit(run[:k]...)
		held.mu.Unlock()
	}
	return n
}

// SetParam sets one administrator-defined parameter (field 20), keeping
// the inverted index in step when the key is indexed. The record gets
// another Params slice, the shard's stored copy when one is equal: views
// and other records may hold the old one.
func (s *Sharded) SetParam(name, key string, attr query.Attr) error {
	sh := s.shardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m, ok := sh.machines[name]
	if !ok {
		return fmt.Errorf("registry: machine %q not registered", name)
	}
	if s.indexed[key] {
		if old, had := m.Policy.Params.Get(key); had {
			sh.idx.remove(key, old, name)
		}
		sh.idx.add(key, attr, name)
	}
	m.Policy.Params = sh.canon.internParams(m.Policy.Params.With(key, attr))
	sh.gen++
	s.emit(Event{Kind: EventParamSet, Name: name})
	return nil
}

// Walk calls fn for every machine in name order, stopping early if fn
// returns false. The callback receives a copy; mutations do not write back.
func (s *Sharded) Walk(fn func(*Machine) bool) {
	ms, _ := s.Page(nil, Cursor{})
	for _, m := range ms {
		if !fn(m) {
			return
		}
	}
}

// Statuses appends every record's name, state and dynamic fields to buf.
func (s *Sharded) Statuses(buf []Status) []Status {
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, m := range sh.all {
			buf = append(buf, Status{Name: m.Static.Name, State: m.State, Dynamic: m.Dynamic})
		}
		sh.mu.RUnlock()
	}
	return buf
}

// plan is a compiled predicate prepared for this store: the full condition
// list for verification plus the subset the inverted index can serve.
type plan struct {
	conds     []query.RsrcCond
	indexable []idxCond
}

type idxCond struct {
	name  string
	terms []term
}

func (s *Sharded) plan(conds []query.RsrcCond) plan {
	p := plan{conds: conds}
	for _, rc := range conds {
		if !s.indexed[rc.Name] {
			continue
		}
		if terms, ok := condTerms(rc.Cond); ok {
			p.indexable = append(p.indexable, idxCond{name: rc.Name, terms: terms})
		}
	}
	return p
}

// scan calls visit, in ascending name order, for every machine named
// greater than after that can match the plan's indexable conditions — the
// merged posting lists of the most selective indexed condition when the
// index applies, the whole shard otherwise. visit may return false to
// stop early (Page and Take stop at their limits). Full condition
// verification, and Take's test of the taken mark, are left to visit. The
// caller holds the shard lock.
func (sh *shard) scan(p plan, after string, visit func(m *Machine) bool) {
	best, useIndex := sh.bestPostings(p)
	if !useIndex {
		for _, m := range sh.all[sh.after(after):] {
			if !visit(m) {
				return
			}
		}
		return
	}
	for i, l := range best {
		best[i] = l[firstAfter(l, after):]
	}
	forEachMerged(best, func(name string) bool { return visit(sh.machines[name]) })
}

// bestPostings picks the most selective indexable condition's posting
// lists for this shard. ok=false means no condition is indexable and the
// shard must be scanned.
func (sh *shard) bestPostings(p plan) ([][]string, bool) {
	if len(p.indexable) == 0 {
		return nil, false
	}
	var best [][]string
	bestSize := -1
	for _, ic := range p.indexable {
		posts := sh.idx.postings(ic.name, ic.terms)
		size := 0
		for _, l := range posts {
			size += len(l)
		}
		if bestSize < 0 || size < bestSize {
			best, bestSize = posts, size
			if bestSize == 0 {
				break
			}
		}
	}
	return best, true
}

// Select returns copies of the machines whose attributes satisfy the rsrc
// constraints of the query, regardless of taken state, in name order: the
// unlimited page, for callers that want every match.
func (s *Sharded) Select(q *query.Query) []*Machine {
	ms, _ := s.Page(query.CompileRsrc(q), Cursor{})
	return ms
}

// Page implements the paged read in the two phases Take has: gather the
// page's names shard by shard under read locks, then clone those records
// under their shard locks, re-verifying each one, so a record removed or
// reconfigured in between is skipped and never returned stale (a Shared
// cursor gets views in place of clones, nothing else differs). Holes that
// leaves in a limited page are filled from past the last name chosen, so a
// short page always means the end of the match set.
func (s *Sharded) Page(conds []query.RsrcCond, c Cursor) ([]*Machine, int) {
	p := s.plan(conds)
	if c.Offset < 0 {
		c.Offset = 0
	}
	var out []*Machine
	total := 0
	for {
		names, n := s.pageNames(p, c)
		total += n
		if out == nil {
			out = make([]*Machine, 0, len(names))
		}
		before := len(out)
		for _, name := range names {
			sh := s.shardFor(name)
			sh.mu.RLock()
			if m, ok := sh.machines[name]; ok && m.matchConds(p.conds) {
				if c.Shared {
					out = append(out, m.view())
				} else {
					out = append(out, m.Clone())
				}
			}
			sh.mu.RUnlock()
		}
		cloned := len(out) - before
		if c.Limit <= 0 || len(names) < c.Limit || cloned == len(names) {
			return out, total
		}
		c = Cursor{After: names[len(names)-1], Limit: c.Limit - cloned}
	}
}

// pageNames is phase one of Page: the names of the page, in order, and the
// match total when the cursor asks for it. The globally first Offset+Limit
// names past the resume point are necessarily among the first Offset+Limit
// of each shard, and scan yields candidates in name order, so each shard
// keeps that many names and then stops — or, when the total is wanted and
// the shard's memo has no count of the predicate at its generation, counts
// the rest, and leaves the count in the memo. The full match set is never
// materialized or sorted.
func (s *Sharded) pageNames(p plan, c Cursor) ([]string, int) {
	need := c.Offset + c.Limit
	if c.Limit <= 0 || need < 0 {
		need = 0 // unlimited (or past counting): every name
	}
	memo := c.Total && len(p.conds) > 0 && countStable(p.conds)
	var memoConds []query.RsrcCond // the memo's copy of p.conds, made at the first miss
	total := 0
	lists := make([][]string, 0, len(s.shards))
	for _, sh := range s.shards {
		var local []string
		sh.mu.RLock()
		count, from := c.Total, c.After
		switch {
		case !count:
		case len(p.conds) == 0:
			total += len(sh.all)
			count = false
		case memo:
			if n, ok := sh.counts.get(p.conds, sh.gen); ok {
				total += n
				count = false
			}
		}
		if count {
			from = "" // the total counts the matches before the resume point too
		}
		n := 0
		sh.scan(p, from, func(m *Machine) bool {
			if !m.matchConds(p.conds) {
				return true
			}
			if count {
				n++
			}
			if (need == 0 || len(local) < need) && m.Static.Name > c.After {
				local = append(local, m.Static.Name)
			}
			return count || need == 0 || len(local) < need
		})
		if count && memo {
			if memoConds == nil {
				memoConds = cloneConds(p.conds)
			}
			sh.counts.put(memoConds, sh.gen, n)
		}
		sh.mu.RUnlock()
		total += n
		lists = append(lists, local)
	}
	return mergeSorted(lists, c.Offset, c.Limit), total
}

// Take implements the pool-initialization protocol of Section 5.2.3 in two
// phases: gather free matching candidates shard by shard under read locks,
// then claim them in global name order under per-shard write locks,
// re-verifying each candidate at claim time so a machine taken, released
// or reconfigured in between is never handed out stale. Serially this
// yields exactly the Locked result; concurrently, per-machine atomicity
// still guarantees a machine is only ever held by one pool instance.
func (s *Sharded) Take(q *query.Query, poolInstance string, limit int) []*Machine {
	if poolInstance == "" {
		return nil
	}
	p := s.plan(query.CompileRsrc(q))
	var cands []string
	for _, sh := range s.shards {
		// The globally-first limit names are necessarily among the first
		// limit of each shard, and scan yields candidates in name
		// order (the record list and posting lists are sorted), so with a
		// positive limit each shard stops after its first limit matches —
		// Take never materializes the full match set.
		var local []string
		sh.mu.RLock()
		sh.scan(p, "", func(m *Machine) bool {
			if m.TakenBy == "" && m.matchConds(p.conds) {
				local = append(local, m.Static.Name)
			}
			return limit <= 0 || len(local) < limit
		})
		sh.mu.RUnlock()
		cands = append(cands, local...)
	}
	sort.Strings(cands)
	var out []*Machine
	for _, name := range cands {
		if limit > 0 && len(out) >= limit {
			break
		}
		sh := s.shardFor(name)
		sh.mu.Lock()
		if m, ok := sh.machines[name]; ok && m.TakenBy == "" && m.matchConds(p.conds) {
			m.TakenBy = poolInstance
			out = append(out, m.view())
			s.emit(Event{Kind: EventTaken, Name: name})
		}
		sh.mu.Unlock()
	}
	return out
}

// Release clears the taken mark on the named machines, but only if they are
// held by the given pool instance. It returns how many it released.
func (s *Sharded) Release(poolInstance string, names ...string) int {
	n := 0
	for _, name := range names {
		sh := s.shardFor(name)
		sh.mu.Lock()
		if m, ok := sh.machines[name]; ok && m.TakenBy == poolInstance {
			m.TakenBy = ""
			n++
			s.emit(Event{Kind: EventReleased, Name: name})
		}
		sh.mu.Unlock()
	}
	return n
}

// ReleaseAll clears every taken mark held by the pool instance, returning
// the count. Pool objects call this when they shut down.
func (s *Sharded) ReleaseAll(poolInstance string) int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		for name, m := range sh.machines {
			if m.TakenBy == poolInstance {
				m.TakenBy = ""
				n++
				s.emit(Event{Kind: EventReleased, Name: name})
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// TakenBy returns the names of machines currently held by the pool
// instance, sorted.
func (s *Sharded) TakenBy(poolInstance string) []string {
	var out []string
	for _, sh := range s.shards {
		sh.mu.RLock()
		for name, m := range sh.machines {
			if m.TakenBy == poolInstance {
				out = append(out, name)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Save writes the database as JSON to w, in the same name-sorted snapshot
// shape as every other backend.
func (s *Sharded) Save(w io.Writer) error {
	// Page returns a non-nil slice, so an empty database serializes as []
	// (the same JSON Locked emits), not null.
	ms, _ := s.Page(nil, Cursor{})
	snap := snapshot{Machines: ms}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// Load replaces the database contents with the JSON snapshot read from r.
// The snapshot is fully validated before any shard is touched, so a bad
// snapshot leaves the database unchanged; installation locks every shard
// (in order, so concurrent Loads cannot deadlock) and empties it before
// any is filled, so no reader sees old and new records together. The
// records go in as AddOwnedAll's do.
func (s *Sharded) Load(r io.Reader) error {
	ms, err := decodeSnapshot(r)
	if err != nil {
		return err
	}
	groups, err := s.group(ms)
	if err != nil {
		return err
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	for i, sh := range s.shards {
		sh.machines = map[string]*Machine{}
		sh.all = nil
		sh.idx = make(attrIndex)
		sh.canon = canon{}
		sh.gen++
		if len(groups[i]) == 0 {
			sh.mu.Unlock()
		}
	}
	s.fill(groups, false)
	// A wholesale replacement has no incremental description: subscribers
	// get the resync marker and re-read.
	s.emitResync()
	return nil
}

// checkInvariants verifies the internal bookkeeping of every shard: the
// sorted list holds exactly the shard's records in name order, records
// live in the shard their name hashes to, and the index holds exactly the
// terms of the indexed parameters. Tests call it after stress runs.
func (s *Sharded) checkInvariants() error {
	for i, sh := range s.shards {
		sh.mu.RLock()
		err := func() error {
			for name, m := range sh.machines {
				if s.shardFor(name) != sh {
					return fmt.Errorf("shard %d: machine %q is in the wrong shard", i, name)
				}
				for k, v := range m.Policy.Params.All() {
					if !s.indexed[k] {
						continue
					}
					for _, t := range appendIndexTerms(nil, v) {
						if !containsSorted(sh.idx[k][t], name) {
							return fmt.Errorf("shard %d: machine %q missing from index %q term %+v", i, name, k, t)
						}
					}
				}
			}
			if len(sh.all) != len(sh.machines) {
				return fmt.Errorf("shard %d: sorted list holds %d records, the map %d", i, len(sh.all), len(sh.machines))
			}
			for j, m := range sh.all {
				if sh.machines[m.Static.Name] != m {
					return fmt.Errorf("shard %d: sorted list holds a record the map does not have under %q", i, m.Static.Name)
				}
				if j > 0 && sh.all[j-1].Static.Name >= m.Static.Name {
					return fmt.Errorf("shard %d: sorted list out of order at %q", i, m.Static.Name)
				}
			}
			for k, byTerm := range sh.idx {
				for t, list := range byTerm {
					for j := 1; j < len(list); j++ {
						if list[j-1] >= list[j] {
							return fmt.Errorf("shard %d: index %q term %+v posting list is not sorted or repeats %q", i, k, t, list[j])
						}
					}
					for _, name := range list {
						m, ok := sh.machines[name]
						if !ok {
							return fmt.Errorf("shard %d: index %q term %+v holds unknown machine %q", i, k, t, name)
						}
						v, has := m.Policy.Params.Get(k)
						if !has {
							return fmt.Errorf("shard %d: index %q term %+v holds machine %q without that param", i, k, t, name)
						}
						found := false
						for _, want := range appendIndexTerms(nil, v) {
							if want == t {
								found = true
								break
							}
						}
						if !found {
							return fmt.Errorf("shard %d: index %q term %+v stale for machine %q (value %q)", i, k, t, name, v.Str)
						}
					}
				}
			}
			return nil
		}()
		sh.mu.RUnlock()
		if err != nil {
			return err
		}
	}
	return nil
}
