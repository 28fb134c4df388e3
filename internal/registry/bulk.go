package registry

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"actyp/internal/query"
)

// The bulk load fills the white pages in one pass: every population path
// (the synthetic fleet, a snapshot file, a journal replay, Load) hands the
// store all of its records at once through AddOwnedAll. The batch is
// grouped by shard and sorted once, so a shard's sorted list and posting
// lists only append, each sized before it is filled, and the index terms
// of each distinct stored parameter set are worked out once; inserted one
// at a time, names past m9999 land mid-list and boot grows superlinearly.
// Shards are filled concurrently.

// AddOwnedAll inserts the records themselves, as one batch: the store keeps
// every m, so the caller must not touch them, or anything they reference,
// afterwards. Every record is validated, and its name checked against the
// batch and the store, before anything is inserted, so a refused batch
// leaves the store unchanged. Each shard the batch touches is locked, in
// index order, for the whole check and filled under its lock, at most
// GOMAXPROCS shards at a time, with one generation bump and its records'
// EventAdded published in runs, in name order.
func (s *Sharded) AddOwnedAll(ms []*Machine) error {
	groups, err := s.group(ms)
	if err != nil {
		return err
	}
	for i, g := range groups {
		if len(g) > 0 {
			s.shards[i].mu.Lock()
		}
	}
	for i, g := range groups {
		for _, m := range g {
			if _, ok := s.shards[i].machines[m.Static.Name]; ok {
				for j, g := range groups {
					if len(g) > 0 {
						s.shards[j].mu.Unlock()
					}
				}
				return fmt.Errorf("registry: machine %q already registered", m.Static.Name)
			}
		}
	}
	s.fill(groups, true)
	return nil
}

// group validates a batch and splits it by shard, each group sorted by name.
// It refuses an invalid record, the first in batch order, and a name given
// twice.
func (s *Sharded) group(ms []*Machine) ([][]*Machine, error) {
	counts := make([]int, len(s.shards))
	for _, m := range ms {
		if err := m.Validate(); err != nil {
			return nil, err
		}
		counts[s.shardIndex(m.Static.Name)]++
	}
	groups := make([][]*Machine, len(s.shards))
	for i, n := range counts {
		if n > 0 {
			groups[i] = make([]*Machine, 0, n)
		}
	}
	for _, m := range ms {
		i := s.shardIndex(m.Static.Name)
		groups[i] = append(groups[i], m)
	}
	dups := make([]string, len(s.shards))
	eachGroup(groups, func(i int, g []*Machine) {
		if !slices.IsSortedFunc(g, byName) {
			slices.SortFunc(g, byName)
		}
		for j := 1; j < len(g); j++ {
			if g[j-1].Static.Name == g[j].Static.Name {
				dups[i] = g[j].Static.Name
				return
			}
		}
	})
	for _, name := range dups {
		if name != "" {
			return nil, fmt.Errorf("registry: machine %q given twice in one batch", name)
		}
	}
	return groups, nil
}

func byName(a, b *Machine) int { return strings.Compare(a.Static.Name, b.Static.Name) }

// fill inserts each group into its shard, which the caller has locked, and
// unlocks it. Groups are sorted by name and hold no name their shard has.
// Load passes added=false: it publishes one resync marker instead.
func (s *Sharded) fill(groups [][]*Machine, added bool) {
	eachGroup(groups, func(i int, g []*Machine) {
		sh := s.shards[i]
		defer sh.mu.Unlock()
		sh.fill(s.indexed, g)
		if added && s.active() {
			var run [64]Event
			k := 0
			for _, m := range g {
				run[k] = Event{Kind: EventAdded, Name: m.Static.Name}
				if k++; k == len(run) {
					s.emit(run[:k]...)
					k = 0
				}
			}
			s.emit(run[:k]...)
		}
	})
}

// eachGroup calls fn for every non-empty group, on at most GOMAXPROCS
// goroutines, and returns when all calls have.
func eachGroup(groups [][]*Machine, fn func(i int, g []*Machine)) {
	busy := 0
	for _, g := range groups {
		if len(g) > 0 {
			busy++
		}
	}
	workers := min(runtime.GOMAXPROCS(0), busy)
	if workers <= 1 {
		for i, g := range groups {
			if len(g) > 0 {
				fn(i, g)
			}
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(groups) {
					return
				}
				if len(groups[i]) > 0 {
					fn(i, groups[i])
				}
			}
		}()
	}
	wg.Wait()
}

// paramsKey names a stored parameter set by its backing array and length:
// two sets with one key hold the same parameters, since a stored value is
// never written in place.
type paramsKey struct {
	first *query.Param
	n     int
}

// postFill is the names a batch adds to one posting list of a shard.
type postFill struct {
	attr  string
	t     term
	n     int      // names counted in the first pass
	names []string // the names, sized to n, in name order
}

type attrTerm struct {
	attr string
	t    term
}

// fill wires a batch of records, sorted by name and new to the shard, into
// its map, sorted list and index, pointing their parameters and group lists
// at the shard's stored copies. The caller holds the shard lock. The index
// terms of each stored parameter set are derived once, and every list
// grows to its final size once: in an empty shard, nothing is copied.
func (sh *shard) fill(indexed map[string]bool, g []*Machine) {
	sh.gen++
	if len(sh.machines) == 0 {
		sh.machines = make(map[string]*Machine, len(g))
	}
	byParams := make(map[paramsKey][]*postFill)
	byTerm := make(map[attrTerm]*postFill)
	// termsOf returns the posting lists a stored parameter set's records
	// join, each once.
	termsOf := func(p query.Params) []*postFill {
		if len(p) == 0 {
			return nil
		}
		k := paramsKey{&p[0], len(p)}
		if fs, ok := byParams[k]; ok {
			return fs
		}
		fs := make([]*postFill, 0, 2*len(p))
		var buf [8]term
		for _, e := range p {
			if !indexed[e.Key] {
				continue
			}
			for _, t := range appendIndexTerms(buf[:0], e.Attr) {
				at := attrTerm{e.Key, t}
				f := byTerm[at]
				if f == nil {
					f = &postFill{attr: e.Key, t: t}
					byTerm[at] = f
				}
				if !slices.Contains(fs, f) {
					fs = append(fs, f)
				}
			}
		}
		byParams[k] = fs
		return fs
	}
	for _, m := range g {
		sh.canon.intern(m)
		sh.machines[m.Static.Name] = m
		for _, f := range termsOf(m.Policy.Params) {
			f.n++
		}
	}
	for _, f := range byTerm {
		f.names = make([]string, 0, f.n)
	}
	for _, m := range g {
		for _, f := range termsOf(m.Policy.Params) {
			f.names = append(f.names, m.Static.Name)
		}
	}
	sh.all = mergeInto(sh.all, g, func(m *Machine) string { return m.Static.Name })
	for _, f := range byTerm {
		lists := sh.idx[f.attr]
		if lists == nil {
			lists = make(map[term][]string)
			sh.idx[f.attr] = lists
		}
		lists[f.t] = mergeInto(lists[f.t], f.names, func(name string) string { return name })
	}
}

// mergeInto returns the name-sorted union of two name-sorted lists that
// share no name. add is returned as it is when old is empty, and appended
// when it sorts after old; otherwise both are copied into one new list.
func mergeInto[E any](old, add []E, name func(E) string) []E {
	switch {
	case len(old) == 0:
		return add
	case len(add) == 0:
		return old
	case name(old[len(old)-1]) < name(add[0]):
		return append(old, add...)
	}
	out := make([]E, 0, len(old)+len(add))
	for len(old) > 0 && len(add) > 0 {
		if name(old[0]) < name(add[0]) {
			out, old = append(out, old[0]), old[1:]
		} else {
			out, add = append(out, add[0]), add[1:]
		}
	}
	out = append(out, old...)
	return append(out, add...)
}
