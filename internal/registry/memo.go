package registry

import (
	"slices"
	"sync"

	"actyp/internal/query"
)

// countMemoSize is how many predicates' match counts each shard remembers.
// A select client sends a handful of fixed texts, and a new predicate
// takes the oldest slot.
const countMemoSize = 8

// countMemo is one shard's memory of its match counts, the count Page
// reports as Total. A count is good for as long as the shard's write
// generation (shard.gen) stays where it was when the count was taken:
// every write a predicate can see moves it. Readers share the shard's read
// lock, so the memo has a mutex of its own; it is only touched under the
// shard lock, so the generation cannot move while a reader holds it.
type countMemo struct {
	mu   sync.Mutex
	next int // the slot a new predicate takes
	ents [countMemoSize]countEntry
}

type countEntry struct {
	conds []query.RsrcCond // a copy the memo owns; nil in an empty slot
	gen   uint64
	n     int
}

// get returns the count taken of conds at generation gen, if there is one.
func (cm *countMemo) get(conds []query.RsrcCond, gen uint64) (int, bool) {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	for i := range cm.ents {
		if e := &cm.ents[i]; e.gen == gen && sameConds(e.conds, conds) {
			return e.n, true
		}
	}
	return 0, false
}

// put records n matches of conds at generation gen, over the predicate's
// old count if it has one, else in the oldest slot. conds becomes the
// memo's: the caller must not write it afterwards.
func (cm *countMemo) put(conds []query.RsrcCond, gen uint64, n int) {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	i := slices.IndexFunc(cm.ents[:], func(e countEntry) bool { return sameConds(e.conds, conds) })
	if i < 0 {
		i = cm.next
		cm.next = (cm.next + 1) % countMemoSize
	}
	cm.ents[i] = countEntry{conds: conds, gen: gen, n: n}
}

// countStable reports whether a predicate's match count can be remembered:
// it reads no field a monitor sweep rewrites, and sweeps do not move the
// write generation.
func countStable(conds []query.RsrcCond) bool {
	for _, rc := range conds {
		if builtinAttrs[rc.Name].dynamic {
			return false
		}
	}
	return true
}

// sameConds reports whether two compiled predicates are the same, condition
// by condition and field by field (TestSameCondsReadsEveryField holds it to
// every field of query.Condition).
func sameConds(a, b []query.RsrcCond) bool {
	return slices.EqualFunc(a, b, func(x, y query.RsrcCond) bool {
		c, d := x.Cond, y.Cond
		return x.Name == y.Name && c.Op == d.Op && c.Str == d.Str && c.Num == d.Num &&
			c.IsNum == d.IsNum && c.Lo == d.Lo && c.Hi == d.Hi && slices.Equal(c.Set, d.Set)
	})
}

// cloneConds deep-copies a compiled predicate, Set included.
func cloneConds(conds []query.RsrcCond) []query.RsrcCond {
	out := slices.Clone(conds)
	for i := range out {
		out[i].Cond.Set = slices.Clone(out[i].Cond.Set)
	}
	return out
}
