package registry

import (
	"sort"

	"actyp/internal/query"
)

// The inverted index maps (attribute name, term) -> sorted list of machine
// names. Terms are derived so the index is a *no-false-negative
// pre-filter*: for any equality or membership condition on an indexed
// attribute, every machine that could match appears in the posting lists
// of the condition's terms. Candidates are always re-verified with the
// full matcher, so over-approximation is safe; missing a matching machine
// is not.
//
// A value is indexed under its canonical string form, each list member,
// and (for numbers) the canonical numeric rendering. A term says which of
// the two it is, so "5" the string and 5 the number do not collide by
// accident; they are looked up together when a condition allows both
// interpretations, mirroring Attr.Matches.
//
// Posting lists are kept sorted so Take can visit candidates in name order
// and stop as soon as it has its limit — the same reason a shard's records
// are.

// DefaultIndexedAttrs lists the discrete, admin-maintained parameters the
// sharded backend indexes by default: the attributes queries constrain by
// equality or membership most often (the fleet generator and the paper's
// example queries use arch/OS/domain/owner; StripePools stripes on pool;
// cms and license are the membership-style lists).
var DefaultIndexedAttrs = []string{
	"arch", "ostype", "osversion", "domain", "owner", "cms", "license", "pool",
}

// term is one key of an attribute's postings: a string value, or the
// rendering of a number. A struct key, where a prefixed string would do,
// because deriving it from a record's value then allocates nothing, and
// every insert, removal and SetParam derives a record's worth of them.
type term struct {
	num bool
	s   string
}

// appendIndexTerms appends the terms an attribute value is indexed under.
func appendIndexTerms(terms []term, a query.Attr) []term {
	terms = append(terms, term{s: a.Str})
	for _, m := range a.List {
		if m != a.Str {
			terms = append(terms, term{s: m})
		}
	}
	if a.IsNum {
		terms = append(terms, term{num: true, s: query.FormatNum(a.Num)})
	}
	return terms
}

// condTerms returns the terms whose posting lists jointly cover every
// attribute value satisfying the condition, or ok=false when the condition
// cannot be served by the index (ordering, range and negation conditions).
func condTerms(c query.Condition) ([]term, bool) {
	switch c.Op {
	case query.OpEq:
		terms := []term{{s: c.Str}}
		if c.IsNum {
			terms = append(terms, term{num: true, s: query.FormatNum(c.Num)})
		}
		return terms, true
	case query.OpIn:
		terms := make([]term, 0, len(c.Set))
		for _, w := range c.Set {
			terms = append(terms, term{s: w})
		}
		return terms, true
	}
	return nil, false
}

// insertSorted adds name to a sorted, duplicate-free list. A name that
// sorts last is appended without a search.
func insertSorted(names []string, name string) []string {
	if n := len(names); n == 0 || names[n-1] < name {
		return append(names, name)
	}
	i := sort.SearchStrings(names, name)
	if i < len(names) && names[i] == name {
		return names
	}
	names = append(names, "")
	copy(names[i+1:], names[i:])
	names[i] = name
	return names
}

// removeSorted deletes name from a sorted list if present.
func removeSorted(names []string, name string) []string {
	i := sort.SearchStrings(names, name)
	if i >= len(names) || names[i] != name {
		return names
	}
	return append(names[:i], names[i+1:]...)
}

// containsSorted reports membership in a sorted list.
func containsSorted(names []string, name string) bool {
	i := sort.SearchStrings(names, name)
	return i < len(names) && names[i] == name
}

// firstAfter returns the position in a sorted list of the first name
// greater than after.
func firstAfter(names []string, after string) int {
	if after == "" {
		return 0
	}
	return sort.Search(len(names), func(i int) bool { return names[i] > after })
}

// mergeSorted merges sorted lists that share no name into one ascending
// list, drops its first skip names and stops at limit names (zero or less:
// no limit). A heap of list heads makes the cost one log(lists) step per
// name consumed, whatever the lists hold beyond that. The lists slice is
// consumed: it becomes the heap.
func mergeSorted(lists [][]string, skip, limit int) []string {
	h := lists[:0]
	rest := 0
	for _, l := range lists {
		if len(l) > 0 {
			h = append(h, l)
			rest += len(l)
		}
	}
	if rest -= skip; rest <= 0 {
		return nil
	}
	if limit > 0 && rest > limit {
		rest = limit
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	out := make([]string, 0, rest)
	for len(out) < rest {
		if skip > 0 {
			skip--
		} else {
			out = append(out, h[0][0])
		}
		if h[0] = h[0][1:]; len(h[0]) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	return out
}

// siftDown restores the heap order (smallest first name at the root) below
// position i.
func siftDown(h [][]string, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r][0] < h[c][0] {
			c = r
		}
		if h[i][0] <= h[c][0] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// forEachMerged visits the union of the sorted lists in ascending order,
// skipping duplicates, until visit returns false.
func forEachMerged(lists [][]string, visit func(name string) bool) {
	if len(lists) == 1 {
		for _, name := range lists[0] {
			if !visit(name) {
				return
			}
		}
		return
	}
	idx := make([]int, len(lists))
	for {
		best, found := "", false
		for li, l := range lists {
			if idx[li] < len(l) && (!found || l[idx[li]] < best) {
				best, found = l[idx[li]], true
			}
		}
		if !found {
			return
		}
		for li, l := range lists {
			if idx[li] < len(l) && l[idx[li]] == best {
				idx[li]++
			}
		}
		if !visit(best) {
			return
		}
	}
}

// attrIndex is one shard's inverted index: attribute name -> term ->
// sorted machine names.
type attrIndex map[string]map[term][]string

func (ix attrIndex) add(attr string, v query.Attr, name string) {
	byTerm := ix[attr]
	if byTerm == nil {
		byTerm = make(map[term][]string)
		ix[attr] = byTerm
	}
	var buf [8]term // on the stack: more than any attribute of the default fleet has
	for _, t := range appendIndexTerms(buf[:0], v) {
		byTerm[t] = insertSorted(byTerm[t], name)
	}
}

func (ix attrIndex) remove(attr string, v query.Attr, name string) {
	byTerm := ix[attr]
	if byTerm == nil {
		return
	}
	var buf [8]term
	for _, t := range appendIndexTerms(buf[:0], v) {
		if rest := removeSorted(byTerm[t], name); len(rest) == 0 {
			delete(byTerm, t)
		} else {
			byTerm[t] = rest
		}
	}
	if len(byTerm) == 0 {
		delete(ix, attr)
	}
}

// postings returns the posting lists for the given terms of one attribute.
// Absent terms contribute nothing; the result may be empty.
func (ix attrIndex) postings(attr string, terms []term) [][]string {
	byTerm := ix[attr]
	if byTerm == nil {
		return nil
	}
	out := make([][]string, 0, len(terms))
	for _, t := range terms {
		if l := byTerm[t]; len(l) > 0 {
			out = append(out, l)
		}
	}
	return out
}
