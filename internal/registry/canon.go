package registry

import (
	"encoding/binary"
	"math"
	"slices"

	"actyp/internal/query"
)

// canon is one shard's table of the distinct parameter sets (field 20) and
// group lists (fields 16 and 17) its records hold. A fleet has few of each
// (the default fleet about 48 parameter sets), so a record whose value
// equals a stored one by value points at that stored copy's backing array
// instead of keeping its own. The values are immutable once stored (see
// Policy), which is what lets records, and the views handed out of them,
// share one array.
//
// A value is looked up by its key: every field written out, each string
// with its length, so two values have one key exactly when they are equal
// field by field (nil and empty apart, Num by its bits). The shard's write
// lock guards the table. Each map is emptied when it reaches canonCap
// entries: records keep the arrays they point at, and later ones share
// afresh.
type canon struct {
	params map[string]query.Params
	lists  map[string][]string
	key    []byte // scratch for the key being looked up
}

// canonCap bounds each of a shard's canonical maps. A fleet's distinct
// values are few; a stream of ever-new ones (a parameter that counts) is
// not kept past this many.
const canonCap = 1024

// intern points the record's parameters and group lists at the shard's
// stored copies, storing the record's own values where none is equal. The
// caller holds the shard's write lock.
func (c *canon) intern(m *Machine) {
	m.Policy.Params = c.internParams(m.Policy.Params)
	m.Policy.UserGroups = c.internList(m.Policy.UserGroups)
	m.Policy.ToolGroups = c.internList(m.Policy.ToolGroups)
}

// internParams returns the stored Params equal to p, or stores p and
// returns it. Nil and empty have no backing array to share and come back
// as they went in.
func (c *canon) internParams(p query.Params) query.Params {
	if len(p) == 0 {
		return p
	}
	k := c.key[:0]
	for _, e := range p {
		k = appendKeyString(k, e.Key)
		k = appendKeyString(k, e.Attr.Str)
		k = binary.LittleEndian.AppendUint64(k, math.Float64bits(e.Attr.Num))
		if e.Attr.IsNum {
			k = append(k, 1)
		} else {
			k = append(k, 0)
		}
		k = appendKeyList(k, e.Attr.List)
	}
	c.key = k
	return internKey(&c.params, k, p)
}

// internList is internParams for a group list.
func (c *canon) internList(l []string) []string {
	if len(l) == 0 {
		return l
	}
	c.key = appendKeyList(c.key[:0], l)
	return internKey(&c.lists, c.key, l)
}

// internKey returns the value stored under key, or stores v there. The
// stored slice is clipped, so an append by anyone holding it reallocates
// instead of writing past the shared elements.
func internKey[S ~[]E, E any](table *map[string]S, key []byte, v S) S {
	if got, ok := (*table)[string(key)]; ok {
		return got
	}
	if *table == nil || len(*table) >= canonCap {
		*table = make(map[string]S)
	}
	v = slices.Clip(v)
	(*table)[string(key)] = v
	return v
}

func appendKeyString(k []byte, s string) []byte {
	return append(binary.AppendUvarint(k, uint64(len(s))), s...)
}

// appendKeyList writes a list as its length plus one, or 0 for nil.
func appendKeyList(k []byte, l []string) []byte {
	if l == nil {
		return append(k, 0)
	}
	k = binary.AppendUvarint(k, uint64(len(l))+1)
	for _, s := range l {
		k = appendKeyString(k, s)
	}
	return k
}
