package query

import (
	"bytes"
	"encoding/json"
	"fmt"
	"iter"
	"slices"
	"strings"
)

// Param is one administrator-defined parameter: a key and its attribute.
type Param struct {
	Key  string
	Attr Attr
}

// Params is the administrator-defined parameter list of a machine record
// (Figure 3, field 20): one slice sorted by key, each key once. A record
// holds nine or so parameters for its whole life and is read far more than
// written, so a slice costs a third of the map it replaces and is read by
// binary search. A Params value is immutable once built: With returns a
// new one and leaves the receiver, which readers may share, untouched.
//
// The order is the type's invariant, which NewParams, With and decoding
// keep; a literal or an in-place write of a key can break it, and Check
// finds that where records enter the registry.
//
// Nil and empty are distinct, as the map's were: nil marshals as JSON
// null, empty as {}.
type Params []Param

// NewParams builds a Params from ps, which it takes over: sorted by key,
// and of a key given more than once the last entry kept. Entries already
// in order cost one pass.
func NewParams(ps ...Param) Params {
	if ps == nil {
		return nil
	}
	cmp := func(a, b Param) int { return strings.Compare(a.Key, b.Key) }
	if !slices.IsSortedFunc(ps, cmp) {
		slices.SortStableFunc(ps, cmp)
	}
	// Keep the last of each run of equal keys.
	out := ps[:0]
	for i, p := range ps {
		if i+1 < len(ps) && ps[i+1].Key == p.Key {
			continue
		}
		out = append(out, p)
	}
	clear(ps[len(out):]) // drop what the tail still references
	return out
}

// Check reports a Params whose keys are not each given once, in byte
// order: Get searches by that order and the batch codec writes it as is.
func (p Params) Check() error {
	for i := 1; i < len(p); i++ {
		if p[i-1].Key >= p[i].Key {
			return fmt.Errorf("query: params: key %q after %q, want each key once and in byte order", p[i].Key, p[i-1].Key)
		}
	}
	return nil
}

// search returns the position of key, or where it would be inserted.
func (p Params) search(key string) (int, bool) {
	return slices.BinarySearchFunc(p, key, func(e Param, k string) int { return strings.Compare(e.Key, k) })
}

// Get returns the attribute under key.
func (p Params) Get(key string) (Attr, bool) {
	if i, ok := p.search(key); ok {
		return p[i].Attr, true
	}
	return Attr{}, false
}

// Len returns the number of parameters.
func (p Params) Len() int { return len(p) }

// All iterates the parameters in key order.
func (p Params) All() iter.Seq2[string, Attr] {
	return func(yield func(string, Attr) bool) {
		for _, e := range p {
			if !yield(e.Key, e.Attr) {
				return
			}
		}
	}
}

// With returns a copy of p with key set to attr; p itself is not written.
func (p Params) With(key string, attr Attr) Params {
	i, found := p.search(key)
	if found {
		out := slices.Clone(p)
		out[i].Attr = attr
		return out
	}
	out := make(Params, 0, len(p)+1)
	out = append(out, p[:i]...)
	out = append(out, Param{Key: key, Attr: attr})
	return append(out, p[i:]...)
}

// Clone returns a deep copy: the list values are copied too. Like the map
// form's copy, it is never nil.
func (p Params) Clone() Params {
	out := make(Params, len(p))
	for i, e := range p {
		if e.Attr.List != nil {
			e.Attr.List = slices.Clone(e.Attr.List)
		}
		out[i] = e
	}
	return out
}

// AttrSet returns the parameters as a new attribute set, never nil, list
// values copied, for the readers that want a map they may write:
// Machine.Attrs and the policy contexts built from it.
func (p Params) AttrSet() AttrSet {
	out := make(AttrSet, len(p))
	for _, e := range p {
		if e.Attr.List != nil {
			e.Attr.List = slices.Clone(e.Attr.List)
		}
		out[e.Key] = e.Attr
	}
	return out
}

// MarshalJSON writes the same bytes encoding/json writes for the map form:
// an object with its keys in byte order (the order Params keeps), or null
// for nil.
func (p Params) MarshalJSON() ([]byte, error) {
	if p == nil {
		return []byte("null"), nil
	}
	buf := []byte{'{'}
	for i, e := range p {
		if i > 0 {
			buf = append(buf, ',')
		}
		k, err := json.Marshal(e.Key)
		if err != nil {
			return nil, err
		}
		v, err := json.Marshal(e.Attr)
		if err != nil {
			return nil, err
		}
		buf = append(append(append(buf, k...), ':'), v...)
	}
	return append(buf, '}'), nil
}

// UnmarshalJSON reads what MarshalJSON (or the map form) writes, straight
// into the slice. Of a key given twice the last value wins, as it does for
// a map.
func (p *Params) UnmarshalJSON(b []byte) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if tok == nil {
		*p = nil
		return nil
	}
	if tok != json.Delim('{') {
		return fmt.Errorf("query: params: want an object, got %v", tok)
	}
	out := Params{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		key, ok := tok.(string)
		if !ok {
			return fmt.Errorf("query: params: want a key, got %v", tok)
		}
		var a Attr
		if err := dec.Decode(&a); err != nil {
			return fmt.Errorf("query: params: key %q: %w", key, err)
		}
		out = append(out, Param{Key: key, Attr: a})
	}
	if _, err := dec.Token(); err != nil { // the closing brace
		return err
	}
	*p = NewParams(out...)
	return nil
}
