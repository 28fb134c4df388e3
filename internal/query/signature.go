package query

import (
	"fmt"
	"slices"
	"strings"
)

// PoolName is the two-part name a pool manager derives from a query
// (Section 5.2.2). The signature captures which rsrc keys are constrained
// and with which operators; the identifier captures the operand values.
// For the paper's sample query the signature is
// "arch:domain:license:memory,==:==:==:>=" and the identifier is
// "sun:purdue:tsuprem4:10".
type PoolName struct {
	Signature  string `json:"signature"`
	Identifier string `json:"identifier"`
}

// String joins signature and identifier with '/'.
func (n PoolName) String() string { return n.Signature + "/" + n.Identifier }

// IsZero reports whether the name is empty.
func (n PoolName) IsZero() bool { return n.Signature == "" && n.Identifier == "" }

// Name maps a basic query to its pool name. Only rsrc-class keys take part;
// keys with the "don't care" wildcard are excluded, matching the paper's
// default semantics (an unspecified key does not constrain the pool).
// A query with no effective rsrc constraints maps to the catch-all name
// "any,*" / "*". Keys sort by name, ties (the same name in two families)
// by the full dotted key, so the name is a function of the query alone.
//
// Name runs on every request, so it derives the name in one pass over
// q.Fields into a stack buffer and builds both components in one string.
func Name(q *Query) PoolName {
	var stack [8]nameField
	fields := stack[:0]
	for key, cond := range q.Fields {
		if cond.Op == OpAny {
			continue
		}
		if k, err := ParseKey(key); err == nil && k.Class == ClassRsrc {
			fields = append(fields, nameField{name: k.Name, key: key, cond: cond})
		}
	}
	if len(fields) == 0 {
		return PoolName{Signature: "any,*", Identifier: "*"}
	}
	slices.SortFunc(fields, func(a, b nameField) int {
		if c := strings.Compare(a.name, b.name); c != 0 {
			return c
		}
		return strings.Compare(a.key, b.key)
	})
	buf := make([]byte, 0, 128)
	for i := range fields {
		if i > 0 {
			buf = append(buf, ':')
		}
		buf = append(buf, fields[i].name...)
	}
	buf = append(buf, ',')
	for i := range fields {
		if i > 0 {
			buf = append(buf, ':')
		}
		buf = append(buf, fields[i].cond.Op.String()...)
	}
	sig := len(buf)
	for i := range fields {
		if i > 0 {
			buf = append(buf, ':')
		}
		buf = fields[i].cond.appendOperand(buf)
	}
	s := string(buf)
	return PoolName{Signature: s[:sig], Identifier: s[sig:]}
}

// nameField is one constrained rsrc key of a query being named.
type nameField struct {
	name string // the key's last component
	key  string // the full dotted key, the tie-break
	cond Condition
}

// ParsePoolName splits a "signature/identifier" string back into a PoolName.
func ParsePoolName(s string) (PoolName, error) {
	i := strings.LastIndex(s, "/")
	if i < 0 {
		return PoolName{}, fmt.Errorf("query: pool name %q missing '/'", s)
	}
	n := PoolName{Signature: s[:i], Identifier: s[i+1:]}
	if n.Signature == "" || n.Identifier == "" {
		return PoolName{}, fmt.Errorf("query: pool name %q has empty component", s)
	}
	return n, nil
}

// Criteria reconstructs the aggregation constraints encoded in a pool name:
// the per-key conditions a machine must satisfy to belong to the pool.
// It is the inverse of Name for the rsrc keys of the originating family.
func (n PoolName) Criteria(family string) (*Query, error) {
	if n.Signature == "any,*" {
		return New(), nil
	}
	comma := strings.LastIndex(n.Signature, ",")
	if comma < 0 {
		return nil, fmt.Errorf("query: signature %q missing ',' separator", n.Signature)
	}
	names := strings.Split(n.Signature[:comma], ":")
	ops := strings.Split(n.Signature[comma+1:], ":")
	vals := strings.Split(n.Identifier, ":")
	if len(names) != len(ops) || len(names) != len(vals) {
		return nil, fmt.Errorf("query: pool name %q: %d keys, %d ops, %d values",
			n.String(), len(names), len(ops), len(vals))
	}
	q := New()
	seen := make(map[string]bool, len(names))
	for i, name := range names {
		if name == "" {
			return nil, fmt.Errorf("query: signature %q has an empty key name", n.Signature)
		}
		if seen[name] {
			return nil, fmt.Errorf("query: signature %q repeats key %q", n.Signature, name)
		}
		seen[name] = true
		if i > 0 && names[i-1] > name {
			return nil, fmt.Errorf("query: signature %q keys are not sorted", n.Signature)
		}
		op, err := ParseOp(ops[i])
		if err != nil {
			return nil, err
		}
		// Name never emits don't-care ops into signatures; a wildcard
		// here marks a hand-built, malformed name.
		if op == OpAny {
			return nil, fmt.Errorf("query: signature %q contains a wildcard operator", n.Signature)
		}
		var cond Condition
		switch op {
		case OpEq:
			cond = Eq(vals[i])
		case OpNe:
			cond = Ne(vals[i])
		case OpIn:
			cond = In(strings.Split(vals[i], ",")...)
		case OpRange:
			cond, err = ParseCondition(vals[i])
			if err != nil {
				return nil, err
			}
		default:
			cond, err = ParseCondition(op.String() + vals[i])
			if err != nil {
				return nil, err
			}
		}
		q.Set(Key{Family: family, Class: ClassRsrc, Name: name}.String(), cond)
	}
	return q, nil
}
