// Package query implements the ActYP resource-management query language
// described in Section 5.1 of the paper: a hierarchical key-value language
// with comparison operators, composite ("or") queries, per-family default
// semantics, and the signature/identifier mapping used by pool managers to
// name resource pools.
//
// A query is a set of key-value conditions where keys live in a hierarchical
// namespace family.class.name (for example punch.rsrc.arch). The class is
// one of "rsrc" (resource requirements), "appl" (predicted application
// behaviour) or "user" (user-specific data). Missing rsrc keys default to
// "don't care"; missing appl and user keys default to "undefined".
package query

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Op is a comparison operator attached to a condition value.
type Op int

// Comparison operators supported by the query language. OpAny is the
// "don't care" wildcard that every attribute value satisfies.
const (
	OpEq    Op = iota // ==
	OpNe              // !=
	OpGe              // >=
	OpLe              // <=
	OpGt              // >
	OpLt              // <
	OpRange           // lo..hi (inclusive)
	OpIn              // member of a comma-separated set
	OpAny             // don't care
)

var opNames = map[Op]string{
	OpEq:    "==",
	OpNe:    "!=",
	OpGe:    ">=",
	OpLe:    "<=",
	OpGt:    ">",
	OpLt:    "<",
	OpRange: "..",
	OpIn:    "in",
	OpAny:   "*",
}

// String returns the canonical spelling of the operator as used in pool
// signatures (for example "==" or ">=").
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// ParseOp converts a canonical operator spelling back to an Op.
func ParseOp(s string) (Op, error) {
	for op, name := range opNames {
		if name == s {
			return op, nil
		}
	}
	return OpAny, fmt.Errorf("query: unknown operator %q", s)
}

// Class identifies the middle component of a hierarchical key.
type Class string

// The three key classes defined by the punch family.
const (
	ClassRsrc Class = "rsrc"
	ClassAppl Class = "appl"
	ClassUser Class = "user"
)

// Key is a hierarchical query key: family.class.name.
type Key struct {
	Family string // for example "punch"
	Class  Class  // rsrc, appl or user
	Name   string // for example "arch"
}

// String renders the key in its dotted form.
func (k Key) String() string {
	return k.Family + "." + string(k.Class) + "." + k.Name
}

// ParseKey splits a dotted key into its three components.
// It allocates nothing for a well-formed key: pool naming and schema
// validation parse every key of every request.
func ParseKey(s string) (Key, error) {
	family, rest, ok := strings.Cut(s, ".")
	class, name, ok2 := strings.Cut(rest, ".")
	if !ok || !ok2 || strings.IndexByte(name, '.') >= 0 {
		return Key{}, fmt.Errorf("query: key %q must have form family.class.name", s)
	}
	if family == "" || class == "" || name == "" {
		return Key{}, fmt.Errorf("query: key %q has an empty component", s)
	}
	c := Class(class)
	switch c {
	case ClassRsrc, ClassAppl, ClassUser:
	default:
		return Key{}, fmt.Errorf("query: key %q has unknown class %q", s, class)
	}
	return Key{Family: family, Class: c, Name: name}, nil
}

// Condition is an operator applied to an operand. Numeric operands are kept
// in Num (and Lo/Hi for ranges); string operands in Str. IsNum records which
// representation is authoritative.
type Condition struct {
	Op    Op       `json:"op"`
	Str   string   `json:"str,omitempty"`
	Num   float64  `json:"num,omitempty"`
	IsNum bool     `json:"isNum,omitempty"`
	Lo    float64  `json:"lo,omitempty"`
	Hi    float64  `json:"hi,omitempty"`
	Set   []string `json:"set,omitempty"`
}

// Eq returns an equality condition for a string value.
func Eq(v string) Condition {
	if f, ok := parseNum(v); ok {
		return Condition{Op: OpEq, Str: v, Num: f, IsNum: true}
	}
	return Condition{Op: OpEq, Str: v}
}

// EqNum returns an equality condition for a numeric value.
func EqNum(v float64) Condition {
	return Condition{Op: OpEq, Num: v, IsNum: true, Str: FormatNum(v)}
}

// Ge returns a >= condition for a numeric value.
func Ge(v float64) Condition { return Condition{Op: OpGe, Num: v, IsNum: true, Str: FormatNum(v)} }

// Le returns a <= condition for a numeric value.
func Le(v float64) Condition { return Condition{Op: OpLe, Num: v, IsNum: true, Str: FormatNum(v)} }

// Gt returns a > condition for a numeric value.
func Gt(v float64) Condition { return Condition{Op: OpGt, Num: v, IsNum: true, Str: FormatNum(v)} }

// Lt returns a < condition for a numeric value.
func Lt(v float64) Condition { return Condition{Op: OpLt, Num: v, IsNum: true, Str: FormatNum(v)} }

// Ne returns a != condition.
func Ne(v string) Condition {
	if f, ok := parseNum(v); ok {
		return Condition{Op: OpNe, Str: v, Num: f, IsNum: true}
	}
	return Condition{Op: OpNe, Str: v}
}

// Between returns an inclusive range condition.
func Between(lo, hi float64) Condition {
	return Condition{Op: OpRange, Lo: lo, Hi: hi, IsNum: true, Str: FormatNum(lo) + ".." + FormatNum(hi)}
}

// In returns a set-membership condition.
func In(vals ...string) Condition {
	cp := make([]string, len(vals))
	copy(cp, vals)
	return Condition{Op: OpIn, Set: cp, Str: strings.Join(cp, ",")}
}

// Any returns the "don't care" condition.
func Any() Condition { return Condition{Op: OpAny, Str: "*"} }

// Operand renders the condition's operand in canonical string form, used in
// pool identifiers.
func (c Condition) Operand() string {
	if c.Op != OpAny && c.Op != OpRange && c.Op != OpIn && !c.IsNum {
		return c.Str // already canonical: no copy
	}
	var buf [32]byte
	return string(c.appendOperand(buf[:0]))
}

// appendOperand appends c.Operand() to dst.
func (c Condition) appendOperand(dst []byte) []byte {
	switch c.Op {
	case OpAny:
		return append(dst, '*')
	case OpRange:
		dst = appendNum(dst, c.Lo)
		dst = append(dst, ".."...)
		return appendNum(dst, c.Hi)
	case OpIn:
		for i, v := range c.Set {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, v...)
		}
		return dst
	default:
		if c.IsNum {
			return appendNum(dst, c.Num)
		}
		return append(dst, c.Str...)
	}
}

// String renders the condition as it would appear on the right-hand side of
// a query line.
func (c Condition) String() string {
	switch c.Op {
	case OpEq:
		return c.Operand()
	case OpAny:
		return "*"
	case OpRange, OpIn:
		return c.Operand()
	default:
		return c.Op.String() + c.Operand()
	}
}

// FormatNum renders a float in the compact form used throughout pool names:
// integers print without a decimal point.
func FormatNum(f float64) string {
	var buf [32]byte
	return string(appendNum(buf[:0], f))
}

// appendNum appends FormatNum(f) to dst.
func appendNum(dst []byte, f float64) []byte {
	if f == float64(int64(f)) {
		return strconv.AppendInt(dst, int64(f), 10)
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

// Query is a basic (non-composite) query: an unordered set of conditions
// keyed by their dotted key string.
type Query struct {
	Fields map[string]Condition `json:"fields"`
}

// New returns an empty query.
func New() *Query {
	return &Query{Fields: make(map[string]Condition)}
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	c := New()
	for k, v := range q.Fields {
		if v.Set != nil {
			set := make([]string, len(v.Set))
			copy(set, v.Set)
			v.Set = set
		}
		c.Fields[k] = v
	}
	return c
}

// Set records a condition under the given dotted key, replacing any previous
// condition for that key. It returns the query to allow chaining.
func (q *Query) Set(key string, c Condition) *Query {
	if q.Fields == nil {
		q.Fields = make(map[string]Condition)
	}
	q.Fields[key] = c
	return q
}

// Get returns the condition for a dotted key and whether it was present.
func (q *Query) Get(key string) (Condition, bool) {
	c, ok := q.Fields[key]
	return c, ok
}

// Lookup applies the class default semantics of Section 5.1: missing rsrc
// keys read as "don't care" (OpAny); missing appl and user keys read as the
// undefined condition, reported via ok=false.
func (q *Query) Lookup(k Key) (Condition, bool) {
	if c, ok := q.Fields[k.String()]; ok {
		return c, true
	}
	if k.Class == ClassRsrc {
		return Any(), true
	}
	return Condition{}, false
}

// Keys returns the dotted keys of the query sorted lexicographically.
func (q *Query) Keys() []string {
	out := make([]string, 0, len(q.Fields))
	for k := range q.Fields {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ClassKeys returns the parsed keys belonging to the given class, sorted by
// name and then by the full dotted key. Keys that fail to parse are skipped.
func (q *Query) ClassKeys(class Class) []Key {
	var out []Key
	for ks := range q.Fields {
		k, err := ParseKey(ks)
		if err != nil {
			continue
		}
		if k.Class == class {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].String() < out[j].String()
	})
	return out
}

// Family returns the family of the query's keys, or "" for an empty query.
// Mixed families are legal at parse time; the first (sorted) family wins.
func (q *Query) Family() string {
	keys := q.Keys()
	if len(keys) == 0 {
		return ""
	}
	k, err := ParseKey(keys[0])
	if err != nil {
		return ""
	}
	return k.Family
}

// String renders the query in its native line-per-condition form, with keys
// sorted for determinism.
func (q *Query) String() string {
	var b strings.Builder
	for i, k := range q.Keys() {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(k)
		b.WriteString(" = ")
		b.WriteString(q.Fields[k].String())
	}
	return b.String()
}

// Composite is a query that may contain per-key alternatives ("or" clauses).
// It decomposes into the cartesian product of its alternatives.
type Composite struct {
	// Alternatives maps each dotted key to one or more conditions. A key
	// with a single condition behaves exactly like a basic query field.
	Alternatives map[string][]Condition `json:"alternatives"`
}

// NewComposite returns an empty composite query.
func NewComposite() *Composite {
	return &Composite{Alternatives: make(map[string][]Condition)}
}

// Add appends an alternative condition for the key.
func (c *Composite) Add(key string, cond Condition) *Composite {
	if c.Alternatives == nil {
		c.Alternatives = make(map[string][]Condition)
	}
	c.Alternatives[key] = append(c.Alternatives[key], cond)
	return c
}

// IsBasic reports whether the composite has no "or" clauses.
func (c *Composite) IsBasic() bool {
	for _, alts := range c.Alternatives {
		if len(alts) > 1 {
			return false
		}
	}
	return true
}

// Decompose expands the composite into basic queries — the cartesian product
// of the per-key alternatives, in deterministic (sorted-key) order. A basic
// composite decomposes into exactly one query.
func (c *Composite) Decompose() []*Query {
	keys := make([]string, 0, len(c.Alternatives))
	for k := range c.Alternatives {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	out := []*Query{New()}
	for _, k := range keys {
		alts := c.Alternatives[k]
		if len(alts) == 0 {
			continue
		}
		next := make([]*Query, 0, len(out)*len(alts))
		for _, q := range out {
			for _, alt := range alts {
				nq := q.Clone()
				nq.Set(k, alt)
				next = append(next, nq)
			}
		}
		out = next
	}
	return out
}

// Count returns how many basic queries Decompose would produce.
func (c *Composite) Count() int {
	n := 1
	for _, alts := range c.Alternatives {
		if len(alts) > 1 {
			n *= len(alts)
		}
	}
	return n
}
