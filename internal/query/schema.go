package query

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind constrains how values for an administrator-defined key are
// interpreted (Section 4.1, field 20: "administrator defined parameter
// list" whose valid words and value interpretation are specified by
// administrators).
type Kind int

// Value kinds a schema entry may declare.
const (
	KindString Kind = iota // free-form string
	KindNumber             // numeric, supports ordering operators
	KindList               // comma-separated list (set semantics)
	KindEnum               // string restricted to declared values
)

func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindNumber:
		return "number"
	case KindList:
		return "list"
	case KindEnum:
		return "enum"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Field declares one key of a family schema.
type Field struct {
	Class  Class    // rsrc, appl or user
	Name   string   // final key component
	Kind   Kind     // value interpretation
	Values []string // allowed values for KindEnum
}

// Schema is the administrator-defined vocabulary for one query family. New
// families of key-value pairs can be registered to let the pipeline support
// multiple protocols simultaneously (the paper mentions reusing Condor's
// ClassAds this way).
type Schema struct {
	Family string

	mu     sync.RWMutex
	fields map[string]Field // "class.name" -> Field
}

// NewSchema creates an empty schema for a family.
func NewSchema(family string) *Schema {
	return &Schema{Family: family, fields: make(map[string]Field)}
}

// PunchSchema returns the schema of the punch family as used in the
// production PUNCH system, covering the parameters listed in Section 4.1
// (arch, memory, ostype, osversion, owner, swap, cms) plus the appl and
// user keys of the sample query in Section 5.1.
func PunchSchema() *Schema {
	s := NewSchema("punch")
	for _, f := range []Field{
		{Class: ClassRsrc, Name: "arch", Kind: KindString},
		{Class: ClassRsrc, Name: "memory", Kind: KindNumber},
		{Class: ClassRsrc, Name: "swap", Kind: KindNumber},
		{Class: ClassRsrc, Name: "ostype", Kind: KindString},
		{Class: ClassRsrc, Name: "osversion", Kind: KindString},
		{Class: ClassRsrc, Name: "owner", Kind: KindString},
		{Class: ClassRsrc, Name: "cms", Kind: KindList},
		{Class: ClassRsrc, Name: "license", Kind: KindString},
		{Class: ClassRsrc, Name: "domain", Kind: KindString},
		{Class: ClassRsrc, Name: "toolgroup", Kind: KindString},
		{Class: ClassRsrc, Name: "usergroup", Kind: KindString},
		{Class: ClassRsrc, Name: "pool", Kind: KindNumber},
		{Class: ClassRsrc, Name: "speed", Kind: KindNumber},
		{Class: ClassRsrc, Name: "cpus", Kind: KindNumber},
		{Class: ClassAppl, Name: "expectedcpuuse", Kind: KindNumber},
		{Class: ClassAppl, Name: "expectedmemuse", Kind: KindNumber},
		{Class: ClassAppl, Name: "tool", Kind: KindString},
		{Class: ClassUser, Name: "login", Kind: KindString},
		{Class: ClassUser, Name: "accessgroup", Kind: KindString},
		{Class: ClassUser, Name: "accesskey", Kind: KindString},
	} {
		if err := s.Declare(f); err != nil {
			panic(err) // static table; cannot fail
		}
	}
	return s
}

// Declare registers a field. Redeclaring a name under the same class
// replaces the previous declaration.
func (s *Schema) Declare(f Field) error {
	if f.Name == "" {
		return fmt.Errorf("query: schema field needs a name")
	}
	switch f.Class {
	case ClassRsrc, ClassAppl, ClassUser:
	default:
		return fmt.Errorf("query: schema field %q has unknown class %q", f.Name, f.Class)
	}
	if f.Kind == KindEnum && len(f.Values) == 0 {
		return fmt.Errorf("query: enum field %q declares no values", f.Name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fields[string(f.Class)+"."+f.Name] = f
	return nil
}

// Field returns the declaration for class.name.
func (s *Schema) Field(class Class, name string) (Field, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.fields[string(class)+"."+name]
	return f, ok
}

// Names returns the declared names for a class, sorted.
func (s *Schema) Names(class Class) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for _, f := range s.fields {
		if f.Class == class {
			out = append(out, f.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Validate checks that every key of the query belongs to this schema's
// family and vocabulary and that operators are compatible with the declared
// kinds (ordering operators require numbers; enum values must be declared).
func (s *Schema) Validate(q *Query) error {
	for _, ks := range q.Keys() {
		k, err := ParseKey(ks)
		if err != nil {
			return err
		}
		if k.Family != s.Family {
			return fmt.Errorf("query: key %s does not belong to family %q", ks, s.Family)
		}
		f, ok := s.Field(k.Class, k.Name)
		if !ok {
			return fmt.Errorf("query: key %s is not declared in the %s schema", ks, s.Family)
		}
		cond := q.Fields[ks]
		if err := checkKind(f, cond); err != nil {
			return fmt.Errorf("query: key %s: %v", ks, err)
		}
	}
	return nil
}

// ValidateComposite validates every alternative of a composite query.
func (s *Schema) ValidateComposite(c *Composite) error {
	for ks, alts := range c.Alternatives {
		k, err := ParseKey(ks)
		if err != nil {
			return err
		}
		if k.Family != s.Family {
			return fmt.Errorf("query: key %s does not belong to family %q", ks, s.Family)
		}
		f, ok := s.Field(k.Class, k.Name)
		if !ok {
			return fmt.Errorf("query: key %s is not declared in the %s schema", ks, s.Family)
		}
		for _, cond := range alts {
			if err := checkKind(f, cond); err != nil {
				return fmt.Errorf("query: key %s: %v", ks, err)
			}
		}
	}
	return nil
}

func checkKind(f Field, cond Condition) error {
	switch cond.Op {
	case OpAny:
		return nil
	case OpGe, OpLe, OpGt, OpLt, OpRange:
		if f.Kind != KindNumber {
			return fmt.Errorf("operator %s requires a numeric field, %s is %s", cond.Op, f.Name, f.Kind)
		}
		if !cond.IsNum {
			return fmt.Errorf("operator %s requires a numeric operand", cond.Op)
		}
		return nil
	}
	if f.Kind == KindNumber && !cond.IsNum && cond.Op != OpIn {
		return fmt.Errorf("field %s is numeric but operand %q is not", f.Name, cond.Str)
	}
	if f.Kind == KindEnum {
		vals := cond.Set
		if vals == nil {
			vals = []string{cond.Str}
		}
		for _, v := range vals {
			ok := false
			for _, allowed := range f.Values {
				if v == allowed {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("value %q is not among the declared values of enum %s", v, f.Name)
			}
		}
	}
	return nil
}

// SchemaRegistry holds the schemas of all registered families so the
// pipeline can simultaneously support multiple protocols and semantics.
type SchemaRegistry struct {
	mu       sync.RWMutex
	families map[string]*Schema
	gen      atomic.Uint64
}

// NewSchemaRegistry returns a registry preloaded with the punch family.
func NewSchemaRegistry() *SchemaRegistry {
	r := &SchemaRegistry{families: make(map[string]*Schema)}
	r.Register(PunchSchema())
	return r
}

// Register adds or replaces a family schema. It starts a new generation:
// whatever was validated against the old one must be validated again. A
// field declared into a registered schema takes effect for such caches
// once the schema is registered again.
func (r *SchemaRegistry) Register(s *Schema) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.families[s.Family] = s
	r.gen.Add(1)
}

// Generation counts the Register calls so far.
func (r *SchemaRegistry) Generation() uint64 { return r.gen.Load() }

// Family returns the schema for a family name.
func (r *SchemaRegistry) Family(name string) (*Schema, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.families[name]
	return s, ok
}

// Families lists the registered family names, sorted.
func (r *SchemaRegistry) Families() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.families))
	for name := range r.families {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Validate routes a composite query to its family's schema. Unknown
// families are rejected.
func (r *SchemaRegistry) Validate(c *Composite) error {
	family := ""
	for ks := range c.Alternatives {
		k, err := ParseKey(ks)
		if err != nil {
			return err
		}
		if family == "" {
			family = k.Family
		} else if family != k.Family {
			return fmt.Errorf("query: mixed families %q and %q in one query", family, k.Family)
		}
	}
	if family == "" {
		return fmt.Errorf("query: empty query")
	}
	s, ok := r.Family(family)
	if !ok {
		return fmt.Errorf("query: family %q is not registered", family)
	}
	return s.ValidateComposite(c)
}
