package query

import (
	"fmt"
	"maps"
	"strings"
	"testing"
	"testing/quick"
)

// Section 5.2.2 gives the exact signature and identifier for the sample
// query of Section 5.1; this test pins both strings.
func TestPaperSignature(t *testing.T) {
	q, err := ParseBasic(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	n := Name(q)
	if n.Signature != "arch:domain:license:memory,==:==:==:>=" {
		t.Errorf("signature = %q", n.Signature)
	}
	if n.Identifier != "sun:purdue:tsuprem4:10" {
		t.Errorf("identifier = %q", n.Identifier)
	}
}

func TestNameIgnoresApplUserAndWildcards(t *testing.T) {
	q := New().
		Set("punch.rsrc.arch", Eq("sun")).
		Set("punch.rsrc.ostype", Any()).
		Set("punch.appl.expectedcpuuse", EqNum(1000)).
		Set("punch.user.login", Eq("kapadia"))
	n := Name(q)
	if n.Signature != "arch,==" || n.Identifier != "sun" {
		t.Errorf("name = %+v", n)
	}
}

func TestNameEmptyQuery(t *testing.T) {
	n := Name(New())
	if n.Signature != "any,*" || n.Identifier != "*" {
		t.Errorf("catch-all name = %+v", n)
	}
	// All-wildcard queries also collapse to the catch-all pool.
	q := New().Set("punch.rsrc.arch", Any())
	if got := Name(q); got != n {
		t.Errorf("wildcard-only name = %+v", got)
	}
}

func TestPoolNameStringParse(t *testing.T) {
	n := PoolName{Signature: "arch,==", Identifier: "sun"}
	parsed, err := ParsePoolName(n.String())
	if err != nil {
		t.Fatal(err)
	}
	if parsed != n {
		t.Errorf("round trip = %+v", parsed)
	}
	for _, bad := range []string{"", "nosolidus", "/x", "x/"} {
		if _, err := ParsePoolName(bad); err == nil {
			t.Errorf("ParsePoolName(%q) should fail", bad)
		}
	}
}

func TestCriteriaInvertsName(t *testing.T) {
	q, err := ParseBasic(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	n := Name(q)
	crit, err := n.Criteria("punch")
	if err != nil {
		t.Fatal(err)
	}
	// The criteria must accept exactly the machines the query accepts.
	yes := AttrSet{
		"arch": StrAttr("sun"), "domain": StrAttr("purdue"),
		"license": StrAttr("tsuprem4"), "memory": NumAttr(64),
	}
	no := maps.Clone(yes)
	no["memory"] = NumAttr(1)
	if !yes.MatchRsrc(crit) {
		t.Error("criteria rejected a conforming machine")
	}
	if no.MatchRsrc(crit) {
		t.Error("criteria accepted a non-conforming machine")
	}
}

func TestCriteriaCatchAll(t *testing.T) {
	crit, err := PoolName{Signature: "any,*", Identifier: "*"}.Criteria("punch")
	if err != nil {
		t.Fatal(err)
	}
	if len(crit.Fields) != 0 {
		t.Errorf("catch-all criteria = %+v", crit)
	}
	if !(AttrSet{}).MatchRsrc(crit) {
		t.Error("catch-all should match anything")
	}
}

func TestCriteriaMalformed(t *testing.T) {
	bad := []PoolName{
		{Signature: "archnocomma", Identifier: "sun"},
		{Signature: "arch:mem,==", Identifier: "sun"},   // 2 keys, 1 op
		{Signature: "arch,==:>=", Identifier: "sun"},    // 1 key, 2 ops
		{Signature: "arch,==", Identifier: "sun:extra"}, // 1 key, 2 values
		{Signature: "arch,~~", Identifier: "sun"},       // unknown op
	}
	for _, n := range bad {
		if _, err := n.Criteria("punch"); err == nil {
			t.Errorf("Criteria(%+v) should fail", n)
		}
	}
}

// Property: queries equal up to rsrc constraints map to the same pool name,
// and the reconstructed criteria accept any machine the query accepts.
func TestNameCriteriaConsistencyProperty(t *testing.T) {
	archs := []string{"sun", "hp", "alpha"}
	f := func(ai uint8, mem uint16) bool {
		arch := archs[int(ai)%len(archs)]
		m := float64(mem % 1024)
		q := New().
			Set("punch.rsrc.arch", Eq(arch)).
			Set("punch.rsrc.memory", Ge(m)).
			Set("punch.user.login", Eq("someone"))
		crit, err := Name(q).Criteria("punch")
		if err != nil {
			return false
		}
		machine := AttrSet{"arch": StrAttr(arch), "memory": NumAttr(m + 1)}
		return machine.MatchRsrc(q) && machine.MatchRsrc(crit)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: pool naming is stable — the same query always yields the same
// name regardless of field insertion order.
func TestNameOrderInvarianceProperty(t *testing.T) {
	f := func(seed uint8) bool {
		a := New().
			Set("punch.rsrc.arch", Eq("sun")).
			Set("punch.rsrc.domain", Eq("purdue")).
			Set("punch.rsrc.memory", Ge(float64(seed)))
		b := New().
			Set("punch.rsrc.memory", Ge(float64(seed))).
			Set("punch.rsrc.domain", Eq("purdue")).
			Set("punch.rsrc.arch", Eq("sun"))
		return Name(a) == Name(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// oracleName is the derivation Name replaced: the parsed rsrc keys from
// ClassKeys, then per-key slices joined with strings.Join, with operands
// rendered by oracleOperand. Name must match it byte for byte.
func oracleName(q *Query) PoolName {
	keys := q.ClassKeys(ClassRsrc)
	names := make([]string, 0, len(keys))
	ops := make([]string, 0, len(keys))
	vals := make([]string, 0, len(keys))
	for _, k := range keys {
		cond := q.Fields[k.String()]
		if cond.Op == OpAny {
			continue
		}
		names = append(names, k.Name)
		ops = append(ops, cond.Op.String())
		vals = append(vals, oracleOperand(cond))
	}
	if len(names) == 0 {
		return PoolName{Signature: "any,*", Identifier: "*"}
	}
	return PoolName{
		Signature:  strings.Join(names, ":") + "," + strings.Join(ops, ":"),
		Identifier: strings.Join(vals, ":"),
	}
}

// oracleOperand is Condition.Operand as it was before it shared its
// rendering with Name.
func oracleOperand(c Condition) string {
	switch c.Op {
	case OpAny:
		return "*"
	case OpRange:
		return FormatNum(c.Lo) + ".." + FormatNum(c.Hi)
	case OpIn:
		return strings.Join(c.Set, ",")
	default:
		if c.IsNum {
			return FormatNum(c.Num)
		}
		return c.Str
	}
}

// TestNameMatchesOracle compares Name with oracleName on every query the
// package's parse corpus and condition tables produce.
func TestNameMatchesOracle(t *testing.T) {
	var qs []*Query
	texts := append([]string{paperQuery, formsQuery, "punch.rsrc.arch == sun"}, parseSeeds...)
	for _, text := range texts {
		c, err := Parse(text)
		if err != nil {
			continue
		}
		qs = append(qs, c.Decompose()...)
	}
	conds := []Condition{
		Eq("sun"), Ge(10), Lt(2.5), Between(1, 3), In("a", "b"), Any(), Ne("hp"),
		EqNum(1000), Eq("5"), Gt(-0.25), Le(1e6), Between(0.5, 2.25), In("x"),
	}
	all := New()
	for i, c := range conds {
		key := fmt.Sprintf("punch.rsrc.k%02d", i)
		qs = append(qs, New().Set(key, c))
		all.Set(key, c)
	}
	qs = append(qs, all, New(),
		New().
			Set("punch.rsrc.arch", Eq("sun")).
			Set("punch.rsrc.ostype", Any()).
			Set("punch.appl.expectedcpuuse", EqNum(1000)).
			Set("punch.user.login", Eq("kapadia")),
		// Keys ParseKey rejects take no part in the name.
		New().
			Set("punch.rsrc.arch", Eq("sun")).
			Set("notakey", Eq("x")).
			Set("punch.rsrc", Eq("x")).
			Set("punch.bogus.arch", Eq("x")).
			Set("punch.rsrc.arch.x", Eq("x")).
			Set(".rsrc.mem", Eq("x")).
			Set("punch..mem", Eq("x")).
			Set("punch.rsrc.", Eq("x")),
		New().
			Set("punch.rsrc.arch", Eq("sun")).
			Set("condor.rsrc.arch", Eq("x86")).
			Set("condor.rsrc.memory", Ge(64)))
	for _, q := range qs {
		if got, want := Name(q), oracleName(q); got != want {
			t.Errorf("Name(%q) = %+v, oracle %+v", q.String(), got, want)
		}
	}
}

// TestNameMixedFamiliesDeterministic: keys of two families that share an
// attribute name order by their full key, so a query has one name. Sorting
// by attribute name alone left their order to map iteration.
func TestNameMixedFamiliesDeterministic(t *testing.T) {
	q := New().Set("punch.rsrc.arch", Eq("sun")).Set("condor.rsrc.arch", Eq("x86"))
	want := PoolName{Signature: "arch:arch,==:==", Identifier: "x86:sun"}
	for i := 0; i < 200; i++ {
		if got := Name(q); got != want {
			t.Fatalf("call %d: Name = %+v, want %+v", i, got, want)
		}
	}
}
