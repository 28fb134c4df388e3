package query

import (
	"maps"
	"testing"
	"testing/quick"
)

func TestAttrConstructors(t *testing.T) {
	if a := StrAttr("sun"); a.IsNum || a.Str != "sun" {
		t.Errorf("StrAttr(sun) = %+v", a)
	}
	if a := StrAttr("128"); !a.IsNum || a.Num != 128 {
		t.Errorf("StrAttr(128) should promote, got %+v", a)
	}
	if a := StrAttr("sge,pbs,condor"); len(a.List) != 3 {
		t.Errorf("StrAttr(list) = %+v", a)
	}
	if a := NumAttr(2.5); !a.IsNum || a.Str != "2.5" {
		t.Errorf("NumAttr = %+v", a)
	}
	if a := ListAttr("a", "b"); len(a.List) != 2 || a.Str != "a,b" {
		t.Errorf("ListAttr = %+v", a)
	}
}

func TestAttrMatches(t *testing.T) {
	cases := []struct {
		attr Attr
		cond Condition
		want bool
	}{
		{StrAttr("sun"), Eq("sun"), true},
		{StrAttr("sun"), Eq("hp"), false},
		{StrAttr("sun"), Ne("hp"), true},
		{StrAttr("sun"), Ne("sun"), false},
		{NumAttr(128), Ge(64), true},
		{NumAttr(128), Ge(128), true},
		{NumAttr(128), Ge(256), false},
		{NumAttr(128), Le(128), true},
		{NumAttr(128), Gt(128), false},
		{NumAttr(128), Lt(129), true},
		{NumAttr(5), Between(1, 10), true},
		{NumAttr(11), Between(1, 10), false},
		{NumAttr(1), Between(1, 10), true},
		{NumAttr(10), Between(1, 10), true},
		{StrAttr("sun"), In("hp", "sun"), true},
		{StrAttr("sun"), In("hp", "alpha"), false},
		{ListAttr("sge", "pbs"), Eq("pbs"), true},
		{ListAttr("sge", "pbs"), Eq("condor"), false},
		{ListAttr("sge", "pbs"), In("condor", "sge"), true},
		{StrAttr("sun"), Any(), true},
		{NumAttr(1), Any(), true},
		{StrAttr("sun"), Ge(10), false},   // ordering against non-numeric attr
		{NumAttr(10), Eq("10"), true},     // numeric equality via promoted string
		{StrAttr("010"), EqNum(10), true}, // promoted attr matches numerically
	}
	for i, tc := range cases {
		if got := tc.attr.Matches(tc.cond); got != tc.want {
			t.Errorf("case %d: %+v Matches %+v = %v, want %v", i, tc.attr, tc.cond, got, tc.want)
		}
	}
}

func TestAttrSetMatchRsrc(t *testing.T) {
	m := AttrSet{
		"arch":    StrAttr("sun"),
		"memory":  NumAttr(512),
		"domain":  StrAttr("purdue"),
		"license": StrAttr("tsuprem4"),
	}
	q, err := ParseBasic(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !m.MatchRsrc(q) {
		t.Error("machine should satisfy the paper query")
	}

	// Memory below the requirement fails.
	m2 := maps.Clone(m)
	m2["memory"] = NumAttr(5)
	if m2.MatchRsrc(q) {
		t.Error("memory=5 should fail >=10")
	}

	// Missing attribute with a real condition fails...
	m3 := maps.Clone(m)
	delete(m3, "license")
	if m3.MatchRsrc(q) {
		t.Error("missing license should fail")
	}
	// ...but appl/user keys never constrain the machine.
	q2 := New().Set("punch.user.login", Eq("kapadia"))
	if !m3.MatchRsrc(q2) {
		t.Error("user keys must not constrain machines")
	}
	// Don't-care rsrc condition passes even when the attr is missing.
	q3 := New().Set("punch.rsrc.gpu", Any())
	if !m.MatchRsrc(q3) {
		t.Error("wildcard should match a missing attribute")
	}
}

// Property: Ne is always the complement of Eq for the same operand.
func TestNeComplementsEqProperty(t *testing.T) {
	vals := []string{"sun", "hp", "alpha", "128", "x86"}
	f := func(ai, ci uint8) bool {
		attr := StrAttr(vals[int(ai)%len(vals)])
		operand := vals[int(ci)%len(vals)]
		return attr.Matches(Eq(operand)) != attr.Matches(Ne(operand))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a numeric attribute inside [lo,hi] always matches Between(lo,hi)
// and the conjunction Ge(lo) && Le(hi) agrees with it.
func TestRangeAgreesWithConjunctionProperty(t *testing.T) {
	f := func(v, lo, span uint16) bool {
		l, s := float64(lo), float64(span%1000)
		h := l + s
		x := float64(v)
		attr := NumAttr(x)
		inRange := attr.Matches(Between(l, h))
		conj := attr.Matches(Ge(l)) && attr.Matches(Le(h))
		return inRange == conj
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// NumMatches is NumAttr(f).Matches(c) for every operator, including the
// string comparisons against a numeric attribute, and allocates nothing.
func TestNumMatchesAgreesWithNumAttr(t *testing.T) {
	nums := []float64{0, 1, 2, 2.5, 300, -4, 1e21, 0.1}
	conds := []Condition{
		Any(), Eq("2"), Eq("2.5"), Eq("sun"), EqNum(300), Ne("2"), Ne("sun"),
		Ge(2), Le(2), Gt(2), Lt(2), Between(1, 300), In("1", "2.5", "sun"), In(),
		{Op: OpEq, Str: "300"}, {Op: OpEq, Str: "1e+21"}, {Op: OpNe, Str: "0.1"}, {Op: Op(99)},
	}
	for _, f := range nums {
		for _, c := range conds {
			if got, want := NumMatches(f, c), NumAttr(f).Matches(c); got != want {
				t.Errorf("NumMatches(%v, %v %q) = %v, NumAttr.Matches = %v", f, c.Op, c.Str, got, want)
			}
		}
	}
	c := In("1", "2.5", "sun")
	if allocs := testing.AllocsPerRun(100, func() { NumMatches(2.5, c) }); allocs != 0 {
		t.Errorf("NumMatches allocates %.0f times on a membership condition", allocs)
	}
}
