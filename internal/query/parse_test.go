package query

import (
	"strings"
	"testing"
	"testing/quick"
)

// The sample query from Section 5.1 of the paper.
const paperQuery = `
punch.rsrc.arch = sun
punch.rsrc.memory = >=10
punch.rsrc.license = tsuprem4
punch.rsrc.domain = purdue
punch.appl.expectedcpuuse = 1000
punch.user.login = kapadia
punch.user.accessgroup = ece
`

func TestParsePaperQuery(t *testing.T) {
	c, err := Parse(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !c.IsBasic() {
		t.Fatal("paper query should be basic")
	}
	q := c.Decompose()[0]
	if got := len(q.Fields); got != 7 {
		t.Fatalf("parsed %d fields, want 7", got)
	}
	arch, _ := q.Get("punch.rsrc.arch")
	if arch.Op != OpEq || arch.Str != "sun" {
		t.Errorf("arch = %+v", arch)
	}
	mem, _ := q.Get("punch.rsrc.memory")
	if mem.Op != OpGe || mem.Num != 10 {
		t.Errorf("memory = %+v", mem)
	}
	cpu, _ := q.Get("punch.appl.expectedcpuuse")
	if cpu.Op != OpEq || !cpu.IsNum || cpu.Num != 1000 {
		t.Errorf("expectedcpuuse = %+v", cpu)
	}
}

func TestParseComposite(t *testing.T) {
	c, err := Parse("punch.rsrc.arch = sun | hp")
	if err != nil {
		t.Fatal(err)
	}
	if c.IsBasic() {
		t.Fatal("or-clause should make the query composite")
	}
	qs := c.Decompose()
	if len(qs) != 2 {
		t.Fatalf("decomposed into %d, want 2", len(qs))
	}
	var archs []string
	for _, q := range qs {
		a, _ := q.Get("punch.rsrc.arch")
		archs = append(archs, a.Str)
	}
	got := strings.Join(archs, ",")
	if got != "sun,hp" && got != "hp,sun" {
		t.Errorf("alternatives = %v", archs)
	}
}

// formsQuery spells every operator form once.
const formsQuery = `
# comment line
punch.rsrc.memory = >=128
punch.rsrc.swap = <=4096
punch.rsrc.speed = >300
punch.rsrc.load = <0.5
punch.rsrc.arch = !=hp
punch.rsrc.cpus = 2..8
punch.rsrc.cms = sge,pbs
punch.rsrc.ostype = *
`

func TestParseOperatorsAndForms(t *testing.T) {
	c, err := Parse(formsQuery)
	if err != nil {
		t.Fatal(err)
	}
	q := c.Decompose()[0]
	checks := []struct {
		key string
		op  Op
	}{
		{"punch.rsrc.memory", OpGe},
		{"punch.rsrc.swap", OpLe},
		{"punch.rsrc.speed", OpGt},
		{"punch.rsrc.load", OpLt},
		{"punch.rsrc.arch", OpNe},
		{"punch.rsrc.cpus", OpRange},
		{"punch.rsrc.cms", OpIn},
		{"punch.rsrc.ostype", OpAny},
	}
	for _, tc := range checks {
		cond, ok := q.Get(tc.key)
		if !ok {
			t.Errorf("missing %s", tc.key)
			continue
		}
		if cond.Op != tc.op {
			t.Errorf("%s: op = %v, want %v", tc.key, cond.Op, tc.op)
		}
	}
	if cond, _ := q.Get("punch.rsrc.cpus"); cond.Lo != 2 || cond.Hi != 8 {
		t.Errorf("range = %+v", cond)
	}
	if cond, _ := q.Get("punch.rsrc.cms"); len(cond.Set) != 2 || cond.Set[0] != "sge" {
		t.Errorf("set = %+v", cond)
	}
}

func TestParseExplicitDoubleEquals(t *testing.T) {
	c, err := Parse("punch.rsrc.arch == sun")
	if err != nil {
		t.Fatal(err)
	}
	q := c.Decompose()[0]
	if cond, _ := q.Get("punch.rsrc.arch"); cond.Op != OpEq || cond.Str != "sun" {
		t.Errorf("cond = %+v", cond)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"punch.rsrc.arch sun",          // no '='
		"notakey = sun",                // malformed key
		"punch.rsrc.arch = ",           // empty value
		"punch.rsrc.memory = >=abc",    // non-numeric operand
		"punch.rsrc.cpus = 8..2",       // inverted range
		"punch.rsrc.arch = sun | | hp", // empty alternative
		"punch.rsrc.memory >= 10",      // operator on wrong side
		"punch.rsrc.cms = a,,b",        // empty set member
		"punch.bogus.arch = sun",       // unknown class
		"punch.rsrc.arch = !=",         // != without operand
	}
	for _, text := range bad {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) should fail", text)
		}
	}
}

func TestParseBasicRejectsComposite(t *testing.T) {
	if _, err := ParseBasic("punch.rsrc.arch = sun | hp"); err == nil {
		t.Error("ParseBasic should reject or-clauses")
	}
	q, err := ParseBasic("punch.rsrc.arch = sun")
	if err != nil {
		t.Fatal(err)
	}
	if cond, _ := q.Get("punch.rsrc.arch"); cond.Str != "sun" {
		t.Errorf("cond = %+v", cond)
	}
}

func TestParseConditionWildcard(t *testing.T) {
	c, err := ParseCondition("*")
	if err != nil || c.Op != OpAny {
		t.Errorf("ParseCondition(*) = %+v, %v", c, err)
	}
}

// Property: any basic query survives a String -> Parse round trip.
func TestParseRoundTripProperty(t *testing.T) {
	archs := []string{"sun", "hp", "alpha", "x86"}
	f := func(archIdx uint8, mem uint16, hasUser bool) bool {
		q := New().
			Set("punch.rsrc.arch", Eq(archs[int(archIdx)%len(archs)])).
			Set("punch.rsrc.memory", Ge(float64(mem%4096)))
		if hasUser {
			q.Set("punch.user.login", Eq("kapadia"))
		}
		parsed, err := ParseBasic(q.String())
		if err != nil {
			return false
		}
		return parsed.String() == q.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
