package query

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

func TestParamsGetWith(t *testing.T) {
	p := NewParams(
		Param{Key: "owner", Attr: StrAttr("ece")},
		Param{Key: "arch", Attr: StrAttr("hp")},
		Param{Key: "cms", Attr: ListAttr("sge", "pbs")},
		Param{Key: "arch", Attr: StrAttr("sun")}, // the last of a key wins
	)
	var keys []string
	for k := range p.All() {
		keys = append(keys, k)
	}
	if fmt.Sprint(keys) != "[arch cms owner]" || p.Len() != 3 {
		t.Fatalf("NewParams kept keys %v", keys)
	}
	if a, ok := p.Get("arch"); !ok || a.Str != "sun" {
		t.Errorf("Get(arch) = %+v, %v; want sun", a, ok)
	}
	if _, ok := p.Get("absent"); ok {
		t.Error("Get(absent) found something")
	}

	replaced := p.With("arch", StrAttr("alpha"))
	added := p.With("domain", StrAttr("upc"))
	if a, _ := p.Get("arch"); a.Str != "sun" || p.Len() != 3 {
		t.Errorf("With wrote its receiver: %+v", p)
	}
	if a, _ := replaced.Get("arch"); a.Str != "alpha" || replaced.Len() != 3 {
		t.Errorf("With(arch) = %+v", replaced)
	}
	if a, _ := added.Get("domain"); a.Str != "upc" || added.Len() != 4 || added[2].Key != "domain" {
		t.Errorf("With(domain) = %+v", added)
	}
	if got := Params(nil).With("k", NumAttr(1)); got.Len() != 1 {
		t.Errorf("With on nil = %+v", got)
	}
}

// TestParamsCopiesAreDeep: Clone and AttrSet copy the list values too, and
// neither returns nil, as the map form's copy never did.
func TestParamsCheck(t *testing.T) {
	for _, ok := range []Params{nil, {}, NewParams(Param{Key: "b"}, Param{Key: "a"}), NewParams(Param{Key: "a"}).With("", NumAttr(1))} {
		if err := ok.Check(); err != nil {
			t.Errorf("Check(%v) = %v", ok, err)
		}
	}
	for _, bad := range []Params{{{Key: "b"}, {Key: "a"}}, {{Key: "a"}, {Key: "a"}}, {{Key: "a"}, {Key: "c"}, {Key: "b"}}} {
		if bad.Check() == nil {
			t.Errorf("Check(%v) passed", bad)
		}
	}
}

func TestParamsCopiesAreDeep(t *testing.T) {
	p := NewParams(Param{Key: "cms", Attr: ListAttr("sge", "pbs")})
	c := p.Clone()
	c[0].Attr.List[0] = "mutated"
	if a, _ := p.Get("cms"); a.List[0] != "sge" {
		t.Error("Clone shares list values")
	}
	set := p.AttrSet()
	set["cms"].List[0] = "mutated"
	if a, _ := p.Get("cms"); a.List[0] != "sge" {
		t.Error("AttrSet shares list values")
	}
	if Params(nil).Clone() == nil || Params(nil).AttrSet() == nil {
		t.Error("a copy of nil is nil")
	}
}

// randomParams draws a parameter set as a map and as Params, with keys that
// JSON must escape and values of every attribute shape.
func randomParams(rng *rand.Rand) (AttrSet, Params) {
	keys := []string{"arch", "", "a<b>&c", "quo\"te", "back\\slash", "tab\tnl\n", "ünï", " ", "\x00", "bad\xffutf8", "Z", "z", "10", "9"}
	vals := []Attr{
		StrAttr("sun"), StrAttr("128"), NumAttr(-0.5), NumAttr(1e21), NumAttr(1e-7),
		ListAttr("sge", "pbs"), ListAttr(), {Str: "<&>"}, {Num: 3}, {IsNum: true}, {List: []string{}},
	}
	m := AttrSet{}
	ps := []Param{}
	for n := rng.Intn(len(keys)); n > 0; n-- {
		k, v := keys[rng.Intn(len(keys))], vals[rng.Intn(len(vals))]
		m[k] = v
		ps = append(ps, Param{Key: k, Attr: v})
	}
	return m, NewParams(ps...)
}

// TestParamsJSONMatchesMap holds the JSON form to the bytes the map form
// wrote, both as a value and as a field beside others, and reads either
// back to the same Params.
func TestParamsJSONMatchesMap(t *testing.T) {
	type mapRecord struct {
		Params AttrSet `json:"params"`
		After  int     `json:"after"`
	}
	type record struct {
		Params Params `json:"params"`
		After  int    `json:"after"`
	}
	check := func(m AttrSet, p Params) {
		t.Helper()
		want, err := json.Marshal(mapRecord{Params: m, After: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(record{Params: p, After: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Params marshal\n%s\nthe map form\n%s", got, want)
		}
		// Read back, each form marshals what the other does.
		var back record
		var mapBack mapRecord
		if err := json.Unmarshal(want, &back); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want, &mapBack); err != nil {
			t.Fatal(err)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		wantAgain, err := json.Marshal(mapBack)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, wantAgain) || (back.Params == nil) != (m == nil) {
			t.Fatalf("read back as %#v, which marshals\n%s\nthe map form\n%s", back.Params, again, wantAgain)
		}
	}
	check(nil, nil)
	check(AttrSet{}, Params{})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		check(randomParams(rng))
	}

	// Keys out of order, or given twice, read as the map reads them.
	var p Params
	if err := json.Unmarshal([]byte(`{"z":{"str":"1"},"a":{"str":"x"},"z":{"str":"2"}}`), &p); err != nil {
		t.Fatal(err)
	}
	if z, _ := p.Get("z"); p.Len() != 2 || p[0].Key != "a" || z.Str != "2" {
		t.Errorf("decoded %+v", p)
	}
	for _, bad := range []string{`[]`, `{"a":1}`, `{1:{}}`, `{"a":{}`, `"x"`} {
		if err := json.Unmarshal([]byte(bad), &p); err == nil {
			t.Errorf("Unmarshal(%s) accepted", bad)
		}
	}
}

// TestParseNumMatchesParseFloat holds the pre-check to its promise: it
// turns away nothing strconv.ParseFloat accepts, and parseNum returns
// what ParseFloat returns.
func TestParseNumMatchesParseFloat(t *testing.T) {
	corpus := []string{
		"", "+", "-", ".", "0", "-0", "+1", "1.", ".5", "-.5", "1e3", "1E-3", "1e", "0x1p-2", "0X1.8P3", "0x",
		"1_000", "0x_1p0", "inf", "+Inf", "-INF", "infinity", "-Infinity", "infinit", "nan", "NaN", "+nan", "-nan",
		"1e400", "-1e400", "sun", "purdue", "nobody", "info", "nano", " 1", "1 ", "i", "n", "e5", "x86", "5.8",
	}
	alphabet := "0123456789+-._eEpPxXiInNfFaAtTyY o"
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		b := make([]byte, rng.Intn(10))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		corpus = append(corpus, string(b))
	}
	for _, s := range corpus {
		want, err := strconv.ParseFloat(s, 64)
		got, ok := parseNum(s)
		if ok != (err == nil) {
			t.Fatalf("parseNum(%q) ok=%v, ParseFloat err=%v", s, ok, err)
		}
		if ok && math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("parseNum(%q) = %v, ParseFloat %v", s, got, want)
		}
	}
}

// TestStrAttrWordAllocs pins the pre-check's point: a word is not a
// number, and finding that out allocates nothing.
func TestStrAttrWordAllocs(t *testing.T) {
	var a Attr
	if n := testing.AllocsPerRun(100, func() { a = StrAttr("sun") }); n != 0 {
		t.Errorf("StrAttr(sun): %.0f allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = Eq("purdue") }); n != 0 {
		t.Errorf("Eq(purdue): %.0f allocations, want 0", n)
	}
	if a.IsNum {
		t.Errorf("StrAttr(sun) = %+v", a)
	}
}
