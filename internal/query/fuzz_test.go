package query

import (
	"testing"
)

// parseSeeds is FuzzParse's seed corpus.
var parseSeeds = []string{
	"punch.rsrc.arch = sun",
	"punch.rsrc.arch = sun | hp\npunch.rsrc.memory = >=10",
	"punch.rsrc.cpus = 2..8",
	"punch.rsrc.cms = sge,pbs",
	"punch.rsrc.ostype = *",
	"# comment\n\npunch.user.login = kapadia",
	"punch.rsrc.memory = >=",
	"a.b.c = | |",
	"punch.rsrc.arch == ==sun",
}

// FuzzParse checks the query parser never panics, that everything it
// accepts survives the String -> Parse round trip (fragments of accepted
// queries must themselves be accepted), and that each fragment's pool
// name matches the ClassKeys-based oracle.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		c, err := Parse(text)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		for _, q := range c.Decompose() {
			if got, want := Name(q), oracleName(q); got != want {
				t.Fatalf("Name(%q) = %+v, oracle %+v", q.String(), got, want)
			}
			rendered := q.String()
			back, err := ParseBasic(rendered)
			if err != nil {
				t.Fatalf("accepted query fragment failed round trip:\ninput: %q\nrendered: %q\nerr: %v", text, rendered, err)
			}
			if back.String() != rendered {
				t.Fatalf("round trip not idempotent:\nfirst:  %q\nsecond: %q", rendered, back.String())
			}
		}
	})
}

// FuzzParsePoolName checks pool-name parsing and criteria reconstruction
// never panic.
func FuzzParsePoolName(f *testing.F) {
	f.Add("arch:domain:license:memory,==:==:==:>=/sun:purdue:tsuprem4:10")
	f.Add("any,*/*")
	f.Add("a,==/b")
	f.Add("///,")
	f.Fuzz(func(t *testing.T, s string) {
		n, err := ParsePoolName(s)
		if err != nil {
			return
		}
		// Criteria may reject malformed names, but must not panic; a
		// successfully reconstructed criteria must map back to a name
		// with the same signature.
		crit, err := n.Criteria("punch")
		if err != nil {
			return
		}
		if got := Name(crit); got.Signature != n.Signature && n.Signature != "any,*" {
			t.Fatalf("criteria round trip changed signature: %q -> %q", n.Signature, got.Signature)
		}
	})
}
