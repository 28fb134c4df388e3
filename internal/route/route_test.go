package route

import (
	"testing"
	"time"

	"actyp/internal/query"
	"actyp/internal/registry"
)

func TestEmptyTableOwnsEverything(t *testing.T) {
	tb := New("a")
	if tb.Partitioned() {
		t.Fatal("empty table claims to be partitioned")
	}
	if _, ok := tb.Owner("purdue"); ok {
		t.Fatal("empty table routed a domain")
	}
	if !tb.Owns("purdue") || !tb.Owns("") {
		t.Fatal("empty table must own every domain (pre-partition behaviour)")
	}
}

func TestStaticBeatsRendezvous(t *testing.T) {
	tb := New("a")
	tb.Reload(map[string]string{"purdue": "b"}, []string{"a", "b", "c"})
	owner, ok := tb.Owner("purdue")
	if !ok || owner != "b" {
		t.Fatalf("static assignment ignored: got %q ok=%v", owner, ok)
	}
	if tb.Owns("purdue") {
		t.Fatal("a claims ownership of a domain pinned to b")
	}
}

func TestRendezvousDeterministicAndBalanced(t *testing.T) {
	nodes := []string{"node-a", "node-b", "node-c", "node-d"}
	tb := New("node-a")
	tb.Reload(nil, nodes)

	counts := map[string]int{}
	for i := 0; i < 400; i++ {
		d := "domain-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		o1, ok1 := tb.Owner(d)
		o2, ok2 := tb.Owner(d)
		if !ok1 || !ok2 || o1 != o2 {
			t.Fatalf("non-deterministic owner for %s: %q/%q", d, o1, o2)
		}
		counts[o1]++
	}
	for _, n := range nodes {
		if counts[n] == 0 {
			t.Fatalf("rendezvous assigned nothing to %s: %v", n, counts)
		}
	}
}

// Removing a node must only move the domains it owned — the rendezvous
// minimal-disruption property the migration protocol leans on.
func TestRendezvousMinimalDisruption(t *testing.T) {
	all := []string{"node-a", "node-b", "node-c", "node-d"}
	tb := New("node-a")
	tb.Reload(nil, all)

	domains := make([]string, 0, 200)
	for i := 0; i < 200; i++ {
		domains = append(domains, "d"+string(rune('a'+i%26))+string(rune('a'+(i/26)%26)))
	}
	before := map[string]string{}
	for _, d := range domains {
		before[d], _ = tb.Owner(d)
	}

	tb.Reload(nil, []string{"node-a", "node-b", "node-c"}) // node-d leaves
	for _, d := range domains {
		after, _ := tb.Owner(d)
		if before[d] != "node-d" && after != before[d] {
			t.Fatalf("domain %s moved from %s to %s though its owner stayed up", d, before[d], after)
		}
		if before[d] == "node-d" && after == "node-d" {
			t.Fatalf("domain %s still owned by departed node", d)
		}
	}
}

func TestReloadIsAtomicCopy(t *testing.T) {
	static := map[string]string{"purdue": "b"}
	nodes := []string{"b", "a", "a", ""}
	tb := New("a")
	tb.Reload(static, nodes)
	static["purdue"] = "mutated"
	nodes[0] = "mutated"
	if owner, _ := tb.Owner("purdue"); owner != "b" {
		t.Fatalf("table aliases caller's static map: owner %q", owner)
	}
	got := tb.Nodes()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("nodes not deduped/sorted/copied: %v", got)
	}
}

func TestDomainOf(t *testing.T) {
	q := query.New().
		Set("punch.rsrc.arch", query.Eq("sun")).
		Set(DomainKey, query.Eq("purdue"))
	if d, ok := DomainOf(q); !ok || d != "purdue" {
		t.Fatalf("DomainOf = %q,%v", d, ok)
	}
	for name, bad := range map[string]*query.Query{
		"nil":      nil,
		"missing":  query.New().Set("punch.rsrc.arch", query.Eq("sun")),
		"wildcard": query.New().Set(DomainKey, query.Any()),
		"negated":  query.New().Set(DomainKey, query.Ne("purdue")),
		"set":      query.New().Set(DomainKey, query.In("purdue", "upc")),
	} {
		if d, ok := DomainOf(bad); ok {
			t.Fatalf("%s query routed to %q", name, d)
		}
	}
}

// TestPoolDomain: the domain a pool instance id pins is the domain of the
// queries the pool was named after.
func TestPoolDomain(t *testing.T) {
	for text, want := range map[string]string{
		"punch.rsrc.domain = upc":                           "upc",
		"punch.rsrc.arch = sun\npunch.rsrc.domain = purdue": "purdue",
		"punch.rsrc.arch = sun":                             "",
		"punch.rsrc.domain = purdue,upc":                    "",
	} {
		q, err := query.ParseBasic(text)
		if err != nil {
			t.Fatal(err)
		}
		inst := query.Name(q).String() + "#3"
		if d, ok := PoolDomain(inst); d != want || ok != (want != "") {
			t.Errorf("PoolDomain(%q) = %q,%v, want %q", inst, d, ok, want)
		}
	}
	for _, bad := range []string{"", "no-instance", "sig-only#0", "domain,==/upc"} {
		if d, ok := PoolDomain(bad); ok {
			t.Errorf("PoolDomain(%q) routed to %q", bad, d)
		}
	}
}

func TestFilterRoundTrips(t *testing.T) {
	q, err := query.ParseBasic(Filter("upc"))
	if err != nil {
		t.Fatalf("Filter output does not parse: %v", err)
	}
	if d, ok := DomainOf(q); !ok || d != "upc" {
		t.Fatalf("parsed filter yields %q,%v", d, ok)
	}
}

func TestKeepMachine(t *testing.T) {
	fleet, err := registry.DefaultFleetSpec(8).Build(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	tb := New("a")
	tb.Reload(map[string]string{"purdue": "a", "upc": "b"}, nil)
	kept := 0
	for _, m := range fleet {
		if tb.KeepMachine(m) {
			if MachineDomain(m) != "purdue" {
				t.Fatalf("kept foreign machine %s (%s)", m.Static.Name, MachineDomain(m))
			}
			kept++
		}
	}
	if kept != 4 {
		t.Fatalf("kept %d of 8 machines, want the 4 purdue ones", kept)
	}
	if !tb.KeepMachine(&registry.Machine{}) {
		t.Fatal("domainless machine must stay local")
	}
}

func TestParseStatic(t *testing.T) {
	got, err := ParseStatic("me", " purdue , upc=other ,")
	if err != nil {
		t.Fatal(err)
	}
	if got["purdue"] != "me" || got["upc"] != "other" || len(got) != 2 {
		t.Fatalf("ParseStatic = %v", got)
	}
	if _, err := ParseStatic("me", "bad="); err == nil {
		t.Fatal("empty node accepted")
	}
	if _, err := ParseStatic("me", "=node"); err == nil {
		t.Fatal("empty domain accepted")
	}
}
