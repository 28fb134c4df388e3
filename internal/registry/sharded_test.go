package registry

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"actyp/internal/query"
)

// TestAttrNamedMatchesAttrs pins the contract of the per-record hot path:
// attrNamed must agree with the materialized Attrs set for every name,
// including built-ins, shadowed params, policy-list fallbacks and absences.
func TestAttrNamedMatchesAttrs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	names := []string{
		"name", "speed", "cpus", "maxload", "load", "activejobs",
		"freememory", "freeswap", "usergroup", "toolgroup",
		"arch", "domain", "custom", "absent",
	}
	for trial := 0; trial < 500; trial++ {
		m := diffMachine(rng, fmt.Sprintf("m%03d", trial))
		switch trial % 4 {
		case 0:
			m.Policy.Params = m.Policy.Params.With("speed", query.StrAttr("shadowed")) // built-in must win
		case 1:
			m.Policy.Params = m.Policy.Params.With("usergroup", query.StrAttr("paramgroup"))
			m.Policy.UserGroups = nil // param must show through
		case 2:
			m.Policy.ToolGroups = []string{"spice", "matlab"}
		case 3:
			m.Policy.Params = nil
		}
		full := m.Attrs()
		for _, n := range names {
			got, gotOK := m.attrNamed(n)
			want, wantOK := full[n]
			if gotOK != wantOK {
				t.Fatalf("trial %d: attrNamed(%q) ok=%v, Attrs ok=%v", trial, n, gotOK, wantOK)
			}
			if gotOK && got.String() != want.String() {
				t.Fatalf("trial %d: attrNamed(%q) = %q, Attrs = %q", trial, n, got, want)
			}
		}
	}
}

func shardedFleet(t *testing.T, shards, n int) *Sharded {
	t.Helper()
	s := NewSharded(shards)
	if err := DefaultFleetSpec(n).Populate(NewDBWith(s), time.Unix(1000000000, 0).UTC()); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShardedIndexFollowsSetParam checks the inverted index tracks
// parameter overwrites: stale values must stop matching, new values must
// start, with no index residue.
func TestShardedIndexFollowsSetParam(t *testing.T) {
	s := shardedFleet(t, 8, 64)
	archQ := func(v string) *query.Query {
		return query.New().Set("punch.rsrc.arch", query.Eq(v))
	}
	before := len(s.Select(archQ("sun")))
	if before == 0 {
		t.Fatal("fleet has no sun machines")
	}
	// Move one sun machine to a brand-new architecture.
	if err := s.SetParam("m0000", "arch", query.StrAttr("riscv")); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Select(archQ("sun"))); got != before-1 {
		t.Errorf("sun count after retag = %d, want %d", got, before-1)
	}
	got := s.Select(archQ("riscv"))
	if len(got) != 1 || got[0].Static.Name != "m0000" {
		t.Errorf("riscv select = %v", machineNames(got))
	}
	// Overwrite again, then back, and verify no residue.
	if err := s.SetParam("m0000", "arch", query.StrAttr("sun")); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Select(archQ("riscv"))); got != 0 {
		t.Errorf("riscv still matches %d machines after restore", got)
	}
	if got := len(s.Select(archQ("sun"))); got != before {
		t.Errorf("sun count after restore = %d, want %d", got, before)
	}
	if err := s.checkInvariants(); err != nil {
		t.Error(err)
	}
}

// TestShardedIndexedDropsBuiltins verifies that asking to index a built-in
// attribute is ignored rather than producing false negatives: queries on
// it still scan and still answer correctly.
func TestShardedIndexedDropsBuiltins(t *testing.T) {
	s := NewShardedIndexed(4, []string{"speed", "arch"})
	if s.indexed["speed"] {
		t.Fatal("built-in attribute was indexed")
	}
	if !s.indexed["arch"] {
		t.Fatal("arch should be indexed")
	}
	if err := DefaultFleetSpec(32).Populate(NewDBWith(s), time.Unix(1000000000, 0).UTC()); err != nil {
		t.Fatal(err)
	}
	m, err := s.Get("m0001")
	if err != nil {
		t.Fatal(err)
	}
	q := query.New().Set("punch.rsrc.speed", query.EqNum(m.Static.Speed))
	found := false
	for _, got := range s.Select(q) {
		if got.Static.Name == "m0001" {
			found = true
		}
	}
	if !found {
		t.Errorf("Select on built-in speed missed m0001")
	}
}

func TestShardedShardCount(t *testing.T) {
	for _, tc := range []struct{ in, min, max int }{
		{0, 8, 512},        // auto: GOMAXPROCS-scaled
		{1, 1, 1},          // explicit counts are honored, even tiny ones
		{12, 16, 16},       // rounded to a power of two
		{64, 64, 64},       // already a power of two
		{9999, 8192, 8192}, // above the sanity cap
	} {
		got := NewSharded(tc.in).ShardCount()
		if got < tc.min || got > tc.max {
			t.Errorf("NewSharded(%d).ShardCount() = %d, want in [%d, %d]", tc.in, got, tc.min, tc.max)
		}
		if got&(got-1) != 0 {
			t.Errorf("NewSharded(%d).ShardCount() = %d, not a power of two", tc.in, got)
		}
	}
}

// TestShardedTakeUsesFreeList pins what Take sees of the taken marks (a
// shard kept a free list once; its scan now skips the taken records):
// once the matching machines are all taken, further Takes return nothing,
// and a Release makes exactly the released machine takeable again.
func TestShardedTakeUsesFreeList(t *testing.T) {
	s := shardedFleet(t, 8, 64)
	q := query.New().Set("punch.rsrc.arch", query.Eq("sun"))
	all := s.Take(q, "p1", 0)
	if len(all) == 0 {
		t.Fatal("nothing taken")
	}
	if extra := s.Take(q, "p2", 0); len(extra) != 0 {
		t.Fatalf("took %d machines that were already held", len(extra))
	}
	victim := all[3].Static.Name
	if n := s.Release("p1", victim); n != 1 {
		t.Fatalf("Release = %d", n)
	}
	back := s.Take(q, "p2", 0)
	if len(back) != 1 || back[0].Static.Name != victim {
		t.Fatalf("re-take = %v, want [%s]", machineNames(back), victim)
	}
	if err := s.checkInvariants(); err != nil {
		t.Error(err)
	}
}

// BenchmarkRegistryTakeRelease takes a quarter of the fleet (the sun
// machines, through the arch index) for one pool instance and releases it
// with ReleaseAll, on 8 shards. Both used to shift a sorted free list per
// machine, so their cost grew with machines taken times shard size; now
// each marks the record and moves on.
func BenchmarkRegistryTakeRelease(b *testing.B) {
	q := query.New().Set("punch.rsrc.arch", query.Eq("sun"))
	for _, n := range []int{10000, 40000} {
		b.Run(fmt.Sprintf("machines=%d", n), func(b *testing.B) {
			s := NewSharded(8)
			if err := DefaultFleetSpec(n).Populate(NewDBWith(s), time.Unix(1000000000, 0).UTC()); err != nil {
				b.Fatal(err)
			}
			var take, release time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				got := s.Take(q, "p", 0)
				mid := time.Now()
				freed := s.ReleaseAll("p")
				take += mid.Sub(start)
				release += time.Since(mid)
				if len(got) != n/4 || freed != n/4 {
					b.Fatalf("took %d and released %d of %d machines, want %d", len(got), freed, n, n/4)
				}
			}
			b.ReportMetric(float64(take.Microseconds())/1000/float64(b.N), "take-ms/op")
			b.ReportMetric(float64(release.Microseconds())/1000/float64(b.N), "release-ms/op")
		})
	}
}
