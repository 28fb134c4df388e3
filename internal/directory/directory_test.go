package directory

import (
	"context"
	"testing"

	"actyp/internal/pool"
	"actyp/internal/query"
)

type fakeAllocator struct{ id string }

func (f *fakeAllocator) Allocate(q *query.Query) (*pool.Lease, error) {
	return &pool.Lease{ID: f.id}, nil
}
func (f *fakeAllocator) Release(leaseID string) error { return nil }

type fakeForwarder struct{ name string }

func (f *fakeForwarder) Name() string { return f.name }
func (f *fakeForwarder) ForwardContext(ctx context.Context, q *query.Query, ttl int, visited []string) (*pool.Lease, error) {
	return nil, nil
}
func (f *fakeForwarder) Release(lease *pool.Lease) error { return nil }
func (f *fakeForwarder) Renew(lease *pool.Lease) error   { return nil }

func poolName(t *testing.T, text string) query.PoolName {
	t.Helper()
	q, err := query.ParseBasic(text)
	if err != nil {
		t.Fatal(err)
	}
	return query.Name(q)
}

func TestRegisterLookupUnregister(t *testing.T) {
	s := New()
	n := poolName(t, "punch.rsrc.arch = sun")
	ref := PoolRef{Name: n, Instance: "i0", Local: &fakeAllocator{id: "a"}}
	if err := s.Register(ref); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(ref); err == nil {
		t.Error("duplicate instance should fail")
	}
	if err := s.Register(PoolRef{Name: n, Instance: "i1", Addr: "host:1"}); err != nil {
		t.Fatal(err)
	}
	if got := s.Lookup(n); len(got) != 2 {
		t.Errorf("lookup = %d refs", len(got))
	}
	if s.Instances() != 2 {
		t.Errorf("instances = %d", s.Instances())
	}
	if ref, ok := s.ByInstance("i1"); !ok || ref.Addr != "host:1" {
		t.Errorf("ByInstance = %+v, %v", ref, ok)
	}
	s.Unregister("i0")
	s.Unregister("i0") // no-op
	if got := s.Lookup(n); len(got) != 1 || got[0].Instance != "i1" {
		t.Errorf("after unregister: %v", got)
	}
	s.Unregister("i1")
	if got := s.Names(); len(got) != 0 {
		t.Errorf("names after full unregister = %v", got)
	}
}

func TestRegisterValidation(t *testing.T) {
	s := New()
	n := poolName(t, "punch.rsrc.arch = sun")
	bad := []PoolRef{
		{Name: n, Instance: "", Local: &fakeAllocator{}},
		{Instance: "x", Local: &fakeAllocator{}},
		{Name: n, Instance: "x"}, // neither local nor addr
	}
	for i, ref := range bad {
		if err := s.Register(ref); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestLookupSnapshotsAreImmutable(t *testing.T) {
	s := New()
	n := poolName(t, "punch.rsrc.arch = sun")
	if err := s.Register(PoolRef{Name: n, Instance: "i0", Addr: "a:1"}); err != nil {
		t.Fatal(err)
	}
	// A slice handed out before a mutation is a frozen snapshot: the
	// directory's later changes never reach it, and it stays readable.
	before := s.Lookup(n)
	if err := s.Register(PoolRef{Name: n, Instance: "i1", Addr: "a:2"}); err != nil {
		t.Fatal(err)
	}
	if len(before) != 1 || before[0].Instance != "i0" {
		t.Errorf("pre-mutation snapshot changed: %v", before)
	}
	after := s.Lookup(n)
	if len(after) != 2 {
		t.Fatalf("post-mutation lookup = %v", after)
	}
	s.Unregister("i0")
	if len(after) != 2 || after[0].Instance != "i0" {
		t.Errorf("snapshot changed by Unregister: %v", after)
	}
	if got := s.Lookup(n); len(got) != 1 || got[0].Instance != "i1" {
		t.Errorf("lookup after unregister = %v", got)
	}
}

func TestNamesSorted(t *testing.T) {
	s := New()
	for _, text := range []string{
		"punch.rsrc.arch = sun",
		"punch.rsrc.arch = hp",
		"punch.rsrc.memory = >=10",
	} {
		n := poolName(t, text)
		if err := s.Register(PoolRef{Name: n, Instance: n.String(), Addr: "x:1"}); err != nil {
			t.Fatal(err)
		}
	}
	names := s.Names()
	if len(names) != 3 {
		t.Fatalf("names = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1].String() >= names[i].String() {
			t.Errorf("names not sorted: %v", names)
		}
	}
}

func TestPeers(t *testing.T) {
	s := New()
	if got := s.Peers(); len(got) != 0 {
		t.Errorf("fresh directory has peers: %v", got)
	}
	a, b := &fakeForwarder{name: "pm-a"}, &fakeForwarder{name: "pm-b"}
	s.AddPeer(a)
	s.AddPeer(b)
	got := s.Peers()
	if len(got) != 2 || got[0].Name() != "pm-a" || got[1].Name() != "pm-b" {
		t.Errorf("peers = %v", got)
	}
	// A peers slice handed out before a mutation is a frozen snapshot.
	s.AddPeer(&fakeForwarder{name: "pm-c"})
	if len(got) != 2 || got[0].Name() != "pm-a" {
		t.Errorf("pre-mutation snapshot changed: %v", got)
	}
	if now := s.Peers(); len(now) != 3 || now[2].Name() != "pm-c" {
		t.Errorf("peers after AddPeer = %v", now)
	}
}
