package poolmgr

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"actyp/internal/directory"
	"actyp/internal/pool"
	"actyp/internal/route"
)

// TestLeaseRouteParse pins the id grammar: pool-minted ids carry no hops
// even when the pool name holds '|', each appended hop parses back, and
// an empty last hop is the owner mark.
func TestLeaseRouteParse(t *testing.T) {
	const minted = "punch.rsrc.arch==sun/a|b#0:12:0123abcd"
	for _, tc := range []struct {
		id, inner, hop string
		ok             bool
	}{
		{minted, minted, "", false},
		{"plain-id", "plain-id", "", false},
		{minted + "|na-0", minted, "na-0", true},
		{minted + "|nc-0|nb-0", minted + "|nc-0", "nb-0", true},
		{minted + "|", minted, "", true},
		{"a|b", "a", "b", true},
		{"x:1:0123ABCD|n", "x:1:0123ABCD", "n", true}, // upper-case hex is no pool tail
	} {
		inner, hop, ok := splitHop(tc.id)
		if inner != tc.inner || hop != tc.hop || ok != tc.ok {
			t.Errorf("splitHop(%q) = %q, %q, %v; want %q, %q, %v", tc.id, inner, hop, ok, tc.inner, tc.hop, tc.ok)
		}
	}
	if got, ok := innermostID(minted+"|nc-0|nb-0", 2); got != minted || !ok {
		t.Errorf("innermostID = %q, %v; want %q, true", got, ok, minted)
	}
	if _, ok := innermostID(minted+"|nc-0|nb-0|", 2); ok {
		t.Error("innermostID accepted three hops under a bound of two")
	}
	for _, bad := range []string{"", "a|b", "|", "node:7:deadbeef", ":1:00000000"} {
		if CheckNodeName(bad) == nil {
			t.Errorf("CheckNodeName(%q) accepted", bad)
		}
	}
	for _, good := range []string{"na-0", "node:7:deadbeefx", "7:deadbeef", "n:x:deadbeef"} {
		if err := CheckNodeName(good); err != nil {
			t.Errorf("CheckNodeName(%q) = %v", good, err)
		}
	}
	if _, err := New(Config{Name: "a|b", Dir: directory.New()}); err == nil {
		t.Error("New accepted a node name containing '|'")
	}
}

// recordingPeer is a fakePeer that also records the id of every release
// it is asked for, taken or refused.
type recordingPeer struct {
	fakePeer
	asked []string
}

func (p *recordingPeer) Release(l *pool.Lease) error {
	p.mu.Lock()
	p.asked = append(p.asked, l.ID)
	p.mu.Unlock()
	return p.fakePeer.Release(l)
}

// TestRouteLeaseMisses: a lease no route leads to fails with the local
// error; an unmarked id goes to its domain's owner once, marked; and a
// marked id is not forwarded again — which is what bounds every chain.
func TestRouteLeaseMisses(t *testing.T) {
	owner := &recordingPeer{fakePeer: fakePeer{name: "pm-owner"}}
	rt := route.New("pm-home")
	rt.Reload(map[string]string{"upc": "pm-owner"}, []string{"pm-home", "pm-owner"})
	m := routedManager(t, rt, 1, nil, owner)

	ghost := &pool.Lease{ID: "nowhere#0:1:00000000", Pool: "nowhere#0"}
	if err := m.Release(ghost); err == nil || !strings.Contains(err.Error(), "unknown pool instance nowhere#0") {
		t.Errorf("release of a lease on an unknown instance = %v", err)
	}
	const id = "domain,==/upc#0:1:00000000"
	if err := m.Release(&pool.Lease{ID: id + "|", Pool: "domain,==/upc#0"}); err == nil {
		t.Error("release of a marked id nobody holds succeeded")
	}
	if err := m.Release(&pool.Lease{ID: id, Pool: "domain,==/upc#0"}); err == nil {
		t.Error("release of an id the owner never granted succeeded")
	}
	if want := []string{id + "|"}; len(owner.asked) != 1 || owner.asked[0] != want[0] {
		t.Errorf("owner asked to release %q, want %q", owner.asked, want)
	}

	local, _, f := newManager(t, "pm-local", fleetDB(t, 4))
	defer f.CloseAll()
	l, err := local.Resolve(basicQuery(t, "punch.rsrc.arch = sun"))
	if err != nil {
		t.Fatal(err)
	}
	if err := local.Release(l); err != nil {
		t.Fatal(err)
	}
	if err := local.Renew(l); !errors.Is(err, pool.ErrUnknownLease) {
		t.Errorf("renew of a released local lease = %v, want ErrUnknownLease", err)
	}
}

// countingPeer is a manager seen as a peer, counting the releases and
// renewals sent to it.
type countingPeer struct {
	*Manager
	calls atomic.Int64
}

func (p *countingPeer) Release(l *pool.Lease) error {
	p.calls.Add(1)
	return p.Manager.Release(l)
}

func (p *countingPeer) Renew(l *pool.Lease) error {
	p.calls.Add(1)
	return p.Manager.Renew(l)
}

// TestForgedHopChainRefused: two managers that peer with each other pass
// an alternating hop chain back and forth, one nested call per hop. A
// chain within the hop bound ends after one call per hop; a longer one,
// which no win produces, is refused at once without a single call.
func TestForgedHopChainRefused(t *testing.T) {
	na, err := New(Config{Name: "na-0", Dir: directory.New()})
	if err != nil {
		t.Fatal(err)
	}
	nb, err := New(Config{Name: "nb-0", Dir: directory.New()})
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := &countingPeer{Manager: na}, &countingPeer{Manager: nb}
	na.dir.AddPeer(pb)
	nb.dir.AddPeer(pa)
	chain := func(hops int) *pool.Lease {
		id := "x"
		for i := hops; i > 0; i-- {
			id += "|" + []string{"na-0", "nb-0"}[i%2]
		}
		return &pool.Lease{ID: id, Pool: "nowhere#0"}
	}
	calls := func() int64 { return pa.calls.Swap(0) + pb.calls.Swap(0) }

	bound := na.maxHops()
	for _, renew := range []bool{false, true} {
		op := na.Release
		if renew {
			op = na.Renew
		}
		if err := op(chain(bound)); err == nil {
			t.Errorf("renew=%v: a chain of %d hops to nowhere succeeded", renew, bound)
		}
		if got := calls(); got != int64(bound) {
			t.Errorf("renew=%v: a chain of %d hops made %d peer calls, want %d", renew, bound, got, bound)
		}
		err := op(chain(66))
		if err == nil || !strings.Contains(err.Error(), "hops") {
			t.Errorf("renew=%v: a forged chain of 66 hops = %v, want a hop-bound error", renew, err)
		}
		if got := calls(); got != 0 {
			t.Errorf("renew=%v: a forged chain made %d peer calls, want 0", renew, got)
		}
	}
}

// FuzzLeaseRoute: lease ids arrive from clients and peers, so the route
// parser must never panic, and appending a valid node name to any id must
// parse back to exactly that name and that id.
func FuzzLeaseRoute(f *testing.F) {
	for _, seed := range []struct{ id, name string }{
		{"punch.rsrc.arch==sun/arch=sun#0:1:0a1b2c3d", "na-0"},
		{"domain,==/upc#0:42:ffffffff", "nb-0"},
		{"domain,==/a|b#0:7:00112233", "nc-0"}, // pool name holding '|'
		{"domain,==/upc#0:3:deadbeef|nc-0|nb-0", "na-0"},
		{"domain,==/upc#0:3:deadbeef|", "nb-0"}, // owner-forwarded mark
		{"", "n"},
		{"|||", "x:1:0000000"},
	} {
		f.Add(seed.id, seed.name)
	}
	f.Fuzz(func(t *testing.T, id, name string) {
		splitHop(id)
		if inner, _ := innermostID(id, len(id)); len(inner) > len(id) {
			t.Fatalf("innermostID(%q) grew to %q", id, inner)
		}
		if CheckNodeName(name) != nil {
			return
		}
		inner, hop, ok := splitHop(id + "|" + name)
		if !ok || hop != name || inner != id {
			t.Fatalf("splitHop(%q + hop %q) = %q, %q, %v", id, name, inner, hop, ok)
		}
	})
}
