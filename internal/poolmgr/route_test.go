package poolmgr

import (
	"errors"
	"strings"
	"testing"
	"time"

	"actyp/internal/directory"
	"actyp/internal/metrics"
	"actyp/internal/pool"
	"actyp/internal/query"
	"actyp/internal/route"
)

// routedManager builds a factory-less manager (every resolve is a miss)
// wired to the given peers and carrying a domain-ownership table.
func routedManager(t *testing.T, rt *route.Table, fanout int, stats *metrics.FederationStats, peers ...directory.Forwarder) *Manager {
	t.Helper()
	dir := directory.New()
	for _, p := range peers {
		dir.AddPeer(p)
	}
	m, err := New(Config{Name: rt.Local(), Dir: dir, Fanout: fanout, Stats: stats, Routes: rt})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDirectedHopGoesStraightToOwner: a query pinning a domain the table
// assigns to a peer must take the single directed hop to that peer — the
// other peers see no traffic at all, and no fan-out race is started.
func TestDirectedHopGoesStraightToOwner(t *testing.T) {
	owner := &fakePeer{name: "pm-owner", grant: true, delay: 5 * time.Millisecond}
	// A faster granting peer that would win any fan-out race.
	other := &fakePeer{name: "pm-other", grant: true}
	rt := route.New("pm-home")
	rt.Reload(map[string]string{"upc": "pm-owner"}, []string{"pm-home", "pm-owner", "pm-other"})
	stats := metrics.NewFederationStats()
	m := routedManager(t, rt, 2, stats, other, owner)

	lease, err := m.Resolve(basicQuery(t, "punch.rsrc.domain = upc"))
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if lease.Machine != "m-pm-owner" {
		t.Errorf("lease from %q, want the domain owner's machine", lease.Machine)
	}
	if g, _ := other.counts(); g != 0 {
		t.Errorf("non-owner peer granted %d leases, want 0 (directed hop must not fan out)", g)
	}
	other.mu.Lock()
	contacted := len(other.visited)
	other.mu.Unlock()
	if contacted != 0 {
		t.Errorf("non-owner peer contacted %d times, want 0", contacted)
	}
	snap := stats.Snapshot()
	if snap.Directed != 1 || snap.DirectedWins != 1 || snap.DirectedMisses != 0 {
		t.Errorf("directed stats = %d/%d (%d miss), want 1/1 (0 miss)", snap.DirectedWins, snap.Directed, snap.DirectedMisses)
	}
	if snap.Fanouts != 0 {
		t.Errorf("fanouts = %d, want 0: the directed hop replaces the race", snap.Fanouts)
	}
	if p := snap.Peers["pm-owner"]; p.Forwards != 1 || p.Wins != 1 || p.Failures != 0 {
		t.Errorf("owner's counts = %+v, want one forward and one win", p)
	}
}

// TestDirectedMissFallsBackToFanout: a failed directed hop (owner cannot
// satisfy) degrades to the pre-partition path with the owner marked
// visited, so the query still resolves through the remaining peers and
// the owner is not contacted twice.
func TestDirectedMissFallsBackToFanout(t *testing.T) {
	owner := &fakePeer{name: "pm-owner"} // never grants
	other := &fakePeer{name: "pm-other", grant: true}
	rt := route.New("pm-home")
	rt.Reload(map[string]string{"upc": "pm-owner"}, []string{"pm-home", "pm-owner", "pm-other"})
	stats := metrics.NewFederationStats()
	m := routedManager(t, rt, 2, stats, owner, other)

	lease, err := m.Resolve(basicQuery(t, "punch.rsrc.domain = upc"))
	if err != nil {
		t.Fatalf("resolve after directed miss: %v", err)
	}
	if lease.Machine != "m-pm-other" {
		t.Errorf("lease from %q, want the fallback peer's machine", lease.Machine)
	}
	owner.mu.Lock()
	ownerContacts := len(owner.visited)
	owner.mu.Unlock()
	if ownerContacts != 1 {
		t.Errorf("owner contacted %d times, want exactly 1 (visited after the directed miss)", ownerContacts)
	}
	snap := stats.Snapshot()
	if snap.Directed != 1 || snap.DirectedMisses != 1 {
		t.Errorf("directed stats = %d/%d (%d miss), want a recorded miss", snap.DirectedWins, snap.Directed, snap.DirectedMisses)
	}
	if p := snap.Peers["pm-owner"]; p.Forwards != 1 || p.Failures != 1 || p.Wins != 0 {
		t.Errorf("owner's counts = %+v, want one forward and one failure", p)
	}
}

// TestSpentTTLLaunchesNoHop: a hop that would leave at TTL 0 could only
// fail, so none is launched. At TTL 1 the directed hop is skipped and the
// node's own pools still answer; after a local miss the query fails with
// ErrTTLExpired without a peer call.
func TestSpentTTLLaunchesNoHop(t *testing.T) {
	owner, err := New(Config{Name: "pm-owner", Dir: directory.New()})
	if err != nil {
		t.Fatal(err)
	}
	rt := route.New("pm-home")
	rt.Reload(map[string]string{"upc": "pm-owner"}, []string{"pm-home", "pm-owner"})
	dir := directory.New()
	dir.AddPeer(owner)
	f := &LocalFactory{DB: fleetDB(t, 8)}
	defer f.CloseAll()
	home, err := New(Config{Name: "pm-home", Dir: dir, Factory: f, Routes: rt})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := home.Forward(basicQuery(t, "punch.rsrc.domain = upc"), 1, nil); err != nil {
		t.Fatalf("resolve at TTL 1 with local capacity: %v", err)
	}
	if _, _, forwarded, _ := home.Stats(); forwarded != 0 {
		t.Errorf("home forwarded %d hops at TTL 1, want 0", forwarded)
	}
	if _, _, _, failed := owner.Stats(); failed != 0 {
		t.Errorf("owner failed %d queries, want 0: no hop reaches it", failed)
	}

	peer := &fakePeer{name: "pm-peer", grant: true}
	m := fanoutManager(t, 1, 0, nil, peer)
	if _, err := m.Forward(basicQuery(t, "punch.rsrc.arch = sun"), 1, nil); !errors.Is(err, ErrTTLExpired) {
		t.Errorf("local miss at TTL 1 = %v, want ErrTTLExpired", err)
	}
	if g, _ := peer.counts(); g != 0 || len(peer.visited) != 0 {
		t.Errorf("peer called %d times (granted %d) at a spent TTL, want 0", len(peer.visited), g)
	}
}

// TestUnroutableQuerySkipsDirectedHop: queries without an exact-equality
// domain predicate keep the pre-partition behaviour bit for bit.
func TestUnroutableQuerySkipsDirectedHop(t *testing.T) {
	peer := &fakePeer{name: "pm-peer", grant: true}
	rt := route.New("pm-home")
	rt.Reload(nil, []string{"pm-home", "pm-peer"})
	stats := metrics.NewFederationStats()
	m := routedManager(t, rt, 1, stats, peer)

	for _, text := range []string{
		"punch.rsrc.arch = sun",
		"punch.rsrc.domain = *",
		"punch.rsrc.domain = purdue,upc",
	} {
		if _, err := m.Resolve(basicQuery(t, text)); err != nil {
			t.Fatalf("resolve %q: %v", text, err)
		}
	}
	if snap := stats.Snapshot(); snap.Directed != 0 {
		t.Errorf("directed hops = %d for unroutable queries, want 0", snap.Directed)
	}
}

// TestFallbackGrantRoutesToGrantor: when the directed hop to the domain's
// owner misses and a fan-out peer grants the lease, the renewal and the
// release reach that grantor. The owner, which never held the lease, sees
// neither.
func TestFallbackGrantRoutesToGrantor(t *testing.T) {
	owner := &fakePeer{name: "pm-owner"} // never grants
	other := &fakePeer{name: "pm-other", grant: true}
	rt := route.New("pm-home")
	rt.Reload(map[string]string{"upc": "pm-owner"}, []string{"pm-home", "pm-owner", "pm-other"})
	m := routedManager(t, rt, 2, nil, owner, other)

	lease, err := m.Resolve(basicQuery(t, "punch.rsrc.domain = upc"))
	if err != nil {
		t.Fatalf("resolve after directed miss: %v", err)
	}
	if err := m.Renew(lease); err != nil {
		t.Fatalf("renew: %v", err)
	}
	if err := m.Release(lease); err != nil {
		t.Fatalf("release: %v", err)
	}
	if n := other.renewals(); n != 1 {
		t.Errorf("grantor got %d renewals, want 1", n)
	}
	if _, rel := other.counts(); rel != 1 {
		t.Errorf("grantor got %d releases, want 1", rel)
	}
	if n := owner.renewals(); n != 0 {
		t.Errorf("owner got %d renewals, want 0", n)
	}
	if _, rel := owner.counts(); rel != 0 {
		t.Errorf("owner got %d releases, want 0", rel)
	}
}

// handoff is a three-manager mesh in which domain upc moved from pm-old to
// pm-new after pm-home won a lease in it through pm-old.
type handoff struct {
	home, newOwner *Manager
	oldPool        *pool.Pool // pm-old's upc instance, closed by the drop
	newPool        *pool.Pool // pm-new's rebuilt upc instance
	lease          *pool.Lease
	inner          string // the id pm-old's pool minted
}

// startHandoff wires real managers over one white pages: pm-old owns upc
// and grants pm-home a lease through a directed hop. The domain then
// moves the way core's migration moves it: pm-old releases its leases and
// closes its pool, pm-new rebuilds the instance and adopts the lease
// (deadline in the past, so a renewal shows), and every table reloads.
func startHandoff(t *testing.T) *handoff {
	t.Helper()
	db := fleetDB(t, 8)
	nodes := []string{"pm-home", "pm-old", "pm-new"}
	var tables []*route.Table
	mgr := func(name string, f *LocalFactory, peers ...directory.Forwarder) (*Manager, *directory.Service) {
		rt := route.New(name)
		rt.Reload(map[string]string{"upc": "pm-old"}, nodes)
		tables = append(tables, rt)
		dir := directory.New()
		for _, p := range peers {
			dir.AddPeer(p)
		}
		cfg := Config{Name: name, Dir: dir, Routes: rt}
		if f != nil {
			cfg.Factory = f
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m, dir
	}
	newF := &LocalFactory{DB: db, LeaseTTL: time.Minute}
	newOwner, newDir := mgr("pm-new", newF)
	oldOwner, oldDir := mgr("pm-old", &LocalFactory{DB: db}, newOwner)
	home, _ := mgr("pm-home", nil, oldOwner, newOwner)

	lease, err := home.Resolve(basicQuery(t, "punch.rsrc.domain = upc"))
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	inner, ok := strings.CutSuffix(lease.ID, "|pm-old")
	if !ok {
		t.Fatalf("lease id %q does not name its grantor pm-old", lease.ID)
	}
	ref, ok := oldDir.ByInstance(lease.Pool)
	if !ok {
		t.Fatalf("grantor has no instance %s", lease.Pool)
	}
	oldPool := ref.Local.(*pool.Pool)

	if err := oldPool.Release(inner); err != nil {
		t.Fatal(err)
	}
	oldPool.Close()
	sig, _, _ := strings.Cut(lease.Pool, "#")
	name, err := query.ParsePoolName(sig)
	if err != nil {
		t.Fatal(err)
	}
	ref, err = newF.Build(pool.Config{Name: name, Members: []string{lease.Machine}})
	if err != nil {
		t.Fatal(err)
	}
	if err := newDir.Register(ref); err != nil {
		t.Fatal(err)
	}
	newPool := ref.Local.(*pool.Pool)
	if err := newPool.AdoptLease(withID(lease, inner), time.Unix(1, 0)); err != nil {
		t.Fatal(err)
	}
	for _, rt := range tables {
		rt.Reload(map[string]string{"upc": "pm-new"}, nodes)
	}
	return &handoff{home: home, newOwner: newOwner, oldPool: oldPool, newPool: newPool, lease: lease, inner: inner}
}

// forwarderWithout builds a fresh pm-home that dialed only pm-new: the
// forwarder came back after the old owner left the mesh.
func (h *handoff) forwarderWithout(t *testing.T) *Manager {
	t.Helper()
	rt := route.New("pm-home")
	rt.Reload(map[string]string{"upc": "pm-new"}, []string{"pm-home", "pm-new"})
	return routedManager(t, rt, 1, nil, h.newOwner)
}

// TestDelegatedReleaseReroutesAfterReload: a lease won through the old
// owner of a domain releases at the domain's current owner after a
// handoff. The id names the old owner, which no longer holds the lease
// and forwards once to the new owner; with the old owner gone, the
// forwarder goes to the new owner itself. The stale grantor holds
// nothing, and a second release fails.
func TestDelegatedReleaseReroutesAfterReload(t *testing.T) {
	for _, tc := range []struct {
		name    string
		oldGone bool
	}{{"through-old-owner", false}, {"old-owner-gone", true}} {
		t.Run(tc.name, func(t *testing.T) {
			h := startHandoff(t)
			m := h.home
			if tc.oldGone {
				m = h.forwarderWithout(t)
			}
			if err := m.Release(h.lease); err != nil {
				t.Fatalf("release after the handoff: %v", err)
			}
			if n := len(h.newPool.Leases()); n != 0 {
				t.Errorf("current owner still holds %d leases, want 0", n)
			}
			if n := len(h.oldPool.Leases()); n != 0 {
				t.Errorf("stale grantor holds %d leases, want 0", n)
			}
			if err := m.Release(h.lease); err == nil {
				t.Error("second release should fail: the current owner took the lease back")
			}
		})
	}
}

// TestDelegatedRenewReroutesAfterReload: a renewal takes the release's
// route after a handoff. It reaches the current owner (the adopted
// lease's past deadline moves into the future), and the lease then still
// releases there.
func TestDelegatedRenewReroutesAfterReload(t *testing.T) {
	for _, tc := range []struct {
		name    string
		oldGone bool
	}{{"through-old-owner", false}, {"old-owner-gone", true}} {
		t.Run(tc.name, func(t *testing.T) {
			h := startHandoff(t)
			m := h.home
			if tc.oldGone {
				m = h.forwarderWithout(t)
			}
			if err := m.Renew(h.lease); err != nil {
				t.Fatalf("renew after the handoff: %v", err)
			}
			ls := h.newPool.Leases()
			if len(ls) != 1 || ls[0].ID != h.inner || !ls[0].Expires.After(time.Now()) {
				t.Errorf("current owner's leases = %+v, want %s renewed into the future", ls, h.inner)
			}
			if n := len(h.oldPool.Leases()); n != 0 {
				t.Errorf("stale grantor holds %d leases, want 0", n)
			}
			if err := m.Release(h.lease); err != nil {
				t.Fatalf("release after renew: %v", err)
			}
			if n := len(h.newPool.Leases()); n != 0 {
				t.Errorf("current owner still holds %d leases after the release", n)
			}
		})
	}
}

// TestDelegatedReleaseUnroutableKeepsGrantor: a lease won for a query with
// no domain predicate keeps releasing through the grantor its id names,
// whatever the table says after a reload — there is no domain to resolve.
func TestDelegatedReleaseUnroutableKeepsGrantor(t *testing.T) {
	grantor := &fakePeer{name: "pm-grantor", grant: true}
	bystander := &fakePeer{name: "pm-bystander", grant: true}
	rt := route.New("pm-home")
	rt.Reload(nil, []string{"pm-home", "pm-grantor", "pm-bystander"})
	m := routedManager(t, rt, 1, nil, grantor, bystander)

	lease, err := m.Resolve(basicQuery(t, "punch.rsrc.arch = sun"))
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	rt.Reload(map[string]string{"upc": "pm-bystander"}, []string{"pm-home", "pm-grantor", "pm-bystander"})
	if err := m.Release(lease); err != nil {
		t.Fatalf("release: %v", err)
	}
	if _, rel := grantor.counts(); rel != 1 {
		t.Errorf("grantor got %d releases, want 1", rel)
	}
	if _, rel := bystander.counts(); rel != 0 {
		t.Errorf("bystander got %d releases, want 0", rel)
	}
}

// TestReleaseRemoteFallsBackWhenOwnerNotDialed: when the reload points a
// domain at a node this manager has no connection to, the release still
// reaches the grantor its id names rather than failing outright.
func TestReleaseRemoteFallsBackWhenOwnerNotDialed(t *testing.T) {
	grantor := &fakePeer{name: "pm-grantor", grant: true}
	rt := route.New("pm-home")
	rt.Reload(map[string]string{"upc": "pm-grantor"}, []string{"pm-home", "pm-grantor"})
	m := routedManager(t, rt, 1, nil, grantor)

	lease, err := m.Resolve(basicQuery(t, "punch.rsrc.domain = upc"))
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	// The new owner is not in this manager's directory.
	rt.Reload(map[string]string{"upc": "pm-elsewhere"}, []string{"pm-home", "pm-grantor", "pm-elsewhere"})
	if err := m.Release(lease); err != nil {
		t.Fatalf("release with undialed owner: %v", err)
	}
	if _, rel := grantor.counts(); rel != 1 {
		t.Errorf("grantor got %d releases, want 1 (fallback target)", rel)
	}
}
