package poolmgr

import (
	"testing"
	"time"

	"actyp/internal/directory"
	"actyp/internal/metrics"
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

// TestDelegatedReleaseReroutesAfterReload is the (peer, domain) regression:
// a delegated lease won in domain B must release through B's CURRENT owner
// after an ownership-table reload, not through the stale granting peer —
// the grantor handed the domain (records, pools, leases) off in the
// meantime, so only the new owner can still find the lease.
func TestDelegatedReleaseReroutesAfterReload(t *testing.T) {
	oldOwner := &fakePeer{name: "pm-old", grant: true}
	newOwner := &fakePeer{name: "pm-new", grant: true}
	rt := route.New("pm-home")
	rt.Reload(map[string]string{"upc": "pm-old"}, []string{"pm-home", "pm-old", "pm-new"})
	m := routedManager(t, rt, 1, nil, oldOwner, newOwner)

	lease, err := m.Resolve(basicQuery(t, "punch.rsrc.domain = upc"))
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if lease.Machine != "m-pm-old" {
		t.Fatalf("lease from %q, want the pre-reload owner", lease.Machine)
	}

	// The domain changes hands between grant and release.
	rt.Reload(map[string]string{"upc": "pm-new"}, []string{"pm-home", "pm-old", "pm-new"})

	if err := m.Release(lease); err != nil {
		t.Fatalf("release after reload: %v", err)
	}
	if _, rel := oldOwner.counts(); rel != 0 {
		t.Errorf("stale grantor got %d releases, want 0", rel)
	}
	if _, rel := newOwner.counts(); rel != 1 {
		t.Errorf("current owner got %d releases, want 1", rel)
	}
	if err := m.Release(lease); err == nil {
		t.Error("second release should fail: the routing entry is consumed")
	}
}

// TestDelegatedRenewReroutesAfterReload: a renewal follows the same
// (peer, domain) rule as a release — after a reload it reaches the
// domain's current owner, and the routing entry stays for the release.
func TestDelegatedRenewReroutesAfterReload(t *testing.T) {
	oldOwner := &fakePeer{name: "pm-old", grant: true}
	newOwner := &fakePeer{name: "pm-new", grant: true}
	rt := route.New("pm-home")
	rt.Reload(map[string]string{"upc": "pm-old"}, []string{"pm-home", "pm-old", "pm-new"})
	m := routedManager(t, rt, 1, nil, oldOwner, newOwner)

	lease, err := m.Resolve(basicQuery(t, "punch.rsrc.domain = upc"))
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	rt.Reload(map[string]string{"upc": "pm-new"}, []string{"pm-home", "pm-old", "pm-new"})

	if err := m.Renew(lease); err != nil {
		t.Fatalf("renew after reload: %v", err)
	}
	if n := oldOwner.renewals(); n != 0 {
		t.Errorf("stale grantor got %d renewals, want 0", n)
	}
	if n := newOwner.renewals(); n != 1 {
		t.Errorf("current owner got %d renewals, want 1", n)
	}
	if err := m.Release(lease); err != nil {
		t.Fatalf("release after renew: %v", err)
	}
	if _, rel := newOwner.counts(); rel != 1 {
		t.Errorf("current owner got %d releases, want 1", rel)
	}
}

// TestDelegatedReleaseUnroutableKeepsGrantor: a lease won for a query with
// no domain predicate records domain "" and must keep releasing through
// the recorded grantor regardless of table reloads — there is no domain to
// re-resolve.
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
// domain at a node this manager has no connection to, the release falls
// back to the recorded grantor rather than failing outright.
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
