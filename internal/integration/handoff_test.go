package integration

import (
	"testing"
	"time"

	"actyp/internal/core"
	"actyp/internal/netsim"
	"actyp/internal/registry"
	"actyp/internal/route"
	"actyp/internal/stage"
	"actyp/internal/wire"
)

// partitionedNode is one live daemon of a two-node partitioned mesh.
type partitionedNode struct {
	svc *core.Service
	rt  *route.Table
	srv *stage.Server
}

// startPartitionedPair boots two live services that split a
// DefaultFleetSpec fleet by domain: node "na" owns upc, node "nb" owns
// purdue, each node's white pages holding only its own records. The nodes
// are cross-dialed over real stage endpoints and share identical static
// ownership tables — the setup the daemon builds from -own-domains and
// -peer-addrs.
func startPartitionedPair(t *testing.T, fleet int) (na, nb *partitionedNode) {
	t.Helper()
	machines, err := registry.DefaultFleetSpec(fleet).Build(time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	dbA, dbB := registry.NewDB(), registry.NewDB()
	for _, m := range machines {
		dst := dbB
		if route.MachineDomain(m) == "upc" {
			dst = dbA
		}
		if err := dst.Add(m); err != nil {
			t.Fatal(err)
		}
	}

	static := map[string]string{"upc": "na-0", "purdue": "nb-0"}
	nodes := []string{"na-0", "nb-0"}
	rtA, rtB := route.New("na-0"), route.New("nb-0")
	rtA.Reload(static, nodes)
	rtB.Reload(static, nodes)

	svcA, err := core.New(core.Options{DB: dbA, NodeName: "na", Routes: rtA})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svcA.Close)
	svcB, err := core.New(core.Options{DB: dbB, NodeName: "nb", Routes: rtB})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svcB.Close)

	srvA, err := stage.Serve(svcA.PoolManagers()[0], "127.0.0.1:0", netsim.Local())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srvA.Close)
	srvB, err := stage.Serve(svcB.PoolManagers()[0], "127.0.0.1:0", netsim.Local())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srvB.Close)

	remB, err := stage.DialRemote(srvB.Addr(), netsim.Local(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remB.Close() })
	svcA.Directory().AddPeer(remB)
	remA, err := stage.DialRemote(srvA.Addr(), netsim.Local(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remA.Close() })
	svcB.Directory().AddPeer(remA)

	return &partitionedNode{svc: svcA, rt: rtA, srv: srvA}, &partitionedNode{svc: svcB, rt: rtB, srv: srvB}
}

func domainNames(db *registry.DB, domain string) map[string]bool {
	names := map[string]bool{}
	db.Walk(func(m *registry.Machine) bool {
		if route.MachineDomain(m) == domain {
			names[m.Static.Name] = true
		}
		return true
	})
	return names
}

// TestOwnershipHandoffPreservesState migrates a domain between two live
// peers — drain, snapshot page, re-own — and verifies the differential
// invariants: no registration is lost, leases held across the migration
// stay resolvable (including a release arriving at the OLD owner, which
// must forward), and new queries for the domain resolve at the new owner.
func TestOwnershipHandoffPreservesState(t *testing.T) {
	na, nb := startPartitionedPair(t, 32)
	upcNames := domainNames(na.svc.DB(), "upc")
	if len(upcNames) == 0 {
		t.Fatal("no upc machines on the initial owner")
	}
	totalBefore := na.svc.DB().Len() + nb.svc.DB().Len()

	// Two leases straddle the migration: one held through the remote node
	// (a directed-hop delegated lease) and one held at the owner itself.
	remoteGrant, err := nb.svc.Request("punch.rsrc.domain = upc")
	if err != nil {
		t.Fatalf("pre-migration remote request: %v", err)
	}
	if !upcNames[remoteGrant.Lease.Machine] {
		t.Fatalf("remote grant machine %s is not in domain upc", remoteGrant.Lease.Machine)
	}
	localGrant, err := na.svc.Request("punch.rsrc.domain = upc")
	if err != nil {
		t.Fatalf("pre-migration local request: %v", err)
	}

	// Step 1: drain. A deliberately tiny page size forces the export to
	// take several snapshot pages.
	exp, err := na.svc.ExportDomain("upc", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Machines) != len(upcNames) {
		t.Fatalf("exported %d machines, want %d", len(exp.Machines), len(upcNames))
	}
	if len(exp.Leases) != 2 {
		t.Fatalf("exported %d live leases, want 2", len(exp.Leases))
	}

	// Step 2: re-own at the destination.
	rep, err := nb.svc.AdoptDomain(exp, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restored != 2 || rep.Dropped != 0 {
		t.Fatalf("adopt report %+v, want both leases restored", rep)
	}

	// Step 3: reload the ownership tables on both live nodes.
	moved := map[string]string{"upc": "nb-0", "purdue": "nb-0"}
	nodes := []string{"na-0", "nb-0"}
	na.rt.Reload(moved, nodes)
	nb.rt.Reload(moved, nodes)

	// Step 4: the source sheds the domain.
	if dropped := na.svc.DropDomain(exp); dropped != len(upcNames) {
		t.Fatalf("dropped %d records at the source, want %d", dropped, len(upcNames))
	}

	// No registration lost: every upc record lives at the new owner and
	// none linger at the source.
	if got := len(domainNames(nb.svc.DB(), "upc")); got != len(upcNames) {
		t.Errorf("new owner holds %d upc records, want %d", got, len(upcNames))
	}
	if got := len(domainNames(na.svc.DB(), "upc")); got != 0 {
		t.Errorf("source still holds %d upc records, want 0", got)
	}
	if total := na.svc.DB().Len() + nb.svc.DB().Len(); total != totalBefore {
		t.Errorf("record count changed across migration: %d -> %d", totalBefore, total)
	}

	// The delegated lease releases at the node that held it: the new owner
	// adopted it into a local pool, so the release never leaves the node.
	if err := nb.svc.Release(remoteGrant); err != nil {
		t.Errorf("release of migrated delegated lease: %v", err)
	}
	// The source-held lease releases THROUGH the source: its pool no
	// longer holds the lease, so the release goes once to the domain's
	// new owner over the wire instead of failing against the closed pool.
	if err := na.svc.Release(localGrant); err != nil {
		t.Errorf("release through the old owner after handoff: %v", err)
	}

	// New queries for the migrated domain resolve at the new owner from
	// either node: directly there, via a directed hop from the source.
	for name, svc := range map[string]*core.Service{"source": na.svc, "destination": nb.svc} {
		g, err := svc.Request("punch.rsrc.domain = upc")
		if err != nil {
			t.Fatalf("post-migration request via %s: %v", name, err)
		}
		if !upcNames[g.Lease.Machine] {
			t.Errorf("post-migration grant via %s landed on %s, not an upc machine", name, g.Lease.Machine)
		}
		if err := svc.Release(g); err != nil {
			t.Errorf("post-migration release via %s: %v", name, err)
		}
	}

	if !na.svc.Drain(time.Second) || !nb.svc.Drain(time.Second) {
		t.Error("leases leaked across the handoff")
	}
}

// TestForwarderRestartKeepsRoute: a node that won a lease through its
// peer keeps no record of it, so a rebuilt node with an empty state (no
// journal) still renews and releases the lease by its id alone. The
// grant carries only the lease: shadow accounts are session-scoped and
// not journaled.
func TestForwarderRestartKeepsRoute(t *testing.T) {
	na, nb := startPartitionedPair(t, 32)
	g, err := nb.svc.Request("punch.rsrc.domain = upc")
	if err != nil {
		t.Fatalf("request through the peer: %v", err)
	}

	// Rebuild nb from its own records, with no journal, and re-dial na.
	db := registry.NewDB()
	nb.svc.DB().Walk(func(m *registry.Machine) bool {
		if err := db.Add(m.Clone()); err != nil {
			t.Fatal(err)
		}
		return true
	})
	nb.svc.Close()
	fresh, err := core.New(core.Options{DB: db, NodeName: "nb", Routes: nb.rt})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fresh.Close)
	remA, err := stage.DialRemote(na.srv.Addr(), netsim.Local(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remA.Close() })
	fresh.Directory().AddPeer(remA)

	held := &core.Grant{Lease: g.Lease}
	for i := 0; i < 2; i++ {
		if err := fresh.Renew(held); err != nil {
			t.Fatalf("renew %d through the rebuilt forwarder: %v", i, err)
		}
	}
	if err := fresh.Release(held); err != nil {
		t.Fatalf("release through the rebuilt forwarder: %v", err)
	}
	if !na.svc.Drain(time.Second) {
		t.Error("the grantor still holds the lease")
	}
}

// TestMixedFleetInterop pins the compatibility floor: a partitioned node
// federating with a pre-partition peer — no ownership table, no domain
// filter, JSON-only wire — still resolves everything. Unroutable queries
// take the fan-out fallback; a domain statically pinned on the legacy
// peer takes the directed hop over the JSON floor.
func TestMixedFleetInterop(t *testing.T) {
	legacyDB := registry.NewDB()
	if err := registry.DefaultFleetSpec(16).Populate(legacyDB, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	legacy, err := core.New(core.Options{DB: legacyDB, NodeName: "legacy"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(legacy.Close)
	codecs, err := wire.ParseCodecs("json")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := stage.ServeOpts(legacy.PoolManagers()[0], "127.0.0.1:0", netsim.Local(),
		wire.ServeOptions{Codecs: codecs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	// The partitioned node has an empty white pages: every query misses
	// locally and must cross the mixed-version wire to resolve.
	rt := route.New("nn-0")
	rt.Reload(map[string]string{"purdue": "legacy-0"}, []string{"nn-0", "legacy-0"})
	svc, err := core.New(core.Options{DB: registry.NewDB(), NodeName: "nn", Routes: rt})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	rem, err := stage.DialRemote(srv.Addr(), netsim.Local(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rem.Close() })
	if rem.Name() != "legacy-0" {
		t.Fatalf("legacy peer handshake name %q", rem.Name())
	}
	svc.Directory().AddPeer(rem)

	// Unroutable query (no domain predicate): the pre-partition fan-out
	// fallback crosses to the legacy peer.
	g, err := svc.Request("punch.rsrc.arch = sun")
	if err != nil {
		t.Fatalf("unroutable query against mixed fleet: %v", err)
	}
	if err := svc.Release(g); err != nil {
		t.Errorf("release of fan-out lease: %v", err)
	}

	// Domain query pinned on the legacy peer: the directed hop speaks the
	// same stage protocol, so it works against a JSON-floor peer too.
	g, err = svc.Request("punch.rsrc.domain = purdue")
	if err != nil {
		t.Fatalf("directed query against legacy peer: %v", err)
	}
	if route.MachineDomain(mustGet(t, legacyDB, g.Lease.Machine)) != "purdue" {
		t.Errorf("directed grant landed outside the pinned domain")
	}
	if err := svc.Release(g); err != nil {
		t.Errorf("release of directed lease: %v", err)
	}

	if !legacy.Drain(time.Second) || !svc.Drain(time.Second) {
		t.Error("leases leaked across the mixed fleet")
	}
}

func mustGet(t *testing.T, db *registry.DB, name string) *registry.Machine {
	t.Helper()
	m, err := db.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
