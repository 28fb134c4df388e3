package integration

import (
	"errors"
	"strings"
	"testing"
	"time"

	"actyp/internal/core"
	"actyp/internal/netsim"
	"actyp/internal/proxy"
	"actyp/internal/query"
	"actyp/internal/registry"
	"actyp/internal/stage"
	"actyp/internal/wire"
)

// TestMethodLanes pins the overload lane of every declared method. This
// package links core, stage and proxy, so every family's declarations are
// in the table.
func TestMethodLanes(t *testing.T) {
	want := map[string]wire.Lane{
		"ping": wire.LaneControl, "renew": wire.LaneControl, "release": wire.LaneControl,
		"pm-release": wire.LaneControl, "pm-renew": wire.LaneControl, "pool-release": wire.LaneControl,
		"pm-name": wire.LaneControl,

		"pm-resolve": wire.LaneLease, "pool-alloc": wire.LaneLease, "spawn-pool": wire.LaneLease,

		"query": wire.LaneBulk, "select": wire.LaneBulk, "route": wire.LaneBulk,
		"no-such-method": wire.LaneBulk,
	}
	for typ, lane := range want {
		if got := wire.LaneOf(typ); got != lane {
			t.Errorf("LaneOf(%q) = %s, want %s", typ, got, lane)
		}
	}
}

// TestDelegatedRenewOverStage renews, over real stage endpoints, a lease
// one node won through its peer: the renewal travels to the grantor as
// pm-renew, and the lease then still releases through it. Before pm-renew
// existed the renewal looked only in the local directory and failed with
// "unknown pool instance".
func TestDelegatedRenewOverStage(t *testing.T) {
	na, nb := startPartitionedPair(t, 32)
	g, err := nb.svc.Request("punch.rsrc.domain = upc")
	if err != nil {
		t.Fatalf("request through the peer: %v", err)
	}
	if _, ok := na.svc.Directory().ByInstance(g.Lease.Pool); !ok {
		t.Fatalf("lease pool %s is not on the owner", g.Lease.Pool)
	}
	for i := 0; i < 2; i++ {
		if err := nb.svc.Renew(g); err != nil {
			t.Fatalf("renew %d of a delegated lease: %v", i, err)
		}
	}
	if err := nb.svc.Release(g); err != nil {
		t.Fatalf("release after renew: %v", err)
	}
	if err := nb.svc.Renew(g); err == nil {
		t.Error("renew of a released lease should fail")
	}
}

// TestStubsExposeRemoteError: a failure the server reports reaches the
// caller of every stub as a *wire.RemoteError, under the stub's own
// message prefix.
func TestStubsExposeRemoteError(t *testing.T) {
	db := registry.NewDB()
	if err := registry.DefaultFleetSpec(16).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	svc, err := core.New(core.Options{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	cray, err := query.ParseBasic("punch.rsrc.arch = cray")
	if err != nil {
		t.Fatal(err)
	}
	check := func(name, prefix string, err error) {
		t.Helper()
		var remote *wire.RemoteError
		if !errors.As(err, &remote) {
			t.Errorf("%s: err = %v, want a *wire.RemoteError", name, err)
			return
		}
		if !strings.HasPrefix(err.Error(), prefix) {
			t.Errorf("%s: err = %q, want prefix %q", name, err, prefix)
		}
	}

	srv, err := core.ServeOpts(svc, "127.0.0.1:0", netsim.Local(), wire.ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := core.Dial(srv.Addr(), netsim.Local())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.Request("punch.rsrc.arch = cray")
	check("core.Client", "core: server: ", err)

	st, err := stage.Serve(svc.PoolManagers()[0], "127.0.0.1:0", netsim.Local())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	remote, err := stage.DialRemote(st.Addr(), netsim.Local(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	_, err = remote.Resolve(cray)
	check("stage.Remote", "stage: "+remote.Name()+": ", err)

	px, err := proxy.Start(db, "127.0.0.1:0", netsim.Local())
	if err != nil {
		t.Fatal(err)
	}
	defer px.Close()
	sp, err := proxy.Spawn(px.Addr(), wire.SpawnPoolRequest{Signature: "arch,==", Identifier: "sun"}, netsim.Local())
	if err != nil {
		t.Fatal(err)
	}
	rp, err := proxy.NewRemotePool(sp.Addr, netsim.Local())
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	_, err = rp.Allocate(cray)
	check("proxy.RemotePool", "proxy: remote pool: ", err)
}
