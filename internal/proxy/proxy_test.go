package proxy

import (
	"net"
	"strings"
	"testing"
	"time"

	"actyp/internal/directory"
	"actyp/internal/netsim"
	"actyp/internal/poolmgr"
	"actyp/internal/query"
	"actyp/internal/registry"
	"actyp/internal/wire"
)

func fleetDB(t testing.TB, n int) *registry.DB {
	t.Helper()
	db := registry.NewDB()
	if err := registry.HomogeneousFleetSpec(n).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	return db
}

func startProxy(t *testing.T, n int) *Server {
	t.Helper()
	s, err := Start(fleetDB(t, n), "127.0.0.1:0", netsim.Local())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// dialProxy opens a negotiated client connection to a proxy server.
func dialProxy(t *testing.T, s *Server) *wire.Client {
	t.Helper()
	c := wire.NewClient(func() (net.Conn, error) { return (netsim.Dialer{}).Dial(s.Addr()) }, 5*time.Second)
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestStartValidation(t *testing.T) {
	if _, err := Start(nil, "127.0.0.1:0", netsim.Local()); err == nil {
		t.Error("missing db should fail")
	}
}

func TestSpawnAndAllocate(t *testing.T) {
	srv := startProxy(t, 8)
	sp, err := Spawn(srv.Addr(), wire.SpawnPoolRequest{
		Signature:  "arch,==",
		Identifier: "sun",
		Instance:   0,
	}, netsim.Local())
	if err != nil {
		t.Fatal(err)
	}
	if sp.Instance == "" || sp.Addr == "" {
		t.Fatalf("spawn reply = %+v", sp)
	}
	if len(srv.Pools()) != 1 {
		t.Errorf("proxy pools = %v", srv.Pools())
	}

	stub, err := NewRemotePool(sp.Addr, netsim.Local())
	if err != nil {
		t.Fatal(err)
	}
	defer stub.Close()

	q, err := query.ParseBasic("punch.rsrc.arch = sun")
	if err != nil {
		t.Fatal(err)
	}
	lease, err := stub.Allocate(q)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Machine == "" || lease.AccessKey == "" {
		t.Errorf("lease = %+v", lease)
	}
	if err := stub.Release(lease.ID); err != nil {
		t.Fatal(err)
	}
	if err := stub.Release(lease.ID); err == nil {
		t.Error("double release should fail")
	}
}

func TestSpawnErrors(t *testing.T) {
	srv := startProxy(t, 4)
	// Unknown objective.
	if _, err := Spawn(srv.Addr(), wire.SpawnPoolRequest{
		Signature: "arch,==", Identifier: "sun", Objective: "bogus",
	}, netsim.Local()); err == nil {
		t.Error("bad objective should fail")
	}
	// Criteria matching nothing.
	_, err := Spawn(srv.Addr(), wire.SpawnPoolRequest{
		Signature: "arch,==", Identifier: "cray",
	}, netsim.Local())
	if err == nil || !strings.Contains(err.Error(), "no machines") {
		t.Errorf("err = %v", err)
	}
	// Malformed signature.
	if _, err := Spawn(srv.Addr(), wire.SpawnPoolRequest{
		Signature: "nocomma", Identifier: "x",
	}, netsim.Local()); err == nil {
		t.Error("bad signature should fail")
	}
}

func TestRemoteFactoryWithPoolManager(t *testing.T) {
	srv := startProxy(t, 8)
	dir := directory.New()
	factory := &RemoteFactory{Proxies: []string{srv.Addr()}, Profile: netsim.Local()}
	defer factory.CloseAll()
	pm, err := poolmgr.New(poolmgr.Config{Name: "pm", Dir: dir, Factory: factory})
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.ParseBasic("punch.rsrc.arch = sun")
	if err != nil {
		t.Fatal(err)
	}
	lease, err := pm.Resolve(q)
	if err != nil {
		t.Fatalf("resolve through remote pool: %v", err)
	}
	if lease.Machine == "" {
		t.Error("empty lease")
	}
	if err := pm.Release(lease); err != nil {
		t.Fatal(err)
	}
	if dir.Instances() != 1 {
		t.Errorf("instances = %d", dir.Instances())
	}
}

func TestRemoteFactoryNoProxies(t *testing.T) {
	f := &RemoteFactory{}
	if _, err := f.Create(query.PoolName{Signature: "arch,==", Identifier: "sun"}, 0); err == nil {
		t.Error("factory without proxies should fail")
	}
}

func TestProxyPing(t *testing.T) {
	c := dialProxy(t, startProxy(t, 2))
	reply, err := c.Call(wire.TypePing, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != wire.TypePing {
		t.Errorf("reply = %+v", reply)
	}
}

func TestProxyCloseShutsPools(t *testing.T) {
	db := fleetDB(t, 4)
	srv, err := Start(db, "127.0.0.1:0", netsim.Local())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Spawn(srv.Addr(), wire.SpawnPoolRequest{Signature: "arch,==", Identifier: "sun"}, netsim.Local()); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close() // idempotent
	// Exclusive pool released its machines on close.
	taken := 0
	db.Walk(func(m *registry.Machine) bool {
		if m.TakenBy != "" {
			taken++
		}
		return true
	})
	if taken != 0 {
		t.Errorf("%d machines still taken after proxy close", taken)
	}
}
