package proxy

import (
	"errors"
	"testing"

	"actyp/internal/netsim"
	"actyp/internal/query"
	"actyp/internal/wire"
)

func TestSpawnOnClosedServerFails(t *testing.T) {
	srv := startProxy(t, 4)
	addr := srv.Addr()
	srv.Close()
	if _, err := Spawn(addr, wire.SpawnPoolRequest{Signature: "arch,==", Identifier: "sun"}, netsim.Local()); err == nil {
		t.Error("spawn against a closed proxy should fail")
	}
}

func TestSpawnUnreachableProxy(t *testing.T) {
	if _, err := Spawn("127.0.0.1:1", wire.SpawnPoolRequest{Signature: "arch,==", Identifier: "sun"}, netsim.Local()); err == nil {
		t.Error("unreachable proxy should fail")
	}
	if _, err := NewRemotePool("127.0.0.1:1", netsim.Local()); err == nil {
		t.Error("unreachable pool endpoint should fail")
	}
}

func TestRemotePoolBadQueryPropagates(t *testing.T) {
	srv := startProxy(t, 4)
	sp, err := Spawn(srv.Addr(), wire.SpawnPoolRequest{Signature: "arch,==", Identifier: "sun"}, netsim.Local())
	if err != nil {
		t.Fatal(err)
	}
	stub, err := NewRemotePool(sp.Addr, netsim.Local())
	if err != nil {
		t.Fatal(err)
	}
	defer stub.Close()
	// A query for a different architecture exhausts the sun pool.
	q, err := query.ParseBasic("punch.rsrc.arch = hp")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stub.Allocate(q); err == nil {
		t.Error("mismatched query should fail on the remote pool")
	}
	// The connection stays usable.
	sun, err := query.ParseBasic("punch.rsrc.arch = sun")
	if err != nil {
		t.Fatal(err)
	}
	lease, err := stub.Allocate(sun)
	if err != nil {
		t.Fatalf("connection broken after error: %v", err)
	}
	if err := stub.Release(lease.ID); err != nil {
		t.Fatal(err)
	}
}

func TestProxyUnknownMessageType(t *testing.T) {
	c := dialProxy(t, startProxy(t, 2))
	_, err := c.Call("nonsense", nil)
	var remote *wire.RemoteError
	if !errors.As(err, &remote) {
		t.Errorf("err = %v, want an error reply", err)
	}
}

func TestRemoteFactoryRoundRobinsProxies(t *testing.T) {
	a := startProxy(t, 8)
	b := startProxy(t, 8)
	f := &RemoteFactory{Proxies: []string{a.Addr(), b.Addr()}, Profile: netsim.Local()}
	defer f.CloseAll()
	n1 := query.PoolName{Signature: "arch,==", Identifier: "sun"}
	if _, err := f.Create(n1, 0); err != nil {
		t.Fatal(err)
	}
	n2 := query.PoolName{Signature: "domain,==", Identifier: "purdue"}
	if _, err := f.Create(n2, 0); err != nil {
		t.Fatal(err)
	}
	if len(a.Pools()) != 1 || len(b.Pools()) != 1 {
		t.Errorf("pools not round-robined: a=%v b=%v", a.Pools(), b.Pools())
	}
}
