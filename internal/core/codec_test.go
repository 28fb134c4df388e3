package core

import (
	"testing"
	"time"

	"actyp/internal/netsim"
	"actyp/internal/registry"
	"actyp/internal/wire"
)

// startCodecServer builds a small service and serves it with the given
// transport configuration.
func startCodecServer(t *testing.T, machines int, cfg wire.ServeOptions) *Server {
	t.Helper()
	db := registry.NewDB()
	if err := registry.DefaultFleetSpec(machines).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	svc, err := New(Options{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeOpts(svc, "127.0.0.1:0", netsim.Local(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return srv
}

// lifecycle drives one full grant/renew/release cycle plus a ping.
func lifecycle(t *testing.T, c *Client) {
	t.Helper()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	g, err := c.Request("punch.rsrc.arch = sun")
	if err != nil {
		t.Fatal(err)
	}
	if g.Lease == nil || g.Lease.AccessKey == "" || g.Shadow.User == "" {
		t.Fatalf("incomplete grant: %+v", g)
	}
	if err := c.Release(g); err != nil {
		t.Fatal(err)
	}
}

// TestServiceNegotiatesBinary: the default client/server pair lands on
// the binary codec and the full lease lifecycle works over it.
func TestServiceNegotiatesBinary(t *testing.T) {
	srv := startCodecServer(t, 16, wire.ServeOptions{Codecs: []wire.Codec{wire.Binary, wire.JSON}})
	c, err := DialOpts(srv.Addr(), netsim.Local(), DialConfig{Codecs: []wire.Codec{wire.Binary, wire.JSON}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	lifecycle(t, c)
	if got := c.CodecName(); got != "binary" {
		t.Errorf("negotiated %q, want binary", got)
	}
}

// TestServiceForcedJSON: pinning the server to JSON (the -wire-codec json
// deployment) pulls negotiating clients to the floor with no behaviour
// change.
func TestServiceForcedJSON(t *testing.T) {
	srv := startCodecServer(t, 16, wire.ServeOptions{Codecs: []wire.Codec{wire.JSON}})
	c, err := Dial(srv.Addr(), netsim.Local())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	lifecycle(t, c)
	if got := c.CodecName(); got != "json" {
		t.Errorf("negotiated %q, want json", got)
	}
}
