package integration

import (
	"errors"
	"net"
	"testing"
	"time"

	"actyp/internal/core"
	"actyp/internal/netsim"
	"actyp/internal/proxy"
	"actyp/internal/registry"
	"actyp/internal/stage"
	"actyp/internal/wire"
)

// closeEndpoint is one TCP endpoint kind under test: start serves it with
// opts and returns the address a client connects to and its Close.
type closeEndpoint struct {
	name  string
	start func(t *testing.T, opts wire.ServeOptions) (addr string, close func(), err error)
}

func closeEndpoints(t *testing.T) []closeEndpoint {
	db := registry.NewDB()
	if err := registry.DefaultFleetSpec(16).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	svc, err := core.New(core.Options{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return []closeEndpoint{
		{"core-client", func(t *testing.T, opts wire.ServeOptions) (string, func(), error) {
			srv, err := core.ServeOpts(svc, "127.0.0.1:0", netsim.Local(), opts)
			if err != nil {
				return "", nil, err
			}
			return srv.Addr(), srv.Close, nil
		}},
		{"stage", func(t *testing.T, opts wire.ServeOptions) (string, func(), error) {
			srv, err := stage.ServeOpts(svc.PoolManagers()[0], "127.0.0.1:0", netsim.Local(), opts)
			if err != nil {
				return "", nil, err
			}
			return srv.Addr(), srv.Close, nil
		}},
		{"proxy-control", func(t *testing.T, opts wire.ServeOptions) (string, func(), error) {
			px, err := proxy.StartOpts(db, "127.0.0.1:0", netsim.Local(), opts)
			if err != nil {
				return "", nil, err
			}
			return px.Addr(), px.Close, nil
		}},
		{"proxy-pool", func(t *testing.T, opts wire.ServeOptions) (string, func(), error) {
			px, err := proxy.StartOpts(db, "127.0.0.1:0", netsim.Local(), opts)
			if err != nil {
				return "", nil, err
			}
			sp, err := proxy.Spawn(px.Addr(), wire.SpawnPoolRequest{Signature: "arch,==", Identifier: "sun"}, netsim.Local())
			if err != nil {
				px.Close()
				t.Fatal(err)
			}
			return sp.Addr, px.Close, nil
		}},
	}
}

// TestEndpointCloseWithLivePeer: every TCP endpoint kind answers ping and
// refuses an unknown message type with the same error, then closes within
// a second while a negotiated client still holds a connection to it, and
// the client's next call fails with a transport error instead of hanging.
// The stage and proxy endpoints used to wait for their peers to hang up,
// so a daemon with a connected federation peer ignored SIGTERM.
func TestEndpointCloseWithLivePeer(t *testing.T) {
	for _, ep := range closeEndpoints(t) {
		t.Run(ep.name, func(t *testing.T) {
			addr, closeFn, err := ep.start(t, wire.ServeOptions{})
			if err != nil {
				t.Fatal(err)
			}
			c := wire.NewClient(func() (net.Conn, error) { return net.Dial("tcp", addr) }, 2*time.Second)
			defer c.Close()
			reply, err := c.Call(wire.TypePing, nil)
			if err != nil {
				t.Fatalf("ping before close: %v", err)
			}
			if reply.Type != wire.TypePing || len(reply.Payload) != 0 {
				t.Fatalf("ping reply = %s with %d payload bytes, want a bare ping", reply.Type, len(reply.Payload))
			}
			_, err = c.Call("no-such-method", nil)
			if want := `wire: unknown message type "no-such-method"`; !isRemote(err) || err.Error() != want {
				t.Fatalf("unknown type: err = %v, want the error reply %q", err, want)
			}

			closed := make(chan struct{})
			go func() {
				closeFn()
				close(closed)
			}()
			select {
			case <-closed:
			case <-time.After(time.Second):
				t.Error("Close blocked for over 1s on a live peer connection")
				_ = c.Close() // let the blocked Close return
				<-closed
				return
			}

			called := make(chan error, 1)
			go func() {
				_, err := c.Call(wire.TypePing, nil)
				called <- err
			}()
			select {
			case err := <-called:
				if err == nil || isRemote(err) {
					t.Errorf("call after Close returned %v, want a transport error", err)
				}
			case <-time.After(5 * time.Second):
				t.Error("call after Close hung")
			}
		})
	}
}

// TestEndpointsRejectNegativeWindow: the one window rule holds at every
// endpoint constructor, the UDP one included: a negative window is an
// error, never a silent clamp.
func TestEndpointsRejectNegativeWindow(t *testing.T) {
	eps := closeEndpoints(t)
	for _, ep := range eps[:3] { // the pool endpoint is spawned, not built
		t.Run(ep.name, func(t *testing.T) {
			if _, closeFn, err := ep.start(t, wire.ServeOptions{Window: -1}); err == nil {
				closeFn()
				t.Fatal("window -1 was accepted")
			}
		})
	}
	t.Run("core-udp", func(t *testing.T) {
		svc, err := core.New(core.Options{DB: registry.NewDB()})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		if udp, err := core.ServeUDPOpts(svc, "127.0.0.1:0", core.UDPOptions{Window: -1}); err == nil {
			udp.Close()
			t.Fatal("window -1 was accepted")
		}
	})
}

func isRemote(err error) bool {
	var remote *wire.RemoteError
	return errors.As(err, &remote)
}
