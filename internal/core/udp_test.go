package core

import (
	"net"
	"strings"
	"testing"
	"time"

	"actyp/internal/registry"
	"actyp/internal/wire"
)

func startUDP(t *testing.T, n int) (*UDPServer, *UDPClient) {
	t.Helper()
	db := registry.NewDB()
	if err := registry.DefaultFleetSpec(n).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	svc, err := New(Options{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeUDP(svc, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := DialUDP(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		srv.Close()
		svc.Close()
	})
	return srv, client
}

func TestUDPLifecycle(t *testing.T) {
	_, client := startUDP(t, 16)
	if err := client.Ping(); err != nil {
		t.Fatal(err)
	}
	g, err := client.Request("punch.rsrc.arch = sun")
	if err != nil {
		t.Fatal(err)
	}
	if g.Lease == nil || g.Lease.AccessKey == "" || g.Shadow.User == "" {
		t.Fatalf("grant = %+v", g)
	}
	if err := client.Release(g); err != nil {
		t.Fatal(err)
	}
	if err := client.Release(g); err == nil {
		t.Error("double release should fail")
	}
	if err := client.Release(nil); err == nil {
		t.Error("nil grant should fail")
	}
}

func TestUDPErrorsPropagate(t *testing.T) {
	_, client := startUDP(t, 4)
	_, err := client.Request("punch.rsrc.arch = cray")
	if err == nil || !strings.Contains(err.Error(), "no resources matched") {
		t.Errorf("err = %v", err)
	}
	// The endpoint survives errors.
	if err := client.Ping(); err != nil {
		t.Errorf("ping after error: %v", err)
	}
}

func TestUDPServerCloseIdempotent(t *testing.T) {
	srv, client := startUDP(t, 4)
	if err := client.Ping(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close()
	if err := client.Ping(); err == nil {
		t.Error("ping should time out after server close")
	}
}

// startSlowUDP serves a ScanCost-modelled service over UDP with the given
// dispatch window: 200 machines x 2ms makes each query take ~400ms.
func startSlowUDP(t *testing.T, window int) *UDPServer {
	t.Helper()
	db := registry.NewDB()
	if err := registry.HomogeneousFleetSpec(200).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	svc, err := New(Options{DB: db, ScanCost: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Precreate("punch.rsrc.arch = sun"); err != nil {
		t.Fatal(err)
	}
	srv, err := ServeUDPOpts(svc, "127.0.0.1:0", UDPOptions{Window: window})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return srv
}

// slowQueryThenPing starts a slow query from one UDP client, lets it get
// in flight, then measures a second client's ping round trip.
func slowQueryThenPing(t *testing.T, srv *UDPServer) (pingElapsed, queryElapsed time.Duration) {
	t.Helper()
	qc, err := DialUDP(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer qc.Close()
	pc, err := DialUDP(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()

	type result struct {
		elapsed time.Duration
		err     error
	}
	queryDone := make(chan result, 1)
	start := time.Now()
	go func() {
		g, err := qc.Request("punch.rsrc.arch = sun")
		if err == nil {
			err = qc.Release(g)
		}
		queryDone <- result{time.Since(start), err}
	}()
	time.Sleep(50 * time.Millisecond) // let the slow query get in flight
	pingStart := time.Now()
	if err := pc.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	pingElapsed = time.Since(pingStart)
	q := <-queryDone
	if q.err != nil {
		t.Fatalf("slow query: %v", q.err)
	}
	if q.elapsed < 300*time.Millisecond {
		t.Fatalf("query took %v; the ScanCost model did not make it slow enough", q.elapsed)
	}
	return pingElapsed, q.elapsed
}

// TestUDPWindowBoundsDispatch proves the in-flight window is real in both
// directions: with window=1 a ping queues behind a slow query (dispatch is
// serialized — the flood bound), while with a wide window it overtakes
// (dispatch still overlaps up to the bound).
func TestUDPWindowBoundsDispatch(t *testing.T) {
	t.Run("window=1 serializes", func(t *testing.T) {
		srv := startSlowUDP(t, 1)
		ping, query := slowQueryThenPing(t, srv)
		if ping < 100*time.Millisecond {
			t.Errorf("window=1 ping took only %v behind a %v query; expected it to wait", ping, query)
		}
	})
	t.Run("window=32 overlaps", func(t *testing.T) {
		srv := startSlowUDP(t, 32)
		ping, query := slowQueryThenPing(t, srv)
		if ping > query/2 {
			t.Errorf("ping took %v behind a %v query: it queued despite the window", ping, query)
		}
	})
}

func TestUDPCompositeQuery(t *testing.T) {
	_, client := startUDP(t, 32)
	g, err := client.Request("punch.rsrc.arch = sun | hp")
	if err != nil {
		t.Fatal(err)
	}
	if g.Fragments != 2 {
		t.Errorf("fragments = %d", g.Fragments)
	}
	if err := client.Release(g); err != nil {
		t.Fatal(err)
	}
}

// TestUDPReplySocketPool: with a sharded reply pool, sequential pings
// round-robin across sockets, so replies arrive from more than one source
// port — which the unconnected, id-correlating client must accept.
func TestUDPReplySocketPool(t *testing.T) {
	db := registry.NewDB()
	if err := registry.DefaultFleetSpec(8).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	svc, err := New(Options{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv, err := ServeUDPOpts(svc, "127.0.0.1:0", UDPOptions{Sockets: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Sockets() != 4 {
		t.Fatalf("Sockets() = %d, want 4", srv.Sockets())
	}

	serverAddr, err := net.ResolveUDPAddr("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.ListenUDP("udp", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ports := map[int]bool{}
	buf := make([]byte, 64*1024)
	for i := 1; i <= 8; i++ {
		raw, err := wire.EncodeDatagram(&wire.Envelope{Type: wire.TypePing, ID: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.WriteToUDP(raw, serverAddr); err != nil {
			t.Fatal(err)
		}
		if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
			t.Fatal(err)
		}
		n, from, err := conn.ReadFromUDP(buf)
		if err != nil {
			t.Fatal(err)
		}
		reply, err := wire.DecodeDatagram(buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		if reply.Type != wire.TypePing || reply.ID != uint64(i) {
			t.Fatalf("reply %d = %s/%d", i, reply.Type, reply.ID)
		}
		ports[from.Port] = true
	}
	if len(ports) < 2 {
		t.Errorf("8 replies all came from %d source port(s); the pool is not sharding", len(ports))
	}

	// The stock client flow keeps working against a sharded server.
	client, err := DialUDP(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	g, err := client.Request("punch.rsrc.arch = sun")
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Release(g); err != nil {
		t.Fatal(err)
	}
}
