package core

import (
	"sync"
	"testing"
	"time"

	"actyp/internal/netsim"
	"actyp/internal/registry"
	"actyp/internal/wire"
)

// TestOneConnectionConcurrentInFlight is the -race stress of the
// multiplexed transport at the service level: many goroutines share ONE
// client connection, each repeatedly granting and releasing. Every caller
// must get a lease it can successfully release — a reply correlated to the
// wrong caller would release someone else's lease and double-release its
// own, which the service rejects.
func TestOneConnectionConcurrentInFlight(t *testing.T) {
	srv, _ := startServer(t, 128, netsim.Local())
	c, err := Dial(srv.Addr(), netsim.Local())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const callers, iters = 16, 20
	var mu sync.Mutex
	held := map[string]bool{} // lease id -> currently held
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				g, err := c.Request("punch.rsrc.arch = sun")
				if err != nil {
					t.Errorf("request: %v", err)
					return
				}
				if g.Lease == nil || g.Lease.AccessKey == "" || g.Shadow.User == "" {
					t.Errorf("incomplete grant: %+v", g)
					return
				}
				mu.Lock()
				if held[g.Lease.ID] {
					t.Errorf("lease %s granted twice concurrently", g.Lease.ID)
				}
				held[g.Lease.ID] = true
				mu.Unlock()
				if err := c.Release(g); err != nil {
					t.Errorf("release: %v", err)
					return
				}
				mu.Lock()
				held[g.Lease.ID] = false
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// TestPingOvertakesSlowQuery proves the tentpole's latency property: on a
// single multiplexed connection, a heartbeat issued behind a slow query
// completes long before the query does, because the slow dispatch occupies
// one worker while the ping flows through another.
func TestPingOvertakesSlowQuery(t *testing.T) {
	// ScanCost pins the pool to the oracle engine and charges wall-clock
	// time per scanned entry: 200 machines x 2ms = ~400ms per query.
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
	srv, err := Serve(svc, "127.0.0.1:0", netsim.Local())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	c, err := Dial(srv.Addr(), netsim.Local())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type result struct {
		elapsed time.Duration
		err     error
	}
	queryDone := make(chan result, 1)
	queryStart := time.Now()
	go func() {
		g, err := c.Request("punch.rsrc.arch = sun")
		if err == nil {
			err = c.Release(g)
		}
		queryDone <- result{time.Since(queryStart), err}
	}()

	time.Sleep(50 * time.Millisecond) // let the slow query get in flight
	pingStart := time.Now()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping behind slow query: %v", err)
	}
	pingElapsed := time.Since(pingStart)

	q := <-queryDone
	if q.err != nil {
		t.Fatalf("slow query: %v", q.err)
	}
	if q.elapsed < 300*time.Millisecond {
		t.Fatalf("query took %v; the ScanCost model did not make it slow enough to test against", q.elapsed)
	}
	// The ping must not have waited out the query: it left after the
	// query was in flight yet finished far inside the query's window.
	if pingElapsed > q.elapsed/2 {
		t.Errorf("ping took %v behind a %v query: it queued behind the slow dispatch", pingElapsed, q.elapsed)
	}
}

// TestServeWindowOneSerializes pins the backward-compatible baseline: with
// window=1 the connection is handled strictly serially, so the same ping
// DOES wait for the slow query in front of it. (This is the behaviour the
// transport benchmarks compare against.)
func TestServeWindowOneSerializes(t *testing.T) {
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
	srv, err := ServeOpts(svc, "127.0.0.1:0", netsim.Local(), wire.ServeOptions{Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	c, err := Dial(srv.Addr(), netsim.Local())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	release := make(chan error, 1)
	go func() {
		g, err := c.Request("punch.rsrc.arch = sun")
		if err == nil {
			err = c.Release(g)
		}
		release <- err
	}()
	time.Sleep(50 * time.Millisecond)
	pingStart := time.Now()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if elapsed := time.Since(pingStart); elapsed < 100*time.Millisecond {
		t.Errorf("window=1 ping took only %v; expected it to wait for the slow query", elapsed)
	}
	if err := <-release; err != nil {
		t.Fatal(err)
	}
}
