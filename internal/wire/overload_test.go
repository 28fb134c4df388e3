package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"actyp/internal/metrics"
)

// startOverloadServer serves connections with an echo handler that also
// answers pings, under the given overload policy (nil = FIFO path).
func startOverloadServer(t *testing.T, window int, policy *OverloadPolicy) (addr string, stop func()) {
	t.Helper()
	return startOverloadServerOpts(t, ServeOptions{Window: window, Overload: policy})
}

// startOverloadServerOpts is the general form for tests that also need
// to pin the server's codec offer (interop tests must not inherit the
// suite-wide -wire-default-codec override).
func startOverloadServerOpts(t *testing.T, opts ServeOptions) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				ServeConnOpts(conn, opts, func(env *Envelope) *Envelope {
					if env.Type == TypePing {
						return &Envelope{Type: TypePing, ID: env.ID}
					}
					var p echoPayload
					if err := env.Decode(&p); err != nil {
						return ErrorEnvelope(env.ID, err)
					}
					if p.Sleep > 0 {
						time.Sleep(time.Duration(p.Sleep) * time.Millisecond)
					}
					reply, _ := NewEnvelope("echo", env.ID, p)
					return reply
				})
			}()
		}
	}()
	return ln.Addr().String(), func() {
		_ = ln.Close()
		mu.Lock()
		for _, c := range conns {
			_ = c.Close()
		}
		mu.Unlock()
		wg.Wait()
	}
}

// TestLaneOrdering drives the lane queues directly: queued control frames
// always pop first, and with both data lanes backlogged the lease lane
// gets its weighted share.
func TestLaneOrdering(t *testing.T) {
	policy := &OverloadPolicy{LeaseWeight: 2, BulkWeight: 1, QueueCap: 64}
	lanes := NewLanes(policy, func(env *Envelope, _ any, busy *BusyReply) {
		t.Errorf("unexpected shed of %s: %s", env.Type, busy.Reason)
	})
	defer lanes.Close()
	for i := 0; i < 6; i++ {
		if !lanes.Offer(&Envelope{Type: TypeQuery, ID: uint64(i)}, nil) {
			t.Fatalf("bulk offer %d rejected", i)
		}
	}
	for i := 0; i < 6; i++ {
		if !lanes.Offer(&Envelope{Type: TypeSpawnPool, ID: uint64(10 + i)}, nil) {
			t.Fatalf("lease offer %d rejected", i)
		}
	}
	for i := 0; i < 2; i++ {
		if !lanes.Offer(&Envelope{Type: TypePing, ID: uint64(20 + i)}, nil) {
			t.Fatalf("control offer %d rejected", i)
		}
	}
	var order []Lane
	for i := 0; i < 14; i++ {
		_, _, lane, ok := lanes.Pop()
		if !ok {
			t.Fatalf("pop %d: lanes closed early", i)
		}
		order = append(order, lane)
	}
	if order[0] != LaneControl || order[1] != LaneControl {
		t.Fatalf("control frames not served first: %v", order)
	}
	// With lease weight 2 and bulk weight 1, the backlog drains in
	// repeating lease,lease,bulk rounds.
	want := []Lane{LaneLease, LaneLease, LaneBulk, LaneLease, LaneLease, LaneBulk, LaneLease, LaneLease, LaneBulk, LaneBulk, LaneBulk, LaneBulk}
	for i, lane := range order[2:] {
		if lane != want[i] {
			t.Fatalf("data lane order = %v, want %v", order[2:], want)
		}
	}
}

// TestControlNotStarvedUnderBulkFlood is the starvation regression: with
// every worker occupied by slow bulk queries and a deep bulk backlog,
// pings on the same connection must still complete promptly because the
// dispatcher serves the control lane first. The bound is generous — the
// point is "milliseconds, not the whole backlog".
func TestControlNotStarvedUnderBulkFlood(t *testing.T) {
	stats := metrics.NewOverloadStats()
	addr, stop := startOverloadServer(t, 2, &OverloadPolicy{QueueCap: 32, Stats: stats})
	defer stop()
	c := NewClientOpts(echoDialer(addr), ClientOptions{Timeout: 10 * time.Second})
	defer c.Close()

	floodCtx := make(chan struct{})
	var flood sync.WaitGroup
	for i := 0; i < 8; i++ {
		flood.Add(1)
		go func(i int) {
			defer flood.Done()
			for n := 0; ; n++ {
				select {
				case <-floodCtx:
					return
				default:
				}
				// Errors are expected here: bulk is exactly what overload
				// control sheds.
				_, _ = c.Call("echo", echoPayload{Token: fmt.Sprintf("flood-%d-%d", i, n), Sleep: 20})
			}
		}(i)
	}
	time.Sleep(50 * time.Millisecond) // let the flood saturate the window

	for i := 0; i < 10; i++ {
		start := time.Now()
		if _, err := c.Call(TypePing, nil); err != nil {
			t.Fatalf("ping %d under flood: %v", i, err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("ping %d took %v under bulk flood; control lane starved", i, d)
		}
	}
	close(floodCtx)
	flood.Wait()
	snap := stats.Snapshot()
	if snap[metrics.ClassControl].Done < 10 {
		t.Errorf("control done = %d, want >= 10", snap[metrics.ClassControl].Done)
	}
	if snap[metrics.ClassBulk].Admitted == 0 {
		t.Errorf("no bulk was admitted; flood never reached the lanes")
	}
}

// TestExpiredDeadlineIsShed sends a raw frame whose envelope deadline has
// already passed: the server must answer Busy without dispatching it.
func TestExpiredDeadlineIsShed(t *testing.T) {
	addr, stop := startEchoServerOpts(t, ServeOptions{Window: 2, Overload: &OverloadPolicy{}})
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	framer := handshake(t, conn)
	env := &Envelope{Type: "echo", ID: 7, Msg: echoPayload{Token: "late"}}
	env.SetDeadline(time.Now().Add(-time.Second))
	if err := framer.WriteFrame(conn, env); err != nil {
		t.Fatal(err)
	}
	reply, err := framer.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != TypeBusy || reply.ID != 7 {
		t.Fatalf("got %s id=%d, want %s id=7", reply.Type, reply.ID, TypeBusy)
	}
	var busy BusyReply
	if err := reply.Decode(&busy); err != nil {
		t.Fatal(err)
	}
	if busy.Reason != "deadline expired before dispatch" {
		t.Errorf("reason = %q", busy.Reason)
	}

	// The connection survives the shed: a fresh request still round-trips.
	ok := &Envelope{Type: "echo", ID: 8, Msg: echoPayload{Token: "fresh"}}
	if err := framer.WriteFrame(conn, ok); err != nil {
		t.Fatal(err)
	}
	reply, err = framer.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != "echo" || reply.ID != 8 {
		t.Fatalf("after shed got %s id=%d, want echo id=8", reply.Type, reply.ID)
	}
}

// TestBusySemantics pins the retry contract: Busy is not Retryable (a
// plain call surfaces it), and CallIdempotent honours the retry-after
// hint instead of hammering the server.
func TestBusySemantics(t *testing.T) {
	if Retryable(&BusyError{RetryAfter: time.Second}) {
		t.Fatal("BusyError must not be Retryable")
	}

	const retryAfter = 60 * time.Millisecond
	var rejected atomic.Int64
	admit := func(env *Envelope) (bool, time.Duration) {
		if rejected.CompareAndSwap(0, 1) {
			return false, retryAfter
		}
		return true, 0
	}
	addr, stop := startOverloadServer(t, 2, &OverloadPolicy{Admit: admit})
	defer stop()

	c := NewClientOpts(echoDialer(addr), ClientOptions{Timeout: 5 * time.Second})
	defer c.Close()

	// A plain call gets the Busy verbatim, with the hint attached.
	_, err := c.Call("echo", echoPayload{Token: "shed-me"})
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("err = %v, want *BusyError", err)
	}
	if busy.RetryAfter != retryAfter {
		t.Errorf("RetryAfter = %v, want %v", busy.RetryAfter, retryAfter)
	}

	// An idempotent call rides through the shed, but only after waiting
	// out the server's hint. It must be a bulk-type request — control
	// frames never reach the admission gate.
	rejected.Store(0)
	start := time.Now()
	if _, err := c.CallIdempotent(context.Background(), "echo", echoPayload{Token: "retry-me"}); err != nil {
		t.Fatalf("idempotent call through Busy: %v", err)
	}
	if elapsed := time.Since(start); elapsed < retryAfter {
		t.Errorf("idempotent retry came back in %v, before the %v retry-after hint", elapsed, retryAfter)
	}
}

// TestOverloadStress hammers one overloaded connection from many
// goroutines mixing control and bulk, with admission randomly rejecting
// and a tiny queue forcing sheds, under -race: the shutdown ordering and
// the lane bookkeeping must hold up.
func TestOverloadStress(t *testing.T) {
	var flip atomic.Uint64
	admit := func(env *Envelope) (bool, time.Duration) {
		if flip.Add(1)%4 == 0 {
			return false, time.Millisecond
		}
		return true, 0
	}
	stats := metrics.NewOverloadStats()
	addr, stop := startOverloadServer(t, 4, &OverloadPolicy{QueueCap: 2, Admit: admit, Stats: stats})
	c := NewClientOpts(echoDialer(addr), ClientOptions{Timeout: 10 * time.Second})

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if g%2 == 0 {
					if _, err := c.CallIdempotent(context.Background(), TypePing, nil); err != nil {
						t.Errorf("ping: %v", err)
						return
					}
				} else {
					// Bulk may be shed or expire; only transport breakage is
					// a failure.
					_, err := c.Call("echo", echoPayload{Token: fmt.Sprintf("s-%d-%d", g, i), Sleep: 1})
					var busy *BusyError
					if err != nil && !errors.As(err, &busy) {
						t.Errorf("bulk: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	c.Close()
	stop() // exercises Close/drain while counters settle
	snap := stats.Snapshot()
	if snap[metrics.ClassControl].Done == 0 || snap[metrics.ClassBulk].Done == 0 {
		t.Errorf("goodput counters empty: %+v", snap)
	}
	for class, counts := range snap {
		if counts.Depth != 0 {
			t.Errorf("lane %s depth gauge = %d after drain, want 0", metrics.ClassNames[class], counts.Depth)
		}
	}
}
