package wire

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// echoPayload is the round-tripped body of the test protocol: each request
// carries a unique token the handler must echo back, so any reply
// delivered to the wrong caller is caught immediately.
type echoPayload struct {
	Token string `json:"token"`
	Sleep int    `json:"sleepMs,omitempty"`
}

// startEchoServer is startEchoServerOpts with only a window.
func startEchoServer(t *testing.T, window int) (addr string, stop func()) {
	return startEchoServerOpts(t, ServeOptions{Window: window})
}

// TestServeConnInterleavesReplies proves out-of-order service on one raw
// connection: a slow request is written first, a fast one second, and the
// fast reply comes back first because the worker pool dispatches both.
func TestServeConnInterleavesReplies(t *testing.T) {
	addr, stop := startEchoServer(t, 4)
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	framer := handshake(t, conn)

	slow, err := NewEnvelope("echo", 1, echoPayload{Token: "slow", Sleep: 300})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewEnvelope("echo", 2, echoPayload{Token: "fast"})
	if err != nil {
		t.Fatal(err)
	}
	if err := framer.WriteFrame(conn, slow); err != nil {
		t.Fatal(err)
	}
	if err := framer.WriteFrame(conn, fast); err != nil {
		t.Fatal(err)
	}
	first, err := framer.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if first.ID != 2 {
		t.Errorf("first reply id = %d, want 2 (fast request must overtake the slow one)", first.ID)
	}
	second, err := framer.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != 1 {
		t.Errorf("second reply id = %d, want 1", second.ID)
	}
}

// TestServeConnWindowBoundsConcurrency drives more requests than the
// window allows and checks the handler's observed concurrency never
// exceeds it (the mux's backpressure contract).
func TestServeConnWindowBoundsConcurrency(t *testing.T) {
	const window = 3
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var mu sync.Mutex
	inFlight, peak := 0, 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		ServeConnOpts(conn, ServeOptions{Window: window}, func(env *Envelope) *Envelope {
			mu.Lock()
			inFlight++
			if inFlight > peak {
				peak = inFlight
			}
			mu.Unlock()
			time.Sleep(5 * time.Millisecond)
			mu.Lock()
			inFlight--
			mu.Unlock()
			return &Envelope{Type: "echo", ID: env.ID}
		})
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	framer := handshake(t, conn)
	const n = 20
	go func() {
		for i := 1; i <= n; i++ {
			env, _ := NewEnvelope("echo", uint64(i), echoPayload{Token: "x"})
			if err := framer.WriteFrame(conn, env); err != nil {
				return
			}
		}
	}()
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		reply, err := framer.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if seen[reply.ID] {
			t.Fatalf("duplicate reply id %d", reply.ID)
		}
		seen[reply.ID] = true
	}
	conn.Close()
	<-done
	if peak > window {
		t.Errorf("peak in-flight = %d, want <= window %d", peak, window)
	}
	if peak < 2 {
		t.Errorf("peak in-flight = %d; requests never overlapped", peak)
	}
}

// TestClientCorrelatesConcurrentCalls is the -race stress: many goroutines
// keep calls in flight on ONE connection, every reply must carry its own
// caller's unique token.
func TestClientCorrelatesConcurrentCalls(t *testing.T) {
	addr, stop := startEchoServer(t, 8)
	defer stop()
	c := NewClient(func() (net.Conn, error) { return net.Dial("tcp", addr) }, 5*time.Second)
	defer c.Close()

	const callers, calls = 16, 25
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				token := fmt.Sprintf("caller-%d-call-%d", g, i)
				reply, err := c.Call("echo", echoPayload{Token: token})
				if err != nil {
					t.Errorf("%s: %v", token, err)
					return
				}
				var p echoPayload
				if err := reply.Decode(&p); err != nil {
					t.Errorf("%s: %v", token, err)
					return
				}
				if p.Token != token {
					t.Errorf("got token %q, want %q: replies crossed callers", p.Token, token)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestClientTimeoutLeavesConnectionUsable cancels one slow call and checks
// the connection still serves later calls (the late reply is discarded).
func TestClientTimeoutLeavesConnectionUsable(t *testing.T) {
	addr, stop := startEchoServer(t, 4)
	defer stop()
	c := NewClient(func() (net.Conn, error) { return net.Dial("tcp", addr) }, 50*time.Millisecond)
	defer c.Close()

	if _, err := c.Call("echo", echoPayload{Token: "warm"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Call("echo", echoPayload{Token: "slow", Sleep: 400}); err == nil {
		t.Fatal("slow call should time out")
	}
	// The connection was not torn down; a fresh call still works.
	reply, err := c.Call("echo", echoPayload{Token: "after"})
	if err != nil {
		t.Fatal(err)
	}
	var p echoPayload
	if err := reply.Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.Token != "after" {
		t.Errorf("token = %q (late slow reply leaked into a later call)", p.Token)
	}
}

// TestClientOversizedCallFailsAlone sends a payload past MaxFrame: the
// rejection happens before any bytes reach the wire, so only the oversized
// call fails — calls in flight and calls afterwards ride the same healthy
// connection.
func TestClientOversizedCallFailsAlone(t *testing.T) {
	addr, stop := startEchoServer(t, 4)
	defer stop()
	c := NewClient(func() (net.Conn, error) { return net.Dial("tcp", addr) }, 5*time.Second)
	defer c.Close()

	slowDone := make(chan error, 1)
	go func() {
		_, err := c.Call("echo", echoPayload{Token: "slow", Sleep: 200})
		slowDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the slow call get in flight

	big := strings.Repeat("x", MaxFrame+1)
	if _, err := c.Call("echo", echoPayload{Token: big}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized call err = %v, want ErrFrameTooLarge", err)
	}
	if err := <-slowDone; err != nil {
		t.Fatalf("in-flight call killed by oversized sibling: %v", err)
	}
	if _, err := c.Call("echo", echoPayload{Token: "after"}); err != nil {
		t.Fatalf("connection unusable after oversized call: %v", err)
	}
}

// TestClientReconnectsAfterServerRestart kills the server under a client,
// restarts one on the same address, and checks the client redials: the
// call issued across the outage fails, later calls succeed again.
func TestClientReconnectsAfterServerRestart(t *testing.T) {
	addr, stop := startEchoServer(t, 4)
	c := NewClient(func() (net.Conn, error) { return net.Dial("tcp", addr) }, 2*time.Second)
	defer c.Close()
	if _, err := c.Call("echo", echoPayload{Token: "before"}); err != nil {
		t.Fatal(err)
	}

	stop() // server gone: in-flight and near-term calls fail

	ln, err := net.Listen("tcp", addr) // reclaim the same address
	if err != nil {
		t.Fatalf("relisten %s: %v", addr, err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				ServeConnOpts(conn, ServeOptions{Window: 4}, func(env *Envelope) *Envelope {
					var p echoPayload
					_ = env.Decode(&p)
					reply, _ := NewEnvelope("echo", env.ID, p)
					return reply
				})
			}()
		}
	}()

	// The client may need one call to notice the dead connection, then
	// must recover by redialing.
	deadline := time.Now().Add(5 * time.Second)
	for {
		reply, err := c.Call("echo", echoPayload{Token: "after"})
		if err == nil {
			var p echoPayload
			if err := reply.Decode(&p); err != nil {
				t.Fatal(err)
			}
			if p.Token != "after" {
				t.Fatalf("token = %q", p.Token)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never reconnected: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
