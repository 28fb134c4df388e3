package wire

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// restartableEchoServer serves echo traffic and can be stopped and
// restarted on the same address, simulating a service restart under a
// heartbeating client.
type restartableEchoServer struct {
	t    *testing.T
	addr string

	mu    sync.Mutex
	ln    net.Listener
	conns []net.Conn
	wg    sync.WaitGroup

	served atomic.Int64 // echo requests handled across all incarnations
	fails  atomic.Int64 // requests answered with an error envelope
	failN  atomic.Int64 // while positive, handlers fail and decrement
}

func newRestartableEchoServer(t *testing.T) *restartableEchoServer {
	t.Helper()
	s := &restartableEchoServer{t: t}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.addr = ln.Addr().String()
	s.start(ln)
	return s
}

func (s *restartableEchoServer) start(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, conn)
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer conn.Close()
				ServeConnOpts(conn, ServeOptions{Window: 8}, func(env *Envelope) *Envelope {
					if s.failN.Add(-1) >= 0 {
						s.fails.Add(1)
						return ErrorEnvelope(env.ID, errors.New("injected failure"))
					}
					s.served.Add(1)
					var p echoPayload
					if err := env.Decode(&p); err != nil {
						return ErrorEnvelope(env.ID, err)
					}
					reply, _ := NewEnvelope("echo", env.ID, p)
					return reply
				})
			}()
		}
	}()
}

// stop kills the listener and every live connection.
func (s *restartableEchoServer) stop() {
	s.mu.Lock()
	ln := s.ln
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
}

// restart reclaims the same address (retrying briefly: the kernel may lag
// releasing it).
func (s *restartableEchoServer) restart() {
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", s.addr)
		if err == nil {
			s.start(ln)
			return
		}
		if time.Now().After(deadline) {
			s.t.Fatalf("relisten %s: %v", s.addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHeartbeatSurvivesServerRestart is the satellite's acceptance test:
// a heartbeat loop using CallIdempotent rides out a server restart with
// ZERO caller-visible errors — the retry absorbs the outage and the
// proactive reconnect loop (plus the call-path redial) finds the new
// incarnation.
func TestHeartbeatSurvivesServerRestart(t *testing.T) {
	srv := newRestartableEchoServer(t)
	defer srv.stop()
	c := NewClient(echoDialer(srv.addr), 10*time.Second)
	defer c.Close()

	beat := func(i int) error {
		_, err := c.CallIdempotent(context.Background(), "echo", echoPayload{Token: "beat"})
		return err
	}
	for i := 0; i < 5; i++ {
		if err := beat(i); err != nil {
			t.Fatalf("beat %d before restart: %v", i, err)
		}
	}
	srv.stop()
	// A beat issued while the server is fully down must also survive: it
	// retries with backoff until the restart lands.
	done := make(chan error, 1)
	go func() {
		done <- beat(-1)
	}()
	time.Sleep(30 * time.Millisecond)
	srv.restart()
	if err := <-done; err != nil {
		t.Fatalf("beat across restart: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := beat(i); err != nil {
			t.Fatalf("beat %d after restart: %v", i, err)
		}
	}
}

// TestCallIdempotentDoesNotRetryRemoteErrors: failures the server reports
// are not transport loss; they surface immediately, exactly once.
func TestCallIdempotentDoesNotRetryRemoteErrors(t *testing.T) {
	srv := newRestartableEchoServer(t)
	defer srv.stop()
	c := NewClient(echoDialer(srv.addr), 5*time.Second)
	defer c.Close()

	srv.failN.Store(1) // exactly the next request fails
	_, err := c.CallIdempotent(context.Background(), "echo", echoPayload{Token: "x"})
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if got := srv.fails.Load(); got != 1 {
		t.Fatalf("server failed %d requests; the remote error must not be retried", got)
	}
}

// TestCallIdempotentRespectsContext: a cancelled context cuts the retry
// loop off instead of spinning against a dead server.
func TestCallIdempotentRespectsContext(t *testing.T) {
	srv := newRestartableEchoServer(t)
	srv.stop() // server never comes back
	c := NewClient(echoDialer(srv.addr), 0)
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.CallIdempotent(ctx, "echo", echoPayload{Token: "x"})
	if err == nil {
		t.Fatal("call against a dead server should fail")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("retry loop ran %v past its context", elapsed)
	}
}

// TestProactiveReconnectRestoresConnection: after a connection loss the
// background loop redials on its own — without any further calls — so a
// later call finds a live connection already negotiated.
func TestProactiveReconnectRestoresConnection(t *testing.T) {
	srv := newRestartableEchoServer(t)
	defer srv.stop()
	c := NewClient(echoDialer(srv.addr), 5*time.Second)
	defer c.Close()
	checkEcho(t, c, "before")

	srv.stop()
	// Trip the failure so the client notices and starts reconnecting.
	if _, err := c.Call("echo", echoPayload{Token: "down"}); err == nil {
		t.Fatal("call against stopped server should fail")
	}
	srv.restart()

	// No calls issued here: the background loop alone must restore the
	// connection.
	deadline := time.Now().Add(5 * time.Second)
	for c.CodecName() == "" {
		if time.Now().After(deadline) {
			t.Fatal("proactive reconnect never restored the connection")
		}
		time.Sleep(10 * time.Millisecond)
	}
	checkEcho(t, c, "after")
}
