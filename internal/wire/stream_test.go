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
)

// tickPayload is the streamed body of the test protocol.
type tickPayload struct {
	N int `json:"n"`
}

// startStreamServer serves connections with an echo handler plus a "tick"
// stream type: each subscription pushes `count` tick frames (paced by
// `every`, 0 = as fast as possible) and then idles until cancelled. It
// reports how many subscriptions saw Done close.
func startStreamServer(t *testing.T, count int, every time.Duration) (addr string, doneStreams *atomic.Int64, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	doneStreams = &atomic.Int64{}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	handler := func(env *Envelope) *Envelope {
		reply, err := NewEnvelope("echo", env.ID, echoPayload{Token: "ok"})
		if err != nil {
			return ErrorEnvelope(env.ID, err)
		}
		return reply
	}
	stream := func(env *Envelope, st *ServerStream) {
		for i := 0; i < count; i++ {
			ev, err := NewEnvelope("tick", st.ID(), tickPayload{N: i})
			if err != nil {
				return
			}
			if st.Send(ev) != nil {
				return
			}
			if every > 0 {
				select {
				case <-st.Done():
					return
				case <-time.After(every):
				}
			}
		}
		<-st.Done()
		doneStreams.Add(1)
	}
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
				ServeConnOpts(conn, ServeOptions{
					Window:  8,
					Streams: map[string]StreamHandler{"tick": stream},
				}, handler)
			}()
		}
	}()
	return ln.Addr().String(), doneStreams, func() {
		_ = ln.Close()
		mu.Lock()
		for _, c := range conns {
			_ = c.Close()
		}
		mu.Unlock()
		wg.Wait()
	}
}

func dialTest(t *testing.T, addr string) *Client {
	t.Helper()
	c := NewClient(func() (net.Conn, error) { return net.Dial("tcp", addr) }, 5*time.Second)
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// TestStreamDelivery subscribes and receives every pushed frame in order
// while regular calls keep round-tripping on the same connection.
func TestStreamDelivery(t *testing.T) {
	addr, _, stop := startStreamServer(t, 50, 0)
	defer stop()
	c := dialTest(t, addr)

	s, err := c.Stream("tick", nil, 128)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 50; i++ {
		env, err := s.Recv(ctx)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		var p tickPayload
		if err := env.Decode(&p); err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if p.N != i {
			t.Fatalf("tick %d arrived out of order as %d", i, p.N)
		}
		if i%10 == 0 {
			if _, err := c.Call("echo", echoPayload{Token: "x"}); err != nil {
				t.Fatalf("interleaved call: %v", err)
			}
		}
	}
}

// TestStreamCloseCancelsServer proves a client Close reaches the server
// handler as a Done signal, so subscriptions do not leak goroutines.
func TestStreamCloseCancelsServer(t *testing.T) {
	addr, done, stop := startStreamServer(t, 1, 0)
	defer stop()
	c := dialTest(t, addr)

	s, err := c.Stream("tick", nil, 8)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := s.Recv(ctx); err != nil {
		t.Fatalf("recv: %v", err)
	}
	_ = s.Close()
	deadline := time.Now().Add(5 * time.Second)
	for done.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server stream never observed the cancel")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := s.Recv(ctx); !errors.Is(err, ErrStreamEnded) {
		t.Fatalf("recv after close: %v, want ErrStreamEnded", err)
	}
}

// TestStreamOverflowFailsConsumerNotConnection floods a tiny client buffer
// without draining it: the stream must die with ErrStreamOverflow while
// calls on the same connection keep working.
func TestStreamOverflowFailsConsumerNotConnection(t *testing.T) {
	addr, _, stop := startStreamServer(t, 500, 0)
	defer stop()
	c := dialTest(t, addr)

	s, err := c.Stream("tick", nil, 4)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer s.Close()
	// Wait for the overflow, draining nothing; then drain and expect the
	// terminal error.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var last error
	for {
		_, err := s.Recv(ctx)
		if err != nil {
			last = err
			break
		}
	}
	if !errors.Is(last, ErrStreamOverflow) {
		t.Fatalf("stream died with %v, want ErrStreamOverflow", last)
	}
	if _, err := c.Call("echo", echoPayload{Token: "alive"}); err != nil {
		t.Fatalf("connection should survive a stream overflow: %v", err)
	}
}

// TestStreamUnknownTypeBounces subscribes to a server that serves no
// streams: the frame dispatches as a regular request and the error reply
// surfaces through Recv as a RemoteError — exactly what a pre-stream
// server answers, and what the watch client keys its poll fallback on.
func TestStreamUnknownTypeBounces(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
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
				// No Streams configured: a real dispatcher answers types it
				// does not know with an error reply.
				ServeConnOpts(conn, ServeOptions{Window: 4}, func(env *Envelope) *Envelope {
					return ErrorEnvelope(env.ID, fmt.Errorf("unknown message type %q", env.Type))
				})
			}()
		}
	}()
	c := dialTest(t, ln.Addr().String())

	s, err := c.Stream("tick", tickPayload{}, 8)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = s.Recv(ctx)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("recv = %v, want RemoteError", err)
	}
}

// TestStreamFailsOnConnectionLoss kills the server mid-stream and expects
// the consumer to observe ErrConnLost after the buffered frames drain.
func TestStreamFailsOnConnectionLoss(t *testing.T) {
	addr, _, stop := startStreamServer(t, 5, 0)
	c := dialTest(t, addr)

	s, err := c.Stream("tick", nil, 64)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := s.Recv(ctx); err != nil {
		t.Fatalf("first recv: %v", err)
	}
	stop() // server gone: connection dies under the stream
	for {
		_, err := s.Recv(ctx)
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrConnLost) {
			t.Fatalf("stream died with %v, want ErrConnLost", err)
		}
		return
	}
}

// TestConcurrentStreamsAndCalls races several subscriptions and call
// traffic on one connection; run under -race this shakes out routing and
// teardown data races.
func TestConcurrentStreamsAndCalls(t *testing.T) {
	addr, _, stop := startStreamServer(t, 30, 0)
	defer stop()
	c := dialTest(t, addr)

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := c.Stream("tick", nil, 64)
			if err != nil {
				errs <- err
				return
			}
			defer s.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			for n := 0; n < 30; n++ {
				if _, err := s.Recv(ctx); err != nil {
					errs <- fmt.Errorf("recv %d: %w", n, err)
					return
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 20; n++ {
				if _, err := c.Call("echo", echoPayload{Token: "t"}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
