package wire

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

var (
	testEcho = NewMethod[echoPayload, echoPayload]("test-echo", LaneLease, false)
	testBare = NewMethod[None, echoPayload]("test-bare", LaneControl, false)
)

// startMux serves mux on a loopback listener and returns a client for it.
func startMux(t *testing.T, h Handler) *Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ln, ServeOptions{}, h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	c := NewClient(func() (net.Conn, error) { return net.Dial("tcp", srv.Addr()) }, 5*time.Second)
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestNewMethodRejectsDuplicateName(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), `"test-echo"`) {
			t.Errorf("recover() = %v, want a panic naming the method", r)
		}
	}()
	NewMethod[None, None]("test-echo", LaneBulk, false)
}

func TestLaneOfReadsTheTable(t *testing.T) {
	if got := LaneOf("test-echo"); got != LaneLease {
		t.Errorf("LaneOf(test-echo) = %s, want lease", got)
	}
	if got := LaneOf("test-undeclared"); got != LaneBulk {
		t.Errorf("LaneOf(undeclared) = %s, want bulk", got)
	}
}

// TestMuxServesDeclaredMethods round-trips typed, bare and failing calls
// through one mux, which also answers ping and refuses unknown types.
func TestMuxServesDeclaredMethods(t *testing.T) {
	mux := NewMux()
	Handle(mux, testEcho, func(req *echoPayload) (*echoPayload, error) {
		if req.Token == "fail" {
			return nil, errors.New("echo: refused")
		}
		return &echoPayload{Token: req.Token + "!"}, nil
	})
	Handle(mux, testBare, func(*None) (*echoPayload, error) { return &echoPayload{Token: "bare"}, nil })
	c := startMux(t, mux.Serve)
	ctx := context.Background()

	rep, err := testEcho.Call(ctx, c, &echoPayload{Token: "hi"})
	if err != nil || rep.Token != "hi!" {
		t.Fatalf("echo = %+v, %v", rep, err)
	}
	if rep, err := testBare.Call(ctx, c, &None{}); err != nil || rep.Token != "bare" {
		t.Fatalf("bare = %+v, %v", rep, err)
	}
	if _, err := Ping.Call(ctx, c, &None{}); err != nil {
		t.Fatalf("ping: %v", err)
	}
	_, err = testEcho.Call(ctx, c, &echoPayload{Token: "fail"})
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Message != "echo: refused" {
		t.Fatalf("failing call = %v, want the handler's error as a *RemoteError", err)
	}
	_, err = c.Call("test-undeclared", nil)
	if !errors.As(err, &remote) || remote.Message != `wire: unknown message type "test-undeclared"` {
		t.Fatalf("unknown type = %v", err)
	}
}

// TestMuxBareFrames: a no-payload request and reply travel as bare
// frames.
func TestMuxBareFrames(t *testing.T) {
	seenCh := make(chan *Envelope, 1)
	mux := NewMux()
	c := startMux(t, func(env *Envelope) *Envelope {
		seenCh <- env
		return mux.Serve(env)
	})
	reply, err := c.Call(TypePing, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seen := <-seenCh; len(seen.Payload) != 0 || len(reply.Payload) != 0 {
		t.Errorf("ping carried %d request and %d reply payload bytes, want bare frames", len(seen.Payload), len(reply.Payload))
	}
}

// TestCallChecksReplyType: a reply of another type fails the call.
func TestCallChecksReplyType(t *testing.T) {
	c := startMux(t, func(env *Envelope) *Envelope { return &Envelope{Type: "other", ID: env.ID} })
	_, err := Ping.Call(context.Background(), c, &None{})
	if err == nil || !strings.Contains(err.Error(), `ping got "other"`) {
		t.Errorf("err = %v, want a reply-type mismatch", err)
	}
}
