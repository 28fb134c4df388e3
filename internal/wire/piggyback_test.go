package wire

import (
	"errors"
	"net"
	"testing"
	"time"
)

// dialEcho opens one raw connection to an echo server for a piggybacked
// one-shot exchange.
func dialEcho(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	return conn
}

func piggyEcho(t *testing.T, conn net.Conn, codecs []Codec, token string) {
	t.Helper()
	env, err := NewEnvelope("echo", 0, echoPayload{Token: token})
	if err != nil {
		t.Fatal(err)
	}
	reply, err := CallPiggyback(conn, codecs, env)
	if err != nil {
		t.Fatalf("%s: %v", token, err)
	}
	var p echoPayload
	if err := reply.Decode(&p); err != nil {
		t.Fatalf("%s: %v", token, err)
	}
	if p.Token != token {
		t.Fatalf("token = %q, want %q", p.Token, token)
	}
}

// TestPiggybackNegotiated: the first request rides the hello, and its
// reply arrives in the negotiated codec right behind the ack — one round
// trip total.
func TestPiggybackNegotiated(t *testing.T) {
	addr, stop := startEchoServerOpts(t, ServeOptions{Window: 4, Codecs: []Codec{Binary, JSON}})
	defer stop()
	piggyEcho(t, dialEcho(t, addr), []Codec{Binary, JSON}, "piggy-binary")
}

// TestPiggybackJSONOnlyServer: a JSON-only server still serves the
// piggybacked request; only the codec lands on the floor.
func TestPiggybackJSONOnlyServer(t *testing.T) {
	addr, stop := startEchoServerOpts(t, ServeOptions{Window: 4, Codecs: []Codec{JSON}})
	defer stop()
	piggyEcho(t, dialEcho(t, addr), []Codec{Binary, JSON}, "piggy-floor")
}

// TestPiggybackRemoteError: a server-side failure of the piggybacked
// request surfaces as *RemoteError, exactly like Client.Call.
func TestPiggybackRemoteError(t *testing.T) {
	addr, stop := startEchoServerOpts(t, ServeOptions{Window: 4})
	defer stop()
	conn := dialEcho(t, addr)
	// The echo handler fails to decode a payload-free envelope.
	env := &Envelope{Type: "echo", ID: 9}
	_, err := CallPiggyback(conn, nil, env)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want *RemoteError", err)
	}
}

// TestPiggybackAfterFirstFrame: the connection stays usable for ordinary
// framed traffic after a piggybacked exchange (the framer is on the
// negotiated codec on both sides).
func TestPiggybackAfterFirstFrame(t *testing.T) {
	addr, stop := startEchoServerOpts(t, ServeOptions{Window: 4, Codecs: []Codec{Binary, JSON}})
	defer stop()
	conn := dialEcho(t, addr)
	piggyEcho(t, conn, []Codec{Binary, JSON}, "piggy-first")
	f := NewFramer(Binary)
	env, err := NewEnvelope("echo", 7, echoPayload{Token: "framed-after"})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFrame(conn, env); err != nil {
		t.Fatal(err)
	}
	reply, err := f.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	var p echoPayload
	if err := reply.Decode(&p); err != nil {
		t.Fatal(err)
	}
	if reply.ID != 7 || p.Token != "framed-after" {
		t.Fatalf("reply = %d %q", reply.ID, p.Token)
	}
}
