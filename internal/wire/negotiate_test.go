package wire

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"
)

// -wire-default-codec forces the package-default negotiation preference
// for a whole test run, so CI can run the entire wire suite once per
// codec:
//
//	go test -race ./internal/wire -wire-default-codec=binary+flate
//	go test -race ./internal/wire -wire-default-codec=binary
//	go test -race ./internal/wire -wire-default-codec=json
var defaultCodecFlag = flag.String("wire-default-codec", "",
	"force the default codec preference for this test run: json, binary, or binary+flate")

func TestMain(m *testing.M) {
	flag.Parse()
	switch *defaultCodecFlag {
	case "":
	case "json":
		defaultCodecs = []Codec{JSON}
	case "binary":
		defaultCodecs = []Codec{Binary, JSON}
	case "binary+flate":
		comp, err := Compressed(Binary, AlgoFlate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "building binary+flate: %v\n", err)
			os.Exit(2)
		}
		defaultCodecs = []Codec{comp, Binary, JSON}
	default:
		fmt.Fprintf(os.Stderr, "unknown -wire-default-codec %q\n", *defaultCodecFlag)
		os.Exit(2)
	}
	os.Exit(m.Run())
}

// startEchoServerOpts serves opts on a Server whose handler echoes each
// payload after its optional delay.
func startEchoServerOpts(t *testing.T, opts ServeOptions) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ln, opts, func(env *Envelope) *Envelope {
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
	if err != nil {
		t.Fatal(err)
	}
	return srv.Addr(), srv.Close
}

// handshake runs the client's side of the handshake on a raw connection,
// offering codecs (the default preference when none are given), and
// returns a framer for the codec the server picked.
func handshake(t *testing.T, conn net.Conn, codecs ...Codec) *Framer {
	t.Helper()
	if len(codecs) == 0 {
		codecs = DefaultCodecs()
	}
	chosen, err := negotiateClient(conn, codecs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return NewFramer(chosen)
}

// echoDialer builds a client dial function for an echo server address.
func echoDialer(addr string) DialFunc {
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

// checkEcho round-trips one uniquely-tokened call.
func checkEcho(t *testing.T, c *Client, token string) {
	t.Helper()
	reply, err := c.Call("echo", echoPayload{Token: token})
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

// TestNegotiateBinary: both ends prefer binary, the connection lands on
// binary, traffic flows.
func TestNegotiateBinary(t *testing.T) {
	addr, stop := startEchoServerOpts(t, ServeOptions{Window: 4, Codecs: []Codec{Binary, JSON}})
	defer stop()
	c := NewClientOpts(echoDialer(addr), ClientOptions{Timeout: 5 * time.Second, Codecs: []Codec{Binary, JSON}})
	defer c.Close()
	checkEcho(t, c, "hello-binary")
	if got := c.CodecName(); got != "binary" {
		t.Errorf("negotiated %q, want binary", got)
	}
}

// TestNegotiateJSONOnlyServer: a server offering only JSON pulls a
// binary-preferring client down to the floor.
func TestNegotiateJSONOnlyServer(t *testing.T) {
	addr, stop := startEchoServerOpts(t, ServeOptions{Window: 4, Codecs: []Codec{JSON}})
	defer stop()
	c := NewClientOpts(echoDialer(addr), ClientOptions{Timeout: 5 * time.Second, Codecs: []Codec{Binary, JSON}})
	defer c.Close()
	checkEcho(t, c, "hello-floor")
	if got := c.CodecName(); got != "json" {
		t.Errorf("negotiated %q, want json", got)
	}
}

// TestNegotiateJSONOnlyClient: a JSON-only client gets JSON from a
// binary-preferring server.
func TestNegotiateJSONOnlyClient(t *testing.T) {
	addr, stop := startEchoServerOpts(t, ServeOptions{Window: 4, Codecs: []Codec{Binary, JSON}})
	defer stop()
	c := NewClientOpts(echoDialer(addr), ClientOptions{Timeout: 5 * time.Second, Codecs: []Codec{JSON}})
	defer c.Close()
	checkEcho(t, c, "hello-json-client")
	if got := c.CodecName(); got != "json" {
		t.Errorf("negotiated %q, want json", got)
	}
}

// TestHandshakeRefusesBelowProtocol: every peer below Protocol is
// refused with an error that says so. Server-side refusals answer one JSON
// error reply and close the connection; client-side refusals fail Connect
// with a non-retryable error naming the server and the protocol.
func TestHandshakeRefusesBelowProtocol(t *testing.T) {
	// toServer runs send as a raw client against a real server and
	// returns the error reply the server answered with.
	toServer := func(send func(conn net.Conn) error) func(t *testing.T) (net.Conn, error) {
		return func(t *testing.T) (net.Conn, error) {
			addr, stop := startEchoServerOpts(t, ServeOptions{Window: 2})
			t.Cleanup(stop)
			conn := dialEcho(t, addr)
			if err := send(conn); err != nil {
				t.Fatal(err)
			}
			reply, err := jsonFramer.ReadFrame(conn)
			if err != nil {
				t.Fatalf("no error reply before the close: %v", err)
			}
			var e ErrorReply
			if reply.Type != TypeError || reply.Decode(&e) != nil {
				t.Fatalf("server answered %s, want an error reply", reply.Type)
			}
			return conn, errors.New(e.Message)
		}
	}
	// fromServer runs a real client against a fake server that answers
	// the hello with answer, and returns the client's Connect error.
	fromServer := func(answer *Envelope) func(t *testing.T) (net.Conn, error) {
		return func(t *testing.T) (net.Conn, error) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			served := make(chan error, 1)
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					served <- err
					return
				}
				defer conn.Close()
				if _, err := jsonFramer.ReadFrame(conn); err != nil {
					served <- err
					return
				}
				served <- jsonFramer.WriteFrame(conn, answer)
			}()
			c := NewClientOpts(echoDialer(ln.Addr().String()), ClientOptions{Timeout: 5 * time.Second})
			defer c.Close()
			err = c.Connect()
			if serr := <-served; serr != nil {
				t.Fatal(serr)
			}
			if !errors.Is(err, ErrRefused) || Retryable(err) {
				t.Errorf("Connect err = %v, want a non-retryable ErrRefused", err)
			}
			if err != nil && !strings.Contains(err.Error(), ln.Addr().String()) {
				t.Errorf("Connect err %q does not name the server", err)
			}
			return nil, err
		}
	}
	cases := []struct {
		name string
		// run provokes the refusal and returns its error, plus the raw
		// connection when the server refused (nil when the client did).
		run  func(t *testing.T) (net.Conn, error)
		want []string
	}{
		{"hello-less first frame", toServer(func(conn net.Conn) error {
			return jsonFramer.WriteFrame(conn, &Envelope{Type: "echo", ID: 1, Msg: echoPayload{Token: "x"}})
		}), []string{"not a hello", "protocol 0", "requires 1"}},
		{"undecodable hello", toServer(func(conn net.Conn) error {
			return jsonFramer.WriteFrame(conn, &Envelope{Type: TypeHello, Payload: json.RawMessage(`"x"`)})
		}), []string{"bad hello", "protocol 1"}},
		{"hello at protocol 0", toServer(func(conn net.Conn) error {
			return jsonFramer.WriteFrame(conn, &Envelope{Type: TypeHello, Msg: Hello{Codecs: []string{"binary"}}})
		}), []string{"protocol 0", "requires 1"}},
		{"server bounces the hello", fromServer(ErrorEnvelope(0, errors.New(`core: unknown message type "hello"`))),
			[]string{"protocol 1", "unknown message type"}},
		{"ack at protocol 0", fromServer(&Envelope{Type: TypeHelloAck, Msg: HelloAck{Codec: "binary"}}),
			[]string{"protocol 0", "requires 1"}},
		{"version 0x01 body", func(t *testing.T) (net.Conn, error) {
			addr, stop := startEchoServerOpts(t, ServeOptions{Window: 2, Codecs: []Codec{Binary}})
			t.Cleanup(stop)
			conn := dialEcho(t, addr)
			handshake(t, conn, Binary)
			v1 := []byte{binMagic, 0x01, 4, 1} // a ping, id 1, without the flags byte
			if _, err := conn.Write(append([]byte{0, 0, 0, byte(len(v1))}, v1...)); err != nil {
				t.Fatal(err)
			}
			_, err := Binary.DecodeEnvelope(v1)
			return conn, err
		}, []string{"version 0x01"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := tc.run(t)
			if err == nil {
				t.Fatal("no refusal")
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not say %q", err, w)
				}
			}
			if conn != nil {
				if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
					t.Errorf("server left the connection open: read err = %v", err)
				}
			}
		})
	}
}

// TestNegotiationSurvivesReconnect: the handshake reruns on every redial,
// so a client that lost its binary connection negotiates binary again on
// the next one.
func TestNegotiationSurvivesReconnect(t *testing.T) {
	addr, stop := startEchoServerOpts(t, ServeOptions{Window: 4, Codecs: []Codec{Binary, JSON}})
	c := NewClientOpts(echoDialer(addr), ClientOptions{Timeout: 2 * time.Second, Codecs: []Codec{Binary, JSON}})
	defer c.Close()
	checkEcho(t, c, "before-restart")
	stop()

	ln, err := net.Listen("tcp", addr)
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
				ServeConnOpts(conn, ServeOptions{Window: 4, Codecs: []Codec{Binary, JSON}}, func(env *Envelope) *Envelope {
					var p echoPayload
					_ = env.Decode(&p)
					reply, _ := NewEnvelope("echo", env.ID, p)
					return reply
				})
			}()
		}
	}()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c.Call("echo", echoPayload{Token: "after"}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never reconnected")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := c.CodecName(); got != "binary" {
		t.Errorf("reconnected on %q, want binary", got)
	}
}

// TestOversizedCallIsolationPerCodec re-proves the oversized-call
// isolation property on a negotiated connection for each codec: the
// rejection precedes the wire, so sibling calls and the connection
// survive.
func TestOversizedCallIsolationPerCodec(t *testing.T) {
	for _, name := range []string{"json", "binary"} {
		t.Run(name, func(t *testing.T) {
			codec, err := CodecByName(name)
			if err != nil {
				t.Fatal(err)
			}
			addr, stop := startEchoServerOpts(t, ServeOptions{Window: 4, Codecs: []Codec{codec}})
			defer stop()
			c := NewClientOpts(echoDialer(addr), ClientOptions{Timeout: 5 * time.Second, Codecs: []Codec{codec}})
			defer c.Close()

			checkEcho(t, c, "warm")
			if got := c.CodecName(); got != name {
				t.Fatalf("negotiated %q, want %q", got, name)
			}
			big := make([]byte, MaxFrame+1)
			for i := range big {
				big[i] = 'x'
			}
			_, err = c.Call("echo", echoPayload{Token: string(big)})
			if err == nil || !preWire(err) {
				t.Fatalf("oversized call err = %v, want a pre-wire rejection", err)
			}
			checkEcho(t, c, "after")
		})
	}
}
