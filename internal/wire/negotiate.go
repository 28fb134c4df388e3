package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"

	"actyp/internal/metrics"
)

// The handshake is one round trip, spent once per connection, and it
// travels in JSON both ways:
//
//	client                                          server
//	  | -- hello {proto: 1, codecs: [binary,json]} -->|
//	  |<-- hello-ack {proto: 1, codec: binary} ------ |
//	  | ==== all further frames in the chosen codec ====
//
// The server picks the first codec of its own preference list the client
// also offered, falling back to JSON. Each side refuses a peer below
// Protocol: the server answers a bad first frame with one error reply and
// closes the connection, and the client fails its dial with ErrRefused.

// ErrRefused wraps a handshake that one side refused: the peer sent no
// hello (or no hello-ack), sent one that does not decode, or speaks a
// protocol below Protocol. Redialing the same peer cannot help, so a
// refusal is not Retryable.
var ErrRefused = errors.New("wire: protocol refused")

func refused(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrRefused}, args...)...)
}

// pickCodec returns the first of the server's preference list the client
// also offers, falling back to JSON (always implicitly supported).
func pickCodec(server []Codec, client []string) Codec {
	for _, c := range server {
		for _, name := range client {
			if c.Name() == name {
				return c
			}
		}
	}
	return JSON
}

// readHandshake reads one handshake frame. A frame that arrives but is not
// a JSON envelope is a refusal, not a transport failure.
func readHandshake(r io.Reader, f *Framer) (*Envelope, error) {
	bp, body, err := readFrameBody(r)
	if err != nil {
		return nil, err
	}
	defer putReadBuf(bp)
	env, err := f.decode(body)
	if err != nil {
		return nil, refused("handshake frame is not JSON: %v", err)
	}
	return env, nil
}

// acceptHello runs the server's side of the handshake: it reads the first
// frame, checks that it is a hello at Protocol or above, and answers with
// the ack for the codec it picks from codecs. A refusal is answered with
// one JSON error reply and returned wrapped in ErrRefused.
func acceptHello(conn net.Conn, codecs []Codec, stats *metrics.WireStats) (Codec, *HelloFirst, error) {
	framer := NewFramerStats(JSON, stats)
	env, err := readHandshake(conn, framer)
	var id uint64
	var h Hello
	switch {
	case errors.Is(err, ErrRefused):
		err = refused("first frame is not a JSON hello; server requires protocol %d", Protocol)
	case err != nil:
		return nil, nil, err
	case env.Type != TypeHello:
		id = env.ID
		err = refused("first frame is %q, not a hello: peer speaks protocol 0, server requires %d", env.Type, Protocol)
	default:
		id = env.ID
		if derr := env.Decode(&h); derr != nil {
			err = refused("bad hello (server requires protocol %d): %v", Protocol, derr)
		} else if h.Proto < Protocol {
			err = refused("peer speaks protocol %d, server requires %d", h.Proto, Protocol)
		}
	}
	if err != nil {
		_ = framer.WriteFrame(conn, ErrorEnvelope(id, err)) // best effort: the connection closes either way
		return nil, nil, err
	}
	chosen := pickCodec(codecs, h.Codecs)
	ack := &Envelope{Type: TypeHelloAck, ID: env.ID, Msg: HelloAck{Proto: Protocol, Codec: chosen.Name()}}
	if err := framer.WriteFrame(conn, ack); err != nil {
		return nil, nil, err
	}
	if h.First == nil || h.First.Type == "" {
		return chosen, nil, nil
	}
	return chosen, h.First, nil
}

// negotiateClient runs the client's side of the handshake on a fresh
// connection, optionally piggybacking first, and returns the codec the
// server picked.
func negotiateClient(conn net.Conn, codecs []Codec, first *HelloFirst) (Codec, error) {
	hello := &Envelope{Type: TypeHello, Msg: Hello{Proto: Protocol, Codecs: codecNames(codecs), First: first}}
	if err := jsonFramer.WriteFrame(conn, hello); err != nil {
		return nil, err
	}
	server := conn.RemoteAddr()
	reply, err := readHandshake(conn, jsonFramer)
	if err != nil {
		if errors.Is(err, ErrRefused) {
			return nil, fmt.Errorf("server %s, protocol %d: %w", server, Protocol, err)
		}
		return nil, err
	}
	if reply.Type != TypeHelloAck {
		detail := fmt.Sprintf("a %q frame", reply.Type)
		var e ErrorReply
		if reply.Type == TypeError && reply.Decode(&e) == nil {
			detail = fmt.Sprintf("an error: %s", e.Message)
		}
		return nil, refused("server %s answered the protocol %d hello with %s", server, Protocol, detail)
	}
	var ack HelloAck
	if err := reply.Decode(&ack); err != nil {
		return nil, refused("server %s sent a bad hello-ack (protocol %d): %v", server, Protocol, err)
	}
	if ack.Proto < Protocol {
		return nil, refused("server %s speaks protocol %d, client requires %d", server, ack.Proto, Protocol)
	}
	for _, c := range codecs {
		if c.Name() == ack.Codec {
			return c, nil
		}
	}
	return nil, fmt.Errorf("server %s picked codec %q, which was not offered", server, ack.Codec)
}

// CallPiggyback performs a one-shot exchange on a fresh connection: the
// hello advertises codecs AND carries the first request, so the exchange
// costs a single round trip — the reply, in the negotiated codec, arrives
// right behind the hello-ack. This is the path for rare throwaway
// connections (proxy pool spawns) that would otherwise pay a round trip
// for the handshake alone. Failures the server reports come back as
// *RemoteError; the caller owns the connection's lifecycle.
func CallPiggyback(conn net.Conn, codecs []Codec, req *Envelope) (*Envelope, error) {
	if codecs == nil {
		codecs = DefaultCodecs()
	}
	first := &HelloFirst{Type: req.Type, ID: req.ID, Payload: json.RawMessage(req.Payload)}
	if len(first.Payload) == 0 && req.Msg != nil {
		raw, err := json.Marshal(req.Msg)
		if err != nil {
			return nil, fmt.Errorf("%w: marshal %s payload: %v", ErrEncode, req.Type, err)
		}
		first.Payload = raw
	}
	chosen, err := negotiateClient(conn, codecs, first)
	if err != nil {
		return nil, err
	}
	// The piggybacked request is the only one in flight, so its reply is
	// the next frame.
	reply, err := NewFramer(chosen).ReadFrame(conn)
	if err != nil {
		return nil, err
	}
	if reply.Type == TypeError {
		var e ErrorReply
		if err := reply.Decode(&e); err != nil {
			return nil, err
		}
		return nil, &RemoteError{Message: e.Message}
	}
	return reply, nil
}
