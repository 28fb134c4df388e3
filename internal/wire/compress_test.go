package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// compCodec builds the binary+flate codec or fails the test.
func compCodec(t *testing.T) Codec {
	t.Helper()
	c, err := Compressed(Binary, AlgoFlate)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// bigToken is a compressible payload body well above compressMinSize.
func bigToken(n int) string {
	return strings.Repeat("the quick brown fox jumps over the lazy dog ", n/44+1)[:n]
}

func TestCompressedConstruction(t *testing.T) {
	c := compCodec(t)
	if c.Name() != "binary+flate" {
		t.Errorf("name = %q", c.Name())
	}
	if _, err := Compressed(JSON, AlgoFlate); err == nil {
		t.Error("wrapping the JSON floor should fail")
	}
	if _, err := Compressed(c, AlgoFlate); err == nil {
		t.Error("double wrapping should fail")
	}
	if _, err := Compressed(Binary, "zstd"); err == nil {
		t.Error("unknown algo should fail")
	}
	if _, err := CodecByName("binary+flate"); err != nil {
		t.Errorf("CodecByName: %v", err)
	}
}

// TestCompressedRoundTripShrinks: a compressible payload above the
// threshold round-trips exactly and costs fewer frame bytes than plain
// binary; the envelope's From and Deadline survive.
func TestCompressedRoundTripShrinks(t *testing.T) {
	comp := compCodec(t)
	env := &Envelope{
		Type:     "echo",
		ID:       99,
		From:     "bench",
		Deadline: 12345678,
		Msg:      echoPayload{Token: bigToken(4096)},
	}
	plain, err := Binary.AppendEnvelope(nil, env)
	if err != nil {
		t.Fatal(err)
	}
	small, err := comp.AppendEnvelope(nil, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(small) >= len(plain) {
		t.Fatalf("compressed body %d B >= plain %d B", len(small), len(plain))
	}
	got, err := comp.DecodeEnvelope(small)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != env.Type || got.ID != env.ID || got.From != env.From || got.Deadline != env.Deadline {
		t.Fatalf("envelope fields: %+v", got)
	}
	var p echoPayload
	if err := comp.DecodePayload(got.Payload, &p); err != nil {
		t.Fatal(err)
	}
	if p.Token != bigToken(4096) {
		t.Error("payload corrupted in transit")
	}
}

// TestCompressThreshold: payloads under compressMinSize (every control
// frame) encode byte-identically to plain binary — zero compression CPU
// and zero format drift for the small-frame hot path.
func TestCompressThreshold(t *testing.T) {
	comp := compCodec(t)
	env := &Envelope{Type: TypePing, ID: 7, Msg: echoPayload{Token: "small"}}
	plain, err := Binary.AppendEnvelope(nil, env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := comp.AppendEnvelope(nil, env)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, got) {
		t.Errorf("sub-threshold frame differs from plain binary:\n%x\n%x", plain, got)
	}
}

// TestIncompressibleKeepsPlainTag: a payload region that does not shrink
// ships under its plain tag instead of paying the compressed framing
// overhead; regions already tagged 0x03 pass through untouched.
func TestIncompressibleKeepsPlainTag(t *testing.T) {
	bc, ok := compCodec(t).(binaryCodec)
	if !ok {
		t.Fatal("compressed codec is not a binaryCodec")
	}
	rng := rand.New(rand.NewSource(1))
	noise := make([]byte, 2048)
	rng.Read(noise)
	payload := append([]byte{binPayloadJSON}, noise...)
	got, err := bc.maybeCompress(bytes.Clone(payload), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, got) {
		t.Errorf("incompressible payload rewritten: %d B -> %d B", len(payload), len(got))
	}
	tagged := append([]byte{binPayloadCompressed}, bytes.Repeat([]byte("aaaa"), 256)...)
	got, err = bc.maybeCompress(bytes.Clone(tagged), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tagged, got) {
		t.Error("already-compressed payload was re-compressed")
	}
}

// TestUncompressedPeerDecodesCompressedTag: every binary-family decoder
// understands tag 0x03, so a payload re-framed from a compressed
// connection decodes on an uncompressed one.
func TestUncompressedPeerDecodesCompressedTag(t *testing.T) {
	comp := compCodec(t)
	env := &Envelope{Type: "echo", ID: 3, Msg: echoPayload{Token: bigToken(2048)}}
	body, err := comp.AppendEnvelope(nil, env)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Binary.DecodeEnvelope(body)
	if err != nil {
		t.Fatal(err)
	}
	var p echoPayload
	if err := Binary.DecodePayload(got.Payload, &p); err != nil {
		t.Fatal(err)
	}
	if p.Token != bigToken(2048) {
		t.Error("payload corrupted")
	}
}

// compressedBody returns an encoded envelope whose payload region is
// compressed, plus the decoded payload bytes for corruption targets.
func compressedBody(t *testing.T) (body []byte, payload []byte) {
	t.Helper()
	comp := compCodec(t)
	env := &Envelope{Type: "echo", ID: 5, Msg: echoPayload{Token: bigToken(4096)}}
	body, err := comp.AppendEnvelope(nil, env)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := comp.DecodeEnvelope(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Payload) == 0 || dec.Payload[0] != binPayloadCompressed {
		t.Fatalf("payload not compressed (tag 0x%02x)", dec.Payload[0])
	}
	return body, dec.Payload
}

// TestCompressedTruncationAlwaysErrors: every proper prefix of a
// compressed payload fails the decode — never a silent partial value.
func TestCompressedTruncationAlwaysErrors(t *testing.T) {
	_, payload := compressedBody(t)
	for n := range payload {
		var p echoPayload
		if err := Binary.DecodePayload(payload[:n], &p); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded", n, len(payload))
		}
	}
}

// TestCompressedCorruptionNeverPanics: random multi-byte flips across the
// whole frame body either error or decode; they never panic or
// over-allocate.
func TestCompressedCorruptionNeverPanics(t *testing.T) {
	body, _ := compressedBody(t)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		corrupt := bytes.Clone(body)
		for k := 0; k < 1+rng.Intn(4); k++ {
			corrupt[rng.Intn(len(corrupt))] ^= byte(1 + rng.Intn(255))
		}
		env, err := Binary.DecodeEnvelope(corrupt)
		if err != nil {
			continue
		}
		var p echoPayload
		_ = Binary.DecodePayload(env.Payload, &p)
	}
}

// TestDecompressionBombRejected: a payload claiming a huge inflated size
// is rejected from the length field alone, before any allocation, and a
// stream lying about its length in either direction fails.
func TestDecompressionBombRejected(t *testing.T) {
	mk := func(rawLen uint64, stream []byte) []byte {
		b := []byte{binPayloadCompressed, algoFlate}
		b = binary.AppendUvarint(b, rawLen)
		return append(b, stream...)
	}
	inner, err := deflate(nil, append([]byte{binPayloadJSON}, []byte(`{"token":"x"}`)...))
	if err != nil {
		t.Fatal(err)
	}
	var p echoPayload
	if err := Binary.DecodePayload(mk(MaxFrame+1, inner), &p); err == nil {
		t.Error("over-cap raw length accepted")
	}
	if err := Binary.DecodePayload(mk(0, inner), &p); err == nil {
		t.Error("zero raw length accepted")
	}
	// Claimed length smaller than the real stream: over-length must fail.
	if err := Binary.DecodePayload(mk(3, inner), &p); err == nil {
		t.Error("over-length stream accepted")
	}
	// Claimed length larger than the real stream: under-length must fail.
	if err := Binary.DecodePayload(mk(100000, inner), &p); err == nil {
		t.Error("under-length stream accepted")
	}
	// Unknown algo byte.
	bad := mk(14, inner)
	bad[1] = 0x7f
	if err := Binary.DecodePayload(bad, &p); err == nil {
		t.Error("unknown algo byte accepted")
	}
	// Nested compression: a stream inflating to another 0x03 region.
	nested, err := deflate(nil, mk(14, inner))
	if err != nil {
		t.Fatal(err)
	}
	payload := mk(uint64(len(mk(14, inner))), nested)
	if err := Binary.DecodePayload(payload, &p); err == nil {
		t.Error("nested compression accepted")
	}
}

// TestCompressedInteropMixedFleet is the codec-pairing sweep, run with
// concurrent callers so -race covers the compression pools: peers
// negotiate flate only when both ends offer it, land on plain binary when
// one end does not, and on JSON when one end offers nothing else — large
// payloads flow correctly in every pairing.
func TestCompressedInteropMixedFleet(t *testing.T) {
	comp := compCodec(t)
	cases := []struct {
		name    string
		server  ServeOptions
		client  ClientOptions
		negName string
	}{
		{"both-compressed", ServeOptions{Window: 8, Codecs: []Codec{comp, Binary, JSON}},
			ClientOptions{Codecs: []Codec{comp, Binary, JSON}}, "binary+flate"},
		{"binary-server-flate-client", ServeOptions{Window: 8, Codecs: []Codec{Binary, JSON}},
			ClientOptions{Codecs: []Codec{comp, Binary, JSON}}, "binary"},
		{"flate-server-binary-client", ServeOptions{Window: 8, Codecs: []Codec{comp, Binary, JSON}},
			ClientOptions{Codecs: []Codec{Binary, JSON}}, "binary"},
		{"json-server", ServeOptions{Window: 8, Codecs: []Codec{JSON}},
			ClientOptions{Codecs: []Codec{comp, JSON}}, "json"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr, stop := startEchoServerOpts(t, tc.server)
			defer stop()
			opts := tc.client
			opts.Timeout = 5 * time.Second
			c := NewClientOpts(echoDialer(addr), opts)
			defer c.Close()
			checkEcho(t, c, "warmup")
			if got := c.CodecName(); got != tc.negName {
				t.Fatalf("negotiated %q, want %q", got, tc.negName)
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < 10; i++ {
						checkEcho(t, c, fmt.Sprintf("caller%d-%s", g, bigToken(1500+i)))
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// TestCorruptCompressedFrameFailsOneMessage injects a truncated
// compressed payload into a live negotiated connection: the server must
// answer an error reply for that id and keep serving the frames behind
// it — a corrupt message costs one message, never the connection.
func TestCorruptCompressedFrameFailsOneMessage(t *testing.T) {
	comp := compCodec(t)
	addr, stop := startEchoServerOpts(t, ServeOptions{Window: 4, Codecs: []Codec{comp, JSON}})
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	framer := handshake(t, conn, comp, JSON)
	if framer.Codec().Name() != comp.Name() {
		t.Fatalf("negotiated %q", framer.Codec().Name())
	}

	// A valid compressed frame, truncated inside the flate stream: the
	// envelope header still decodes (type, id), the payload cannot.
	body, err := comp.AppendEnvelope(nil, &Envelope{Type: "echo", ID: 2, Msg: echoPayload{Token: bigToken(4096)}})
	if err != nil {
		t.Fatal(err)
	}
	body = body[:len(body)-7]
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], uint32(len(body)))
	if _, err := conn.Write(append(prefix[:], body...)); err != nil {
		t.Fatal(err)
	}
	reply, err := framer.ReadFrame(conn)
	if err != nil {
		t.Fatalf("connection died on a corrupt payload: %v", err)
	}
	if reply.Type != TypeError || reply.ID != 2 {
		t.Fatalf("want an error reply for id 2, got %s id %d", reply.Type, reply.ID)
	}

	// The connection survives: a valid call still round-trips.
	if err := framer.WriteFrame(conn, &Envelope{Type: "echo", ID: 3, Msg: echoPayload{Token: bigToken(2048)}}); err != nil {
		t.Fatal(err)
	}
	reply, err = framer.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != "echo" || reply.ID != 3 {
		t.Fatalf("got %s id %d", reply.Type, reply.ID)
	}
	var p echoPayload
	if err := reply.Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.Token != bigToken(2048) {
		t.Error("post-corruption echo corrupted")
	}
}

// FuzzInflate feeds arbitrary bytes to the inflate path, the payload
// region after the 0x03 tag. It must never panic or inflate past MaxFrame,
// and whatever it accepts holds exactly the bytes it claimed, which deflate
// and inflate again to themselves.
func FuzzInflate(f *testing.F) {
	region := func(tb testing.TB, rawLen uint64, raw []byte) []byte {
		stream, err := deflate(nil, raw)
		if err != nil {
			tb.Fatal(err)
		}
		return append(binary.AppendUvarint([]byte{algoFlate}, rawLen), stream...)
	}
	inner := append([]byte{binPayloadJSON}, `{"token":"x"}`...)
	big := []byte(bigToken(4096))
	for _, seed := range [][]byte{
		region(f, uint64(len(big)), big),
		region(f, uint64(len(inner)), inner),
		region(f, 3, inner),      // the stream holds more than it claims
		region(f, 100000, inner), // and less
		region(f, MaxFrame+1, inner),
		region(f, 0, inner),
		{0x7f, 0x01, 0x00}, // unknown algo
		{algoFlate},
	} {
		f.Add(seed)
		for cut := 1; cut < len(seed); cut += 1 + len(seed)/8 {
			f.Add(seed[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		out, err := inflatePayload(b)
		if err != nil {
			return
		}
		claimed, _ := binary.Uvarint(b[1:])
		if uint64(len(out)) != claimed || len(out) > MaxFrame {
			t.Fatalf("inflated %d bytes, claimed %d (cap %d)", len(out), claimed, MaxFrame)
		}
		again, err := inflatePayload(region(t, uint64(len(out)), out))
		if err != nil {
			t.Fatalf("re-deflated payload does not inflate: %v", err)
		}
		if !bytes.Equal(again, out) {
			t.Fatal("re-deflated payload inflates to other bytes")
		}
	})
}
