package wire

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// payloadTargets returns one zero value of every payload type a binary
// frame can carry, so the fuzzer drives each typed decoder.
func payloadTargets() []any {
	return []any{
		&QueryRequest{}, &QueryReply{}, &ReleaseRequest{}, &ReleaseReply{},
		&RenewRequest{}, &RenewReply{}, &ErrorReply{}, &BusyReply{},
		&SpawnPoolRequest{}, &SpawnPoolReply{}, &SelectRequest{}, &SelectReply{},
		&WatchRequest{}, &WatchEvents{}, &RouteRequest{}, &RouteReply{},
	}
}

// FuzzBinaryDecode feeds arbitrary bodies to the binary decoder. Decoding
// never panics, and a body that decodes re-encodes to one that decodes to
// an equal envelope. Seeds are the differential corpus and the golden
// frames, each at every prefix.
func FuzzBinaryDecode(f *testing.F) {
	var seeds [][]byte
	for _, tc := range codecCorpus() {
		body, err := Binary.AppendEnvelope(nil, &Envelope{Type: tc.typ, ID: tc.id, Msg: tc.payload})
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, body)
	}
	for _, h := range goldenHex {
		body, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, body)
	}
	for _, body := range seeds {
		for n := 0; n <= len(body); n++ {
			f.Add(body[:n])
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		env, err := Binary.DecodeEnvelope(body)
		if err != nil {
			return
		}
		if len(env.Payload) > 0 {
			for _, out := range payloadTargets() {
				_ = env.Decode(out) // must not panic; most targets do not match
			}
		}
		again, err := Binary.AppendEnvelope(nil, env)
		if err != nil {
			t.Fatalf("decoded envelope does not re-encode: %v", err)
		}
		back, err := Binary.DecodeEnvelope(again)
		if err != nil {
			t.Fatalf("re-encoded body does not decode: %v\n%x", err, again)
		}
		if back.Type != env.Type || back.ID != env.ID || back.From != env.From ||
			back.Deadline != env.Deadline || !bytes.Equal(back.Payload, env.Payload) {
			t.Fatalf("round trip changed the envelope:\n%+v\n%+v", env, back)
		}
	})
}
