package stage

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"actyp/internal/wire"
)

// stageTargets returns one zero value of every stage payload type, so the
// fuzzer drives each hand-rolled decoder.
func stageTargets() []any {
	return []any{&resolveRequest{}, &resolveReply{}, &leaseRequest{}, &nameReply{}}
}

// reencode frames v as a binary payload and returns the payload bytes a
// reader sees.
func reencode(t *testing.T, v any) []byte {
	t.Helper()
	body, err := wire.Binary.AppendEnvelope(nil, &wire.Envelope{Type: "pm-fuzz", ID: 1, Msg: v})
	if err != nil {
		t.Fatalf("%T does not re-encode: %v", v, err)
	}
	env, err := wire.Binary.DecodeEnvelope(body)
	if err != nil {
		t.Fatalf("re-encoded %T does not decode: %v\n%x", v, err, body)
	}
	return env.Payload
}

// decodeInto decodes a payload into a fresh value of like's type.
func decodeInto(like any, payload []byte) (any, error) {
	out := reflect.New(reflect.TypeOf(like).Elem()).Interface()
	return out, wire.Binary.DecodePayload(payload, out)
}

// FuzzStageDecode feeds arbitrary bodies to the binary decoder and every
// stage payload decoder. Decoding never panics, and a payload that
// decodes re-encodes to a fixed point: decode, re-encode and decode again
// gives equal values and equal bytes. Seeds are the stage golden frames,
// each at every prefix.
func FuzzStageDecode(f *testing.F) {
	for _, h := range stageHex {
		body, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		for n := 0; n <= len(body); n++ {
			f.Add(body[:n])
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		env, err := wire.Binary.DecodeEnvelope(body)
		if err != nil || len(env.Payload) == 0 {
			return
		}
		for _, target := range stageTargets() {
			v1, err := decodeInto(target, env.Payload)
			if err != nil {
				continue // most targets do not match
			}
			b1 := reencode(t, v1)
			v2, err := decodeInto(target, b1)
			if err != nil {
				t.Fatalf("%T re-encoding does not decode: %v\n%x", target, err, b1)
			}
			b2 := reencode(t, v2)
			v3, err := decodeInto(target, b2)
			if err != nil {
				t.Fatalf("%T second re-encoding does not decode: %v", target, err)
			}
			if !bytes.Equal(b1, b2) || !reflect.DeepEqual(v2, v3) {
				t.Fatalf("%T round trip is not stable:\n%x -> %+v\n%x -> %+v", target, b1, v2, b2, v3)
			}
		}
	})
}
