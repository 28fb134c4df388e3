package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"actyp/internal/pool"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	env, err := NewEnvelope(TypeQuery, 7, QueryRequest{Text: "punch.rsrc.arch = sun", TTL: 3, Visited: []string{"pm-a"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonFramer.WriteFrame(&buf, env); err != nil {
		t.Fatal(err)
	}
	got, err := jsonFramer.ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TypeQuery || got.ID != 7 {
		t.Errorf("envelope = %+v", got)
	}
	var req QueryRequest
	if err := got.Decode(&req); err != nil {
		t.Fatal(err)
	}
	if req.Text != "punch.rsrc.arch = sun" || req.TTL != 3 || len(req.Visited) != 1 {
		t.Errorf("payload = %+v", req)
	}
}

func TestFrameStream(t *testing.T) {
	var buf bytes.Buffer
	for i := uint64(0); i < 5; i++ {
		env, err := NewEnvelope(TypePing, i, struct{}{})
		if err != nil {
			t.Fatal(err)
		}
		if err := jsonFramer.WriteFrame(&buf, env); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 5; i++ {
		env, err := jsonFramer.ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if env.ID != i {
			t.Errorf("frame %d out of order: id %d", i, env.ID)
		}
	}
	if _, err := jsonFramer.ReadFrame(&buf); err != io.EOF {
		t.Errorf("exhausted stream should EOF, got %v", err)
	}
}

func TestReadFrameRejectsBadLengths(t *testing.T) {
	// Zero length.
	var zero bytes.Buffer
	zero.Write([]byte{0, 0, 0, 0})
	if _, err := jsonFramer.ReadFrame(&zero); err == nil {
		t.Error("zero-length frame should fail")
	}
	// Oversized length.
	var huge bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	huge.Write(hdr[:])
	if _, err := jsonFramer.ReadFrame(&huge); err == nil {
		t.Error("oversized frame should fail")
	}
	// Truncated body.
	var trunc bytes.Buffer
	binary.BigEndian.PutUint32(hdr[:], 100)
	trunc.Write(hdr[:])
	trunc.WriteString("short")
	if _, err := jsonFramer.ReadFrame(&trunc); err == nil {
		t.Error("truncated body should fail")
	}
	// Valid length, invalid JSON.
	var garbage bytes.Buffer
	body := []byte("not json!!")
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	garbage.Write(hdr[:])
	garbage.Write(body)
	if _, err := jsonFramer.ReadFrame(&garbage); err == nil {
		t.Error("garbage JSON should fail")
	}
	// Envelope without a type.
	var untyped bytes.Buffer
	body = []byte(`{"id":1}`)
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	untyped.Write(hdr[:])
	untyped.Write(body)
	if _, err := jsonFramer.ReadFrame(&untyped); err == nil || !strings.Contains(err.Error(), "without type") {
		t.Errorf("untyped envelope err = %v", err)
	}
}

func TestWriteFrameRejectsOversized(t *testing.T) {
	big := strings.Repeat("x", MaxFrame)
	env, err := NewEnvelope(TypeQuery, 1, QueryRequest{Text: big})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := jsonFramer.WriteFrame(&buf, env); err == nil {
		t.Error("oversized frame should fail to write")
	}
}

func TestDecodeErrors(t *testing.T) {
	env := &Envelope{Type: TypeQuery}
	var req QueryRequest
	if err := env.Decode(&req); err == nil {
		t.Error("empty payload should fail")
	}
	env.Payload = []byte(`{"text": 42}`) // wrong type
	if err := env.Decode(&req); err == nil {
		t.Error("mismatched payload should fail")
	}
}

func TestQueryReplyCarriesLease(t *testing.T) {
	lease := &pool.Lease{ID: "p#0:1", Machine: "m0001", Addr: "10.0.0.1", ExecUnitPort: 7000, AccessKey: "k"}
	env, err := NewEnvelope(TypeQuery, 1, QueryReply{Lease: lease, Fragments: 2, Succeeded: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := jsonFramer.WriteFrame(&buf, env); err != nil {
		t.Fatal(err)
	}
	got, err := jsonFramer.ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var reply QueryReply
	if err := got.Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.Lease == nil || reply.Lease.Machine != "m0001" || reply.Fragments != 2 {
		t.Errorf("reply = %+v", reply)
	}
}

// Property: every well-formed envelope survives a write/read round trip.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(id uint64, text string, ttl uint8) bool {
		env, err := NewEnvelope(TypeQuery, id, QueryRequest{Text: text, TTL: int(ttl)})
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := jsonFramer.WriteFrame(&buf, env); err != nil {
			return false
		}
		got, err := jsonFramer.ReadFrame(&buf)
		if err != nil {
			return false
		}
		var req QueryRequest
		if err := got.Decode(&req); err != nil {
			return false
		}
		return got.ID == id && req.Text == text && req.TTL == int(ttl)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
