package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: ReadFrame never panics and always terminates on arbitrary
// byte streams — a hostile or corrupt peer cannot take the stage down.
func TestReadFrameNeverPanicsProperty(t *testing.T) {
	f := func(raw []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("ReadFrame panicked on %x: %v", raw, r)
			}
		}()
		r := bytes.NewReader(raw)
		for {
			_, err := jsonFramer.ReadFrame(r)
			if err != nil {
				return true // io.EOF or a parse error both terminate
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: a frame truncated at any byte boundary yields an error, never
// a silent partial envelope.
func TestTruncatedFrameAlwaysErrorsProperty(t *testing.T) {
	env, err := NewEnvelope(TypeQuery, 42, QueryRequest{Text: "punch.rsrc.arch = sun"})
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if err := jsonFramer.WriteFrame(&full, env); err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		if _, err := jsonFramer.ReadFrame(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes read a frame", cut, len(raw))
		}
	}
	// The full frame still reads.
	if _, err := jsonFramer.ReadFrame(bytes.NewReader(raw)); err != nil {
		t.Fatalf("full frame failed: %v", err)
	}
}

// Property: flipping one byte of a frame either fails cleanly or yields a
// well-formed envelope (when the flip lands in an uninterpreted region of
// the JSON); it never panics or reads beyond the frame.
func TestBitFlipRobustness(t *testing.T) {
	env, err := NewEnvelope(TypeRelease, 7, ReleaseRequest{})
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if err := jsonFramer.WriteFrame(&full, env); err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte(nil), raw...)
		i := rng.Intn(len(mut))
		mut[i] ^= byte(1 << rng.Intn(8))
		r := bytes.NewReader(mut)
		got, err := jsonFramer.ReadFrame(r)
		if err != nil {
			continue
		}
		if got.Type == "" {
			t.Fatalf("trial %d: typeless envelope accepted", trial)
		}
	}
}

// Stream property: after a bad frame the reader position is undefined, but
// fresh well-formed frames on a fresh reader always parse — no shared
// state corruption.
func TestReaderStateIsolation(t *testing.T) {
	bad := make([]byte, 8)
	binary.BigEndian.PutUint32(bad, 4)
	copy(bad[4:], "!!!!")
	if _, err := jsonFramer.ReadFrame(bytes.NewReader(bad)); err == nil {
		t.Fatal("garbage accepted")
	}
	env, err := NewEnvelope(TypePing, 1, struct{}{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := jsonFramer.WriteFrame(&buf, env); err != nil {
		t.Fatal(err)
	}
	if _, err := jsonFramer.ReadFrame(&buf); err != nil {
		t.Fatalf("fresh frame failed after prior garbage: %v", err)
	}
	if _, err := jsonFramer.ReadFrame(&buf); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}
