package wire

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"actyp/internal/pool"
	"actyp/internal/shadow"
)

// corpusEnvelope is one differential test case: an envelope to frame and
// the empty value its payload decodes into.
type corpusEnvelope struct {
	name    string
	typ     string
	id      uint64
	payload any
	out     func() any
}

// codecCorpus covers every fast-pathed payload type plus JSON-fallback
// payloads and edge values (empty strings, unicode, zero times, nil
// pointers, negative ints).
func codecCorpus() []corpusEnvelope {
	granted := time.Date(2026, 7, 27, 11, 30, 0, 123456789, time.UTC)
	lease := pool.Lease{
		ID: "p#0:1", Machine: "m0001", Addr: "10.0.0.1",
		ExecUnitPort: 7000, MountMgrPort: 7001,
		AccessKey: "k-αβγ", Pool: "pool-a", Granted: granted,
	}
	acct := shadow.Account{Machine: "m0001", User: "shadow03", UID: 5003}
	return []corpusEnvelope{
		{"query", TypeQuery, 7, QueryRequest{Lang: "ldap", Text: "punch.rsrc.arch = sun", TTL: 3, Visited: []string{"pm-a", "pm-β"}},
			func() any { return &QueryRequest{} }},
		{"query-empty", TypeQuery, 0, QueryRequest{},
			func() any { return &QueryRequest{} }},
		{"query-reply", TypeQuery, 8, QueryReply{Lease: &lease, Shadow: &acct, Fragments: 2, Succeeded: 1, ElapsedNS: 123456},
			func() any { return &QueryReply{} }},
		{"query-reply-bare", TypeQuery, 9, QueryReply{Fragments: -1, Succeeded: 0, ElapsedNS: -5},
			func() any { return &QueryReply{} }},
		{"release", TypeRelease, 10, ReleaseRequest{Lease: lease, Shadow: &acct},
			func() any { return &ReleaseRequest{} }},
		{"release-zerotime", TypeRelease, 11, ReleaseRequest{Lease: pool.Lease{ID: "x"}},
			func() any { return &ReleaseRequest{} }},
		{"release-reply", TypeRelease, 12, ReleaseReply{},
			func() any { return &ReleaseReply{} }},
		{"renew", TypeRenew, 13, RenewRequest{Lease: lease},
			func() any { return &RenewRequest{} }},
		{"renew-reply", TypeRenew, 14, RenewReply{},
			func() any { return &RenewReply{} }},
		{"error", TypeError, 15, ErrorReply{Message: "pool: no machine available"},
			func() any { return &ErrorReply{} }},
		{"error-empty", TypeError, 16, ErrorReply{},
			func() any { return &ErrorReply{} }},
		{"spawn", TypeSpawnPool, 17, SpawnPoolRequest{Signature: "sig", Identifier: "id", Instance: 2, Objective: "least-load"},
			func() any { return &SpawnPoolRequest{} }},
		{"spawn-reply", TypeSpawnPool, 18, SpawnPoolReply{Instance: "p#2", Addr: "127.0.0.1:9999"},
			func() any { return &SpawnPoolReply{} }},
		{"hello", TypeHello, 0, Hello{Codecs: []string{"binary", "json"}},
			func() any { return &Hello{} }},
		{"hello-ack", TypeHelloAck, 0, HelloAck{Codec: "binary"},
			func() any { return &HelloAck{} }},
		// Private protocol extensions ride the generic JSON fallback in
		// both codecs (the envelope type is not in the binary type table
		// and the payload has no fast path).
		{"custom", "pm-resolve", 19, map[string]any{"query": "punch.rsrc.arch = sun", "ttl": 4.0},
			func() any { return &map[string]any{} }},
	}
}

// normalizeTimes compares time fields with Equal semantics by rewriting
// them to UTC, so a codec is free to drop the wall-clock location.
func normalizeTimes(v any) {
	switch m := v.(type) {
	case *QueryReply:
		if m.Lease != nil {
			m.Lease.Granted = m.Lease.Granted.UTC()
		}
	case *ReleaseRequest:
		m.Lease.Granted = m.Lease.Granted.UTC()
	case *RenewRequest:
		m.Lease.Granted = m.Lease.Granted.UTC()
	}
}

// TestCodecDifferentialCorpus is the differential oracle: every corpus
// envelope must round-trip through BOTH codecs to the same decoded value
// ("byte-for-semantics": header fields identical, payloads equal after
// time normalization).
func TestCodecDifferentialCorpus(t *testing.T) {
	for _, tc := range codecCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			decoded := map[string]any{}
			for _, codec := range []Codec{JSON, Binary} {
				framer := NewFramer(codec)
				env := &Envelope{Type: tc.typ, ID: tc.id, Msg: tc.payload}
				var buf bytes.Buffer
				if err := framer.WriteFrame(&buf, env); err != nil {
					t.Fatalf("%s write: %v", codec.Name(), err)
				}
				got, err := framer.ReadFrame(&buf)
				if err != nil {
					t.Fatalf("%s read: %v", codec.Name(), err)
				}
				if got.Type != tc.typ || got.ID != tc.id {
					t.Fatalf("%s header = %q/%d, want %q/%d", codec.Name(), got.Type, got.ID, tc.typ, tc.id)
				}
				out := tc.out()
				if err := got.Decode(out); err != nil {
					t.Fatalf("%s decode: %v", codec.Name(), err)
				}
				normalizeTimes(out)
				decoded[codec.Name()] = out
			}
			if !reflect.DeepEqual(decoded["json"], decoded["binary"]) {
				t.Errorf("codecs disagree:\n json   = %#v\n binary = %#v", decoded["json"], decoded["binary"])
			}
		})
	}
}

// TestBinaryFramesAreSmaller pins the compactness claim for the hot
// request/reply pair.
func TestBinaryFramesAreSmaller(t *testing.T) {
	lease := pool.Lease{ID: "p#0:1", Machine: "m0001", Addr: "10.0.0.1", ExecUnitPort: 7000, AccessKey: "k", Granted: time.Now()}
	for _, tc := range []struct {
		name string
		env  *Envelope
	}{
		{"request", &Envelope{Type: TypeQuery, ID: 42, Msg: QueryRequest{Text: "punch.rsrc.arch = sun"}}},
		{"reply", &Envelope{Type: TypeQuery, ID: 42, Msg: QueryReply{Lease: &lease, Fragments: 1, Succeeded: 1}}},
	} {
		jsonBody, err := JSON.AppendEnvelope(nil, tc.env)
		if err != nil {
			t.Fatal(err)
		}
		binBody, err := Binary.AppendEnvelope(nil, tc.env)
		if err != nil {
			t.Fatal(err)
		}
		if len(binBody) >= len(jsonBody) {
			t.Errorf("%s: binary %dB not smaller than json %dB", tc.name, len(binBody), len(jsonBody))
		}
	}
}

// TestBinaryDecodeNeverPanicsProperty fuzzes the binary decoder the same
// way the JSON reader is fuzzed: arbitrary bytes must fail cleanly, never
// panic or over-allocate.
func TestBinaryDecodeNeverPanicsProperty(t *testing.T) {
	f := func(raw []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("binary decode panicked on %x: %v", raw, r)
			}
		}()
		env, err := Binary.DecodeEnvelope(raw)
		if err != nil {
			return true
		}
		// A structurally valid envelope may still carry a corrupt
		// payload; decoding it must also be panic-free.
		for _, out := range []any{&QueryRequest{}, &QueryReply{}, &ReleaseRequest{}, &ErrorReply{}} {
			_ = env.Decode(out)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestBinaryTruncationAlwaysErrors mirrors the JSON truncation property:
// a binary frame cut at any byte boundary never reads as a whole frame.
func TestBinaryTruncationAlwaysErrors(t *testing.T) {
	framer := NewFramer(Binary)
	env := &Envelope{Type: TypeQuery, ID: 42, Msg: QueryRequest{Text: "punch.rsrc.arch = sun", Visited: []string{"pm-a"}}}
	var full bytes.Buffer
	if err := framer.WriteFrame(&full, env); err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		if _, err := framer.ReadFrame(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes read a frame", cut, len(raw))
		}
	}
	got, err := framer.ReadFrame(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("full frame failed: %v", err)
	}
	var req QueryRequest
	if err := got.Decode(&req); err != nil {
		t.Fatal(err)
	}
	if req.Text != "punch.rsrc.arch = sun" {
		t.Errorf("req = %+v", req)
	}
}

// TestBinaryPayloadTypeMismatch: a fast-path payload decoded into the
// wrong struct fails loudly instead of misparsing silently.
func TestBinaryPayloadTypeMismatch(t *testing.T) {
	framer := NewFramer(Binary)
	var buf bytes.Buffer
	env := &Envelope{Type: TypeQuery, ID: 1, Msg: QueryRequest{Text: "x"}}
	if err := framer.WriteFrame(&buf, env); err != nil {
		t.Fatal(err)
	}
	got, err := framer.ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var wrong ReleaseRequest
	if err := got.Decode(&wrong); err == nil {
		t.Error("decoding a QueryRequest payload into ReleaseRequest should fail")
	}
}

// TestWriteFrameOversizedPerCodec: the frame bound holds for every codec,
// and the failure precedes any byte reaching the writer.
func TestWriteFrameOversizedPerCodec(t *testing.T) {
	big := strings.Repeat("x", MaxFrame)
	for _, codec := range []Codec{JSON, Binary} {
		framer := NewFramer(codec)
		var buf bytes.Buffer
		err := framer.WriteFrame(&buf, &Envelope{Type: TypeQuery, ID: 1, Msg: QueryRequest{Text: big}})
		if err == nil {
			t.Errorf("%s: oversized frame should fail to write", codec.Name())
		}
		if buf.Len() != 0 {
			t.Errorf("%s: %d bytes reached the writer before the rejection", codec.Name(), buf.Len())
		}
	}
}

func TestParseCodecs(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want []string
	}{
		{"", []string{"binary", "json"}},
		{"auto", []string{"binary", "json"}},
		{"json", []string{"json"}},
		{"binary", []string{"binary"}},
		{"json,binary", []string{"json", "binary"}},
	} {
		got, err := ParseCodecs(tc.spec)
		if err != nil {
			t.Fatalf("%q: %v", tc.spec, err)
		}
		if tc.spec == "" || tc.spec == "auto" {
			// The default preference is test-configurable; only check it
			// is non-empty and ends on a known codec.
			if len(got) == 0 {
				t.Fatalf("%q: empty codec list", tc.spec)
			}
			continue
		}
		if !reflect.DeepEqual(codecNames(got), tc.want) {
			t.Errorf("%q = %v, want %v", tc.spec, codecNames(got), tc.want)
		}
	}
	// Compressed variants parse; unknown names and bare algo names fail
	// with errors that point at the +algo spelling.
	got, err := ParseCodecs("binary+flate,json")
	if err != nil {
		t.Fatalf("binary+flate,json: %v", err)
	}
	if !reflect.DeepEqual(codecNames(got), []string{"binary+flate", "json"}) {
		t.Errorf("binary+flate,json = %v", codecNames(got))
	}
	for spec, hint := range map[string]string{
		"gzip":          "binary+flate", // a known algo name is not a codec; suggest the spelling
		"flate":         "binary+flate",
		"binary+gzip":   "flate", // unknown algo on a valid base
		"bogus":         "binary+flate",
		"binary2":       "want json, binary",
		"binary2+flate": "want json, binary",
		"json+flate":    "binary family", // no payload tag to compress behind
	} {
		_, err := ParseCodecs(spec)
		if err == nil {
			t.Errorf("%q should fail", spec)
			continue
		}
		if !strings.Contains(err.Error(), hint) {
			t.Errorf("%q error %q does not mention %q", spec, err, hint)
		}
	}
}
