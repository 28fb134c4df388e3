package stage

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"actyp/internal/netsim"
	"actyp/internal/pool"
	"actyp/internal/wire"
)

func testLease() pool.Lease {
	return pool.Lease{
		ID:           "lease-42",
		Machine:      "m07.d",
		Addr:         "10.0.0.7",
		ExecUnitPort: 9001,
		MountMgrPort: 9002,
		AccessKey:    "k-σχ-βλ", // unicode survives the byte-level codec
		Pool:         "punch/sun:1",
		Granted:      time.Unix(0, 1723100000000000000),
	}
}

// TestExtPayloadRoundTrip encodes each stage payload through the binary
// codec's extension tag and checks the decode reproduces it exactly.
func TestExtPayloadRoundTrip(t *testing.T) {
	lease := testLease()
	cases := []struct {
		name string
		in   any // pointer payload, as the call sites pass them
		out  any // zero target of the same type
	}{
		{"resolveRequest", &resolveRequest{Query: "punch.rsrc.arch = sun", TTL: 3, Visited: []string{"pm-a", "pm-b"}}, &resolveRequest{}},
		{"resolveRequest/empty", &resolveRequest{}, &resolveRequest{}},
		{"resolveReply", &resolveReply{Lease: &lease}, &resolveReply{}},
		{"resolveReply/nil-lease", &resolveReply{}, &resolveReply{Lease: &pool.Lease{}}},
		{"releaseRequest", &releaseRequest{Lease: lease}, &releaseRequest{}},
		{"nameReply", &nameReply{Name: "pm-侍"}, &nameReply{}},
	}
	for _, codec := range []wire.Codec{wire.Binary} {
		for _, tc := range cases {
			t.Run(codec.Name()+"/"+tc.name, func(t *testing.T) {
				if _, ok := tc.in.(wire.ExtPayload); !ok {
					t.Fatalf("%T does not implement wire.ExtPayload", tc.in)
				}
				env := &wire.Envelope{Type: typeResolve, ID: 7, Msg: tc.in}
				buf, err := codec.AppendEnvelope(nil, env)
				if err != nil {
					t.Fatal(err)
				}
				got, err := codec.DecodeEnvelope(buf)
				if err != nil {
					t.Fatal(err)
				}
				if err := codec.DecodePayload(got.Payload, tc.out); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(tc.in, tc.out) {
					t.Errorf("round trip:\n in  %+v\n out %+v", tc.in, tc.out)
				}
			})
		}
	}
}

// TestExtPayloadTruncation checks every proper prefix of an ext payload
// fails to decode instead of panicking or returning silently-partial
// fields.
func TestExtPayloadTruncation(t *testing.T) {
	lease := testLease()
	env := &wire.Envelope{Type: typeResolve, ID: 1, Msg: &resolveReply{Lease: &lease}}
	buf, err := wire.Binary.AppendEnvelope(nil, env)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := wire.Binary.DecodeEnvelope(buf)
	if err != nil {
		t.Fatal(err)
	}
	for n := range whole.Payload {
		var out resolveReply
		if err := wire.Binary.DecodePayload(whole.Payload[:n], &out); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(whole.Payload))
		}
	}
}

// TestStageJSONInterop pins a stage server to JSON and drives the normal
// remote workflow: the ext types must keep their JSON shapes for peers
// that never negotiate a binary codec.
func TestStageJSONInterop(t *testing.T) {
	pm, _, _ := newPM(t, "pm-json", []string{"sun"}, 4)
	srv, err := ServeOpts(pm, "127.0.0.1:0", netsim.Local(), wire.ServeOptions{Codecs: []wire.Codec{wire.JSON}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	remote, err := DialRemote(srv.Addr(), netsim.Local(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if remote.Name() != "pm-json" {
		t.Errorf("name = %q", remote.Name())
	}
	lease, err := remote.Resolve(basic(t, "punch.rsrc.arch = sun"))
	if err != nil {
		t.Fatal(err)
	}
	if err := remote.Release(lease); err != nil {
		t.Fatal(err)
	}
}

// TestExtJSONShapeUnchanged pins the JSON wire shape of the stage
// payloads: implementing ExtPayload must not disturb what JSON peers see.
func TestExtJSONShapeUnchanged(t *testing.T) {
	b, err := json.Marshal(&resolveRequest{Query: "q", TTL: 2, Visited: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"query":"q","ttl":2,"visited":["a"]}`
	if string(b) != want {
		t.Errorf("resolveRequest JSON = %s, want %s", b, want)
	}
}
