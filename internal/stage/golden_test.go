package stage

import (
	"bytes"
	"encoding/hex"
	"net"
	"reflect"
	"sync"
	"testing"

	"actyp/internal/netsim"
	"actyp/internal/wire"
)

// goldenQuery is the basic query the pinned pm-resolve frame carries, in
// the textual form query.Query.String renders it.
const goldenQuery = "punch.rsrc.arch = sun"

// goldenVisited is the delegation state the pinned pm-resolve carries.
var goldenVisited = []string{"pm-b", "pm-c"}

const goldenTTL = 3

// stageFrame is one stage-protocol frame pinned to its bytes.
type stageFrame struct {
	name string
	env  *wire.Envelope
	out  func() any // zero payload target; nil for bare envelopes
}

// stageFrames lists the stage protocol's requests and replies with the
// payload values the stub and the server put in them.
func stageFrames() []stageFrame {
	lease := testLease()
	return []stageFrame{
		{name: "pm-name", env: &wire.Envelope{Type: "pm-name", ID: 1}},
		{name: "pm-name-reply", env: &wire.Envelope{Type: "pm-name", ID: 1, Msg: &nameReply{Name: "pm-a"}},
			out: func() any { return &nameReply{} }},
		{name: "pm-resolve", env: &wire.Envelope{Type: "pm-resolve", ID: 2,
			Msg: &resolveRequest{Query: goldenQuery, TTL: goldenTTL, Visited: goldenVisited}},
			out: func() any { return &resolveRequest{} }},
		{name: "pm-resolve-reply", env: &wire.Envelope{Type: "pm-resolve", ID: 2, Msg: &resolveReply{Lease: &lease}},
			out: func() any { return &resolveReply{} }},
		{name: "pm-resolve-reply-nil", env: &wire.Envelope{Type: "pm-resolve", ID: 3, Msg: &resolveReply{}},
			out: func() any { return &resolveReply{} }},
		{name: "pm-release", env: &wire.Envelope{Type: "pm-release", ID: 4, Msg: &leaseRequest{Lease: lease}},
			out: func() any { return &leaseRequest{} }},
		{name: "pm-release-reply", env: &wire.Envelope{Type: "pm-release", ID: 4, Msg: struct{}{}},
			out: func() any { return &struct{}{} }},
		{name: "pm-renew", env: &wire.Envelope{Type: "pm-renew", ID: 5, Msg: &leaseRequest{Lease: lease}},
			out: func() any { return &leaseRequest{} }},
		{name: "pm-renew-reply", env: &wire.Envelope{Type: "pm-renew", ID: 5, Msg: struct{}{}},
			out: func() any { return &struct{}{} }},
	}
}

// stageHex holds each frame's body as wire.Binary wrote it before the
// stage protocol moved onto declared methods; the pm-renew pair, which
// came with them, shares pm-release's payloads.
var stageHex = map[string]string{
	"pm-name":       "ac020007706d2d6e616d650100",
	"pm-name-reply": "ac020007706d2d6e616d6501000204706d2d61",
	"pm-resolve": "ac02000a706d2d7265736f6c76650200021570756e63682e727372632e61726368203d2073756e060204706d2d62" +
		"04706d2d63",
	"pm-resolve-reply": "ac02000a706d2d7265736f6c766502000201086c656173652d3432056d30372e640831302e302e302e37d28c01d4" +
		"8c010b6b2dcf83cf872dceb2cebb0b70756e63682f73756e3a31018080cec7c294d7e92f",
	"pm-resolve-reply-nil": "ac02000a706d2d7265736f6c766503000200",
	"pm-release": "ac02000a706d2d72656c65617365040002086c656173652d3432056d30372e640831302e302e302e37d28c01d48c01" +
		"0b6b2dcf83cf872dceb2cebb0b70756e63682f73756e3a31018080cec7c294d7e92f",
	"pm-release-reply": "ac02000a706d2d72656c656173650400007b7d",
	"pm-renew": "ac020008706d2d72656e6577050002086c656173652d3432056d30372e640831302e302e302e37d28c01d48c010b6b" +
		"2dcf83cf872dceb2cebb0b70756e63682f73756e3a31018080cec7c294d7e92f",
	"pm-renew-reply": "ac020008706d2d72656e65770500007b7d",
}

// goldenPayload returns the payload region of the named golden frame as a
// binary connection's reader sees it (nil for a bare frame).
func goldenPayload(t *testing.T, golden map[string]string, name string) []byte {
	t.Helper()
	body, err := hex.DecodeString(golden[name])
	if err != nil {
		t.Fatal(err)
	}
	env, err := wire.Binary.DecodeEnvelope(body)
	if err != nil {
		t.Fatal(err)
	}
	return env.Payload
}

// TestStageFramesByteIdentical pins every stage frame to its bytes and
// checks each pinned body decodes to the envelope it was written from.
func TestStageFramesByteIdentical(t *testing.T) {
	frames := stageFrames()
	if len(frames) != len(stageHex) {
		t.Fatalf("%d golden frames, %d hex literals", len(frames), len(stageHex))
	}
	for _, g := range frames {
		t.Run(g.name, func(t *testing.T) {
			want, err := hex.DecodeString(stageHex[g.name])
			if err != nil {
				t.Fatal(err)
			}
			got, err := wire.Binary.AppendEnvelope(nil, g.env)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("binary writes\n%x\nwant\n%x", got, want)
			}
			env, err := wire.Binary.DecodeEnvelope(want)
			if err != nil {
				t.Fatal(err)
			}
			if env.Type != g.env.Type || env.ID != g.env.ID {
				t.Fatalf("header = %s/%d, want %s/%d", env.Type, env.ID, g.env.Type, g.env.ID)
			}
			if g.out == nil {
				if len(env.Payload) != 0 {
					t.Fatalf("bare envelope decoded a %d-byte payload", len(env.Payload))
				}
				return
			}
			out := g.out()
			if err := env.Decode(out); err != nil {
				t.Fatal(err)
			}
			want1 := reflect.ValueOf(g.env.Msg)
			if want1.Kind() == reflect.Pointer {
				want1 = want1.Elem()
			}
			if msg := reflect.ValueOf(out).Elem().Interface(); !reflect.DeepEqual(msg, want1.Interface()) {
				t.Errorf("payload decodes to\n%+v\nwant\n%+v", msg, want1.Interface())
			}
		})
	}
}

// recordingServer serves canned replies by message type and records the
// payload bytes of every request as the server's reader saw them.
type recordingServer struct {
	replies map[string]any

	mu       sync.Mutex
	payloads map[string][]byte
}

func startRecording(t *testing.T, replies map[string]any) (*recordingServer, string) {
	t.Helper()
	rs := &recordingServer{replies: replies, payloads: make(map[string][]byte)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := wire.NewServer(ln, wire.ServeOptions{}, func(env *wire.Envelope) *wire.Envelope {
		rs.mu.Lock()
		rs.payloads[env.Type] = append([]byte(nil), env.Payload...)
		rs.mu.Unlock()
		return &wire.Envelope{Type: env.Type, ID: env.ID, Msg: rs.replies[env.Type]}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return rs, srv.Addr()
}

func (rs *recordingServer) payload(typ string) ([]byte, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	p, ok := rs.payloads[typ]
	return p, ok
}

// TestRemotePayloadsMatchGoldens drives a real Remote against a recording
// server and compares the request payloads it put on the wire with the
// golden ones: a payload passed by value instead of by pointer would fall
// back to JSON inside binary, which the codec-level check cannot see.
// The reverse direction runs against a real stage server.
func TestRemotePayloadsMatchGoldens(t *testing.T) {
	lease := testLease()
	if q := basic(t, goldenQuery); q.String() != goldenQuery {
		t.Fatalf("query renders as %q, want %q", q.String(), goldenQuery)
	}
	rs, addr := startRecording(t, map[string]any{
		"pm-name":    &nameReply{Name: "pm-a"},
		"pm-resolve": &resolveReply{Lease: &lease},
		"pm-release": struct{}{},
		"pm-renew":   struct{}{},
	})
	remote, err := DialRemote(addr, netsim.Local(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	got, err := remote.Forward(basic(t, goldenQuery), goldenTTL, goldenVisited)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, lease) {
		t.Errorf("Forward returned %+v, want %+v", *got, lease)
	}
	if err := remote.Renew(&lease); err != nil {
		t.Fatal(err)
	}
	if err := remote.Release(&lease); err != nil {
		t.Fatal(err)
	}
	for _, typ := range []string{"pm-name", "pm-resolve", "pm-renew", "pm-release"} {
		p, ok := rs.payload(typ)
		if !ok {
			t.Errorf("%s never reached the server", typ)
			continue
		}
		if want := goldenPayload(t, stageHex, typ); !bytes.Equal(p, want) {
			t.Errorf("%s payload on the wire\n%x\nwant\n%x", typ, p, want)
		}
	}

	// Replies from a real server: the name and release replies are fully
	// determined, the resolve reply carries a fresh lease, so only its
	// payload tag is compared.
	pm, _, _ := newPM(t, "pm-a", []string{"sun"}, 4)
	srv := startStage(t, pm)
	c := wire.NewClient(func() (net.Conn, error) { return net.Dial("tcp", srv.Addr()) }, 0)
	defer c.Close()
	name, err := c.Call("pm-name", nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := goldenPayload(t, stageHex, "pm-name-reply"); !bytes.Equal(name.Payload, want) {
		t.Errorf("pm-name reply payload\n%x\nwant\n%x", name.Payload, want)
	}
	res, err := c.Call("pm-resolve", &resolveRequest{Query: goldenQuery, TTL: goldenTTL})
	if err != nil {
		t.Fatal(err)
	}
	if want := goldenPayload(t, stageHex, "pm-resolve-reply"); len(res.Payload) == 0 || res.Payload[0] != want[0] {
		t.Errorf("pm-resolve reply payload %x, want tag %02x", res.Payload, want[0])
	}
	var rr resolveReply
	if err := res.Decode(&rr); err != nil || rr.Lease == nil {
		t.Fatalf("pm-resolve reply decodes to %+v, %v", rr, err)
	}
	renew, err := c.Call("pm-renew", &leaseRequest{Lease: *rr.Lease})
	if err != nil {
		t.Fatal(err)
	}
	if want := goldenPayload(t, stageHex, "pm-renew-reply"); !bytes.Equal(renew.Payload, want) {
		t.Errorf("pm-renew reply payload\n%x\nwant\n%x", renew.Payload, want)
	}
	rel, err := c.Call("pm-release", &leaseRequest{Lease: *rr.Lease})
	if err != nil {
		t.Fatal(err)
	}
	if want := goldenPayload(t, stageHex, "pm-release-reply"); !bytes.Equal(rel.Payload, want) {
		t.Errorf("pm-release reply payload\n%x\nwant\n%x", rel.Payload, want)
	}
}
