package proxy

import (
	"bytes"
	"encoding/hex"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"actyp/internal/netsim"
	"actyp/internal/pool"
	"actyp/internal/query"
	"actyp/internal/wire"
)

const goldenQuery = "punch.rsrc.arch = sun"

func goldenLease() pool.Lease {
	return pool.Lease{
		ID: "arch,==/sun#0:3", Machine: "m0003", Addr: "10.0.0.3", ExecUnitPort: 7000, MountMgrPort: 7001,
		AccessKey: "k-0003", Pool: "arch,==/sun#0", Granted: time.Unix(0, 1790000000123456789).UTC(),
	}
}

// proxyFrame is one proxy-protocol frame pinned to its bytes.
type proxyFrame struct {
	name string
	env  *wire.Envelope
	out  func() any // zero payload target
}

// proxyFrames lists the proxy control and pool protocols' requests and
// replies with the payload values the stubs and the servers put in them.
func proxyFrames() []proxyFrame {
	lease := goldenLease()
	return []proxyFrame{
		{name: "spawn-pool", env: &wire.Envelope{Type: "spawn-pool", ID: 1,
			Msg: &wire.SpawnPoolRequest{Signature: "arch,==", Identifier: "sun", Instance: 1, Objective: "load"}},
			out: func() any { return &wire.SpawnPoolRequest{} }},
		{name: "spawn-pool-reply", env: &wire.Envelope{Type: "spawn-pool", ID: 1,
			Msg: &wire.SpawnPoolReply{Instance: "arch,==/sun#1", Addr: "127.0.0.1:40123"}},
			out: func() any { return &wire.SpawnPoolReply{} }},
		{name: "pool-alloc", env: &wire.Envelope{Type: "pool-alloc", ID: 2, Msg: &allocRequest{Query: goldenQuery}},
			out: func() any { return &allocRequest{} }},
		{name: "pool-alloc-reply", env: &wire.Envelope{Type: "pool-alloc", ID: 2, Msg: &allocReply{Lease: &lease}},
			out: func() any { return &allocReply{} }},
		{name: "pool-release", env: &wire.Envelope{Type: "pool-release", ID: 3, Msg: &releaseRequest{LeaseID: lease.ID}},
			out: func() any { return &releaseRequest{} }},
		{name: "pool-release-reply", env: &wire.Envelope{Type: "pool-release", ID: 3, Msg: struct{}{}},
			out: func() any { return &struct{}{} }},
	}
}

// proxyHex holds each frame's body as wire.Binary wrote it before the
// proxy protocols moved onto declared methods.
var proxyHex = map[string]string{
	"spawn-pool":       "ac02050100010807617263682c3d3d0373756e02046c6f6164",
	"spawn-pool-reply": "ac0205010001090d617263682c3d3d2f73756e23310f3132372e302e302e313a3430313233",
	"pool-alloc": "ac02000a706f6f6c2d616c6c6f630200007b227175657279223a2270756e63682e727372632e61726368203d2073756e" +
		"227d",
	"pool-alloc-reply": "ac02000a706f6f6c2d616c6c6f630200007b226c65617365223a7b226964223a22617263682c3d3d2f73756e23303a33" +
		"222c226d616368696e65223a226d30303033222c2261646472223a2231302e302e302e33222c2265786563556e697450" +
		"6f7274223a373030302c226d6f756e744d6772506f7274223a373030312c226163636573734b6579223a226b2d303030" +
		"33222c22706f6f6c223a22617263682c3d3d2f73756e2330222c226772616e746564223a22323032362d30392d323154" +
		"31343a31333a32302e3132333435363738395a227d7d",
	"pool-release":       "ac02000c706f6f6c2d72656c656173650300007b226c656173654964223a22617263682c3d3d2f73756e23303a33227d",
	"pool-release-reply": "ac02000c706f6f6c2d72656c656173650300007b7d",
}

func goldenPayload(t *testing.T, name string) []byte {
	t.Helper()
	body, err := hex.DecodeString(proxyHex[name])
	if err != nil {
		t.Fatal(err)
	}
	env, err := wire.Binary.DecodeEnvelope(body)
	if err != nil {
		t.Fatal(err)
	}
	return env.Payload
}

// TestProxyFramesByteIdentical pins every proxy frame to its bytes and
// checks each pinned body decodes to the envelope it was written from.
func TestProxyFramesByteIdentical(t *testing.T) {
	frames := proxyFrames()
	if len(frames) != len(proxyHex) {
		t.Fatalf("%d golden frames, %d hex literals", len(frames), len(proxyHex))
	}
	for _, g := range frames {
		t.Run(g.name, func(t *testing.T) {
			want, err := hex.DecodeString(proxyHex[g.name])
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
			out := g.out()
			if err := env.Decode(out); err != nil {
				t.Fatal(err)
			}
			msg := reflect.ValueOf(g.env.Msg)
			if msg.Kind() == reflect.Pointer {
				msg = msg.Elem()
			}
			if dec := reflect.ValueOf(out).Elem().Interface(); !reflect.DeepEqual(dec, msg.Interface()) {
				t.Errorf("payload decodes to\n%+v\nwant\n%+v", dec, msg.Interface())
			}
		})
	}
}

// TestRemotePoolPayloadsMatchGoldens drives a real RemotePool against a
// recording pool endpoint and compares the request payloads it put on
// the wire with the golden ones; the replies of a real pool endpoint are
// checked the same way, by payload tag where they carry fresh values.
func TestRemotePoolPayloadsMatchGoldens(t *testing.T) {
	lease := goldenLease()
	replies := map[string]any{"pool-alloc": &allocReply{Lease: &lease}, "pool-release": struct{}{}}
	var mu sync.Mutex
	payloads := make(map[string][]byte)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rec, err := wire.NewServer(ln, wire.ServeOptions{}, func(env *wire.Envelope) *wire.Envelope {
		mu.Lock()
		payloads[env.Type] = append([]byte(nil), env.Payload...)
		mu.Unlock()
		return &wire.Envelope{Type: env.Type, ID: env.ID, Msg: replies[env.Type]}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()

	q, err := query.ParseBasic(goldenQuery)
	if err != nil || q.String() != goldenQuery {
		t.Fatalf("query %q renders as %q (%v)", goldenQuery, q, err)
	}
	stub, err := NewRemotePool(rec.Addr(), netsim.Local())
	if err != nil {
		t.Fatal(err)
	}
	defer stub.Close()
	got, err := stub.Allocate(q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, lease) {
		t.Errorf("Allocate returned %+v, want %+v", *got, lease)
	}
	if err := stub.Release(lease.ID); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	for _, typ := range []string{"pool-alloc", "pool-release"} {
		if want := goldenPayload(t, typ); !bytes.Equal(payloads[typ], want) {
			t.Errorf("%s payload on the wire\n%x\nwant\n%x", typ, payloads[typ], want)
		}
	}
	mu.Unlock()

	px := startProxy(t, 4)
	c := dialProxy(t, px)
	sp, err := c.Call("spawn-pool", &wire.SpawnPoolRequest{Signature: "arch,==", Identifier: "sun"})
	if err != nil {
		t.Fatal(err)
	}
	if want := goldenPayload(t, "spawn-pool-reply"); len(sp.Payload) == 0 || sp.Payload[0] != want[0] {
		t.Errorf("spawn-pool reply payload %x, want tag %02x", sp.Payload, want[0])
	}
	var spr wire.SpawnPoolReply
	if err := sp.Decode(&spr); err != nil {
		t.Fatal(err)
	}
	pc := wire.NewClient(func() (net.Conn, error) { return net.Dial("tcp", spr.Addr) }, 5*time.Second)
	defer pc.Close()
	alloc, err := pc.Call("pool-alloc", &allocRequest{Query: goldenQuery})
	if err != nil {
		t.Fatal(err)
	}
	if want := goldenPayload(t, "pool-alloc-reply"); len(alloc.Payload) == 0 || alloc.Payload[0] != want[0] {
		t.Errorf("pool-alloc reply payload %x, want tag %02x", alloc.Payload, want[0])
	}
	var ar allocReply
	if err := alloc.Decode(&ar); err != nil || ar.Lease == nil {
		t.Fatalf("pool-alloc reply decodes to %+v, %v", ar, err)
	}
	rel, err := pc.Call("pool-release", &releaseRequest{LeaseID: ar.Lease.ID})
	if err != nil {
		t.Fatal(err)
	}
	if want := goldenPayload(t, "pool-release-reply"); !bytes.Equal(rel.Payload, want) {
		t.Errorf("pool-release reply payload\n%x\nwant\n%x", rel.Payload, want)
	}
}
