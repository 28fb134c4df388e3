package wire

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"
	"time"

	"actyp/internal/pool"
	"actyp/internal/query"
	"actyp/internal/registry"
	"actyp/internal/shadow"
)

// goldenFrame is one lease-path or registry frame pinned to its bytes.
type goldenFrame struct {
	name  string
	flate bool // encode with binary+flate instead of binary
	env   *Envelope
	out   func() any // zero payload target; nil for bare envelopes
}

// goldenMachines builds n deterministic white-pages records without the
// fleet generator, so the golden bytes do not move when it does.
func goldenMachines(n int) []*registry.Machine {
	seen := time.Unix(0, 1790000000000000000)
	ms := make([]*registry.Machine, n)
	for i := range ms {
		arch := []string{"sun", "hp"}[i%2]
		ms[i] = &registry.Machine{
			State: registry.StateUp,
			Dynamic: registry.Dynamic{
				Load: float64(i%4) / 4, ActiveJobs: i % 3, FreeMemory: 512, FreeSwap: 1024,
				LastUpdate: seen, ServiceFlag: registry.FlagExecUnit | registry.FlagMountMgr,
			},
			Static: registry.Static{Speed: 400, CPUs: 2, MaxLoad: 4, Name: fmt.Sprintf("m%04d", i)},
			Access: registry.Access{
				ObjectRef: fmt.Sprintf("/punch/machines/m%04d.obj", i), SharedAccount: "nobody",
				ExecUnitPort: 7000, MountMgrPort: 7001, Addr: fmt.Sprintf("10.0.0.%d", i),
			},
			Policy: registry.Policy{
				ToolGroups:    []string{"tsuprem4"},
				ShadowPoolRef: fmt.Sprintf("/punch/shadow/m%04d", i),
				Params: query.NewParams(
					query.Param{Key: "arch", Attr: query.StrAttr(arch)},
					query.Param{Key: "memory", Attr: query.NumAttr(512)},
					query.Param{Key: "domain", Attr: query.StrAttr("purdue")},
					query.Param{Key: "cms", Attr: query.ListAttr("sge", "pbs")},
				),
			},
		}
	}
	return ms
}

func goldenFrames() []goldenFrame {
	granted := time.Unix(0, 1790000000123456789)
	lease := pool.Lease{
		ID: "arch:domain,==:==/sun:purdue#0:17", Machine: "m0042", Addr: "10.0.0.42",
		ExecUnitPort: 7000, MountMgrPort: 7001, AccessKey: "k-0042", Pool: "arch:domain,==:==/sun:purdue#0", Granted: granted,
	}
	acct := shadow.Account{Machine: "m0042", User: "shadow03", UID: 5003}
	deadline := int64(1790000000987654321)
	ms := goldenMachines(3)
	return []goldenFrame{
		{name: "query", env: &Envelope{Type: TypeQuery, ID: 1, From: "acct-7", Deadline: deadline,
			Msg: QueryRequest{Text: "punch.rsrc.arch = sun & punch.rsrc.domain = purdue"}},
			out: func() any { return &QueryRequest{} }},
		{name: "query-reply", env: &Envelope{Type: TypeQuery, ID: 1,
			Msg: QueryReply{Lease: &lease, Shadow: &acct, Fragments: 1, Succeeded: 1, ElapsedNS: 98765}},
			out: func() any { return &QueryReply{} }},
		{name: "release", env: &Envelope{Type: TypeRelease, ID: 2, From: "acct-7",
			Msg: ReleaseRequest{Lease: lease, Shadow: &acct}},
			out: func() any { return &ReleaseRequest{} }},
		{name: "release-reply", env: &Envelope{Type: TypeRelease, ID: 2, Msg: ReleaseReply{}},
			out: func() any { return &ReleaseReply{} }},
		{name: "renew", env: &Envelope{Type: TypeRenew, ID: 3, Deadline: deadline, Msg: RenewRequest{Lease: lease}},
			out: func() any { return &RenewRequest{} }},
		{name: "renew-reply", env: &Envelope{Type: TypeRenew, ID: 3, Msg: RenewReply{}},
			out: func() any { return &RenewReply{} }},
		{name: "ping", env: &Envelope{Type: TypePing, ID: 4, Deadline: deadline}},
		{name: "ping-reply", env: &Envelope{Type: TypePing, ID: 4}},
		{name: "error", env: &Envelope{Type: TypeError, ID: 5, Msg: ErrorReply{Message: "core: no resources matched"}},
			out: func() any { return &ErrorReply{} }},
		{name: "busy", env: &Envelope{Type: TypeBusy, ID: 6, Msg: BusyReply{RetryAfterMS: 25, Reason: "over admission limit"}},
			out: func() any { return &BusyReply{} }},
		{name: "select", env: &Envelope{Type: TypeSelect, ID: 7, Msg: SelectRequest{Text: "punch.rsrc.arch = sun", Limit: 64}},
			out: func() any { return &SelectRequest{} }},
		{name: "select-offset", env: &Envelope{Type: TypeSelect, ID: 8, Msg: SelectRequest{Text: "punch.rsrc.arch = sun", Limit: 64, Offset: 128}},
			out: func() any { return &SelectRequest{} }},
		{name: "select-reply", env: &Envelope{Type: TypeSelect, ID: 7, Msg: SelectReply{Total: 3, Records: RecordSet{Machines: ms}}},
			out: func() any { return &SelectReply{} }},
		{name: "watch-events", env: &Envelope{Type: TypeWatchEvents, ID: 9, Msg: WatchEvents{Events: EventSet{Events: []registry.WireEvent{
			{Kind: registry.EventAdded, Name: ms[0].Static.Name, Machine: ms[0]},
			{Kind: registry.EventDynamicUpdated, Name: ms[1].Static.Name, Dynamic: ms[1].Dynamic},
			{Kind: registry.EventRemoved, Name: ms[2].Static.Name},
		}}}},
			out: func() any { return &WatchEvents{} }},
		{name: "select-reply-flate", flate: true, env: &Envelope{Type: TypeSelect, ID: 10,
			Msg: SelectReply{Total: 24, Records: RecordSet{Machines: goldenMachines(24)}}},
			out: func() any { return &SelectReply{} }},
	}
}

// goldenHex holds each frame's body as Binary2.AppendEnvelope wrote it
// (binary2+flate for the flate frame) while binary and binary2 were still
// two codecs.
var goldenHex = map[string]string{
	"query": "ac02010103e2a28bed8be1add73106616363742d370101003270756e63682e727372632e61726368203d2073756e2026" +
		"2070756e63682e727372632e646f6d61696e203d207075726475650000",
	"query-reply": "ac0201010001020321617263683a646f6d61696e2c3d3d3a3d3d2f73756e3a70757264756523303a3137056d30303432" +
		"0931302e302e302e3432b06db26d066b2d303034321e617263683a646f6d61696e2c3d3d3a3d3d2f73756e3a70757264" +
		"7565233001aab4f6b485e1add731056d3030343208736861646f773033964e02029a870c",
	"release": "ac0202020206616363742d37010321617263683a646f6d61696e2c3d3d3a3d3d2f73756e3a70757264756523303a3137" +
		"056d303034320931302e302e302e3432b06db26d066b2d303034321e617263683a646f6d61696e2c3d3d3a3d3d2f7375" +
		"6e3a707572647565233001aab4f6b485e1add73101056d3030343208736861646f773033964e",
	"release-reply": "ac020202000104",
	"renew": "ac02030301e2a28bed8be1add731010521617263683a646f6d61696e2c3d3d3a3d3d2f73756e3a70757264756523303a" +
		"3137056d303034320931302e302e302e3432b06db26d066b2d303034321e617263683a646f6d61696e2c3d3d3a3d3d2f" +
		"73756e3a707572647565233001aab4f6b485e1add731",
	"renew-reply":   "ac020303000106",
	"ping":          "ac02040401e2a28bed8be1add731",
	"ping-reply":    "ac02040400",
	"error":         "ac0206050001071a636f72653a206e6f207265736f7572636573206d617463686564",
	"busy":          "ac020004627573790600010c32146f7665722061646d697373696f6e206c696d6974",
	"select":        "ac02000673656c6563740700010d1570756e63682e727372632e61726368203d2073756e800100",
	"select-offset": "ac02000673656c6563740800010d1570756e63682e727372632e61726368203d2073756e8001008002",
	"select-reply": "ac02000673656c6563740700010e0601a4030103f8ff5b0000000000008040000000000000904001808098bf84e1add7" +
		"3103000000000000794004000000000000104000056d3030303000192f70756e63682f6d616368696e65732f6d303030" +
		"302e6f626a00066e6f626f6479b06db26d000831302e302e302e300200087473757072656d3400132f70756e63682f73" +
		"6861646f772f6d303030300500046172636800000373756e0003636d730400077367652c706273020003736765000370" +
		"62730006646f6d61696e00000670757264756500066d656d6f7279030003353132000000000000804086985200000000" +
		"0000d03f0200056d3030303100192f70756e63682f6d616368696e65732f6d303030312e6f626a000831302e302e302e" +
		"3100132f70756e63682f736861646f772f6d303030310507000002687009040a020b0c0d000e0f031000000000000080" +
		"40869852000000000000e03f0400056d3030303200192f70756e63682f6d616368696e65732f6d303030322e6f626a00" +
		"0831302e302e302e3200132f70756e63682f736861646f772f6d303030320507000809040a020b0c0d000e0f03100000" +
		"000000008040",
	"watch-events": "ac02000c77617463682d6576656e74730900010f00900201030100056d3030303001f8ff5b0000000000008040000000" +
		"000000904001808098bf84e1add7310300000000000079400400000000000010400100192f70756e63682f6d61636869" +
		"6e65732f6d303030302e6f626a00066e6f626f6479b06db26d000831302e302e302e300200087473757072656d340013" +
		"2f70756e63682f736861646f772f6d303030300500046172636800000373756e0003636d730400077367652c70627302" +
		"000373676500037062730006646f6d61696e00000670757264756500066d656d6f727903000335313200000000000080" +
		"400400056d30303031013f000000000000d03f020000000000008040000000000000904001808098bf84e1add7310302" +
		"00056d30303032",
	"select-reply-flate": "ac02000673656c6563740a000301811484d44b6ed35014c6f193384e521ea55285047b408dcf499cc7285e0353467958" +
		"7591fc508c8532cb003166d84d202136c01632631a665902120310bebe1657fae869078d22a5ff7b6efc3b9dcba0f3eb" +
		"baf3e2e7ef3754ff1ca2fa0f7d8a3a87c3fdb70f3f3e7f67cfbcb58f7ae6c555447e1a0441402f4745956d9251bada24" +
		"77595c8eeab76ff2f55bea67f93adfeebfa45f531a727053ff7669f8aeac8a5d9c4ee8baf96c99acb6f97bf3499f7aab" +
		"dd2621f2ca2a236f93963d1a94b7f1ab625d76c92b6f63f28a7549fd6d9eaeee32a27e51edb6554cfd344ef3ddde232f" +
		"64a1fa9887e8e3fdebfa151d975d7362c627e6fac4f6948c8ec6fe80a89b1417bd47ddc74f9ed2e533efcafcf37f3aa7" +
		"65cf740477c4e908ea883fa0e18391f3924c648c236327324691b13fa0e70f46889a1b9be0c8c489c02f73a24e72b4d7" +
		"15e248e844423449a84e72b2d735c591a91399a2c8549de46c1fb0198ecc9cc80c4566ea2444cdd335c791b91399a3c8" +
		"5c9de468af6b81230b27b24091853ac9a9b92ec61b84cd06b968b60607a0c2813acab979bc18ab67a3bead20f6fc97bd" +
		"26c570646c9e8df9b682d0b38ede6e30c6e8d9a06f2b483debeaedfe62ac9e8dfab682d8b3cede2e30c6ecd9b06f2bc8" +
		"3debeeed0663ec9e8dfbb682e0b30edfae30c6f0d9c06f2b483eebf2ed0e632c9f8dfcb682e8b34edf2e31c6f4d9d06f" +
		"2bc83eebf6ed16136c5f5cfb82ec8b6edfae31c1f6c5b52fc8bee8f6ed1e136c5f5cfb82ec8b6edfee31c1f6c5b52fc8" +
		"befcd7fe9f000000ffff",
}

// TestFramesByteIdenticalToBinary2 pins the one binary codec to the bytes
// the former binary2 codec wrote for the lease path and the registry
// frames: folding the codecs changed no frame on the wire, and every
// pinned body still decodes to the envelope it was written from.
func TestFramesByteIdenticalToBinary2(t *testing.T) {
	flate, err := Compressed(Binary, AlgoFlate)
	if err != nil {
		t.Fatal(err)
	}
	frames := goldenFrames()
	if len(frames) != len(goldenHex) {
		t.Fatalf("%d golden frames, %d hex literals", len(frames), len(goldenHex))
	}
	for _, g := range frames {
		t.Run(g.name, func(t *testing.T) {
			codec := Binary
			if g.flate {
				codec = flate
			}
			want, err := hex.DecodeString(goldenHex[g.name])
			if err != nil {
				t.Fatal(err)
			}
			got, err := codec.AppendEnvelope(nil, g.env)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s writes\n%x\nwant\n%x", codec.Name(), got, want)
			}
			env, err := codec.DecodeEnvelope(want)
			if err != nil {
				t.Fatal(err)
			}
			if env.Type != g.env.Type || env.ID != g.env.ID || env.From != g.env.From || env.Deadline != g.env.Deadline {
				t.Fatalf("header = %s/%d/%q/%d, want %s/%d/%q/%d", env.Type, env.ID, env.From, env.Deadline,
					g.env.Type, g.env.ID, g.env.From, g.env.Deadline)
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
			if msg := reflect.ValueOf(out).Elem().Interface(); !reflect.DeepEqual(msg, g.env.Msg) {
				t.Errorf("payload decodes to\n%+v\nwant\n%+v", msg, g.env.Msg)
			}
		})
	}
}
