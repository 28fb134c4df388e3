package core

import (
	"encoding/json"
	"testing"
	"time"

	"actyp/internal/metrics"
	"actyp/internal/netsim"
	"actyp/internal/registry"
	"actyp/internal/wire"
)

// selectCodecs are the negotiation preferences the select tests sweep:
// the JSON floor, the plain binary fast path (delta batches), and the
// compressed variant.
func selectCodecs(t *testing.T) map[string][]wire.Codec {
	t.Helper()
	comp, err := wire.Compressed(wire.Binary, wire.AlgoFlate)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]wire.Codec{
		"json":         {wire.JSON},
		"binary":       {wire.Binary, wire.JSON},
		"binary+flate": {comp, wire.JSON},
	}
}

// TestSelectAcrossCodecs round-trips record batches through every codec
// and checks the decoded records match the database bit-for-bit (JSON
// comparison), in both the delta and the Full oracle encodings.
func TestSelectAcrossCodecs(t *testing.T) {
	const n = 48
	db := registry.NewDB()
	if err := registry.DefaultFleetSpec(n).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	svc, err := New(Options{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	comp, err := wire.Compressed(wire.Binary, wire.AlgoFlate)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeOpts(svc, "127.0.0.1:0", netsim.Local(), wire.ServeOptions{
		Codecs: []wire.Codec{comp, wire.Binary, wire.JSON},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	want, wantTotal, err := svc.SelectMachines("", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if wantTotal != n {
		t.Fatalf("fleet size = %d, want %d", wantTotal, n)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	for name, codecs := range selectCodecs(t) {
		t.Run(name, func(t *testing.T) {
			c, err := DialOpts(srv.Addr(), netsim.Local(), DialConfig{Codecs: codecs})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Ping(); err != nil {
				t.Fatal(err)
			}
			if got := c.CodecName(); got != name {
				t.Fatalf("negotiated %q, want %q", got, name)
			}
			for _, full := range []bool{false, true} {
				ms, total, err := c.Select("", 0, full)
				if err != nil {
					t.Fatalf("full=%v: %v", full, err)
				}
				if total != n || len(ms) != n {
					t.Fatalf("full=%v: got %d/%d records, want %d", full, len(ms), total, n)
				}
				got, err := json.Marshal(ms)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(wantJSON) {
					t.Errorf("full=%v: records differ from database", full)
				}
			}
		})
	}
}

// TestSelectFilterAndLimit checks query filtering and the limit/total
// contract over the negotiated default codec.
func TestSelectFilterAndLimit(t *testing.T) {
	srv, svc := startServer(t, 32, netsim.Local())
	c, err := Dial(srv.Addr(), netsim.Local())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	all, total, err := c.Select("punch.rsrc.arch = sun", 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 || len(all) != total {
		t.Fatalf("uncapped select returned %d/%d", len(all), total)
	}
	for _, m := range all {
		if arch, _ := m.Policy.Params.Get("arch"); arch.Str != "sun" {
			t.Fatalf("machine %s has arch %q", m.Static.Name, arch.Str)
		}
	}
	capped, cappedTotal, err := c.Select("punch.rsrc.arch = sun", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != 1 || cappedTotal != total {
		t.Errorf("limit=1 returned %d records, total %d (want 1, %d)", len(capped), cappedTotal, total)
	}
	if _, _, err := c.Select("not a query", 0, false); err == nil {
		t.Error("malformed query should fail")
	}
	_ = svc
}

// TestSelectWireStats checks both sides account select traffic under the
// negotiated codec name, and that the compressed codec reports fewer
// wire bytes than raw bytes for a fleet-sized reply.
func TestSelectWireStats(t *testing.T) {
	db := registry.NewDB()
	if err := registry.DefaultFleetSpec(64).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	svc, err := New(Options{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	comp, err := wire.Compressed(wire.Binary, wire.AlgoFlate)
	if err != nil {
		t.Fatal(err)
	}
	serverStats := &metrics.WireStats{}
	srv, err := ServeOpts(svc, "127.0.0.1:0", netsim.Local(), wire.ServeOptions{
		// The compressed codec is opt-in on both sides: a server that does
		// not offer it negotiates down to plain binary or JSON.
		Codecs: []wire.Codec{comp, wire.Binary, wire.JSON},
		Stats:  serverStats,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	clientStats := &metrics.WireStats{}
	c, err := DialOpts(srv.Addr(), netsim.Local(), DialConfig{
		Codecs: []wire.Codec{comp, wire.JSON},
		Stats:  clientStats,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.CodecName(); got != "binary+flate" {
		t.Fatalf("negotiated %q, want binary+flate", got)
	}
	if _, _, err := c.Select("", 0, false); err != nil {
		t.Fatal(err)
	}
	// The server accounts a frame after its write returns, which can be
	// after the client has read the reply: wait for its books to close
	// (raw bytes are the last counter a frame updates).
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if serverStats.Snapshot()["binary+flate"].RawOut >= clientStats.Snapshot()["binary+flate"].RawIn {
			break
		}
	}

	for side, stats := range map[string]*metrics.WireStats{"client": clientStats, "server": serverStats} {
		snap := stats.Snapshot()
		wc, ok := snap["binary+flate"]
		if !ok {
			t.Fatalf("%s stats missing binary+flate: %v", side, snap)
		}
		if wc.FramesOut == 0 || wc.FramesIn == 0 || wc.BytesOut == 0 || wc.BytesIn == 0 {
			t.Errorf("%s stats incomplete: %+v", side, wc)
		}
	}
	// The fleet-sized select reply is the compressible direction:
	// server-out (= client-in) raw bytes must exceed wire bytes.
	wc := serverStats.Snapshot()["binary+flate"]
	if wc.RawOut <= wc.BytesOut {
		t.Errorf("select reply did not compress: raw out %d <= wire out %d", wc.RawOut, wc.BytesOut)
	}
}
