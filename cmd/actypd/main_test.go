package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"actyp/internal/core"
	"actyp/internal/metrics"
	"actyp/internal/netsim"
	"actyp/internal/registry"
	"actyp/internal/route"
	"actyp/internal/wire"
)

// allocated reports the bytes fn allocates, by the runtime's own count.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPruneForeignReadsByPage: a partitioned node that booted from a full
// fleet (-db, a journal) drops exactly the records of the domains it does
// not own, and looks at them through pages of views. It used to Walk the
// fleet, a deep copy of every record to read one attribute, which on a
// partitioned node was the boot transient that set the peak resident size.
func TestPruneForeignReadsByPage(t *testing.T) {
	const fleet = 4000
	db := registry.NewDB()
	if err := registry.DefaultFleetSpec(fleet).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	static, err := route.ParseStatic("na-0", "upc,purdue=nb-0")
	if err != nil {
		t.Fatal(err)
	}
	routes := route.New("na-0")
	routes.Reload(static, []string{"na-0", "nb-0"})

	walk := allocated(func() { db.Walk(func(*registry.Machine) bool { return true }) })
	var pruned int
	prune := allocated(func() { pruned = pruneForeign(db, routes) })
	if pruned != fleet/2 || db.Len() != fleet/2 {
		t.Fatalf("pruned %d records and kept %d, want %d and %d", pruned, db.Len(), fleet/2, fleet/2)
	}
	db.Walk(func(m *registry.Machine) bool {
		if d := route.MachineDomain(m); d != "upc" {
			t.Fatalf("%s of domain %q survived the prune", m.Static.Name, d)
		}
		return true
	})
	if prune > walk/4 {
		t.Errorf("pruneForeign allocated %d bytes, a Walk of the fleet %d: want under a quarter", prune, walk)
	}
	t.Logf("pruneForeign %d bytes, Walk %d bytes", prune, walk)
}

// TestRemoteWatchLinkUsesDaemonCodecs: a -remote-watch link offers the
// daemon's -wire-codec preference and accounts its frames in the daemon's
// wire stats, so a daemon started with -wire-codec binary+flate mirrors a
// compressing peer's select and watch batches compressed.
func TestRemoteWatchLinkUsesDaemonCodecs(t *testing.T) {
	const fleet = 64
	src := registry.NewDB()
	if err := registry.DefaultFleetSpec(fleet).Populate(src, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	svc, err := core.New(core.Options{DB: src})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	peerCodecs, err := wire.ParseCodecs("binary+flate,binary,json")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := core.ServeOpts(svc, "127.0.0.1:0", netsim.Local(), wire.ServeOptions{Codecs: peerCodecs})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	codecs, err := wire.ParseCodecs("binary+flate")
	if err != nil {
		t.Fatal(err)
	}
	wireStats := &metrics.WireStats{}
	rep := registry.NewDB()
	rcli, w, err := mirrorRemote(srv.Addr(), rep, netsim.Local(), core.DialConfig{Codecs: codecs, Stats: wireStats}, metrics.NewFederationStats())
	if err != nil {
		t.Fatal(err)
	}
	defer rcli.Close()
	defer w.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.WaitSynced(ctx); err != nil {
		t.Fatal(err)
	}
	if got := rcli.CodecName(); got != "binary+flate" {
		t.Errorf("mirror link negotiated %q, want binary+flate", got)
	}
	if rep.Len() != fleet {
		t.Errorf("replica holds %d records, want %d", rep.Len(), fleet)
	}
	link := wireStats.Snapshot()["binary+flate"]
	if link.FramesIn == 0 || link.BytesIn == 0 {
		t.Fatalf("the link's frames are missing from the daemon's wire stats: %v", wireStats)
	}
	if link.RawIn <= link.BytesIn {
		t.Errorf("baseline select arrived uncompressed: %d raw bytes over %d wire bytes", link.RawIn, link.BytesIn)
	}
}

// TestWindowFlags: -conn-window and -udp-window follow one rule. A value
// below 1 fails run before anything is served, with a message naming 1 as
// the serializing window; an accepted value reaches the wire unchanged
// (1 serializes each connection); and no value is clamped behind the
// operator's back.
func TestWindowFlags(t *testing.T) {
	for _, tc := range []struct {
		name      string
		conn, udp int
		wantErr   string // "" accepts
	}{
		{"conn 0", 0, wire.DefaultWindow, "-conn-window 0"},
		{"conn -1", -1, wire.DefaultWindow, "-conn-window -1"},
		{"udp 0", wire.DefaultWindow, 0, "-udp-window 0"},
		{"udp -1", wire.DefaultWindow, -1, "-udp-window -1"},
		{"1 serializes", 1, 1, ""},
		{"default overlaps", wire.DefaultWindow, wire.DefaultWindow, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := daemonConfig{connWindow: tc.conn, udpWindow: tc.udp}
			if tc.wantErr != "" {
				err := run(cfg)
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), "1 serializes") {
					t.Fatalf("run = %v, want an error naming %q and that 1 serializes", err, tc.wantErr)
				}
				return
			}
			if err := checkWindows(cfg); err != nil {
				t.Fatal(err)
			}
			peak, logged := serveConcurrentPings(t, wire.ServeOptions{Window: cfg.connWindow}, 4)
			if tc.conn == 1 && peak != 1 {
				t.Errorf("window 1 ran %d requests at once, want 1", peak)
			}
			if tc.conn > 1 && peak < 2 {
				t.Errorf("window %d ran %d requests at once, want overlap", tc.conn, peak)
			}
			for _, line := range logged {
				if strings.Contains(line, "clamped") {
					t.Errorf("window %d logged %q", tc.conn, line)
				}
			}
		})
	}
}

// serveConcurrentPings serves opts with a handler that holds each request
// for a moment, sends n concurrent pings on one connection, and reports
// the most requests the handler ran at once and every line opts.Logf saw.
func serveConcurrentPings(t *testing.T, opts wire.ServeOptions, n int) (peak int, logged []string) {
	t.Helper()
	var mu sync.Mutex
	opts.Logf = func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var inFlight atomic.Int32
	srv, err := wire.NewServer(ln, opts, func(env *wire.Envelope) *wire.Envelope {
		now := int(inFlight.Add(1))
		mu.Lock()
		peak = max(peak, now)
		mu.Unlock()
		time.Sleep(20 * time.Millisecond)
		inFlight.Add(-1)
		return &wire.Envelope{Type: wire.TypePing, ID: env.ID}
	})
	if err != nil {
		t.Fatal(err)
	}
	c := wire.NewClient(func() (net.Conn, error) { return net.Dial("tcp", srv.Addr()) }, 5*time.Second)
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Call(wire.TypePing, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	_ = c.Close()
	srv.Close()
	mu.Lock()
	defer mu.Unlock()
	return peak, logged
}
