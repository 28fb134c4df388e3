package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"actyp/internal/core"
	"actyp/internal/journal"
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
// A view is the record's struct alone (320 bytes) and a deep copy about
// 1200, so 450 bytes a record tells a pass of views from a Walk; it is
// also under the quarter of a Walk this bar was while a record's
// parameters were a map (462 bytes a record).
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
	if prune > fleet*450 {
		t.Errorf("pruneForeign allocated %d bytes, %d a record, a Walk of the fleet %d: want at most 450 a record", prune, prune/fleet, walk)
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

// snapshotPass pages source the way a journal snapshot does, limit records
// at a time from offset 0, and returns the names in the order served.
func snapshotPass(t *testing.T, source journal.SnapshotSource, limit int, keep func(*registry.Machine) bool) []string {
	t.Helper()
	var names []string
	for offset := 0; ; {
		page, total, err := source(limit, offset)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range page {
			if !keep(m) {
				t.Fatalf("the pass served %s, which the table does not keep", m.Static.Name)
			}
			names = append(names, m.Static.Name)
		}
		offset += len(page)
		if len(page) == 0 || offset >= total {
			return names
		}
	}
}

// TestOwnedSnapshotSource: the daemon's snapshot source serves each record
// it keeps (every record without an ownership table) exactly once a pass,
// in name order, also while the registry churns under it; and a journal
// that snapshots through it during the churn replays, snapshot plus tail,
// to the live registry.
func TestOwnedSnapshotSource(t *testing.T) {
	const fleet, limit = 2000, 300
	static, err := route.ParseStatic("na-0", "upc,purdue=nb-0")
	if err != nil {
		t.Fatal(err)
	}
	owned := route.New("na-0")
	owned.Reload(static, []string{"na-0", "nb-0"})
	for _, tc := range []struct {
		name   string
		routes *route.Table
	}{{"no table", nil}, {"owned domains", owned}} {
		t.Run(tc.name, func(t *testing.T) {
			keep := func(m *registry.Machine) bool { return tc.routes == nil || tc.routes.KeepMachine(m) }
			db := registry.NewDB()
			if err := registry.DefaultFleetSpec(fleet).Populate(db, time.Unix(0, 0)); err != nil {
				t.Fatal(err)
			}
			kept := func() []string {
				var names []string
				db.EachPage(nil, registry.Cursor{Limit: limit, Shared: true}, func(page []*registry.Machine) {
					for _, m := range page {
						if keep(m) {
							names = append(names, m.Static.Name)
						}
					}
				})
				return names
			}
			source := ownedSnapshotSource(db, tc.routes)
			want := kept()
			if got := snapshotPass(t, source, limit, keep); !slices.Equal(got, want) {
				t.Fatalf("a quiescent pass served %d records, want the %d kept, in name order", len(got), len(want))
			}

			// Churn every tenth record: dynamic updates, and removals each
			// followed by the record's return.
			var churned []*registry.Machine
			stable := map[string]bool{}
			for i, name := range db.Names() {
				m, err := db.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				if i%10 == 0 {
					churned = append(churned, m)
				} else if keep(m) {
					stable[name] = true
				}
			}
			jnl, _, err := journal.Open(journal.Config{Dir: t.TempDir(), Fsync: journal.FsyncOff})
			if err != nil {
				t.Fatal(err)
			}
			if err := jnl.Attach(db, ownedSnapshotSource(db, tc.routes), 0); err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 1; ; round++ {
					for i, m := range churned {
						select {
						case <-stop:
							return
						default:
						}
						name := m.Static.Name
						switch (round + i) % 3 {
						case 0:
							if err := db.Remove(name); err == nil {
								if err := db.Add(m); err != nil {
									t.Error(err)
									return
								}
							}
						default:
							if err := db.UpdateDynamic(name, registry.Dynamic{Load: float64(round), LastUpdate: time.Unix(int64(round), 0)}); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}
			}()
			for range 3 {
				got := snapshotPass(t, source, limit, keep)
				seen := 0
				for i, name := range got {
					if i > 0 && name <= got[i-1] {
						t.Fatalf("a pass under churn served %s after %s", name, got[i-1])
					}
					if stable[name] {
						seen++
					}
				}
				if seen != len(stable) {
					t.Fatalf("a pass under churn served %d of the %d stable kept records", seen, len(stable))
				}
				if err := jnl.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			wg.Wait()
			if err := jnl.Flush(); err != nil {
				t.Fatal(err)
			}
			dir := jnl.Dir()
			jnl.Crash()

			reopened, st, err := journal.Open(journal.Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			st.Filter(keep)
			live := map[string]string{}
			for _, name := range kept() {
				m, err := db.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				live[name] = machineJSON(t, m)
			}
			if len(st.Machines) != len(live) {
				t.Fatalf("replay holds %d kept records, the live registry %d", len(st.Machines), len(live))
			}
			for _, m := range st.Machines {
				if got, want := machineJSON(t, m), live[m.Static.Name]; got != want {
					t.Fatalf("replay of %s:\n got  %s\n want %s", m.Static.Name, got, want)
				}
			}
		})
	}
}

// machineJSON is a record's comparable form: JSON drops the monotonic
// clock reading, which replay never restores.
func machineJSON(t *testing.T, m *registry.Machine) string {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
