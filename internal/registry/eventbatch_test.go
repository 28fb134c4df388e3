package registry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"actyp/internal/query"
)

func mustParseBasic(t *testing.T, text string) *query.Query {
	t.Helper()
	q, err := query.ParseBasic(text)
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	return q
}

// eventCorpus builds one batch exercising every payload shape: record
// snapshots (diffed), dynamic-only updates (diffed), removals, vanished
// snapshots, and filtered dynamic upgrades.
func eventCorpus(t testing.TB) []WireEvent {
	t.Helper()
	fleet, err := DefaultFleetSpec(6).Build(time.Unix(0, 1723100000000000000))
	if err != nil {
		t.Fatalf("build fleet: %v", err)
	}
	d := Dynamic{Load: 1.25, ActiveJobs: 3, FreeMemory: 128, FreeSwap: 4096,
		LastUpdate: time.Unix(2000, 0), ServiceFlag: 3}
	d2 := d
	d2.Load = 2.5 // near-identical: exercises the dynamic diff mask
	return []WireEvent{
		{Kind: EventAdded, Name: fleet[0].Static.Name, Machine: fleet[0]},
		{Kind: EventDynamicUpdated, Name: fleet[1].Static.Name, Dynamic: d},
		{Kind: EventDynamicUpdated, Name: fleet[1].Static.Name, Dynamic: d2},
		{Kind: EventRemoved, Name: fleet[2].Static.Name},
		{Kind: EventTaken, Name: fleet[3].Static.Name, Machine: fleet[3]},
		{Kind: EventStateSet, Name: "vanished"}, // nil snapshot: removal hint
		// Filtered stream shape: a dynamic event upgraded to a snapshot.
		{Kind: EventDynamicUpdated, Name: fleet[4].Static.Name, Machine: fleet[4], Dynamic: fleet[4].Dynamic},
		{Kind: EventReleased, Name: fleet[3].Static.Name, Machine: fleet[3]},
		{Kind: EventParamSet, Name: fleet[5].Static.Name, Machine: fleet[5]},
	}
}

func TestEventBatchRoundTrip(t *testing.T) {
	evs := eventCorpus(t)
	enc := AppendEventBatch(nil, evs)
	dec, err := DecodeEventBatch(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	want, _ := json.Marshal(evs)
	got, _ := json.Marshal(dec)
	if !bytes.Equal(want, got) {
		t.Fatalf("round trip mismatch:\nwant %s\ngot  %s", want, got)
	}
	// A monitor-sweep burst must encode near the diff, not the event: the
	// same dynamic payload repeated should cost a few bytes per event.
	burst := make([]WireEvent, 256)
	for i := range burst {
		burst[i] = WireEvent{Kind: EventDynamicUpdated, Name: fmt.Sprintf("m%04d", i),
			Dynamic: Dynamic{Load: 0.5, FreeMemory: 512, LastUpdate: time.Unix(3000, 0)}}
	}
	if n := len(AppendEventBatch(nil, burst)); n > 14*len(burst) {
		t.Errorf("dynamic burst encoded to %d bytes (%d/event); diffing is broken", n, n/len(burst))
	}
}

func TestEventBatchEmpty(t *testing.T) {
	dec, err := DecodeEventBatch(AppendEventBatch(nil, nil))
	if err != nil || len(dec) != 0 {
		t.Fatalf("empty batch: %v events, err %v", len(dec), err)
	}
}

// TestEventBatchTruncationAndCorruption proves the decoder fails cleanly —
// never panics — on every truncation prefix, trailing garbage, and random
// single-byte corruption.
func TestEventBatchTruncationAndCorruption(t *testing.T) {
	enc := AppendEventBatch(nil, eventCorpus(t))
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeEventBatch(enc[:i]); err == nil {
			t.Fatalf("truncation at %d/%d decoded without error", i, len(enc))
		}
	}
	if _, err := DecodeEventBatch(append(append([]byte{}, enc...), 0xFF)); err == nil {
		t.Fatal("trailing garbage decoded without error")
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		corrupt := append([]byte{}, enc...)
		corrupt[rng.Intn(len(corrupt))] ^= byte(1 + rng.Intn(255))
		_, _ = DecodeEventBatch(corrupt) // must not panic; error optional
	}
}

// drainEvents polls the subscription empty and resolves what it saw.
func drainEvents(t *testing.T, b Backend, sub *Subscription, conds []query.RsrcCond) []WireEvent {
	t.Helper()
	evs, resync := sub.Poll()
	if resync {
		t.Fatal("unexpected resync")
	}
	return ResolveEvents(b, evs, conds)
}

func backendsEqual(t *testing.T, want, got Backend) {
	t.Helper()
	wantNames, gotNames := want.Names(), got.Names()
	if len(wantNames) != len(gotNames) {
		t.Fatalf("record count: want %d, got %d (%v vs %v)", len(wantNames), len(gotNames), wantNames, gotNames)
	}
	for _, name := range wantNames {
		w, err := want.Get(name)
		if err != nil {
			t.Fatalf("source lost %s: %v", name, err)
		}
		g, err := got.Get(name)
		if err != nil {
			t.Fatalf("replica missing %s", name)
		}
		if !machineEqual(w, g) {
			t.Fatalf("replica diverged on %s:\nwant %+v\ngot  %+v", name, w, g)
		}
	}
}

// TestWireEventsReplicaDifferential is the oracle test for the watch fast
// path: a replica fed exclusively by encoded wire-event batches must end
// bit-equal (per machineEqual, TakenBy included) to the source registry
// after a workload touching every mutation kind.
func TestWireEventsReplicaDifferential(t *testing.T) {
	for kind, mk := range watchBackends() {
		t.Run(kind, func(t *testing.T) {
			src, rep := mk(), mk()
			sub := src.Watch(4096)
			defer sub.Close()

			apply := func() {
				wevs := drainEvents(t, src, sub, nil)
				enc := AppendEventBatch(nil, wevs)
				dec, err := DecodeEventBatch(enc)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				ApplyWireEvents(rep, dec)
			}

			fleet, err := DefaultFleetSpec(32).Build(time.Unix(0, 1723100000000000000))
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range fleet {
				if err := src.Add(m); err != nil {
					t.Fatal(err)
				}
			}
			apply()
			backendsEqual(t, src, rep)

			// Monitor sweep + state churn + take/release + removal.
			for i, m := range fleet {
				name := m.Static.Name
				_ = src.UpdateDynamic(name, Dynamic{Load: float64(i), ActiveJobs: i,
					FreeMemory: 64, LastUpdate: time.Unix(int64(4000+i), 0)})
				if i%5 == 0 {
					_ = src.SetState(name, StateDown)
				}
				if i%7 == 0 {
					_ = src.SetParam(name, "tag", query.StrAttr("hot"))
				}
			}
			q := mustParseBasic(t, "")
			src.Take(q, "pool#x", 5)
			_ = src.Remove(fleet[3].Static.Name)
			apply()
			backendsEqual(t, src, rep)

			src.ReleaseAll("pool#x")
			_ = src.Add(testMachine("late-join"))
			apply()
			backendsEqual(t, src, rep)
		})
	}
}

// TestResolveEventsFilter proves per-subscription filtering: matching
// records pass whole (dynamic updates upgraded to snapshots), records
// outside the filter pass as removals, and a record whose mutation moves
// it INTO the filter arrives complete.
func TestResolveEventsFilter(t *testing.T) {
	b := NewLocked()
	sun := testMachine("sun-box")
	hp := testMachine("hp-box")
	hp.Policy.Params = hp.Policy.Params.With("arch", query.StrAttr("hp"))
	if err := b.Add(sun); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(hp); err != nil {
		t.Fatal(err)
	}
	conds := query.CompileRsrc(mustParseBasic(t, "punch.rsrc.arch = sun"))
	sub := b.Watch(64)
	defer sub.Close()

	_ = b.UpdateDynamic("sun-box", Dynamic{Load: 9})
	_ = b.UpdateDynamic("hp-box", Dynamic{Load: 9})
	wevs := drainEvents(t, b, sub, conds)
	if len(wevs) != 2 {
		t.Fatalf("got %d events, want 2", len(wevs))
	}
	for _, ev := range wevs {
		switch ev.Name {
		case "sun-box":
			if ev.Kind != EventDynamicUpdated || ev.Machine == nil {
				t.Fatalf("matching dynamic update should carry a full snapshot, got %+v", ev)
			}
		case "hp-box":
			if ev.Kind != EventRemoved {
				t.Fatalf("non-matching record should pass as removal, got %+v", ev)
			}
		}
	}

	// hp-box mutates INTO the filter: the event must arrive whole.
	_ = b.SetParam("hp-box", "arch", query.StrAttr("sun"))
	wevs = drainEvents(t, b, sub, conds)
	if len(wevs) != 1 || wevs[0].Machine == nil || param(wevs[0].Machine, "arch").Str != "sun" {
		t.Fatalf("record entering the filter should arrive whole, got %+v", wevs)
	}

	// Applied to a replica, the filtered stream tracks the filtered view.
	rep := NewLocked()
	_ = rep.Add(hp) // stale pre-filter copy; the snapshot must replace it
	ApplyWireEvents(rep, wevs)
	got, err := rep.Get("hp-box")
	if err != nil || param(got, "arch").Str != "sun" {
		t.Fatalf("replica did not adopt the upgraded snapshot: %+v, %v", got, err)
	}
}

func TestReconcileSnapshot(t *testing.T) {
	rep := NewLocked()
	_ = rep.Add(testMachine("stale"))
	_ = rep.Add(testMachine("keep"))
	fresh := testMachine("keep")
	fresh.Dynamic.Load = 7.5
	incoming := []*Machine{fresh, testMachine("new")}

	if changed := ReconcileSnapshot(rep, incoming); changed != 3 {
		t.Fatalf("changed = %d, want 3 (remove stale, update keep, add new)", changed)
	}
	if _, err := rep.Get("stale"); err == nil {
		t.Fatal("stale record survived reconcile")
	}
	if got, _ := rep.Get("keep"); got == nil || got.Dynamic.Load != 7.5 {
		t.Fatalf("keep not updated: %+v", got)
	}
	if _, err := rep.Get("new"); err != nil {
		t.Fatal("new record missing after reconcile")
	}
	// Idempotent: a second identical snapshot changes nothing.
	if changed := ReconcileSnapshot(rep, incoming); changed != 0 {
		t.Fatalf("idempotent reconcile changed %d records", changed)
	}
}

// perRun runs fn once to warm up, then reps times, and reports the
// allocations and bytes allocated per run.
func perRun(reps int, fn func()) (allocs, bytes float64) {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range reps {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(reps), float64(after.TotalAlloc-before.TotalAlloc) / float64(reps)
}

// TestResolveEventsAllocs pins what the journal's drain pays to resolve
// one monitor sweep of a 10k fleet: unfiltered dynamic updates, whose
// existence check copies nothing, so the one result slice is all. It
// deep-cloned every record and threw the clone away, 8 allocations and
// 1881 bytes an event; then it read a view, one header copy, 1 allocation
// and 385 bytes.
func TestResolveEventsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const fleet = 10000
	db := NewDB()
	if err := DefaultFleetSpec(fleet).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	sub := db.Watch(2 * fleet)
	defer sub.Close()
	for _, st := range db.Statuses(nil) {
		st.Dynamic.Load++
		if err := db.UpdateDynamic(st.Name, st.Dynamic); err != nil {
			t.Fatal(err)
		}
	}
	evs, resync := sub.Poll()
	if resync || len(evs) != fleet {
		t.Fatalf("polled %d events (resync %v), want %d", len(evs), resync, fleet)
	}
	var wire []WireEvent
	allocs, bytes := perRun(5, func() { wire = ResolveEvents(db, evs, nil) })
	for i, w := range wire {
		if w.Kind != EventDynamicUpdated || w.Machine != nil || w.Dynamic != evs[i].Dynamic {
			t.Fatalf("event %d resolved to %+v", i, w)
		}
	}
	t.Logf("ResolveEvents: %.0f allocations and %.0f bytes an event", allocs/fleet, bytes/fleet)
	if allocs > 1 || bytes > 128*fleet {
		t.Errorf("ResolveEvents of %d events costs %.0f allocations and %.0f bytes, want the result slice alone, at most 128 bytes an event",
			fleet, allocs, bytes)
	}
}

// FuzzDecodeEventBatch feeds arbitrary bytes to both batch decoders the
// journal reads from disk: the event batch of a segment and the record
// batch of a snapshot page. Neither may panic, and whatever one accepts
// must re-encode to a batch it decodes again, to the same bytes.
func FuzzDecodeEventBatch(f *testing.F) {
	evs := eventCorpus(f)
	events := AppendEventBatch(nil, evs)
	fleet, err := DefaultFleetSpec(16).Build(time.Unix(0, 1723100000000000000))
	if err != nil {
		f.Fatal(err)
	}
	records := AppendBatch(nil, fleet)
	for _, seed := range [][]byte{events, records, AppendEventBatch(nil, nil), AppendBatch(nil, nil)} {
		f.Add(seed)
		for cut := 1; cut < len(seed); cut += 1 + len(seed)/16 {
			f.Add(seed[:cut])
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if dec, err := DecodeEventBatch(b); err == nil {
			enc := AppendEventBatch(nil, dec)
			again, err := DecodeEventBatch(enc)
			if err != nil {
				t.Fatalf("re-encoded event batch does not decode: %v", err)
			}
			if enc2 := AppendEventBatch(nil, again); !bytes.Equal(enc, enc2) {
				t.Fatalf("event batch re-encodes unstably:\n%x\n%x", enc, enc2)
			}
		}
		if dec, err := DecodeBatch(b); err == nil {
			enc := AppendBatch(nil, dec)
			again, err := DecodeBatch(enc)
			if err != nil {
				t.Fatalf("re-encoded record batch does not decode: %v", err)
			}
			if enc2 := AppendBatch(nil, again); !bytes.Equal(enc, enc2) {
				t.Fatalf("record batch re-encodes unstably:\n%x\n%x", enc, enc2)
			}
		}
	})
}
