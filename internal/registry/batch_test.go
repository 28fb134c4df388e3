package registry

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"actyp/internal/query"
)

// batchCorpus builds the differential corpus: empty batch, single record,
// all-identical fleet, generated heterogeneous fleet, and adversarially
// divergent records where every field differs from its neighbour.
func batchCorpus(t *testing.T) map[string][]*Machine {
	t.Helper()
	now := time.Unix(0, 1723100000000000000)
	hetero, err := DefaultFleetSpec(64).Build(now)
	if err != nil {
		t.Fatalf("build fleet: %v", err)
	}
	homo, err := HomogeneousFleetSpec(64).Build(now)
	if err != nil {
		t.Fatalf("build fleet: %v", err)
	}
	divergent := []*Machine{
		{
			State: StateDown,
			Dynamic: Dynamic{
				Load: -1.5, ActiveJobs: -3, FreeMemory: 0.25, FreeSwap: 1e18,
				LastUpdate: time.Unix(0, -12345), ServiceFlag: 0xFFFFFFFF,
			},
			Static: Static{Speed: 1e-9, CPUs: 1 << 30, MaxLoad: 7.25, Name: "weird-\x00-name"},
			Access: Access{ObjectRef: "日本語/パス", SharedAccount: "", ExecUnitPort: 65535, MountMgrPort: -1, Addr: "::1"},
			Policy: Policy{
				UserGroups:    []string{},
				ToolGroups:    []string{"a", "a", "a"},
				ShadowPoolRef: "ref",
				UsagePolicy:   "policy-прог",
				Params: query.NewParams(
					query.Param{Key: "", Attr: query.Attr{Str: "empty key"}},
					query.Param{Key: "str", Attr: query.StrAttr("plain")},
					query.Param{Key: "num", Attr: query.NumAttr(-0.5)},
					query.Param{Key: "list", Attr: query.ListAttr("x", "y", "x")},
					query.Param{Key: "raw", Attr: query.Attr{Str: "s", Num: 3, IsNum: false, List: []string{}}},
				),
			},
			TakenBy: "pool/7",
		},
		{}, // zero record right after a maximal one: every field diffs back
		{
			Static:  Static{Name: "shares-nothing"},
			Dynamic: Dynamic{LastUpdate: time.Unix(0, 12345)},
			Policy:  Policy{Params: query.Params{}},
		},
	}
	return map[string][]*Machine{
		"empty":      {},
		"single":     hetero[:1],
		"identical":  {homo[0], homo[0], homo[0], homo[0]},
		"homo":       homo,
		"hetero":     hetero,
		"divergent":  divergent,
		"mixed":      append(append([]*Machine{}, hetero[:8]...), divergent...),
		"zero-first": {{}, hetero[0], {}},
	}
}

// TestBatchDifferential is the oracle test: a decoded delta batch must
// reproduce records that marshal bit-for-bit identically to the full
// per-record (JSON) encoding of the originals.
func TestBatchDifferential(t *testing.T) {
	for name, ms := range batchCorpus(t) {
		t.Run(name, func(t *testing.T) {
			enc := AppendBatch(nil, ms)
			dec, err := DecodeBatch(enc)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if len(dec) != len(ms) {
				t.Fatalf("decoded %d records, want %d", len(dec), len(ms))
			}
			for i := range ms {
				want, err := json.Marshal(ms[i])
				if err != nil {
					t.Fatalf("record %d: marshal original: %v", i, err)
				}
				got, err := json.Marshal(dec[i])
				if err != nil {
					t.Fatalf("record %d: marshal decoded: %v", i, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("record %d: decoded full encoding differs\n got %s\nwant %s", i, got, want)
				}
			}
			// The encoding is canonical: re-encoding the decode reproduces
			// the same bytes.
			if re := AppendBatch(nil, dec); !bytes.Equal(re, enc) {
				t.Errorf("re-encode differs: %d vs %d bytes", len(re), len(enc))
			}
		})
	}
}

// TestBatchSmallerThanFull checks the point of the exercise: a fleet batch
// encodes well below its full per-record JSON size.
func TestBatchSmallerThanFull(t *testing.T) {
	now := time.Unix(0, 1723100000000000000)
	ms, err := DefaultFleetSpec(100).Build(now)
	if err != nil {
		t.Fatalf("build fleet: %v", err)
	}
	full, err := json.Marshal(ms)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	delta := AppendBatch(nil, ms)
	if len(delta)*4 > len(full) {
		t.Errorf("delta batch %dB not under 1/4 of full %dB", len(delta), len(full))
	}
}

// TestBatchReusesDictionary pins the encoders' recycled dictionary: a
// snapshot writes its fleet in 2048-record pages, and once the first page
// has grown the dictionary, the second allocates nothing at all. With a
// fresh map per batch every page paid for growing it again.
func TestBatchReusesDictionary(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled encoders at random")
	}
	const page = 2048
	ms, err := DefaultFleetSpec(2 * page).Build(time.Unix(0, 1723100000000000000))
	if err != nil {
		t.Fatal(err)
	}
	buf := AppendBatch(nil, ms[:page])
	second := AppendBatch(nil, ms[page:])
	buf = make([]byte, 0, 2*max(len(buf), len(second)))
	if n := testing.AllocsPerRun(10, func() { buf = AppendBatch(buf[:0], ms[page:]) }); n != 0 {
		t.Errorf("encoding a second %d-record page: %.0f allocations, want 0", page, n)
	}
	if !bytes.Equal(buf, second) {
		t.Error("a recycled encoder wrote different bytes")
	}
	evs := make([]WireEvent, page)
	for i, m := range ms[page:] {
		evs[i] = WireEvent{Kind: EventAdded, Name: m.Static.Name, Machine: m}
	}
	buf = AppendEventBatch(buf[:0], evs)
	if n := testing.AllocsPerRun(10, func() { buf = AppendEventBatch(buf[:0], evs) }); n != 0 {
		t.Errorf("encoding a %d-event batch: %.0f allocations, want 0", page, n)
	}
}

// TestBatchTruncation feeds every proper prefix of a valid batch to the
// decoder: all must fail cleanly (no panic, no success).
func TestBatchTruncation(t *testing.T) {
	now := time.Unix(0, 1723100000000000000)
	ms, err := DefaultFleetSpec(8).Build(now)
	if err != nil {
		t.Fatalf("build fleet: %v", err)
	}
	enc := AppendBatch(nil, ms)
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeBatch(enc[:i]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", i, len(enc))
		}
	}
}

// TestBatchCorruption flips bytes (including dictionary tokens and
// lengths) and requires the decoder to survive without panicking or
// over-allocating; errors are expected, silent success on lucky flips is
// acceptable.
func TestBatchCorruption(t *testing.T) {
	now := time.Unix(0, 1723100000000000000)
	ms, err := DefaultFleetSpec(16).Build(now)
	if err != nil {
		t.Fatalf("build fleet: %v", err)
	}
	enc := AppendBatch(nil, ms)
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 2000; round++ {
		mut := append([]byte(nil), enc...)
		for flips := 1 + rng.Intn(4); flips > 0; flips-- {
			mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		}
		_, _ = DecodeBatch(mut) // must not panic
	}
}

// TestBatchBadInputs covers the headline rejects directly.
func TestBatchBadInputs(t *testing.T) {
	if _, err := DecodeBatch(nil); err == nil {
		t.Error("nil input should fail")
	}
	if _, err := DecodeBatch([]byte{0x7F, 0x00}); err == nil {
		t.Error("unknown version should fail")
	}
	// Claimed record count far past the available bytes must be rejected
	// before allocation.
	if _, err := DecodeBatch([]byte{batchVersion, 0xFF, 0xFF, 0xFF, 0xFF, 0x07}); err == nil {
		t.Error("oversized record count should fail")
	}
	// Trailing garbage after a well-formed batch.
	enc := AppendBatch(nil, []*Machine{{Static: Static{Name: "m"}}})
	if _, err := DecodeBatch(append(enc, 0x00)); err == nil {
		t.Error("trailing bytes should fail")
	}
}

// TestDecodeCarryIsLinear: a record that changes nothing costs one byte,
// and carries over every list and parameter of the record before it. The
// decoders used to copy what a record carried, so a few kilobytes of such
// records claimed tens of megabytes (63 MB for this 4 KB batch); they now
// share it, and allocate in proportion to the input.
func TestDecodeCarryIsLinear(t *testing.T) {
	const carried, records = 2000, 2000
	groups := binary.AppendUvarint(nil, batchUserGroups)
	groups = binary.AppendUvarint(groups, carried+1)
	groups = append(groups, 0, 1, 'g') // a new dictionary entry, then references to it
	for i := 1; i < carried; i++ {
		groups = append(groups, 1)
	}
	params := binary.AppendUvarint(nil, batchParams)
	params = binary.AppendUvarint(params, carried+1)
	for i := range carried {
		key := strconv.Itoa(i)
		params = append(params, 0, byte(len(key)))
		params = append(params, key...)
		params = append(params, 0, 1) // attr flags, then the string token of dictionary entry 0
	}
	for name, first := range map[string][]byte{"groups": groups, "params": params} {
		batch := binary.AppendUvarint([]byte{batchVersion}, records)
		batch = append(batch, first...)
		events := binary.AppendUvarint([]byte{eventBatchVersion}, records)
		events = append(events, byte(EventAdded), 0, 1, 'm', 1)
		events = append(events, first...)
		for range records - 1 {
			batch = append(batch, 0)
			events = append(events, byte(EventAdded), 1, 1, 0)
		}
		for _, tc := range []struct {
			decoder string
			in      []byte
			decode  func([]byte) (int, error)
		}{
			{"DecodeBatch", batch, func(b []byte) (int, error) { ms, err := DecodeBatch(b); return len(ms), err }},
			{"DecodeEventBatch", events, func(b []byte) (int, error) { evs, err := DecodeEventBatch(b); return len(evs), err }},
		} {
			var n int
			var err error
			_, bytes := perRun(1, func() { n, err = tc.decode(tc.in) })
			if err != nil || n != records {
				t.Fatalf("%s of %s: %d records, %v", tc.decoder, name, n, err)
			}
			t.Logf("%s of %s: %d input bytes, %.0f allocated", tc.decoder, name, len(tc.in), bytes)
			if bytes > 1024*float64(len(tc.in)) {
				t.Errorf("%s of %s: %d input bytes allocated %.0f, want under 1 KB an input byte", tc.decoder, name, len(tc.in), bytes)
			}
		}
	}
}

// TestPriorEncodingsDecode holds the record formats to the bytes written
// while Params was a map. testdata holds a record batch of
// batchCorpus(t)["mixed"] and the JSON snapshot of a Locked database that
// priorSnapshotDB builds. Both decode to the records built the same way
// today, and those encode to the same bytes.
func TestPriorEncodingsDecode(t *testing.T) {
	batch, err := os.ReadFile("testdata/batch_map_params.bin")
	if err != nil {
		t.Fatal(err)
	}
	want := batchCorpus(t)["mixed"]
	got, err := DecodeBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("batch decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !machineEqual(got[i], want[i]) {
			t.Errorf("batch record %d decoded as\n%+v, want\n%+v", i, got[i], want[i])
		}
	}
	if re := AppendBatch(nil, want); !bytes.Equal(re, batch) {
		t.Errorf("the batch encodes to other bytes (%d, was %d)", len(re), len(batch))
	}

	snap, err := os.ReadFile("testdata/snapshot_map_params.json")
	if err != nil {
		t.Fatal(err)
	}
	ref := priorSnapshotDB(t)
	var out bytes.Buffer
	if err := ref.Save(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), snap) {
		t.Errorf("the snapshot's database saves to other bytes (%d, was %d)", out.Len(), len(snap))
	}
	for _, kind := range []string{BackendLocked, BackendSharded} {
		b, err := OpenBackend(kind, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Load(bytes.NewReader(snap)); err != nil {
			t.Fatal(err)
		}
		for _, name := range ref.Names() {
			w, _ := ref.Get(name)
			m, err := b.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			// JSON keeps the instant, not the location.
			m.Dynamic.LastUpdate = m.Dynamic.LastUpdate.In(w.Dynamic.LastUpdate.Location())
			if !machineEqual(m, w) {
				t.Errorf("%s: snapshot record %s loaded as\n%+v, want\n%+v", kind, name, m, w)
			}
		}
	}
}

// priorSnapshotDB builds the database of testdata/snapshot_map_params.json:
// a six-machine default fleet at the batch corpus's instant beside three
// testMachine records added by copy. "weird" is then given four parameters
// by SetParam (an empty key, a key JSON escapes with a list value, a
// number, a non-ASCII key with a numeric string); "nilp" is added with nil
// Params and "empty" with empty ones, which the copy on Add makes the
// same.
func priorSnapshotDB(t *testing.T) *DB {
	t.Helper()
	db := NewDBWith(NewLocked())
	if err := DefaultFleetSpec(6).Populate(db, time.Unix(0, 1723100000000000000)); err != nil {
		t.Fatal(err)
	}
	weird, nilp, empty := testMachine("weird"), testMachine("nilp"), testMachine("empty")
	nilp.Policy.Params = nil
	empty.Policy.Params = query.Params{}
	for _, m := range []*Machine{weird, nilp, empty} {
		if err := db.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, set := range []struct {
		key  string
		attr query.Attr
	}{{"", query.StrAttr("empty key")}, {"a<b>&c", query.ListAttr("x", "<y>")}, {"num", query.NumAttr(-0.5)}, {"ünï\"", query.StrAttr("128")}} {
		if err := db.SetParam("weird", set.key, set.attr); err != nil {
			t.Fatal(err)
		}
	}
	return db
}
