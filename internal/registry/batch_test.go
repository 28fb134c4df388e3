package registry

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/rand"
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
				Params: query.AttrSet{
					"":     {Str: "empty key"},
					"str":  query.StrAttr("plain"),
					"num":  query.NumAttr(-0.5),
					"list": query.ListAttr("x", "y", "x"),
					"raw":  {Str: "s", Num: 3, IsNum: false, List: []string{}},
				},
			},
			TakenBy: "pool/7",
		},
		{}, // zero record right after a maximal one: every field diffs back
		{
			Static:  Static{Name: "shares-nothing"},
			Dynamic: Dynamic{LastUpdate: time.Unix(0, 12345)},
			Policy:  Policy{Params: query.AttrSet{}},
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
