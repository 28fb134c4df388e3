package journal

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"actyp/internal/query"
	"actyp/internal/registry"
)

// sealedGrantSegment builds a journal directory holding exactly one
// segment of numbered grant records and returns its bytes plus the
// granted lease ids in append order.
func sealedGrantSegment(t testing.TB, grants int) (dir string, seg []byte, ids []string) {
	t.Helper()
	dir = t.TempDir()
	j, _, err := Open(Config{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < grants; i++ {
		id := "torn#0:" + strconv.Itoa(i) + ":key"
		j.LeaseGranted(testLease(id, "m0001"), time.Unix(int64(i), 0))
		ids = append(ids, id)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err = os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	return dir, seg, ids
}

// expectPrefix asserts the replayed leases are exactly the first k
// granted ids for some k — the only shape a torn or damaged tail may
// legally produce.
func expectPrefix(t *testing.T, st *State, ids []string, context string) {
	t.Helper()
	if len(st.Leases) > len(ids) {
		t.Fatalf("%s: %d leases replayed from %d grants", context, len(st.Leases), len(ids))
	}
	got := map[string]bool{}
	for _, lr := range st.Leases {
		got[lr.Lease.ID] = true
	}
	for i, id := range ids {
		if i < len(st.Leases) && !got[id] {
			t.Fatalf("%s: replayed %d leases but grant %d (%s) is missing — not a prefix", context, len(st.Leases), i, id)
		}
		if i >= len(st.Leases) && got[id] {
			t.Fatalf("%s: lease %s replayed past the prefix boundary", context, id)
		}
	}
}

// TestTornTailEveryByte truncates the final segment at every byte offset
// and requires replay to accept the surviving record prefix without
// erroring — the crash contract: a torn tail never takes the log down.
func TestTornTailEveryByte(t *testing.T) {
	_, seg, ids := sealedGrantSegment(t, 8)
	for cut := 0; cut < len(seg); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, next, err := replay(dir, nil, nil)
		if err != nil {
			t.Fatalf("cut %d: replay error: %v", cut, err)
		}
		expectPrefix(t, st, ids, "cut "+strconv.Itoa(cut))
		if cut < len(seg) && st.Torn != 1 {
			// Any truncation strictly inside the file leaves either a short
			// header or a mid-record tail; both must be counted torn.
			// Exception: a cut exactly on a record boundary is clean.
			wantRecords := 0
			if cut >= headerLen {
				wantRecords, _, _ = scanRecords(seg[headerLen:cut], nil)
			}
			if wantRecords != len(st.Leases) {
				t.Fatalf("cut %d: %d leases replayed, scan says %d records survive", cut, len(st.Leases), wantRecords)
			}
		}
		if next < 2 {
			t.Fatalf("cut %d: next segment sequence %d would collide", cut, next)
		}
	}
}

// TestCRCFlipNeverPanics corrupts every byte of the final segment in turn
// and requires replay to survive: the damaged record (and everything
// after it in that segment) is dropped, everything before it replays.
func TestCRCFlipNeverPanics(t *testing.T) {
	_, seg, ids := sealedGrantSegment(t, 8)
	for pos := 0; pos < len(seg); pos++ {
		dir := t.TempDir()
		mut := append([]byte(nil), seg...)
		mut[pos] ^= 0xff
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		st, _, err := replay(dir, nil, nil)
		if err != nil {
			t.Fatalf("flip %d: replay error: %v", pos, err)
		}
		expectPrefix(t, st, ids, "flip "+strconv.Itoa(pos))
		if pos < headerLen && (len(st.Leases) != 0 || st.Torn+st.Corrupt == 0) {
			t.Fatalf("flip %d: damaged header replayed %d leases (torn=%d corrupt=%d)", pos, len(st.Leases), st.Torn, st.Corrupt)
		}
	}
}

// FuzzScanRecords feeds arbitrary bytes to the record scanner, and every
// record it accepts to the decoder replay or snapshot load would hand it
// to. Nothing may panic; the scan stops exactly where its error says, at
// the end when there is none; and the prefix it accepted scans again to
// the same records, cleanly. Seeds: the round-trip stream, the sealed
// grant segment the torn-tail and CRC-flip suites cut and flip (with some
// of those cuts and flips), and a segment and snapshot carrying event and
// machine batches.
func FuzzScanRecords(f *testing.F) {
	var stream []byte
	stream = appendRecord(stream, recEvents, []byte("alpha"))
	stream = appendRecord(stream, recLease, nil)
	stream = appendRecord(stream, recResync, []byte{1, 2, 3})
	f.Add(stream)
	_, seg, _ := sealedGrantSegment(f, 8)
	grants := seg[headerLen:]
	f.Add(grants)
	for i := 0; i < len(grants); i += 1 + len(grants)/16 {
		f.Add(grants[:i])
		flip := append([]byte(nil), grants...)
		flip[i] ^= 0xff
		f.Add(flip)
	}
	dir := f.TempDir()
	db := testFleet(f, 8)
	j, _, err := Open(Config{Dir: dir, Fsync: FsyncOff})
	if err != nil {
		f.Fatal(err)
	}
	if err := j.Attach(db, ViewSource(db, nil), 0); err != nil {
		f.Fatal(err)
	}
	j.LeaseGranted(testLease("l1", "m0001"), time.Unix(900, 0))
	for _, name := range db.Names() {
		if err := db.UpdateDynamic(name, registry.Dynamic{Load: 1, LastUpdate: time.Unix(1, 0)}); err != nil {
			f.Fatal(err)
		}
	}
	if err := db.SetParam("m0002", "owner", query.StrAttr("ops")); err != nil {
		f.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		f.Fatal(err)
	}
	j.Crash()
	for _, name := range []string{segmentName(2), snapshotName(2)} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b[headerLen:])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		db := registry.NewDBWith(registry.NewLocked())
		leases := map[string]LeaseRecord{}
		st := &State{}
		logf := func(string, ...any) {}
		records := 0
		n, off, err := scanRecords(b, func(kind byte, payload []byte) {
			records++
			switch kind {
			case recSnapMachines:
				_, _ = registry.DecodeBatch(payload)
			case recSnapLease:
				_, _ = decodeLeaseOp(payload)
			default:
				applyRecord(db, leases, st, kind, payload, logf)
			}
		})
		if n != records || off < 0 || off > len(b) || (err == nil) != (off == len(b)) {
			t.Fatalf("scan = (%d, %d, %v) after %d records of %d bytes", n, off, err, records, len(b))
		}
		if n2, off2, err2 := scanRecords(b[:off], nil); n2 != n || off2 != off || err2 != nil {
			t.Fatalf("accepted prefix rescans to (%d, %d, %v), want (%d, %d, nil)", n2, off2, err2, n, off)
		}
	})
}

// TestMidLogCorruptionSkipsSegment damages a non-final segment and
// requires replay to skip its tail but keep going: later segments still
// apply, and the damage is counted, not fatal.
func TestMidLogCorruptionSkipsSegment(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(Config{Dir: dir, Fsync: FsyncAlways, SegmentBytes: 1}) // rotate after every record
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 4; i++ {
		id := "mid#0:" + strconv.Itoa(i) + ":key"
		j.LeaseGranted(testLease(id, "m0001"), time.Unix(int64(i), 0))
		ids = append(ids, id)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) < 3 {
		t.Fatalf("wanted multiple segments, got %v", segs)
	}

	// Flip one payload byte in the FIRST segment's record.
	first := filepath.Join(dir, segmentName(segs[0]))
	b, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	b[headerLen+4] ^= 0xff
	if err := os.WriteFile(first, b, 0o644); err != nil {
		t.Fatal(err)
	}

	st, _, err := replay(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Corrupt == 0 {
		t.Error("mid-log damage not counted as corrupt")
	}
	got := map[string]bool{}
	for _, lr := range st.Leases {
		got[lr.Lease.ID] = true
	}
	if got[ids[0]] {
		t.Error("damaged record replayed anyway")
	}
	for _, id := range ids[1:] {
		if !got[id] {
			t.Errorf("lease %s from a later segment lost to earlier damage", id)
		}
	}
}

// TestDuplicateReplayIdempotent replays a log whose newest segment was
// duplicated wholesale (sequence rewritten) and requires the result to
// match the unduplicated replay: event application and lease ops are
// idempotent, so at-least-once delivery is safe.
func TestDuplicateReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	db := testFleet(t, 16)
	j, _, err := Open(Config{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Attach(db, dbSource(db), 0); err != nil {
		t.Fatal(err)
	}
	names := db.Names()
	for i, name := range names {
		if err := db.UpdateDynamic(name, registry.Dynamic{Load: float64(i), LastUpdate: time.Unix(int64(i), 0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.SetState(names[0], registry.StateBlocked); err != nil {
		t.Fatal(err)
	}
	j.LeaseGranted(testLease("dup#0:1:k", names[1]), time.Unix(50, 0))
	j.LeaseGranted(testLease("dup#0:2:k", names[2]), time.Unix(50, 0))
	j.LeaseReleased("dup#0:1:k")
	j.LeaseRenewed("dup#0:2:k", time.Unix(99, 0))
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	j.Crash()

	base, _, err := replay(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	segs, _ := listSegments(dir)
	last := segs[len(segs)-1]
	b, err := os.ReadFile(filepath.Join(dir, segmentName(last)))
	if err != nil {
		t.Fatal(err)
	}
	dupSeq := last + 1
	dup := append([]byte(nil), b...)
	binary.LittleEndian.PutUint64(dup[8:16], dupSeq)
	if err := os.WriteFile(filepath.Join(dir, segmentName(dupSeq)), dup, 0o644); err != nil {
		t.Fatal(err)
	}

	st, _, err := replay(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameMachines(t, st.Machines, base.Machines)
	if len(st.Leases) != len(base.Leases) {
		t.Fatalf("leases after duplication = %d, want %d", len(st.Leases), len(base.Leases))
	}
	for i := range st.Leases {
		if st.Leases[i].Lease.ID != base.Leases[i].Lease.ID || !st.Leases[i].Expires.Equal(base.Leases[i].Expires) {
			t.Errorf("lease %d = %+v, want %+v", i, st.Leases[i], base.Leases[i])
		}
	}
}

// TestRandomizedDifferentialVsOracle drives a journaled registry through
// a random mutation schedule (rotations and mid-run snapshots included),
// crashes it, and requires the replay to equal the never-restarted live
// registry — the oracle that saw every mutation first-hand.
func TestRandomizedDifferentialVsOracle(t *testing.T) {
	const ops = 400
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	db := testFleet(t, 24)
	j, _, err := Open(Config{Dir: dir, Fsync: FsyncInterval, FsyncInterval: 5 * time.Millisecond, SegmentBytes: 8 << 10, SnapshotPage: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Attach(db, dbSource(db), 0); err != nil {
		t.Fatal(err)
	}
	q, err := query.ParseBasic("punch.rsrc.arch = sun")
	if err != nil {
		t.Fatal(err)
	}

	added := 0
	for i := 0; i < ops; i++ {
		names := db.Names()
		name := names[rng.Intn(len(names))]
		switch rng.Intn(10) {
		case 0:
			db.SetState(name, registry.State(rng.Intn(3)))
		case 1, 2, 3:
			db.UpdateDynamic(name, registry.Dynamic{
				Load:       rng.Float64() * 8,
				ActiveJobs: rng.Intn(5),
				FreeMemory: float64(rng.Intn(4096)),
				LastUpdate: time.Unix(int64(i), 0),
			})
		case 4:
			db.SetParam(name, "owner", query.StrAttr("grp"+strconv.Itoa(rng.Intn(4))))
		case 5:
			if len(names) > 8 {
				db.Remove(name)
			}
		case 6:
			m := dbMachines(db)[0].Clone()
			m.Static.Name = "zz-add-" + strconv.Itoa(added)
			m.TakenBy = ""
			added++
			db.Add(m)
		case 7:
			db.Take(q, "diff/pool#0", 1+rng.Intn(2))
		case 8:
			db.ReleaseAll("diff/pool#0")
		case 9:
			if rng.Intn(4) == 0 {
				if err := j.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	j.Crash()

	st, _, err := replay(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Resyncs != 0 {
		t.Fatalf("watch ring overflowed %d times; buffer sizing is broken for this load", st.Resyncs)
	}
	sameMachines(t, st.Machines, dbMachines(db))
}
