package journal

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"actyp/internal/pool"
	"actyp/internal/query"
	"actyp/internal/registry"
)

func testFleet(t testing.TB, n int) *registry.DB {
	t.Helper()
	db := registry.NewDB()
	if err := registry.DefaultFleetSpec(n).Populate(db, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	return db
}

// dbSource pages a test registry the way core.Service.SelectMachines
// does: name order, offset window, total count.
func dbSource(db *registry.DB) SnapshotSource {
	return func(limit, offset int) ([]*registry.Machine, int, error) {
		all := dbMachines(db)
		total := len(all)
		if offset > total {
			offset = total
		}
		page := all[offset:]
		if limit > 0 && len(page) > limit {
			page = page[:limit]
		}
		return page, total, nil
	}
}

func dbMachines(db *registry.DB) []*registry.Machine {
	var ms []*registry.Machine
	db.Walk(func(m *registry.Machine) bool {
		ms = append(ms, m)
		return true
	})
	return ms
}

// machineJSON flattens machine records to a comparable form. JSON
// marshalling strips monotonic clock readings, which replay (unix-nano
// round trip) never preserves.
func machineJSON(t testing.TB, ms []*registry.Machine) map[string]string {
	t.Helper()
	out := make(map[string]string, len(ms))
	for _, m := range ms {
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		out[m.Static.Name] = string(b)
	}
	return out
}

func sameMachines(t *testing.T, got, want []*registry.Machine) {
	t.Helper()
	gm, wm := machineJSON(t, got), machineJSON(t, want)
	if len(gm) != len(wm) {
		t.Fatalf("machine count = %d, want %d", len(gm), len(wm))
	}
	for name, w := range wm {
		if g, ok := gm[name]; !ok {
			t.Errorf("machine %s missing from replay", name)
		} else if g != w {
			t.Errorf("machine %s differs:\n  got  %s\n  want %s", name, g, w)
		}
	}
}

func testLease(id, machine string) *pool.Lease {
	return &pool.Lease{
		ID:           id,
		Machine:      machine,
		Addr:         machine + ".example",
		ExecUnitPort: 7400,
		MountMgrPort: 7401,
		AccessKey:    "key-" + id,
		Pool:         "punch.rsrc.arch==sun/arch=sun#0",
		Granted:      time.Unix(100, 200),
	}
}

func TestScanRecordsRoundTrip(t *testing.T) {
	var b []byte
	b = appendRecord(b, recEvents, []byte("alpha"))
	b = appendRecord(b, recLease, nil)
	b = appendRecord(b, recResync, []byte{1, 2, 3})
	var kinds []byte
	var sizes []int
	n, off, err := scanRecords(b, func(kind byte, payload []byte) {
		kinds = append(kinds, kind)
		sizes = append(sizes, len(payload))
	})
	if err != nil || n != 3 || off != len(b) {
		t.Fatalf("scan = (%d, %d, %v), want (3, %d, nil)", n, off, err, len(b))
	}
	if kinds[0] != recEvents || kinds[1] != recLease || kinds[2] != recResync {
		t.Errorf("kinds = %v", kinds)
	}
	if sizes[0] != 5 || sizes[1] != 0 || sizes[2] != 3 {
		t.Errorf("sizes = %v", sizes)
	}
	if n, _, err := scanRecords(nil, nil); n != 0 || err != nil {
		t.Errorf("empty scan = (%d, %v)", n, err)
	}
}

func TestLeaseOpRoundTrip(t *testing.T) {
	exp := time.Unix(500, 600)
	ops := []leaseOp{
		{op: opGrant, rec: LeaseRecord{Lease: *testLease("l1", "m0001"), Expires: exp}},
		{op: opGrant, rec: LeaseRecord{Lease: *testLease("l2", "m0002")}}, // no expiry
		{op: opRelease, id: "l1"},
		{op: opRenew, id: "l2", rec: LeaseRecord{Expires: exp}},
	}
	for _, want := range ops {
		got, err := decodeLeaseOp(appendLeaseOp(nil, want))
		if err != nil {
			t.Fatalf("op 0x%02x: %v", want.op, err)
		}
		if got.op != want.op {
			t.Errorf("op 0x%02x: decoded %+v", want.op, got)
		}
		switch want.op {
		case opGrant:
			if got.id != want.rec.Lease.ID {
				t.Errorf("op 0x%02x: id = %q", want.op, got.id)
			}
			if got.rec.Lease != want.rec.Lease {
				t.Errorf("op 0x%02x: lease = %+v, want %+v", want.op, got.rec.Lease, want.rec.Lease)
			}
		default:
			if got.id != want.id {
				t.Errorf("op 0x%02x: id = %q, want %q", want.op, got.id, want.id)
			}
		}
		if !got.rec.Expires.Equal(want.rec.Expires) {
			t.Errorf("op 0x%02x: expires = %v, want %v", want.op, got.rec.Expires, want.rec.Expires)
		}
	}
	if _, err := decodeLeaseOp([]byte{0x7f}); err == nil {
		t.Error("unknown op should fail")
	}
	if _, err := decodeLeaseOp(append(appendLeaseOp(nil, ops[2]), 0xff)); err == nil {
		t.Error("trailing bytes should fail")
	}
}

func TestOpenFreshDirectory(t *testing.T) {
	dir := t.TempDir()
	j, st, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Empty() {
		t.Errorf("fresh state = %+v", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	if len(segs) != 1 || segs[0] != 1 {
		t.Errorf("segments = %v, want [1]", segs)
	}
	if err := j.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestOpenRejectsBadFsync(t *testing.T) {
	if _, _, err := Open(Config{Dir: t.TempDir(), Fsync: "sometimes"}); err == nil {
		t.Error("bad fsync policy should fail")
	}
	if _, _, err := Open(Config{}); err == nil {
		t.Error("missing dir should fail")
	}
}

func TestEventReplayMatchesLiveRegistry(t *testing.T) {
	dir := t.TempDir()
	db := testFleet(t, 32)
	j, st, err := Open(Config{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Empty() {
		t.Fatalf("state = %+v", st)
	}
	if err := j.Attach(db, dbSource(db), 0); err != nil {
		t.Fatal(err)
	}

	names := db.Names()
	if err := db.SetState(names[0], registry.StateDown); err != nil {
		t.Fatal(err)
	}
	if err := db.UpdateDynamic(names[1], registry.Dynamic{Load: 2.5, ActiveJobs: 3, LastUpdate: time.Unix(900, 0)}); err != nil {
		t.Fatal(err)
	}
	if err := db.SetParam(names[2], "owner", query.StrAttr("ece")); err != nil {
		t.Fatal(err)
	}
	if err := db.Remove(names[3]); err != nil {
		t.Fatal(err)
	}
	extra := testFleet(t, 1) // one fresh machine record to add
	var added *registry.Machine
	extra.Walk(func(m *registry.Machine) bool { added = m.Clone(); return false })
	added.Static.Name = "zz-added"
	if err := db.Add(added); err != nil {
		t.Fatal(err)
	}
	q, err := query.ParseBasic("punch.rsrc.arch = sun")
	if err != nil {
		t.Fatal(err)
	}
	if taken := db.Take(q, "test/pool#0", 2); len(taken) == 0 {
		t.Fatal("take matched nothing")
	}

	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	j.Crash()

	_, st2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st2.SnapshotSeq == 0 {
		t.Error("no snapshot found (Attach should have baselined)")
	}
	sameMachines(t, st2.Machines, dbMachines(db))
}

func TestLeaseHooksMirrorAndReplay(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(Config{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	exp := time.Unix(1000, 0)
	l1, l2 := testLease("p#0:1:aa", "m0001"), testLease("p#0:2:bb", "m0002")
	j.LeaseGranted(l1, exp)
	j.LeaseGranted(l2, exp)
	j.LeaseRenewed(l2.ID, time.Unix(2000, 0))
	j.LeaseReleased(l1.ID)
	if got := j.Leases(); len(got) != 1 || got[0].Lease.ID != l2.ID || !got[0].Expires.Equal(time.Unix(2000, 0)) {
		t.Fatalf("mirror = %+v", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, st, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Leases) != 1 {
		t.Fatalf("replayed leases = %+v", st.Leases)
	}
	lr := st.Leases[0]
	if lr.Lease != *l2 || !lr.Expires.Equal(time.Unix(2000, 0)) {
		t.Errorf("lease = %+v", lr)
	}
}

// Golden journal bytes written by the last version that journaled the
// routes of leases won through a peer. The segment holds, in order: a
// grant of p#0:1:aa; an opDelegated for peer:3:cc with domain upc; one for
// peer:5:ee with domain purdue; one for peer:4:dd in the older format
// without a domain; and an opDelegatedDone for peer:3:cc. The snapshot
// holds a grant of p#0:1:aa and an opDelegated for peer:4:dd, and its
// footer counts both.
const (
	goldenDelegatedSegment = "41435459504a4c310100000000000000025d01087023303a313a6161056d303030310d6d303030312e6578616d706c65" +
		"d073d2730c6b65792d7023303a313a61611f70756e63682e727372632e617263683d3d73756e2f617263683d73756e23" +
		"300190a3b787e9050180c0a8ca9a3a9c8ece29026a0409706565723a333a63630872656d6f74652d611072656d6f7465" +
		"2d612e6578616d706c65d073d2730d6b65792d706565723a333a63631f70756e63682e727372632e617263683d3d7375" +
		"6e2f617263683d73756e23300190a3b787e9050006736974652d620375706316edfba6026d0409706565723a353a6565" +
		"0872656d6f74652d631072656d6f74652d632e6578616d706c65d073d2730d6b65792d706565723a353a65651f70756e" +
		"63682e727372632e617263683d3d73756e2f617263683d73756e23300190a3b787e9050006736974652d640670757264" +
		"75653af34ac6026d0409706565723a343a64640872656d6f74652d621072656d6f74652d622e6578616d706c65d073d2" +
		"730d6b65792d706565723a343a64641f70756e63682e727372632e617263683d3d73756e2f617263683d73756e233001" +
		"90a3b787e9050180c0f9decfae0106736974652d630875d449020b0509706565723a333a636365edacde"
	goldenDelegatedSnapshot = "4143545950534e310700000000000000125d01087023303a313a6161056d303030310d6d303030312e6578616d706c65" +
		"d073d2730c6b65792d7023303a313a61611f70756e63682e727372632e617263683d3d73756e2f617263683d73756e23" +
		"300190a3b787e9050180c0a8ca9a3a198b5bf9126a0409706565723a343a64640872656d6f74652d621072656d6f7465" +
		"2d622e6578616d706c65d073d2730d6b65792d706565723a343a64641f70756e63682e727372632e617263683d3d7375" +
		"6e2f617263683d73756e23300190a3b787e9050006736974652d6303757063bcacfa761f020002972db4c4"
)

// TestDelegatedLeaseSurvivesReplay: journals written before lease ids
// carried their route still replay. The delegated records are skipped
// whole, in segments and in snapshots alike; the local lease is restored.
func TestDelegatedLeaseSurvivesReplay(t *testing.T) {
	seg, err := hex.DecodeString(goldenDelegatedSegment)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	j, st, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if st.Records != 5 || st.Corrupt != 0 || st.Torn != 0 {
		t.Errorf("replay read %d records (%d corrupt, %d torn), want 5 clean", st.Records, st.Corrupt, st.Torn)
	}
	want := testLease("p#0:1:aa", "m0001")
	if len(st.Leases) != 1 || st.Leases[0].Lease != *want || !st.Leases[0].Expires.Equal(time.Unix(1000, 0)) {
		t.Fatalf("replayed leases = %+v, want only %s", st.Leases, want.ID)
	}

	snap, err := hex.DecodeString(goldenDelegatedSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "old.snap")
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	_, leases, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatalf("old snapshot: %v", err)
	}
	if len(leases) != 1 || leases[0].Lease != *want {
		t.Fatalf("snapshot leases = %+v, want only %s", leases, want.ID)
	}
}

// TestDelegatedOpDecodesWithoutDomain: every lease op of the golden
// segment decodes, the opDelegated written before it carried a domain
// among them. A decode error here would stop old journals replaying.
func TestDelegatedOpDecodesWithoutDomain(t *testing.T) {
	seg, err := hex.DecodeString(goldenDelegatedSegment)
	if err != nil {
		t.Fatal(err)
	}
	var ops []byte
	_, _, serr := scanRecords(seg[headerLen:], func(kind byte, payload []byte) {
		if kind != recLease {
			t.Errorf("record kind 0x%02x, want only lease records", kind)
			return
		}
		op, err := decodeLeaseOp(payload)
		if err != nil {
			t.Errorf("lease op 0x%02x: %v", payload[0], err)
			return
		}
		ops = append(ops, op.op)
	})
	if serr != nil {
		t.Fatal(serr)
	}
	want := []byte{opGrant, opDelegated, opDelegated, opDelegated, opDelegatedDone}
	if !bytes.Equal(ops, want) {
		t.Fatalf("decoded ops = %x, want %x", ops, want)
	}
}

func TestSnapshotRotationCompaction(t *testing.T) {
	dir := t.TempDir()
	db := testFleet(t, 16)
	j, _, err := Open(Config{Dir: dir, Fsync: FsyncAlways, SegmentBytes: 4 << 10, SnapshotPage: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Attach(db, dbSource(db), 0); err != nil {
		t.Fatal(err)
	}
	names := db.Names()
	for round := 0; round < 50; round++ {
		for _, name := range names {
			if err := db.UpdateDynamic(name, registry.Dynamic{Load: float64(round), LastUpdate: time.Unix(int64(round), 0)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Snapshot(); err != nil {
		t.Fatal(err)
	}

	segs, _ := listSegments(dir)
	snaps, _ := listSnapshots(dir)
	if len(snaps) != 1 {
		t.Errorf("snapshots = %v, want exactly the newest", snaps)
	}
	for _, seq := range segs {
		if seq < snaps[0] {
			t.Errorf("segment %d should have been compacted (snapshot %d)", seq, snaps[0])
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, st, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sameMachines(t, st.Machines, dbMachines(db))
}

func TestRestoreDBRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := testFleet(t, 8)
	j, _, err := Open(Config{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Attach(db, dbSource(db), 0); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, st, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	db2 := registry.NewDB()
	if err := st.RestoreDB(db2); err != nil {
		t.Fatal(err)
	}
	sameMachines(t, dbMachines(db2), dbMachines(db))
}

func TestWriteReadSnapshotFile(t *testing.T) {
	dir := t.TempDir()
	db := testFleet(t, 12)
	path := filepath.Join(dir, "fleet.snap")
	lr := LeaseRecord{Lease: *testLease("l1", "m0001"), Expires: time.Unix(777, 0)}
	n, err := WriteSnapshotFile(path, dbSource(db), []LeaseRecord{lr})
	if err != nil {
		t.Fatal(err)
	}
	if n != db.Len() {
		t.Errorf("wrote %d machines, want %d", n, db.Len())
	}
	if !IsSnapshotFile(path) {
		t.Error("IsSnapshotFile = false")
	}
	ms, leases, err := ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sameMachines(t, ms, dbMachines(db))
	if len(leases) != 1 || leases[0].Lease.ID != lr.Lease.ID {
		t.Errorf("leases = %+v", leases)
	}

	if _, err := WriteSnapshotFile(filepath.Join(dir, snapshotName(3)), dbSource(db), nil); err == nil {
		t.Error("journal-shaped name should be rejected")
	}
	jsonPath := filepath.Join(dir, "fleet.json")
	if err := os.WriteFile(jsonPath, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if IsSnapshotFile(jsonPath) {
		t.Error("JSON file sniffed as snapshot")
	}
}

func TestInspectVerifyCleanDirectory(t *testing.T) {
	dir := t.TempDir()
	db := testFleet(t, 8)
	j, _, err := Open(Config{Dir: dir, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Attach(db, dbSource(db), 0); err != nil {
		t.Fatal(err)
	}
	j.LeaseGranted(testLease("l1", "m0001"), time.Unix(10, 0))
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	info, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Snapshots) == 0 {
		t.Fatal("no snapshots inspected")
	}
	if info.Snapshots[len(info.Snapshots)-1].Machines != 8 {
		t.Errorf("snapshot machines = %d", info.Snapshots[len(info.Snapshots)-1].Machines)
	}
	issues, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 0 {
		t.Errorf("verify issues = %v", issues)
	}
}

func TestCompactOffline(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(Config{Dir: dir, Fsync: FsyncAlways, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		j.LeaseGranted(testLease(leaseID(i), "m0001"), time.Unix(int64(i), 0))
	}
	for i := 0; i < 32; i++ {
		j.LeaseReleased(leaseID(i))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	stBefore, _, err := replay(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	removed, err := CompactOffline(dir)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Error("nothing compacted despite multiple segments")
	}
	stAfter, _, err := replay(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stAfter.Leases) != len(stBefore.Leases) || len(stAfter.Leases) != 32 {
		t.Errorf("leases after compaction = %d, want %d", len(stAfter.Leases), len(stBefore.Leases))
	}
	for i := range stAfter.Leases {
		if stAfter.Leases[i].Lease.ID != stBefore.Leases[i].Lease.ID {
			t.Errorf("lease %d = %s, want %s", i, stAfter.Leases[i].Lease.ID, stBefore.Leases[i].Lease.ID)
		}
	}
	issues, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 0 {
		t.Errorf("verify after compaction = %v", issues)
	}

	empty, err := CompactOffline(t.TempDir())
	if err != nil || empty != 0 {
		t.Errorf("empty-dir compaction = (%d, %v)", empty, err)
	}
}

func leaseID(i int) string {
	return "pool#0:" + string(rune('a'+i/26)) + string(rune('a'+i%26)) + ":key"
}
