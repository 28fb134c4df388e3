package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"actyp/internal/core"
)

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

// TestSnapshotAllocsPerRecord pins what a snapshot of a 10k fleet costs
// through the daemon's source: a view (one header copy) per record and the
// encoding of its page. Through SelectMachines it deep-cloned the fleet,
// about 9.1 allocations and 2.8 KB a record.
func TestSnapshotAllocsPerRecord(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const fleet = 10000
	db := testFleet(t, fleet)
	dir := t.TempDir()
	source := ViewSource(db, nil)
	var n int
	var err error
	allocs, bytes := perRun(3, func() { n, err = writeSnapshotAt(dir, 1, source, DefaultSnapshotPage, nil) })
	if err != nil || n != fleet {
		t.Fatalf("snapshot wrote %d machines, %v", n, err)
	}
	allocs, bytes = allocs/fleet, bytes/fleet
	t.Logf("snapshot: %.2f allocations and %.0f bytes a record", allocs, bytes)
	if allocs > 3 || bytes > 1536 {
		t.Errorf("snapshot costs %.2f allocations and %.0f bytes a record, want at most 3 and 1.5 KB", allocs, bytes)
	}
}

// TestViewSnapshotMatchesCloneSnapshot: on a quiescent registry, the
// snapshot the daemon writes from views is byte for byte the one the
// SelectMachines clones wrote.
func TestViewSnapshotMatchesCloneSnapshot(t *testing.T) {
	const fleet = 10000
	db := testFleet(t, fleet)
	svc, err := core.New(core.Options{DB: db})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	leases := []LeaseRecord{
		{Lease: *testLease("l2", "m0002"), Expires: time.Unix(900, 0)},
		{Lease: *testLease("l1", "m0001")},
	}
	read := func(source SnapshotSource) []byte {
		t.Helper()
		dir := t.TempDir()
		if _, err := writeSnapshotAt(dir, 7, source, DefaultSnapshotPage, append([]LeaseRecord(nil), leases...)); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, snapshotName(7)))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	views, clones := read(ViewSource(db, nil)), read(svcSource(svc))
	if !bytes.Equal(views, clones) {
		t.Fatalf("snapshot from views (%d bytes) differs from the one from clones (%d bytes)", len(views), len(clones))
	}
}

// TestLeaseOpAppendAllocs: a lease cycle's three records are encoded into
// the journal's own buffer and applied to the mirror without a closure, so
// once the buffers have grown the one allocation left in a cycle is the
// mirror's entry for the grant (a map stores a value of that size behind a
// pointer).
func TestLeaseOpAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	j, _, err := Open(Config{Dir: t.TempDir(), Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	l := testLease("l1", "m0001")
	expires := time.Unix(900, 0)
	allocs := testing.AllocsPerRun(100, func() {
		j.LeaseGranted(l, expires)
		j.LeaseRenewed(l.ID, expires.Add(time.Minute))
		j.LeaseReleased(l.ID)
	})
	if allocs > 1 {
		t.Errorf("a lease cycle allocates %.1f times in the journal, want at most 1", allocs)
	}
}
