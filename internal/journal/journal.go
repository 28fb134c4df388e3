package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"actyp/internal/metrics"
	"actyp/internal/pool"
	"actyp/internal/registry"
)

// Fsync policies accepted by Config.Fsync and the daemon's -journal-fsync
// flag.
const (
	// FsyncAlways syncs after every append: nothing acknowledged is ever
	// lost, at the cost of a disk round trip on the grant path.
	FsyncAlways = "always"
	// FsyncInterval syncs on a timer (Config.FsyncInterval): a crash loses
	// at most one interval of tail records. The default.
	FsyncInterval = "interval"
	// FsyncOff never syncs explicitly; the OS writes back at its leisure.
	// A process crash (SIGKILL) still loses nothing past the last flush —
	// only a machine crash does.
	FsyncOff = "off"
)

// Defaults for the zero Config fields.
const (
	DefaultFsyncInterval = 100 * time.Millisecond
	DefaultSegmentBytes  = 8 << 20
)

// Config configures a Journal. Dir is the only required field.
type Config struct {
	// Dir is the journal directory (created if missing).
	Dir string
	// Fsync selects the sync policy: FsyncAlways, FsyncInterval (default),
	// or FsyncOff.
	Fsync string
	// FsyncInterval is the timer period under FsyncInterval (and the
	// flush period under FsyncOff). Default 100ms.
	FsyncInterval time.Duration
	// SegmentBytes rotates the active segment once it grows past this
	// size. Default 8 MiB.
	SegmentBytes int64
	// SnapshotPage is the machines-per-page snapshot granularity.
	// Default DefaultSnapshotPage.
	SnapshotPage int
	// Stats receives journal counters (nil: not recorded).
	Stats *metrics.JournalStats
	// Logf receives operational log lines (nil: discarded).
	Logf func(format string, args ...any)
}

// Journal is the write-ahead log: registry events drained off a watch
// subscription plus lease ops pushed through the pool.LeaseLog hook,
// framed into CRC-checked segment files with periodic snapshots and
// compaction.
//
// Open replays whatever the directory holds and returns the reconstructed
// State alongside the journal; Attach then wires the live registry in.
// Everything appended between Open and Attach (recovery's own lease
// re-grants) lands in the new segment like any other record.
type Journal struct {
	cfg   Config
	stats *metrics.JournalStats

	// mu orders every append and guards the writer, the lease mirror and
	// opBuf; lease hooks update the mirror inside the append critical
	// section, so mirror order always equals record order.
	mu     sync.Mutex
	seg    *segmentWriter
	segSeq uint64
	leases map[string]LeaseRecord
	opBuf  []byte // lease-op payload, encoded in place for each append

	// evBuf is the event-batch payload, reused across drains; only the
	// drain (its loop, then Close after the loop stopped) touches it.
	evBuf []byte

	// snapMu serializes snapshot writes (ticker vs resync vs Close).
	snapMu sync.Mutex

	db     *registry.DB
	source SnapshotSource
	sub    *registry.Subscription

	attached bool
	stop     chan struct{}
	wg       sync.WaitGroup
	flushReq chan chan error
	closed   bool
}

// Open creates or reopens the journal at cfg.Dir: the directory is
// replayed into a State (empty for a fresh directory) and a new segment is
// opened for subsequent appends. The previous tail segment is never
// appended to — a torn tail is skipped once at replay and then left
// behind, not buried under fresh records.
func Open(cfg Config) (*Journal, *State, error) {
	if cfg.Dir == "" {
		return nil, nil, fmt.Errorf("journal: Config.Dir is required")
	}
	switch cfg.Fsync {
	case FsyncAlways, FsyncInterval, FsyncOff:
	case "":
		cfg.Fsync = FsyncInterval
	default:
		return nil, nil, fmt.Errorf("journal: unknown fsync policy %q (want %q, %q or %q)",
			cfg.Fsync, FsyncAlways, FsyncInterval, FsyncOff)
	}
	if cfg.FsyncInterval <= 0 {
		cfg.FsyncInterval = DefaultFsyncInterval
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if cfg.SnapshotPage <= 0 {
		cfg.SnapshotPage = DefaultSnapshotPage
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	st, next, err := replay(cfg.Dir, cfg.Stats, cfg.Logf)
	if err != nil {
		return nil, nil, err
	}
	seg, err := openSegment(cfg.Dir, next)
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{
		cfg:      cfg,
		stats:    cfg.Stats,
		seg:      seg,
		segSeq:   next,
		leases:   make(map[string]LeaseRecord, len(st.Leases)),
		stop:     make(chan struct{}),
		flushReq: make(chan chan error),
	}
	// Seed the mirror with the replayed leases; recovery's releases and
	// adoptions then mutate it through the ordinary hooks.
	for _, lr := range st.Leases {
		j.leases[lr.Lease.ID] = lr
	}
	return j, st, nil
}

// Attach wires the journal to the live registry: a watch subscription
// feeds the event drain loop, source pages machine records for snapshots,
// and snapshotEvery schedules periodic snapshots (<= 0: only on resync and
// Close). A synchronous initial snapshot baselines the post-recovery state
// before Attach returns, so the pre-attach world never depends on the old
// (possibly compacted) log alone.
func (j *Journal) Attach(db *registry.DB, source SnapshotSource, snapshotEvery time.Duration) error {
	if db == nil || source == nil {
		return fmt.Errorf("journal: Attach needs a registry and a snapshot source")
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return fmt.Errorf("journal: closed")
	}
	if j.attached {
		j.mu.Unlock()
		return fmt.Errorf("journal: already attached")
	}
	j.db = db
	j.source = source
	j.sub = db.Watch(0)
	j.attached = true
	j.mu.Unlock()

	if err := j.Snapshot(); err != nil {
		return fmt.Errorf("journal: initial snapshot: %w", err)
	}

	j.wg.Add(1)
	go j.drainLoop()
	j.wg.Add(1)
	go j.tickLoop(snapshotEvery)
	return nil
}

// drainLoop moves watch events into the log as they arrive and services
// Flush barriers in between.
func (j *Journal) drainLoop() {
	defer j.wg.Done()
	for {
		select {
		case <-j.stop:
			return
		case <-j.sub.Ready():
			j.drainEvents()
		case req := <-j.flushReq:
			j.drainEvents()
			req <- j.Sync()
		}
	}
}

// drainEvents polls the subscription once and journals what it got. A
// resync marker (ring overflow) is journaled and then immediately healed
// by a fresh snapshot: replay treats resync as "events were lost here",
// and the snapshot is what restores fidelity after the gap.
func (j *Journal) drainEvents() {
	evs, resync := j.sub.Poll()
	if resync {
		j.stats.Resync()
		if err := j.append(recResync, nil); err != nil {
			j.cfg.Logf("journal: resync marker: %v", err)
		}
		if err := j.Snapshot(); err != nil {
			j.cfg.Logf("journal: post-resync snapshot: %v", err)
		}
	}
	if len(evs) == 0 {
		return
	}
	wire := registry.ResolveEvents(j.db, evs, nil)
	j.evBuf = registry.AppendEventBatch(j.evBuf[:0], wire)
	if err := j.append(recEvents, j.evBuf); err != nil {
		j.cfg.Logf("journal: event batch: %v", err)
		return
	}
	j.stats.Events(len(wire))
}

// tickLoop runs the fsync timer (interval and off policies both flush on
// it; only interval syncs) and the snapshot timer.
func (j *Journal) tickLoop(snapshotEvery time.Duration) {
	defer j.wg.Done()
	flush := time.NewTicker(j.cfg.FsyncInterval)
	defer flush.Stop()
	var snapC <-chan time.Time
	if snapshotEvery > 0 {
		snap := time.NewTicker(snapshotEvery)
		defer snap.Stop()
		snapC = snap.C
	}
	for {
		select {
		case <-j.stop:
			return
		case <-flush.C:
			var err error
			switch j.cfg.Fsync {
			case FsyncAlways:
				continue // every append already synced
			case FsyncInterval:
				err = j.Sync()
			default: // off: push to the OS, never force the disk
				err = j.flushOnly()
			}
			if err != nil {
				j.cfg.Logf("journal: periodic flush: %v", err)
			}
		case <-snapC:
			if err := j.Snapshot(); err != nil {
				j.cfg.Logf("journal: periodic snapshot: %v", err)
			}
		}
	}
}

// append frames one record into the active segment.
func (j *Journal) append(kind byte, payload []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(kind, payload, leaseOp{})
}

// appendLease journals one lease op, encoded into the journal's own
// buffer, so a transition allocates nothing here.
func (j *Journal) appendLease(op leaseOp) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.opBuf = appendLeaseOp(j.opBuf[:0], op)
	return j.appendLocked(recLease, j.opBuf, op)
}

// appendLocked writes one record and applies op (the zero op: none) to
// the lease mirror inside the same critical section, in exactly record
// order, which is what makes the mirror (and therefore every snapshot)
// agree with the log. Callers hold j.mu.
func (j *Journal) appendLocked(kind byte, payload []byte, op leaseOp) error {
	if j.seg == nil {
		return fmt.Errorf("journal: closed")
	}
	n, err := j.seg.writeRecord(kind, payload)
	if err != nil {
		return err
	}
	j.stats.Appended(n)
	op.apply(j.leases)
	if j.cfg.Fsync == FsyncAlways {
		d, err := j.seg.sync()
		if err != nil {
			return err
		}
		j.stats.Fsync(d)
	}
	if j.seg.size >= j.cfg.SegmentBytes {
		return j.rotateLocked()
	}
	return nil
}

// rotateLocked seals the active segment (synced unless the policy is off)
// and opens the next one. Callers hold j.mu.
func (j *Journal) rotateLocked() error {
	if j.cfg.Fsync != FsyncOff {
		d, err := j.seg.sync()
		if err != nil {
			return err
		}
		j.stats.Fsync(d)
	}
	if err := j.seg.close(); err != nil {
		j.seg = nil
		return err
	}
	j.segSeq++
	seg, err := openSegment(j.cfg.Dir, j.segSeq)
	if err != nil {
		j.seg = nil // the journal is broken; fail loudly on the next append
		return err
	}
	j.seg = seg
	j.stats.Rotated()
	return nil
}

// Sync flushes the buffered writer and fsyncs the active segment. The
// fsync itself runs OUTSIDE the append mutex: under FsyncInterval the
// background tick would otherwise hold every grant hostage for a disk
// round trip, which is exactly the cost the policy exists to avoid.
// Appends racing the fsync are safe — they only extend the file, and the
// next tick covers them. A rotation racing it closes the file, which is
// also safe: sealed segments are synced before close under every policy
// this path serves, so ErrClosed means the data is already down.
func (j *Journal) Sync() error {
	j.mu.Lock()
	if j.seg == nil {
		j.mu.Unlock()
		return fmt.Errorf("journal: closed")
	}
	err := j.seg.flush()
	f := j.seg.f
	j.mu.Unlock()
	if err != nil {
		return err
	}
	start := time.Now()
	if err := f.Sync(); err != nil {
		if errors.Is(err, os.ErrClosed) {
			return nil
		}
		return err
	}
	j.stats.Fsync(time.Since(start))
	return nil
}

// flushOnly pushes the writer buffer to the OS without an fsync.
func (j *Journal) flushOnly() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.seg == nil {
		return fmt.Errorf("journal: closed")
	}
	return j.seg.flush()
}

// Flush is the durability barrier tests and shutdown lean on: when the
// drain loop is running it drains pending watch events and then syncs, so
// after Flush returns every registry mutation committed before the call
// is on disk. Unattached, it just pushes the writer buffer to the OS.
func (j *Journal) Flush() error {
	j.mu.Lock()
	attached := j.attached && !j.closed
	j.mu.Unlock()
	if !attached {
		return j.flushOnly()
	}
	ch := make(chan error, 1)
	select {
	case j.flushReq <- ch:
		return <-ch
	case <-j.stop:
		return fmt.Errorf("journal: closed")
	}
}

// Snapshot writes a full-state snapshot and compacts the segments (and
// older snapshots) it covers. The active segment is rotated first so the
// snapshot's sequence covers exactly the sealed segments; lease state is
// the journal's own mirror, machine state is paged from the source.
func (j *Journal) Snapshot() error {
	j.snapMu.Lock()
	defer j.snapMu.Unlock()

	j.mu.Lock()
	if j.source == nil {
		j.mu.Unlock()
		return fmt.Errorf("journal: no snapshot source (not attached)")
	}
	if j.seg == nil {
		j.mu.Unlock()
		return fmt.Errorf("journal: closed")
	}
	if err := j.rotateLocked(); err != nil {
		j.mu.Unlock()
		return err
	}
	seq := j.segSeq
	leases := make([]LeaseRecord, 0, len(j.leases))
	for _, lr := range j.leases {
		leases = append(leases, lr)
	}
	source, page := j.source, j.cfg.SnapshotPage
	j.mu.Unlock()

	// Paging happens outside j.mu: appends continue into segment seq
	// while the snapshot streams, and replay applies that segment on top
	// of the snapshot, so nothing is lost to the race.
	if _, err := writeSnapshotAt(j.cfg.Dir, seq, source, page, leases); err != nil {
		return err
	}
	j.stats.Snapshotted()
	j.compact(seq)
	return nil
}

// compact deletes every segment and snapshot strictly older than the
// given snapshot sequence — all state they carry is inside that snapshot.
func (j *Journal) compact(snapSeq uint64) {
	removed := 0
	if segs, err := listSegments(j.cfg.Dir); err == nil {
		for _, seq := range segs {
			if seq >= snapSeq {
				continue
			}
			if err := os.Remove(filepath.Join(j.cfg.Dir, segmentName(seq))); err == nil {
				removed++
			}
		}
	}
	if snaps, err := listSnapshots(j.cfg.Dir); err == nil {
		for _, seq := range snaps {
			if seq < snapSeq {
				os.Remove(filepath.Join(j.cfg.Dir, snapshotName(seq)))
			}
		}
	}
	if removed > 0 {
		j.stats.Compacted(removed)
	}
}

// stopLoops halts the drain and tick goroutines (idempotent).
func (j *Journal) stopLoops() {
	j.mu.Lock()
	if !j.closed {
		j.closed = true
		close(j.stop)
	}
	j.mu.Unlock()
	j.wg.Wait()
}

// Close shuts the journal down cleanly: loops stopped, leftover watch
// events drained, a final snapshot written (when attached), and the
// segment sealed with a flush and sync. The daemon calls Close BEFORE
// tearing the service down, so shutdown's own releases are not journaled
// as lease deaths — the snapshot preserves them for the next boot.
func (j *Journal) Close() error {
	j.stopLoops()
	var firstErr error
	if j.sub != nil {
		j.drainEvents()
	}
	if j.source != nil {
		if err := j.Snapshot(); err != nil {
			firstErr = err
		}
	}
	j.mu.Lock()
	if j.seg != nil {
		if _, err := j.seg.sync(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := j.seg.close(); err != nil && firstErr == nil {
			firstErr = err
		}
		j.seg = nil
	}
	j.mu.Unlock()
	if j.sub != nil {
		j.sub.Close()
		j.sub = nil
	}
	return firstErr
}

// Crash simulates a SIGKILL for tests: loops stopped, file descriptor
// closed WITHOUT flushing the user-space buffer. Records that reached the
// OS survive (the page cache is the machine, not the process); whatever
// sat in the bufio layer is lost, exactly as a real kill would lose it.
func (j *Journal) Crash() {
	j.stopLoops()
	j.mu.Lock()
	if j.seg != nil {
		j.seg.crash()
		j.seg = nil
	}
	j.mu.Unlock()
	if j.sub != nil {
		j.sub.Close()
		j.sub = nil
	}
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.cfg.Dir }

// Leases returns a copy of the live-lease mirror, sorted order not
// guaranteed (observability and the fleet mirror).
func (j *Journal) Leases() []LeaseRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]LeaseRecord, 0, len(j.leases))
	for _, lr := range j.leases {
		out = append(out, lr)
	}
	return out
}

// --- pool.LeaseLog ---

// LeaseGranted journals a local grant.
func (j *Journal) LeaseGranted(l *pool.Lease, expires time.Time) {
	if l == nil {
		return
	}
	err := j.appendLease(leaseOp{op: opGrant, rec: LeaseRecord{Lease: *l, Expires: expires}})
	if err != nil {
		j.cfg.Logf("journal: grant %s: %v", l.ID, err)
		return
	}
	j.stats.LeaseOp()
}

// LeaseReleased journals a release (explicit or reaped).
func (j *Journal) LeaseReleased(leaseID string) {
	err := j.appendLease(leaseOp{op: opRelease, id: leaseID})
	if err != nil {
		j.cfg.Logf("journal: release %s: %v", leaseID, err)
		return
	}
	j.stats.LeaseOp()
}

// LeaseRenewed journals a renewal's new deadline.
func (j *Journal) LeaseRenewed(leaseID string, expires time.Time) {
	err := j.appendLease(leaseOp{op: opRenew, id: leaseID, rec: LeaseRecord{Expires: expires}})
	if err != nil {
		j.cfg.Logf("journal: renew %s: %v", leaseID, err)
		return
	}
	j.stats.LeaseOp()
}
