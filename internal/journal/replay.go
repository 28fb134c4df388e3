package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"actyp/internal/metrics"
	"actyp/internal/registry"
)

// State is what replay reconstructs from a journal directory: the machine
// records as of the crash (taken marks included) and the leases that were
// live, ready to be loaded into a fresh registry and re-adopted into
// pools. Replay itself is purely file-level — the recovery policy (probe
// the holders, rebuild the pools) lives in
// core.Recover, which consumes a State.
type State struct {
	// Machines holds the replayed registry records in name order.
	Machines []*registry.Machine
	// Leases holds the leases live at the crash, sorted by id.
	Leases []LeaseRecord
	// SnapshotSeq is the snapshot the replay started from (0: none).
	SnapshotSeq uint64
	// Segments and Records count what was read past the snapshot.
	Segments int
	Records  int
	// Resyncs counts watch-ring overflow markers encountered: each one is
	// a window where events were lost and only the following snapshot
	// restored fidelity.
	Resyncs int
	// Torn is 1 when the final segment ended mid-record (the expected
	// shape of a crash); Corrupt counts damaged non-final segments whose
	// tails were skipped.
	Torn    int
	Corrupt int
}

// Empty reports whether the replay found nothing — a fresh directory.
func (s *State) Empty() bool {
	return s == nil || (len(s.Machines) == 0 && len(s.Leases) == 0 && s.Records == 0 && s.SnapshotSeq == 0)
}

// RestoreDB hands the replayed machine records to db, which must be empty,
// in one AddOwnedAll: db keeps them, so s.Machines must not be touched
// afterwards. Taken marks ride along inside the records, so pool
// membership survives into the new registry.
func (s *State) RestoreDB(db *registry.DB) error {
	if s == nil {
		return nil
	}
	if err := db.AddOwnedAll(s.Machines); err != nil {
		return fmt.Errorf("journal: restore: %w", err)
	}
	return nil
}

// Filter prunes the replayed state to the machines keep accepts — the
// domain-scoped replay a partitioned daemon runs on boot, so a journal
// written before an ownership change (or copied from a peer) loads only
// the domains this node now owns. Leases on dropped machines go with them
// (their pools cannot be rebuilt here). It returns how many machines were
// dropped.
func (s *State) Filter(keep func(*registry.Machine) bool) int {
	if s == nil || keep == nil {
		return 0
	}
	kept := s.Machines[:0]
	gone := map[string]bool{}
	for _, m := range s.Machines {
		if keep(m) {
			kept = append(kept, m)
		} else {
			gone[m.Static.Name] = true
		}
	}
	dropped := len(s.Machines) - len(kept)
	s.Machines = kept
	if dropped > 0 {
		leases := s.Leases[:0]
		for _, lr := range s.Leases {
			if gone[lr.Lease.Machine] {
				continue
			}
			leases = append(leases, lr)
		}
		s.Leases = leases
	}
	return dropped
}

// replay rebuilds state from dir: the newest complete snapshot, then every
// segment with sequence >= the snapshot's, in order. It returns the state
// and the sequence the next fresh segment should use.
func replay(dir string, stats *metrics.JournalStats, logf func(string, ...any)) (*State, uint64, error) {
	start := time.Now()
	if logf == nil {
		logf = func(string, ...any) {}
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, 0, err
	}
	snaps, err := listSnapshots(dir)
	if err != nil {
		return nil, 0, err
	}

	st := &State{}
	leaseMap := map[string]LeaseRecord{}
	var baseMachines []*registry.Machine
	// Newest loadable snapshot wins; a damaged one is logged and the next
	// older tried — the covered segments are still on disk until a NEWER
	// snapshot lands, so falling back loses nothing.
	for i := len(snaps) - 1; i >= 0; i-- {
		ms, leases, err := readSnapshot(dir, snaps[i])
		if err != nil {
			logf("journal: skipping snapshot %d: %v", snaps[i], err)
			st.Corrupt++
			continue
		}
		baseMachines = ms
		for _, lr := range leases {
			leaseMap[lr.Lease.ID] = lr
		}
		st.SnapshotSeq = snaps[i]
		break
	}

	// Scratch registry on the locked (reference) backend: replay is
	// single-threaded, so sharding buys nothing.
	backend, err := registry.OpenBackend(registry.BackendLocked, 0)
	if err != nil {
		return nil, 0, err
	}
	db := registry.NewDBWith(backend)
	if err := db.AddOwnedAll(baseMachines); err != nil {
		return nil, 0, fmt.Errorf("journal: snapshot %d: %w", st.SnapshotSeq, err)
	}

	var maxSeg uint64
	for i, seq := range segs {
		if seq > maxSeg {
			maxSeg = seq
		}
		if seq < st.SnapshotSeq {
			continue // covered by the snapshot
		}
		last := i == len(segs)-1
		b, err := os.ReadFile(filepath.Join(dir, segmentName(seq)))
		if err != nil {
			return nil, 0, err
		}
		if err := checkHeader(b, segMagic, seq); err != nil {
			// Header never made it to disk (fsync=off crash right after
			// rotation) or the file is damaged; nothing in it is usable.
			if last && int64(len(b)) < headerLen {
				st.Torn++
			} else {
				st.Corrupt++
			}
			logf("journal: skipping segment %d: %v", seq, err)
			continue
		}
		st.Segments++
		n, off, serr := scanRecords(b[headerLen:], func(kind byte, payload []byte) {
			applyRecord(db, leaseMap, st, kind, payload, logf)
		})
		st.Records += n
		if serr != nil {
			if last {
				// The expected crash shape: the final record was mid-write.
				// Everything before it already applied.
				st.Torn++
				logf("journal: segment %d torn at offset %d after %d records (crash tail)", seq, headerLen+off, n)
			} else {
				st.Corrupt++
				logf("journal: segment %d damaged at offset %d after %d records: %v", seq, headerLen+off, n, serr)
			}
		}
	}

	st.Machines = st.Machines[:0]
	db.Walk(func(m *registry.Machine) bool {
		st.Machines = append(st.Machines, m)
		return true
	})
	st.Leases = make([]LeaseRecord, 0, len(leaseMap))
	for _, lr := range leaseMap {
		st.Leases = append(st.Leases, lr)
	}
	sort.Slice(st.Leases, func(i, j int) bool { return st.Leases[i].Lease.ID < st.Leases[j].Lease.ID })

	stats.Replayed(time.Since(start), st.Records, st.Segments, st.Torn, st.Corrupt)
	next := maxSeg + 1
	if st.SnapshotSeq > next {
		next = st.SnapshotSeq
	}
	if next < 1 {
		next = 1
	}
	return st, next, nil
}

// applyRecord folds one segment record into the replay state.
func applyRecord(db *registry.DB, leases map[string]LeaseRecord, st *State, kind byte, payload []byte, logf func(string, ...any)) {
	switch kind {
	case recEvents:
		evs, err := registry.DecodeEventBatch(payload)
		if err != nil {
			logf("journal: bad event batch during replay: %v", err)
			st.Corrupt++
			return
		}
		registry.ApplyWireEvents(db, evs)
	case recLease:
		op, err := decodeLeaseOp(payload)
		if err != nil {
			logf("journal: bad lease op during replay: %v", err)
			st.Corrupt++
			return
		}
		op.apply(leases)
	case recResync:
		st.Resyncs++
	default:
		logf("journal: unknown record kind 0x%02x during replay (newer writer?)", kind)
	}
}
