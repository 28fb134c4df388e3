package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"actyp/internal/registry"
)

// SnapshotSource pages machine records out of the live registry: it
// returns up to limit records starting at offset (in the registry's
// sorted name order) plus the total match count. A snapshot calls it with
// offset 0 and then with each next offset until the pass is done; it only
// reads the records (encodes them), so a source may hand out views (see
// registry.Backend.View). ViewSource is the daemon's. Paging keeps
// snapshotting from ever stop-the-worlding the registry, at the cost of
// pages that are not a single point-in-time cut (replay converges anyway:
// every mutation between pages is also in the tail segment, and event
// application is idempotent).
type SnapshotSource func(limit, offset int) ([]*registry.Machine, int, error)

// SliceSource adapts an in-memory record slice to a SnapshotSource (for
// offline compaction and the fleet mirror, whose "registry" is already a
// local copy).
func SliceSource(ms []*registry.Machine) SnapshotSource {
	return func(limit, offset int) ([]*registry.Machine, int, error) {
		if offset > len(ms) {
			offset = len(ms)
		}
		page := ms[offset:]
		if limit > 0 && len(page) > limit {
			page = page[:limit]
		}
		return page, len(ms), nil
	}
}

// ViewSource is the snapshot source of a live registry: the records keep
// accepts (every record when keep is nil), read as views. A pass starts
// at offset 0, where the source reads the registry in one EachPage pass,
// limit views a page, resumed by name, so each record present for the
// whole pass is read exactly once, in name order; the rest of the pass is
// served from that cut, which is let go with the last page. A view copies
// the record's header and shares its cold part with the store, so a pass
// costs one header copy per record and never a deep copy. A source serves
// one pass at a time; a Journal calls its source under its snapshot lock.
func ViewSource(db *registry.DB, keep func(*registry.Machine) bool) SnapshotSource {
	var cut SnapshotSource
	return func(limit, offset int) ([]*registry.Machine, int, error) {
		if offset == 0 || cut == nil {
			var kept []*registry.Machine
			db.EachPage(nil, registry.Cursor{Limit: limit, Shared: true}, func(page []*registry.Machine) {
				for _, m := range page {
					if keep == nil || keep(m) {
						kept = append(kept, m)
					}
				}
			})
			cut = SliceSource(kept)
		}
		page, total, err := cut(limit, offset)
		if offset+len(page) >= total {
			cut = nil // the pass is over: do not hold its views until the next one
		}
		return page, total, err
	}
}

// DefaultSnapshotPage is the machines-per-page default for snapshots.
const DefaultSnapshotPage = 2048

// writeSnapshotAt writes a complete snapshot file (atomically: tmp file,
// fsync, rename) with the given sequence number. Machine pages stream
// through the source; leases are sorted by id in place and written in that
// order, so identical states produce identical files.
func writeSnapshotAt(dir string, seq uint64, source SnapshotSource, page int, leases []LeaseRecord) (machines int, err error) {
	if source == nil {
		return 0, fmt.Errorf("journal: snapshot needs a source")
	}
	if page <= 0 {
		page = DefaultSnapshotPage
	}
	final := filepath.Join(dir, snapshotName(seq))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()

	buf := appendHeader(nil, snapMagic, seq)
	var pagePayload []byte
	for offset := 0; ; {
		ms, total, serr := source(page, offset)
		if serr != nil {
			return 0, serr
		}
		if len(ms) > 0 {
			pagePayload = registry.AppendBatch(pagePayload[:0], ms)
			buf = appendRecord(buf, recSnapMachines, pagePayload)
			if _, err = f.Write(buf); err != nil {
				return 0, err
			}
			buf = buf[:0]
		}
		offset += len(ms)
		machines = offset
		if len(ms) == 0 || offset >= total {
			break
		}
	}

	slices.SortFunc(leases, func(a, b LeaseRecord) int { return strings.Compare(a.Lease.ID, b.Lease.ID) })
	var opPayload []byte
	for _, lr := range leases {
		opPayload = appendLeaseOp(opPayload[:0], leaseOp{op: opGrant, rec: lr})
		buf = appendRecord(buf, recSnapLease, opPayload)
	}

	// The footer is the completeness marker: a snapshot that dies before
	// it (crash mid-write, out of disk) fails replay's footer check and
	// the next-older snapshot is used instead.
	var footer []byte
	footer = appendUvarint(footer, uint64(machines))
	footer = appendUvarint(footer, uint64(len(leases)))
	buf = appendRecord(buf, recSnapFooter, footer)
	if _, err = f.Write(buf); err != nil {
		return 0, err
	}
	if err = f.Sync(); err != nil {
		return 0, err
	}
	if err = f.Close(); err != nil {
		return 0, err
	}
	return machines, os.Rename(tmp, final)
}

func appendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// readSnapshot loads and validates snapshot seq from dir: every frame
// CRC-checked, machine pages decoded and deduplicated (paging a live
// registry can observe a machine twice; the later page wins), and the
// footer present with matching counts. Any failure rejects the whole
// snapshot — replay falls back to an older one.
func readSnapshot(dir string, seq uint64) ([]*registry.Machine, []LeaseRecord, error) {
	b, err := os.ReadFile(filepath.Join(dir, snapshotName(seq)))
	if err != nil {
		return nil, nil, err
	}
	if err := checkHeader(b, snapMagic, seq); err != nil {
		return nil, nil, err
	}
	var (
		order    []string
		byName   = map[string]*registry.Machine{}
		leases   []LeaseRecord
		skipped  int
		footerOK bool
		wantM    uint64
		wantL    uint64
		decErr   error
	)
	n, off, err := scanRecords(b[headerLen:], func(kind byte, payload []byte) {
		if decErr != nil || footerOK {
			if decErr == nil {
				decErr = fmt.Errorf("journal: snapshot %d: records after the footer", seq)
			}
			return
		}
		switch kind {
		case recSnapMachines:
			ms, err := registry.DecodeBatch(payload)
			if err != nil {
				decErr = fmt.Errorf("journal: snapshot %d: %w", seq, err)
				return
			}
			for _, m := range ms {
				name := m.Static.Name
				if _, dup := byName[name]; !dup {
					order = append(order, name)
				}
				byName[name] = m
			}
		case recSnapLease:
			op, err := decodeLeaseOp(payload)
			if err != nil {
				decErr = err
				return
			}
			switch op.op {
			case opGrant:
				leases = append(leases, op.rec)
			case opDelegated:
				skipped++ // an older writer's peer-won lease; the footer counts it
			default:
				decErr = fmt.Errorf("journal: snapshot %d: unexpected lease op 0x%02x", seq, op.op)
			}
		case recSnapFooter:
			d := &opDec{b: payload}
			wantM = d.uvarint()
			wantL = d.uvarint()
			if d.err != nil {
				decErr = d.err
				return
			}
			footerOK = true
		default:
			decErr = fmt.Errorf("journal: snapshot %d: unknown record kind 0x%02x", seq, kind)
		}
	})
	_ = n
	if err != nil {
		return nil, nil, fmt.Errorf("journal: snapshot %d at offset %d: %w", seq, off, err)
	}
	if decErr != nil {
		return nil, nil, decErr
	}
	if !footerOK {
		return nil, nil, fmt.Errorf("journal: snapshot %d: no footer (incomplete write)", seq)
	}
	// The machine count may legitimately exceed the distinct count when
	// paging raced a mutation; require only that nothing is missing.
	if uint64(len(byName)) > wantM || uint64(len(leases)+skipped) != wantL {
		return nil, nil, fmt.Errorf("journal: snapshot %d: footer counts %d/%d do not cover %d/%d decoded",
			seq, wantM, wantL, len(byName), len(leases))
	}
	ms := make([]*registry.Machine, 0, len(order))
	for _, name := range order {
		ms = append(ms, byName[name])
	}
	return ms, leases, nil
}

// WriteSnapshotFile writes a standalone snapshot-format file (sequence 0)
// at path — the serialization behind `actyp-fleet mirror`, so a mirror
// file doubles as a recovery seed. The file is written atomically.
func WriteSnapshotFile(path string, source SnapshotSource, leases []LeaseRecord) (int, error) {
	dir, base := filepath.Dir(path), filepath.Base(path)
	if _, ok := parseSeq(base, "snapshot-", ".snap"); ok {
		return 0, fmt.Errorf("journal: %q collides with the journal's own snapshot naming; pick another name", base)
	}
	n, err := writeSnapshotAt(dir, 0, source, 0, slices.Clone(leases))
	if err != nil {
		return 0, err
	}
	return n, os.Rename(filepath.Join(dir, snapshotName(0)), path)
}

// ReadSnapshotFile loads a standalone snapshot-format file written by
// WriteSnapshotFile (or a snapshot copied out of a journal directory —
// any header sequence is accepted).
func ReadSnapshotFile(path string) ([]*registry.Machine, []LeaseRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if len(b) < headerLen || string(b[:8]) != snapMagic {
		return nil, nil, fmt.Errorf("journal: %s is not a snapshot file", path)
	}
	// Stage through a temp directory name-shape readSnapshot understands.
	tmpDir, err := os.MkdirTemp(filepath.Dir(path), ".snapread-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmpDir)
	seq := uint64(0)
	copy(b[8:16], make([]byte, 8)) // normalize the sequence to 0
	if err := os.WriteFile(filepath.Join(tmpDir, snapshotName(seq)), b, 0o644); err != nil {
		return nil, nil, err
	}
	return readSnapshot(tmpDir, seq)
}

// IsSnapshotFile sniffs whether path begins with the snapshot magic —
// the format dispatch for loaders that also accept JSON fleets.
func IsSnapshotFile(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var hdr [8]byte
	if _, err := f.Read(hdr[:]); err != nil {
		return false
	}
	return string(hdr[:]) == snapMagic
}
