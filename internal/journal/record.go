// Package journal is the durability subsystem: a write-ahead event log
// fed off the registry.Backend watch stream plus a lease-op side channel,
// with CRC-framed records, segment rotation, configurable fsync policy,
// paged snapshots, replay-on-boot, and compaction. See DESIGN.md,
// "Durability", for the record format and the recovery state machine.
package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"

	"actyp/internal/pool"
)

// Record kinds. Segment files carry the first group; snapshot files carry
// the second. The framing is shared: kind byte, uvarint payload length,
// payload, little-endian IEEE CRC32 over everything before it.
const (
	recEvents byte = 0x01 // payload: registry.AppendEventBatch
	recLease  byte = 0x02 // payload: lease op (below)
	recResync byte = 0x03 // watch ring overflowed: events were lost here

	recSnapMachines byte = 0x11 // payload: registry.AppendBatch page
	recSnapLease    byte = 0x12 // payload: lease op (opGrant)
	recSnapFooter   byte = 0x1f // payload: machine count, lease count — completeness marker
)

// Lease ops inside recLease / recSnapLease payloads.
const (
	opGrant   byte = 0x01 // full lease + expiry
	opRelease byte = 0x02 // lease id (explicit release or reap)
	opRenew   byte = 0x03 // lease id + new expiry

	// Reserved: older versions journaled the route of every lease won
	// through a peer. The route now rides in the lease id, so nothing
	// writes these and replay skips them; the bytes stay taken.
	opDelegated     byte = 0x04
	opDelegatedDone byte = 0x05
)

const maxRecordPayload = 64 << 20 // frame sanity bound; no real record approaches it

// appendRecord frames one record onto dst.
func appendRecord(dst []byte, kind byte, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	sum := crc32.ChecksumIEEE(dst[start:])
	return binary.LittleEndian.AppendUint32(dst, sum)
}

// scanRecords walks the framed records in b, calling fn for each record
// whose frame and CRC check out. It returns the number of valid records,
// the byte offset where scanning stopped, and the framing error that
// stopped it — nil when b was consumed exactly. A framing error does not
// mean fn was never called: every record before the bad offset was.
func scanRecords(b []byte, fn func(kind byte, payload []byte)) (n, off int, err error) {
	for off < len(b) {
		start := off
		kind := b[off]
		off++
		plen, vn := binary.Uvarint(b[off:])
		if vn <= 0 {
			return n, start, fmt.Errorf("journal: record %d at offset %d: bad length varint", n, start)
		}
		off += vn
		if plen > maxRecordPayload || uint64(len(b)-off) < plen+4 {
			return n, start, fmt.Errorf("journal: record %d at offset %d: truncated (payload %d bytes)", n, start, plen)
		}
		payload := b[off : off+int(plen)]
		off += int(plen)
		want := binary.LittleEndian.Uint32(b[off : off+4])
		if got := crc32.ChecksumIEEE(b[start:off]); got != want {
			return n, start, fmt.Errorf("journal: record %d at offset %d: crc mismatch", n, start)
		}
		off += 4
		if fn != nil {
			fn(kind, payload)
		}
		n++
	}
	return n, off, nil
}

// LeaseRecord is one live lease as the journal tracks it: the full lease
// and its deadline (zero: no expiry).
type LeaseRecord struct {
	Lease   pool.Lease
	Expires time.Time
}

// leaseOp is one decoded lease-op payload.
type leaseOp struct {
	op  byte
	id  string      // opRelease/opRenew
	rec LeaseRecord // opGrant
}

// apply folds the op into a live-lease table: the journal's mirror as it
// appends, the replayed table as it reads. Reserved and zero ops change
// nothing.
func (op leaseOp) apply(leases map[string]LeaseRecord) {
	switch op.op {
	case opGrant:
		leases[op.rec.Lease.ID] = op.rec
	case opRelease:
		delete(leases, op.id)
	case opRenew:
		if lr, ok := leases[op.id]; ok {
			lr.Expires = op.rec.Expires
			leases[op.id] = lr
		}
	}
}

// appendLeaseOp encodes a lease op. Grant-shaped ops carry the whole
// record; id-shaped ops carry only the lease id (plus the new expiry for
// renewals).
func appendLeaseOp(dst []byte, op leaseOp) []byte {
	dst = append(dst, op.op)
	switch op.op {
	case opGrant:
		l := &op.rec.Lease
		dst = appendString(dst, l.ID)
		dst = appendString(dst, l.Machine)
		dst = appendString(dst, l.Addr)
		dst = binary.AppendVarint(dst, int64(l.ExecUnitPort))
		dst = binary.AppendVarint(dst, int64(l.MountMgrPort))
		dst = appendString(dst, l.AccessKey)
		dst = appendString(dst, l.Pool)
		dst = appendTime(dst, l.Granted)
		dst = appendTime(dst, op.rec.Expires)
	case opRenew:
		dst = appendString(dst, op.id)
		dst = appendTime(dst, op.rec.Expires)
	default: // opRelease
		dst = appendString(dst, op.id)
	}
	return dst
}

// decodeLeaseOp decodes one lease-op payload.
func decodeLeaseOp(b []byte) (leaseOp, error) {
	d := &opDec{b: b}
	var op leaseOp
	op.op = d.byte()
	switch op.op {
	case opGrant:
		l := &op.rec.Lease
		l.ID = d.string()
		l.Machine = d.string()
		l.Addr = d.string()
		l.ExecUnitPort = int(d.varint())
		l.MountMgrPort = int(d.varint())
		l.AccessKey = d.string()
		l.Pool = d.string()
		l.Granted = d.time()
		op.rec.Expires = d.time()
		op.id = l.ID
	case opRenew:
		op.id = d.string()
		op.rec.Expires = d.time()
	case opRelease:
		op.id = d.string()
	case opDelegated, opDelegatedDone:
		return op, nil // reserved: skipped whole, callers ignore the op
	default:
		return op, fmt.Errorf("journal: unknown lease op 0x%02x", op.op)
	}
	if d.err != nil {
		return op, d.err
	}
	if len(d.b) != d.off {
		return op, fmt.Errorf("journal: lease op 0x%02x: %d trailing bytes", op.op, len(d.b)-d.off)
	}
	return op, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendTime encodes a wall-clock instant: a presence byte (zero times
// are common — no-expiry deadlines) then unix nanoseconds.
func appendTime(dst []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return binary.AppendVarint(dst, t.UnixNano())
}

// opDec is a latched-error cursor over a lease-op payload, in the style
// of registry's batch decoder: after the first failure every read returns
// a zero value and the error sticks.
type opDec struct {
	b   []byte
	off int
	err error
}

func (d *opDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("journal: lease op: "+format, args...)
	}
}

func (d *opDec) byte() byte {
	if d.err != nil || d.off >= len(d.b) {
		d.fail("short read")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *opDec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *opDec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint at %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *opDec) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)-d.off) < n {
		d.fail("string of %d bytes overruns payload", n)
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *opDec) time() time.Time {
	if d.byte() == 0 || d.err != nil {
		return time.Time{}
	}
	ns := d.varint()
	if d.err != nil {
		return time.Time{}
	}
	return time.Unix(0, ns)
}
