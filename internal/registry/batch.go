package registry

// Delta/dictionary batch encoding for machine record sets. Fleet records
// share most of their field bytes — arch/ostype/domain/owner strings,
// near-identical dynamic fields — so a batch is encoded as one shared
// string dictionary plus, per record, a field-diff bitmask against the
// previous record (the first record diffs against the zero Machine).
// Wire cost per record is then near the diff, not the record.
//
// Layout (all integers varint/uvarint, floats fixed 8-byte little-endian
// IEEE-754 bits):
//
//	version 0x01 | uvarint count | record*
//	record  = uvarint diffMask | changed fields in bit order
//	string  = uvarint token: 0 means a new dictionary entry follows
//	          (uvarint length + bytes, appended to the dictionary in
//	          first-use order); token k>0 references entry k-1.
//	list    = uvarint n: 0 means nil, n>0 means n-1 strings follow
//	          (nil and empty survive the round trip distinctly — the
//	          JSON field shapes differ).
//	time    = presence byte; 1 is followed by varint UnixNano. Like the
//	          wire codec's time encoding this preserves the instant, not
//	          the location.
//
// The full per-record encoding (JSON) is the differential oracle: decode
// must reproduce records that marshal identically to the originals.

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"actyp/internal/query"
)

// batchVersion is the format version byte leading every batch.
const batchVersion = 0x01

// Diff bitmask bits, one per Machine field in Figure 3 order.
const (
	batchState = 1 << iota
	batchLoad
	batchActiveJobs
	batchFreeMemory
	batchFreeSwap
	batchLastUpdate
	batchServiceFlag
	batchSpeed
	batchCPUs
	batchMaxLoad
	batchName
	batchObjectRef
	batchSharedAccount
	batchExecUnitPort
	batchMountMgrPort
	batchAddr
	batchUserGroups
	batchToolGroups
	batchShadowPoolRef
	batchUsagePolicy
	batchParams
	batchTakenBy
)

// Attr flag bits inside an encoded attribute.
const (
	batchAttrIsNum = 1 << iota
	batchAttrNum   // Num present (non-zero)
	batchAttrList  // List present (non-nil)
)

// AppendBatch appends the delta/dictionary encoding of ms to dst and
// returns the extended slice. Nil machine pointers are not allowed.
func AppendBatch(dst []byte, ms []*Machine) []byte {
	e := newBatchEnc(append(dst, batchVersion))
	e.dst = binary.AppendUvarint(e.dst, uint64(len(ms)))
	prev := &Machine{}
	for _, m := range ms {
		e.record(m, prev)
		prev = m
	}
	return e.finish()
}

// DecodeBatch decodes a batch produced by AppendBatch. Corrupt or
// truncated input fails with an error; it never panics or over-allocates.
// Records of one batch share the slices each carries over from the record
// before it, so decoding costs what the input holds: a copy would make a
// one-byte record pay for everything it carries, and tens of kilobytes
// claim gigabytes. Callers read decoded records or copy them
// (every Backend.Add does); none writes their cold part in place.
func DecodeBatch(b []byte) ([]*Machine, error) {
	d := &batchDec{b: b}
	if v := d.byte(); d.err == nil && v != batchVersion {
		return nil, fmt.Errorf("registry: unknown batch version 0x%02x", v)
	}
	n := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	// Every record costs at least one mask byte, so a count past the
	// remaining bytes is corrupt — reject before allocating.
	if n > uint64(len(d.b))+1 {
		return nil, fmt.Errorf("registry: batch claims %d records with %d bytes left", n, len(d.b))
	}
	out := make([]*Machine, 0, n)
	prev := &Machine{}
	for i := uint64(0); i < n; i++ {
		m := d.record(prev)
		if d.err != nil {
			return nil, fmt.Errorf("registry: batch record %d: %w", i, d.err)
		}
		out = append(out, m)
		prev = m
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("registry: batch has %d trailing bytes", len(d.b))
	}
	return out, nil
}

// batchEnc carries the growing output and the shared string dictionary.
type batchEnc struct {
	dst  []byte
	dict map[string]uint64
}

// encPool recycles encoders with their dictionaries: a snapshot page or a
// drained sweep holds thousands of distinct strings, and a fresh map would
// grow to that size again for every batch.
var encPool = sync.Pool{New: func() any { return &batchEnc{dict: make(map[string]uint64)} }}

// maxPooledDict is the largest dictionary an encoder goes back to the pool
// with; a one-off giant batch's map is left to the collector instead.
const maxPooledDict = 1 << 16

// newBatchEnc returns an encoder with an empty dictionary that appends to
// dst.
func newBatchEnc(dst []byte) *batchEnc {
	e := encPool.Get().(*batchEnc)
	e.dst = dst
	return e
}

// finish returns the encoded output and recycles e, which the caller must
// not use again.
func (e *batchEnc) finish() []byte {
	out := e.dst
	e.dst = nil
	if len(e.dict) <= maxPooledDict {
		clear(e.dict)
		encPool.Put(e)
	}
	return out
}

func (e *batchEnc) record(m, prev *Machine) {
	var mask uint64
	if m.State != prev.State {
		mask |= batchState
	}
	if m.Dynamic.Load != prev.Dynamic.Load {
		mask |= batchLoad
	}
	if m.Dynamic.ActiveJobs != prev.Dynamic.ActiveJobs {
		mask |= batchActiveJobs
	}
	if m.Dynamic.FreeMemory != prev.Dynamic.FreeMemory {
		mask |= batchFreeMemory
	}
	if m.Dynamic.FreeSwap != prev.Dynamic.FreeSwap {
		mask |= batchFreeSwap
	}
	if !timeEqual(m.Dynamic.LastUpdate, prev.Dynamic.LastUpdate) {
		mask |= batchLastUpdate
	}
	if m.Dynamic.ServiceFlag != prev.Dynamic.ServiceFlag {
		mask |= batchServiceFlag
	}
	if m.Static.Speed != prev.Static.Speed {
		mask |= batchSpeed
	}
	if m.Static.CPUs != prev.Static.CPUs {
		mask |= batchCPUs
	}
	if m.Static.MaxLoad != prev.Static.MaxLoad {
		mask |= batchMaxLoad
	}
	if m.Static.Name != prev.Static.Name {
		mask |= batchName
	}
	if m.Access.ObjectRef != prev.Access.ObjectRef {
		mask |= batchObjectRef
	}
	if m.Access.SharedAccount != prev.Access.SharedAccount {
		mask |= batchSharedAccount
	}
	if m.Access.ExecUnitPort != prev.Access.ExecUnitPort {
		mask |= batchExecUnitPort
	}
	if m.Access.MountMgrPort != prev.Access.MountMgrPort {
		mask |= batchMountMgrPort
	}
	if m.Access.Addr != prev.Access.Addr {
		mask |= batchAddr
	}
	if !stringsEqual(m.Policy.UserGroups, prev.Policy.UserGroups) {
		mask |= batchUserGroups
	}
	if !stringsEqual(m.Policy.ToolGroups, prev.Policy.ToolGroups) {
		mask |= batchToolGroups
	}
	if m.Policy.ShadowPoolRef != prev.Policy.ShadowPoolRef {
		mask |= batchShadowPoolRef
	}
	if m.Policy.UsagePolicy != prev.Policy.UsagePolicy {
		mask |= batchUsagePolicy
	}
	if !paramsEqual(m.Policy.Params, prev.Policy.Params) {
		mask |= batchParams
	}
	if m.TakenBy != prev.TakenBy {
		mask |= batchTakenBy
	}
	e.dst = binary.AppendUvarint(e.dst, mask)
	if mask&batchState != 0 {
		e.dst = binary.AppendVarint(e.dst, int64(m.State))
	}
	if mask&batchLoad != 0 {
		e.f64(m.Dynamic.Load)
	}
	if mask&batchActiveJobs != 0 {
		e.dst = binary.AppendVarint(e.dst, int64(m.Dynamic.ActiveJobs))
	}
	if mask&batchFreeMemory != 0 {
		e.f64(m.Dynamic.FreeMemory)
	}
	if mask&batchFreeSwap != 0 {
		e.f64(m.Dynamic.FreeSwap)
	}
	if mask&batchLastUpdate != 0 {
		e.time(m.Dynamic.LastUpdate)
	}
	if mask&batchServiceFlag != 0 {
		e.dst = binary.AppendUvarint(e.dst, uint64(m.Dynamic.ServiceFlag))
	}
	if mask&batchSpeed != 0 {
		e.f64(m.Static.Speed)
	}
	if mask&batchCPUs != 0 {
		e.dst = binary.AppendVarint(e.dst, int64(m.Static.CPUs))
	}
	if mask&batchMaxLoad != 0 {
		e.f64(m.Static.MaxLoad)
	}
	if mask&batchName != 0 {
		e.string(m.Static.Name)
	}
	if mask&batchObjectRef != 0 {
		e.string(m.Access.ObjectRef)
	}
	if mask&batchSharedAccount != 0 {
		e.string(m.Access.SharedAccount)
	}
	if mask&batchExecUnitPort != 0 {
		e.dst = binary.AppendVarint(e.dst, int64(m.Access.ExecUnitPort))
	}
	if mask&batchMountMgrPort != 0 {
		e.dst = binary.AppendVarint(e.dst, int64(m.Access.MountMgrPort))
	}
	if mask&batchAddr != 0 {
		e.string(m.Access.Addr)
	}
	if mask&batchUserGroups != 0 {
		e.strings(m.Policy.UserGroups)
	}
	if mask&batchToolGroups != 0 {
		e.strings(m.Policy.ToolGroups)
	}
	if mask&batchShadowPoolRef != 0 {
		e.string(m.Policy.ShadowPoolRef)
	}
	if mask&batchUsagePolicy != 0 {
		e.string(m.Policy.UsagePolicy)
	}
	if mask&batchParams != 0 {
		e.params(m.Policy.Params)
	}
	if mask&batchTakenBy != 0 {
		e.string(m.TakenBy)
	}
}

func (e *batchEnc) f64(f float64) {
	e.dst = binary.LittleEndian.AppendUint64(e.dst, math.Float64bits(f))
}

func (e *batchEnc) string(s string) {
	if idx, ok := e.dict[s]; ok {
		e.dst = binary.AppendUvarint(e.dst, idx+1)
		return
	}
	e.dst = binary.AppendUvarint(e.dst, 0)
	e.dst = binary.AppendUvarint(e.dst, uint64(len(s)))
	e.dst = append(e.dst, s...)
	e.dict[s] = uint64(len(e.dict))
}

func (e *batchEnc) strings(ss []string) {
	if ss == nil {
		e.dst = binary.AppendUvarint(e.dst, 0)
		return
	}
	e.dst = binary.AppendUvarint(e.dst, uint64(len(ss))+1)
	for _, s := range ss {
		e.string(s)
	}
}

func (e *batchEnc) time(t time.Time) {
	if t.IsZero() {
		e.dst = append(e.dst, 0)
		return
	}
	e.dst = append(e.dst, 1)
	e.dst = binary.AppendVarint(e.dst, t.UnixNano())
}

func (e *batchEnc) attr(a query.Attr) {
	var flags byte
	if a.IsNum {
		flags |= batchAttrIsNum
	}
	if a.Num != 0 {
		flags |= batchAttrNum
	}
	if a.List != nil {
		flags |= batchAttrList
	}
	e.dst = append(e.dst, flags)
	e.string(a.Str)
	if flags&batchAttrNum != 0 {
		e.f64(a.Num)
	}
	if flags&batchAttrList != 0 {
		e.dst = binary.AppendUvarint(e.dst, uint64(len(a.List)))
		for _, s := range a.List {
			e.string(s)
		}
	}
}

// params encodes a parameter list in its key order, so equal lists
// encode identically.
func (e *batchEnc) params(ps query.Params) {
	if ps == nil {
		e.dst = binary.AppendUvarint(e.dst, 0)
		return
	}
	e.dst = binary.AppendUvarint(e.dst, uint64(ps.Len())+1)
	for k, a := range ps.All() {
		e.string(k)
		e.attr(a)
	}
}

// batchDec walks an encoded batch with latched errors and hard bounds
// checks, mirroring the wire package's cursor discipline.
type batchDec struct {
	b    []byte
	dict []string
	err  error
}

func (d *batchDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *batchDec) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail("truncated batch: missing byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *batchDec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated batch: bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *batchDec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated batch: bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *batchDec) f64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("truncated batch: missing float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *batchDec) string() string {
	tok := d.uvarint()
	if d.err != nil {
		return ""
	}
	if tok > 0 {
		if tok-1 >= uint64(len(d.dict)) {
			d.fail("batch dictionary index %d out of range (%d entries)", tok-1, len(d.dict))
			return ""
		}
		return d.dict[tok-1]
	}
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail("truncated batch: string of %d bytes with %d left", n, len(d.b))
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	d.dict = append(d.dict, s)
	return s
}

func (d *batchDec) strings() []string {
	n := d.uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	n--
	// Every element costs at least one token byte.
	if n > uint64(len(d.b))+1 {
		d.fail("truncated batch: %d strings with %d bytes left", n, len(d.b))
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		out = append(out, d.string())
	}
	return out
}

func (d *batchDec) time() time.Time {
	if d.byte() == 0 {
		return time.Time{}
	}
	ns := d.varint()
	if d.err != nil {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

func (d *batchDec) attr() query.Attr {
	var a query.Attr
	flags := d.byte()
	a.IsNum = flags&batchAttrIsNum != 0
	a.Str = d.string()
	if flags&batchAttrNum != 0 {
		a.Num = d.f64()
	}
	if flags&batchAttrList != 0 {
		n := d.uvarint()
		if d.err != nil {
			return a
		}
		if n > uint64(len(d.b))+1 {
			d.fail("truncated batch: attr list of %d with %d bytes left", n, len(d.b))
			return a
		}
		a.List = make([]string, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			a.List = append(a.List, d.string())
		}
	}
	return a
}

// params decodes a parameter list. Input out of key order, or with a key
// twice, decodes as the map form did: sorted, the last value kept.
func (d *batchDec) params() query.Params {
	n := d.uvarint()
	if d.err != nil || n == 0 {
		return nil
	}
	n--
	if n > uint64(len(d.b))+1 {
		d.fail("truncated batch: %d params with %d bytes left", n, len(d.b))
		return nil
	}
	out := make([]query.Param, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		k := d.string()
		out = append(out, query.Param{Key: k, Attr: d.attr()})
	}
	return query.NewParams(out...)
}

// record decodes one machine: prev's fields carried over (slices shared,
// see DecodeBatch) and the masked fields overwritten.
func (d *batchDec) record(prev *Machine) *Machine {
	m := *prev
	mask := d.uvarint()
	if mask&batchState != 0 {
		m.State = State(d.varint())
	}
	if mask&batchLoad != 0 {
		m.Dynamic.Load = d.f64()
	}
	if mask&batchActiveJobs != 0 {
		m.Dynamic.ActiveJobs = int(d.varint())
	}
	if mask&batchFreeMemory != 0 {
		m.Dynamic.FreeMemory = d.f64()
	}
	if mask&batchFreeSwap != 0 {
		m.Dynamic.FreeSwap = d.f64()
	}
	if mask&batchLastUpdate != 0 {
		m.Dynamic.LastUpdate = d.time()
	}
	if mask&batchServiceFlag != 0 {
		m.Dynamic.ServiceFlag = uint32(d.uvarint())
	}
	if mask&batchSpeed != 0 {
		m.Static.Speed = d.f64()
	}
	if mask&batchCPUs != 0 {
		m.Static.CPUs = int(d.varint())
	}
	if mask&batchMaxLoad != 0 {
		m.Static.MaxLoad = d.f64()
	}
	if mask&batchName != 0 {
		m.Static.Name = d.string()
	}
	if mask&batchObjectRef != 0 {
		m.Access.ObjectRef = d.string()
	}
	if mask&batchSharedAccount != 0 {
		m.Access.SharedAccount = d.string()
	}
	if mask&batchExecUnitPort != 0 {
		m.Access.ExecUnitPort = int(d.varint())
	}
	if mask&batchMountMgrPort != 0 {
		m.Access.MountMgrPort = int(d.varint())
	}
	if mask&batchAddr != 0 {
		m.Access.Addr = d.string()
	}
	if mask&batchUserGroups != 0 {
		m.Policy.UserGroups = d.strings()
	}
	if mask&batchToolGroups != 0 {
		m.Policy.ToolGroups = d.strings()
	}
	if mask&batchShadowPoolRef != 0 {
		m.Policy.ShadowPoolRef = d.string()
	}
	if mask&batchUsagePolicy != 0 {
		m.Policy.UsagePolicy = d.string()
	}
	if mask&batchParams != 0 {
		m.Policy.Params = d.params()
	}
	if mask&batchTakenBy != 0 {
		m.TakenBy = d.string()
	}
	return &m
}

// timeEqual compares instants; two zero times are equal.
func timeEqual(a, b time.Time) bool {
	if a.IsZero() || b.IsZero() {
		return a.IsZero() == b.IsZero()
	}
	return a.Equal(b)
}

// stringsEqual distinguishes nil from empty: the JSON shapes differ
// (null vs []), so the diff must too.
func stringsEqual(a, b []string) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func attrEqual(a, b query.Attr) bool {
	return a.Str == b.Str && a.Num == b.Num && a.IsNum == b.IsNum && stringsEqual(a.List, b.List)
}

// paramsEqual distinguishes nil from empty, as stringsEqual does.
func paramsEqual(a, b query.Params) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key != b[i].Key || !attrEqual(a[i].Attr, b[i].Attr) {
			return false
		}
	}
	return true
}
