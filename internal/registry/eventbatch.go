package registry

// Wire form of the change stream. A locally observed Event names a
// machine and (for the high-rate dynamic kind) carries the fresh monitor
// snapshot, but every other kind expects the consumer to re-read the
// record — a contract that dies at the process boundary, where a re-read
// costs a WAN round trip per event. WireEvent is the event resolved for
// transport: the sender attaches the current record snapshot at encode
// time (one local Get), so a remote replica applies the stream without
// ever reading back.
//
// Batches reuse the delta/dictionary discipline of batch.go: one shared
// string dictionary, dynamic snapshots diffed against the previous
// dynamic in the batch, record snapshots diffed against the previous
// record — a monitor sweep's burst of near-identical dynamic updates
// encodes near the diff, not the event.
//
// Layout (integers varint/uvarint, floats fixed 8-byte little-endian):
//
//	version 0x01 | uvarint count | event*
//	event   = kind byte | name string(dict) | payload
//	payload = (removed)          nothing
//	          (dynamic-updated)  presence byte: 1 -> uvarint dynMask +
//	                             changed dynamic fields; 0 -> record
//	                             snapshot follows (filtered streams
//	                             upgrade dynamic events to snapshots so
//	                             records entering the filter are whole)
//	          (all other kinds)  presence byte: 1 -> record diff as in
//	                             batch.go; 0 -> no snapshot (apply as a
//	                             removal hint)

import (
	"encoding/binary"
	"fmt"

	"actyp/internal/query"
)

// WireEvent is one registry Event resolved for transport.
type WireEvent struct {
	Kind EventKind `json:"kind"`
	Name string    `json:"name"`
	// Dynamic carries the monitor snapshot for EventDynamicUpdated.
	Dynamic Dynamic `json:"dynamic"`
	// Machine is the full record, read at encode time, for every kind
	// except EventRemoved (and except unfiltered dynamic updates, which
	// need only Dynamic). ResolveEvents attaches a view (see
	// Backend.View): read-only, its cold part shared with the store. Nil
	// means the record vanished between the event and the encode — the
	// consumer treats it as a removal.
	Machine *Machine `json:"machine,omitempty"`
}

// eventBatchVersion leads every encoded event batch.
const eventBatchVersion = 0x01

// Dynamic-diff bitmask bits, one per Dynamic field.
const (
	evDynLoad = 1 << iota
	evDynActiveJobs
	evDynFreeMemory
	evDynFreeSwap
	evDynLastUpdate
	evDynServiceFlag
)

// AppendEventBatch appends the delta/dictionary encoding of evs to dst
// and returns the extended slice.
func AppendEventBatch(dst []byte, evs []WireEvent) []byte {
	e := newBatchEnc(append(dst, eventBatchVersion))
	e.dst = binary.AppendUvarint(e.dst, uint64(len(evs)))
	prevMach := &Machine{}
	var prevDyn Dynamic
	for _, ev := range evs {
		e.dst = append(e.dst, byte(ev.Kind))
		e.string(ev.Name)
		switch {
		case ev.Kind == EventRemoved:
		case ev.Kind == EventDynamicUpdated && ev.Machine == nil:
			e.dst = append(e.dst, 1)
			e.dynamic(ev.Dynamic, prevDyn)
			prevDyn = ev.Dynamic
		case ev.Kind == EventDynamicUpdated:
			// Filtered-stream upgrade: the full snapshot rides under the
			// 0 tag (the dynamic-diff form owns 1 for this kind).
			e.dst = append(e.dst, 0)
			e.record(ev.Machine, prevMach)
			prevMach = ev.Machine
		default:
			if ev.Machine == nil {
				e.dst = append(e.dst, 0)
				continue
			}
			e.dst = append(e.dst, 1)
			e.record(ev.Machine, prevMach)
			prevMach = ev.Machine
		}
	}
	return e.finish()
}

// DecodeEventBatch decodes a batch produced by AppendEventBatch. Corrupt
// or truncated input fails with an error; it never panics. The records it
// attaches share what they carry over, as DecodeBatch's do.
func DecodeEventBatch(b []byte) ([]WireEvent, error) {
	d := &batchDec{b: b}
	if v := d.byte(); d.err == nil && v != eventBatchVersion {
		return nil, fmt.Errorf("registry: unknown event batch version 0x%02x", v)
	}
	n := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	// Every event costs at least a kind byte and a name token.
	if n > uint64(len(d.b))+1 {
		return nil, fmt.Errorf("registry: event batch claims %d events with %d bytes left", n, len(d.b))
	}
	out := make([]WireEvent, 0, n)
	prevMach := &Machine{}
	var prevDyn Dynamic
	for i := uint64(0); i < n; i++ {
		var ev WireEvent
		ev.Kind = EventKind(d.byte())
		ev.Name = d.string()
		switch {
		case ev.Kind == EventRemoved:
		case ev.Kind == EventDynamicUpdated:
			if d.byte() == 1 {
				ev.Dynamic = d.dynamic(prevDyn)
				prevDyn = ev.Dynamic
			} else {
				ev.Machine = d.record(prevMach)
				if ev.Machine != nil {
					ev.Dynamic = ev.Machine.Dynamic
					prevMach = ev.Machine
				}
			}
		default:
			if d.byte() == 1 {
				ev.Machine = d.record(prevMach)
				if ev.Machine != nil {
					prevMach = ev.Machine
				}
			}
		}
		if d.err != nil {
			return nil, fmt.Errorf("registry: event batch event %d: %w", i, d.err)
		}
		out = append(out, ev)
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("registry: event batch has %d trailing bytes", len(d.b))
	}
	return out, nil
}

// dynamic encodes one dynamic snapshot as a diff against the previous
// dynamic in the batch.
func (e *batchEnc) dynamic(d, prev Dynamic) {
	var mask uint64
	if d.Load != prev.Load {
		mask |= evDynLoad
	}
	if d.ActiveJobs != prev.ActiveJobs {
		mask |= evDynActiveJobs
	}
	if d.FreeMemory != prev.FreeMemory {
		mask |= evDynFreeMemory
	}
	if d.FreeSwap != prev.FreeSwap {
		mask |= evDynFreeSwap
	}
	if !timeEqual(d.LastUpdate, prev.LastUpdate) {
		mask |= evDynLastUpdate
	}
	if d.ServiceFlag != prev.ServiceFlag {
		mask |= evDynServiceFlag
	}
	e.dst = binary.AppendUvarint(e.dst, mask)
	if mask&evDynLoad != 0 {
		e.f64(d.Load)
	}
	if mask&evDynActiveJobs != 0 {
		e.dst = binary.AppendVarint(e.dst, int64(d.ActiveJobs))
	}
	if mask&evDynFreeMemory != 0 {
		e.f64(d.FreeMemory)
	}
	if mask&evDynFreeSwap != 0 {
		e.f64(d.FreeSwap)
	}
	if mask&evDynLastUpdate != 0 {
		e.time(d.LastUpdate)
	}
	if mask&evDynServiceFlag != 0 {
		e.dst = binary.AppendUvarint(e.dst, uint64(d.ServiceFlag))
	}
}

func (d *batchDec) dynamic(prev Dynamic) Dynamic {
	out := prev
	mask := d.uvarint()
	if mask&evDynLoad != 0 {
		out.Load = d.f64()
	}
	if mask&evDynActiveJobs != 0 {
		out.ActiveJobs = int(d.varint())
	}
	if mask&evDynFreeMemory != 0 {
		out.FreeMemory = d.f64()
	}
	if mask&evDynFreeSwap != 0 {
		out.FreeSwap = d.f64()
	}
	if mask&evDynLastUpdate != 0 {
		out.LastUpdate = d.time()
	}
	if mask&evDynServiceFlag != 0 {
		out.ServiceFlag = uint32(d.uvarint())
	}
	return out
}

// MatchConds reports whether the record satisfies the compiled resource
// conditions — the exported face of the Select/Take matcher, used by the
// wire watch endpoint to filter streamed events per subscription.
func (m *Machine) MatchConds(conds []query.RsrcCond) bool {
	return m.matchConds(conds)
}

// ResolveEvents turns locally observed events into self-contained wire
// events. Kinds that expect a consumer re-read get the current record
// attached as a view (one local View at encode time: a header copy whose
// cold part is the store's, so the caller encodes it and never writes
// it); events whose machine has since vanished resolve to nil snapshots,
// which consumers apply as removals (the real removal event is in flight
// regardless).
//
// A non-empty conds filters the stream to the subscriber's slice of the
// namespace: records matching the filter pass whole — dynamic updates
// upgrade to full snapshots, so a record whose dynamics move it INTO the
// filter arrives complete — and records that no longer match pass as
// removals, so the replica tracks the filtered view, not the full fleet.
// Removal events always pass.
func ResolveEvents(b Backend, evs []Event, conds []query.RsrcCond) []WireEvent {
	out := make([]WireEvent, 0, len(evs))
	for _, ev := range evs {
		w := WireEvent{Kind: ev.Kind, Name: ev.Name, Dynamic: ev.Dynamic}
		var gone bool
		switch {
		case ev.Kind == EventRemoved:
		case ev.Kind == EventDynamicUpdated && len(conds) == 0:
			// The event carries its snapshot: only whether the record
			// still exists is in question, and that takes no copy.
			gone = !b.Has(ev.Name)
		default:
			m, err := b.View(ev.Name)
			gone = err != nil || (len(conds) > 0 && !m.MatchConds(conds))
			if !gone {
				w.Machine = m
			}
		}
		if gone {
			// Vanished since the event, or out of the filter: a removal.
			w.Kind, w.Dynamic = EventRemoved, Dynamic{}
		}
		out = append(out, w)
	}
	return out
}

// ApplyWireEvents folds a batch of wire events into a replica backend.
// Kinds carrying snapshots upsert the whole record; dynamic updates take
// the cheap UpdateDynamic path (falling back to the snapshot when the
// replica has never seen the machine); removals — including snapshot
// kinds whose record vanished sender-side — drop the record. Unknown
// names on removal and dynamic-update are skipped: the stream may deliver
// an event for a record the replica already reconciled away.
func ApplyWireEvents(b Backend, evs []WireEvent) {
	for _, ev := range evs {
		switch {
		case ev.Kind == EventRemoved:
			_ = b.Remove(ev.Name)
		case ev.Kind == EventDynamicUpdated && ev.Machine == nil:
			_ = b.UpdateDynamic(ev.Name, ev.Dynamic)
		case ev.Machine == nil:
			_ = b.Remove(ev.Name)
		default:
			upsertMachine(b, ev.Machine)
		}
	}
}

// upsertMachine installs a snapshot, replacing any existing record. The
// replace is skipped when the stored record already equals the snapshot,
// so redelivered events (reconnect overlap) cost a read, not index churn.
func upsertMachine(b Backend, m *Machine) {
	if cur, err := b.Get(m.Static.Name); err == nil {
		if machineEqual(cur, m) {
			return
		}
		_ = b.Remove(m.Static.Name)
	}
	_ = b.Add(m) // backends copy on insert; the snapshot stays caller-owned
}

// machineEqual compares two records field by field (instants compared by
// time, nil and empty slices distinct — the same discipline as the batch
// diff masks).
func machineEqual(a, b *Machine) bool {
	return a.State == b.State &&
		a.Dynamic.Load == b.Dynamic.Load &&
		a.Dynamic.ActiveJobs == b.Dynamic.ActiveJobs &&
		a.Dynamic.FreeMemory == b.Dynamic.FreeMemory &&
		a.Dynamic.FreeSwap == b.Dynamic.FreeSwap &&
		timeEqual(a.Dynamic.LastUpdate, b.Dynamic.LastUpdate) &&
		a.Dynamic.ServiceFlag == b.Dynamic.ServiceFlag &&
		a.Static == b.Static &&
		a.Access == b.Access &&
		stringsEqual(a.Policy.UserGroups, b.Policy.UserGroups) &&
		stringsEqual(a.Policy.ToolGroups, b.Policy.ToolGroups) &&
		a.Policy.ShadowPoolRef == b.Policy.ShadowPoolRef &&
		a.Policy.UsagePolicy == b.Policy.UsagePolicy &&
		paramsEqual(a.Policy.Params, b.Policy.Params) &&
		a.TakenBy == b.TakenBy
}

// ReconcileSnapshot makes the replica's contents equal the fetched
// snapshot: records absent from the snapshot are removed, present ones
// upserted (unchanged records cost a read each, no index churn). It
// returns how many records changed. The snapshot is poll mode's
// freshness unit and the watch path's resync baseline.
func ReconcileSnapshot(b Backend, ms []*Machine) (changed int) {
	want := make(map[string]bool, len(ms))
	for _, m := range ms {
		want[m.Static.Name] = true
	}
	for _, name := range b.Names() {
		if !want[name] {
			_ = b.Remove(name)
			changed++
		}
	}
	for _, m := range ms {
		if cur, err := b.Get(m.Static.Name); err == nil && machineEqual(cur, m) {
			continue
		}
		upsertMachine(b, m)
		changed++
	}
	return changed
}
