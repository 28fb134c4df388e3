package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"actyp/internal/pool"
	"actyp/internal/registry"
	"actyp/internal/shadow"
)

// Binary frame body layout:
//
//	magic 0xAC | version 0x02 | type uvarint | id uvarint | flags | [deadline] [from] | payload...
//
// A type of 0 is followed by a length-prefixed type string (private
// protocol extensions such as the proxy and stage messages, and the
// message families added after the type table was fixed); nonzero types
// index the fixed table below. The flags byte carries the
// overload-control envelope fields:
//
//	bit0  deadline present: varint UnixNano follows
//	bit1  from present: length-prefixed string follows
//
// The payload region is empty for bare envelopes, or one tag byte plus
// data:
//
//	0x00  generic fallback: the data is a JSON document
//	0x01  typed fast path: uvarint payload-type id, then fixed fields
//
// Fast-path fields are length-prefixed strings (uvarint length + bytes),
// varints for integers, and a presence byte + UnixNano varint for times.
// Version 0x02 is the only frame version: 0x01 bodies (no flags byte) are
// refused by DecodeEnvelope.
const (
	binMagic   = 0xAC
	binVersion = 0x02
)

// Envelope flag bits.
const (
	binFlagDeadline = 1 << 0
	binFlagFrom     = 1 << 1
)

// Envelope type table. 0 is reserved for the inline-string escape; 7 and
// 8 belonged to the hello and hello-ack, which now travel only in JSON.
var binTypeIDs = map[string]uint64{
	TypeQuery:     1,
	TypeRelease:   2,
	TypeRenew:     3,
	TypePing:      4,
	TypeSpawnPool: 5,
	TypeError:     6,
}

var binTypeNames = func() map[uint64]string {
	m := make(map[uint64]string, len(binTypeIDs))
	for name, id := range binTypeIDs {
		m[id] = name
	}
	return m
}()

// Payload tag bytes and fast-path payload-type ids. The ext tag carries
// hand-rolled private payloads (see ExtPayload); the compressed tag
// wraps any of the other three behind an algo byte and a raw length
// (see compress.go). Every binary-family decoder understands all four
// tags whether or not its own writes compress.
const (
	binPayloadJSON       = 0x00
	binPayloadTyped      = 0x01
	binPayloadExt        = 0x02
	binPayloadCompressed = 0x03
)

const (
	pidQueryRequest = iota + 1
	pidQueryReply
	pidReleaseRequest
	pidReleaseReply
	pidRenewRequest
	pidRenewReply
	pidErrorReply
	pidSpawnPoolRequest
	pidSpawnPoolReply
	_ // formerly the hello; ids are part of the frame bytes, so never reuse
	_ // formerly the hello-ack
	pidBusyReply
	pidSelectRequest
	pidSelectReply
	pidWatchEvents
)

type binaryCodec struct {
	// algo, when set, compresses payload regions at or above
	// compressMinSize under the named algorithm ("flate"). It only
	// governs what gets written: every binary codec decodes compressed
	// payloads.
	algo string
}

func (c binaryCodec) Name() string {
	if c.algo != "" {
		return "binary+" + c.algo
	}
	return "binary"
}

// isBinaryFamily reports whether a payload decoded by c can be re-framed
// by any binary codec: compressed and plain binary codecs share payload
// encodings, so payloads move freely between them.
func isBinaryFamily(c Codec) bool {
	_, ok := c.(binaryCodec)
	return ok
}

// rawBodyLen returns what the frame body would measure with a compressed
// payload inflated — the uncompressed-equivalent size WireStats accounts
// as "raw". Bodies without a compressed payload (and bodies this cheap
// parse cannot make sense of) report their own length.
func (binaryCodec) rawBodyLen(body []byte) int {
	if len(body) < 2 || body[0] != binMagic {
		return len(body)
	}
	cur := binCursor{b: body[2:]}
	if tid := cur.uvarint(); tid == 0 {
		cur.string()
	}
	cur.uvarint() // id
	flags := cur.byte()
	if flags&binFlagDeadline != 0 {
		cur.varint()
	}
	if flags&binFlagFrom != 0 {
		cur.string()
	}
	if cur.err != nil || len(cur.b) < 2 || cur.b[0] != binPayloadCompressed {
		return len(body)
	}
	header := len(body) - len(cur.b)
	rawLen, n := binary.Uvarint(cur.b[2:]) // skip tag and algo bytes
	if n <= 0 {
		return len(body)
	}
	// header + plain payload (tag byte included in rawLen's payload bytes)
	return header + int(rawLen)
}

func (c binaryCodec) AppendEnvelope(dst []byte, env *Envelope) ([]byte, error) {
	dst = append(dst, binMagic, binVersion)
	if id, ok := binTypeIDs[env.Type]; ok {
		dst = binary.AppendUvarint(dst, id)
	} else {
		dst = binary.AppendUvarint(dst, 0)
		dst = appendBinString(dst, env.Type)
	}
	dst = binary.AppendUvarint(dst, env.ID)
	var flags byte
	if env.Deadline != 0 {
		flags |= binFlagDeadline
	}
	if env.From != "" {
		flags |= binFlagFrom
	}
	dst = append(dst, flags)
	if env.Deadline != 0 {
		dst = binary.AppendVarint(dst, env.Deadline)
	}
	if env.From != "" {
		dst = appendBinString(dst, env.From)
	}
	payloadStart := len(dst)
	switch {
	case len(env.Payload) > 0:
		switch {
		case isBinaryFamily(env.codec):
			dst = append(dst, env.Payload...) // already tagged
		case env.codec == nil || env.codec == JSON:
			// Raw JSON payload (hand-built envelope or one decoded from a
			// JSON peer): carry it under the generic fallback tag.
			dst = append(dst, binPayloadJSON)
			dst = append(dst, env.Payload...)
		default:
			return dst, fmt.Errorf("cannot re-frame %s payload decoded by %q as %s", env.Type, env.codec.Name(), c.Name())
		}
	case env.Msg != nil:
		var err error
		if dst, err = appendBinPayload(dst, env.Type, env.Msg); err != nil {
			return dst, err
		}
	}
	return c.maybeCompress(dst, payloadStart)
}

// maybeCompress replaces the payload region dst[start:] with its
// compressed form when the codec carries an algorithm, the payload is at
// or above the threshold, and compression actually shrinks it. Payloads
// re-framed from a compressed connection arrive already under the 0x03
// tag and pass through untouched.
func (c binaryCodec) maybeCompress(dst []byte, start int) ([]byte, error) {
	if c.algo == "" {
		return dst, nil
	}
	raw := len(dst) - start
	if raw < compressMinSize || dst[start] == binPayloadCompressed {
		return dst, nil
	}
	ab, ok := algoByte(c.algo)
	if !ok {
		return dst, fmt.Errorf("unknown compression algo %q", c.algo)
	}
	// Never ship a payload the peer's decompressed-size cap is guaranteed
	// to reject, however well it deflates: fail it here, before the wire,
	// so an oversized call costs one call rather than a server round trip.
	if raw > MaxFrame {
		return dst, fmt.Errorf("wire: payload of %d bytes: %w", raw, ErrFrameTooLarge)
	}
	comp, err := deflate(nil, dst[start:])
	if err != nil {
		return dst, fmt.Errorf("compress payload: %w", err)
	}
	// tag + algo byte + uvarint raw length
	overhead := 2 + uvarintLen(uint64(raw))
	if len(comp)+overhead >= raw {
		return dst, nil // incompressible: ship the plain tag
	}
	dst = dst[:start]
	dst = append(dst, binPayloadCompressed, ab)
	dst = binary.AppendUvarint(dst, uint64(raw))
	return append(dst, comp...), nil
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func (binaryCodec) DecodeEnvelope(body []byte) (*Envelope, error) {
	if len(body) < 2 || body[0] != binMagic {
		return nil, errors.New("not a binary frame")
	}
	if version := body[1]; version != binVersion {
		return nil, fmt.Errorf("unsupported binary frame version 0x%02x (want 0x%02x)", version, binVersion)
	}
	cur := binCursor{b: body[2:]}
	typ := ""
	if tid := cur.uvarint(); tid == 0 {
		typ = cur.string()
	} else {
		typ = binTypeNames[tid]
		if typ == "" {
			cur.fail("unknown envelope type id %d", tid)
		}
	}
	id := cur.uvarint()
	env := &Envelope{Type: typ, ID: id, codec: Binary}
	flags := cur.byte()
	if flags&binFlagDeadline != 0 {
		env.Deadline = cur.varint()
	}
	if flags&binFlagFrom != 0 {
		env.From = cur.string()
	}
	if cur.err != nil {
		return nil, cur.err
	}
	if typ == "" {
		return nil, errors.New("envelope without type")
	}
	if len(cur.b) > 0 {
		// Copy the payload out of the pooled read buffer.
		env.Payload = append([]byte(nil), cur.b...)
	}
	return env, nil
}

func (c binaryCodec) DecodePayload(payload []byte, out any) error {
	if len(payload) == 0 {
		return errors.New("empty payload")
	}
	tag, rest := payload[0], payload[1:]
	switch tag {
	case binPayloadJSON:
		return json.Unmarshal(rest, out)
	case binPayloadTyped:
		return decodeBinTyped(rest, out)
	case binPayloadExt:
		ep, ok := out.(ExtPayload)
		if !ok {
			return fmt.Errorf("no ext decoder for %T", out)
		}
		cur := &Cursor{c: binCursor{b: rest}}
		if err := ep.DecodeExt(cur); err != nil {
			return err
		}
		return cur.c.done()
	case binPayloadCompressed:
		raw, err := inflatePayload(rest)
		if err != nil {
			return err
		}
		if len(raw) == 0 || raw[0] == binPayloadCompressed {
			// A nested compressed payload is only ever an amplification
			// attempt; no encoder produces one.
			return errors.New("corrupt compressed payload body")
		}
		return c.DecodePayload(raw, out)
	}
	return fmt.Errorf("unknown payload tag 0x%02x", tag)
}

// appendBinPayload encodes a typed payload: hot message types get the
// hand-rolled fast path, ExtPayload implementations (private protocol
// extensions that opted in) carry their own codec under the ext tag, and
// everything else falls back to JSON under the generic tag.
func appendBinPayload(dst []byte, typ string, msg any) ([]byte, error) {
	if ep, ok := msg.(ExtPayload); ok {
		dst = append(dst, binPayloadExt)
		return ep.AppendExt(dst), nil
	}
	switch m := msg.(type) {
	case QueryRequest:
		return appendBinQueryRequest(dst, &m), nil
	case *QueryRequest:
		return appendBinQueryRequest(dst, m), nil
	case QueryReply:
		return appendBinQueryReply(dst, &m), nil
	case *QueryReply:
		return appendBinQueryReply(dst, m), nil
	case ReleaseRequest:
		return appendBinReleaseRequest(dst, &m), nil
	case *ReleaseRequest:
		return appendBinReleaseRequest(dst, m), nil
	case ReleaseReply, *ReleaseReply:
		return appendBinEmpty(dst, pidReleaseReply), nil
	case RenewRequest:
		return appendBinRenewRequest(dst, &m), nil
	case *RenewRequest:
		return appendBinRenewRequest(dst, m), nil
	case RenewReply, *RenewReply:
		return appendBinEmpty(dst, pidRenewReply), nil
	case ErrorReply:
		return appendBinErrorReply(dst, &m), nil
	case *ErrorReply:
		return appendBinErrorReply(dst, m), nil
	case SpawnPoolRequest:
		return appendBinSpawnPoolRequest(dst, &m), nil
	case *SpawnPoolRequest:
		return appendBinSpawnPoolRequest(dst, m), nil
	case SpawnPoolReply:
		return appendBinSpawnPoolReply(dst, &m), nil
	case *SpawnPoolReply:
		return appendBinSpawnPoolReply(dst, m), nil
	case BusyReply:
		return appendBinBusyReply(dst, &m), nil
	case *BusyReply:
		return appendBinBusyReply(dst, m), nil
	case SelectRequest:
		return appendBinSelectRequest(dst, &m), nil
	case *SelectRequest:
		return appendBinSelectRequest(dst, m), nil
	case SelectReply:
		return appendBinSelectReply(dst, &m)
	case *SelectReply:
		return appendBinSelectReply(dst, m)
	case WatchEvents:
		return appendBinWatchEvents(dst, &m), nil
	case *WatchEvents:
		return appendBinWatchEvents(dst, m), nil
	}
	raw, err := json.Marshal(msg)
	if err != nil {
		return dst, fmt.Errorf("marshal %s payload: %w", typ, err)
	}
	dst = append(dst, binPayloadJSON)
	return append(dst, raw...), nil
}

func decodeBinTyped(b []byte, out any) error {
	cur := binCursor{b: b}
	pid := cur.uvarint()
	if cur.err != nil {
		return cur.err
	}
	check := func(want uint64) bool {
		if pid != want {
			cur.fail("payload type id %d does not decode into %T", pid, out)
			return false
		}
		return true
	}
	switch v := out.(type) {
	case *QueryRequest:
		if check(pidQueryRequest) {
			readBinQueryRequest(&cur, v)
		}
	case *QueryReply:
		if check(pidQueryReply) {
			readBinQueryReply(&cur, v)
		}
	case *ReleaseRequest:
		if check(pidReleaseRequest) {
			readBinReleaseRequest(&cur, v)
		}
	case *ReleaseReply:
		check(pidReleaseReply)
	case *RenewRequest:
		if check(pidRenewRequest) {
			v.Lease = readBinLease(&cur)
		}
	case *RenewReply:
		check(pidRenewReply)
	case *ErrorReply:
		if check(pidErrorReply) {
			v.Message = cur.string()
		}
	case *SpawnPoolRequest:
		if check(pidSpawnPoolRequest) {
			v.Signature = cur.string()
			v.Identifier = cur.string()
			v.Instance = int(cur.varint())
			v.Objective = cur.string()
		}
	case *SpawnPoolReply:
		if check(pidSpawnPoolReply) {
			v.Instance = cur.string()
			v.Addr = cur.string()
		}
	case *BusyReply:
		if check(pidBusyReply) {
			v.RetryAfterMS = cur.varint()
			v.Reason = cur.string()
		}
	case *SelectRequest:
		if check(pidSelectRequest) {
			v.Text = cur.string()
			v.Limit = int(cur.varint())
			v.Full = cur.byte() != 0
			if len(cur.b) > 0 { // optional trailing page offset
				v.Offset = int(cur.varint())
			}
		}
	case *SelectReply:
		if check(pidSelectReply) {
			readBinSelectReply(&cur, v)
		}
	case *WatchEvents:
		if check(pidWatchEvents) {
			readBinWatchEvents(&cur, v)
		}
	default:
		return fmt.Errorf("no binary decoder for %T", out)
	}
	return cur.done()
}

func appendBinQueryRequest(dst []byte, m *QueryRequest) []byte {
	dst = append(dst, binPayloadTyped)
	dst = binary.AppendUvarint(dst, pidQueryRequest)
	dst = appendBinString(dst, m.Lang)
	dst = appendBinString(dst, m.Text)
	dst = binary.AppendVarint(dst, int64(m.TTL))
	return appendBinStrings(dst, m.Visited)
}

func readBinQueryRequest(cur *binCursor, m *QueryRequest) {
	m.Lang = cur.string()
	m.Text = cur.string()
	m.TTL = int(cur.varint())
	m.Visited = cur.strings()
}

func appendBinQueryReply(dst []byte, m *QueryReply) []byte {
	dst = append(dst, binPayloadTyped)
	dst = binary.AppendUvarint(dst, pidQueryReply)
	var flags byte
	if m.Lease != nil {
		flags |= 1
	}
	if m.Shadow != nil {
		flags |= 2
	}
	dst = append(dst, flags)
	if m.Lease != nil {
		dst = appendBinLease(dst, *m.Lease)
	}
	if m.Shadow != nil {
		dst = appendBinAccount(dst, *m.Shadow)
	}
	dst = binary.AppendVarint(dst, int64(m.Fragments))
	dst = binary.AppendVarint(dst, int64(m.Succeeded))
	return binary.AppendVarint(dst, m.ElapsedNS)
}

func readBinQueryReply(cur *binCursor, m *QueryReply) {
	flags := cur.byte()
	if flags&1 != 0 {
		lease := readBinLease(cur)
		m.Lease = &lease
	}
	if flags&2 != 0 {
		acct := readBinAccount(cur)
		m.Shadow = &acct
	}
	m.Fragments = int(cur.varint())
	m.Succeeded = int(cur.varint())
	m.ElapsedNS = cur.varint()
}

func appendBinReleaseRequest(dst []byte, m *ReleaseRequest) []byte {
	dst = append(dst, binPayloadTyped)
	dst = binary.AppendUvarint(dst, pidReleaseRequest)
	dst = appendBinLease(dst, m.Lease)
	if m.Shadow == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return appendBinAccount(dst, *m.Shadow)
}

func readBinReleaseRequest(cur *binCursor, m *ReleaseRequest) {
	m.Lease = readBinLease(cur)
	if cur.byte() != 0 {
		acct := readBinAccount(cur)
		m.Shadow = &acct
	}
}

func appendBinRenewRequest(dst []byte, m *RenewRequest) []byte {
	dst = append(dst, binPayloadTyped)
	dst = binary.AppendUvarint(dst, pidRenewRequest)
	return appendBinLease(dst, m.Lease)
}

func appendBinErrorReply(dst []byte, m *ErrorReply) []byte {
	dst = append(dst, binPayloadTyped)
	dst = binary.AppendUvarint(dst, pidErrorReply)
	return appendBinString(dst, m.Message)
}

func appendBinSpawnPoolRequest(dst []byte, m *SpawnPoolRequest) []byte {
	dst = append(dst, binPayloadTyped)
	dst = binary.AppendUvarint(dst, pidSpawnPoolRequest)
	dst = appendBinString(dst, m.Signature)
	dst = appendBinString(dst, m.Identifier)
	dst = binary.AppendVarint(dst, int64(m.Instance))
	return appendBinString(dst, m.Objective)
}

func appendBinSpawnPoolReply(dst []byte, m *SpawnPoolReply) []byte {
	dst = append(dst, binPayloadTyped)
	dst = binary.AppendUvarint(dst, pidSpawnPoolReply)
	dst = appendBinString(dst, m.Instance)
	return appendBinString(dst, m.Addr)
}

// appendBinBusyReply is a typed fast path even though "busy" travels via
// the inline-string envelope escape (the type table predates it).
func appendBinBusyReply(dst []byte, m *BusyReply) []byte {
	dst = append(dst, binPayloadTyped)
	dst = binary.AppendUvarint(dst, pidBusyReply)
	dst = binary.AppendVarint(dst, m.RetryAfterMS)
	return appendBinString(dst, m.Reason)
}

func appendBinSelectRequest(dst []byte, m *SelectRequest) []byte {
	dst = append(dst, binPayloadTyped)
	dst = binary.AppendUvarint(dst, pidSelectRequest)
	dst = appendBinString(dst, m.Text)
	dst = binary.AppendVarint(dst, int64(m.Limit))
	if m.Full {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	// Optional trailing page offset: omitted when zero, so an unpaged
	// request keeps its shorter encoding.
	if m.Offset > 0 {
		dst = binary.AppendVarint(dst, int64(m.Offset))
	}
	return dst
}

// Record-set format bytes inside a binary select reply.
const (
	recordsFull  = 0x00 // full per-record encoding: a JSON machine array
	recordsDelta = 0x01 // delta/dictionary batch (registry.AppendBatch)
)

// appendBinSelectReply encodes the record set as a delta/dictionary
// batch, or — when the reply pins Full (the differential oracle and the
// benchmark baseline) — as the full per-record JSON array.
func appendBinSelectReply(dst []byte, m *SelectReply) ([]byte, error) {
	dst = append(dst, binPayloadTyped)
	dst = binary.AppendUvarint(dst, pidSelectReply)
	dst = binary.AppendVarint(dst, int64(m.Total))
	if m.Records.Full {
		raw, err := json.Marshal(m.Records.Machines)
		if err != nil {
			return dst, fmt.Errorf("marshal select records: %w", err)
		}
		dst = append(dst, recordsFull)
		return appendBinBytes(dst, raw), nil
	}
	dst = append(dst, recordsDelta)
	return appendBinBytes(dst, registry.AppendBatch(nil, m.Records.Machines)), nil
}

func readBinSelectReply(cur *binCursor, m *SelectReply) {
	m.Total = int(cur.varint())
	format := cur.byte()
	body := cur.bytes()
	if cur.err != nil {
		return
	}
	switch format {
	case recordsFull:
		m.Records.Full = true
		if err := json.Unmarshal(body, &m.Records.Machines); err != nil {
			cur.fail("unmarshal select records: %v", err)
		}
	case recordsDelta:
		ms, err := registry.DecodeBatch(body)
		if err != nil {
			cur.fail("decode select batch: %v", err)
			return
		}
		m.Records.Machines = ms
	default:
		cur.fail("unknown record-set format 0x%02x", format)
	}
}

// appendBinWatchEvents encodes a watch stream frame: two flag bytes and
// the delta/dictionary event batch (registry.AppendEventBatch) — the
// stream's hot path, priced like the select reply's record batches.
func appendBinWatchEvents(dst []byte, m *WatchEvents) []byte {
	dst = append(dst, binPayloadTyped)
	dst = binary.AppendUvarint(dst, pidWatchEvents)
	var flags byte
	if m.Ack {
		flags |= 1
	}
	if m.Resync {
		flags |= 2
	}
	dst = append(dst, flags)
	return appendBinBytes(dst, registry.AppendEventBatch(nil, m.Events.Events))
}

func readBinWatchEvents(cur *binCursor, m *WatchEvents) {
	flags := cur.byte()
	m.Ack = flags&1 != 0
	m.Resync = flags&2 != 0
	body := cur.bytes()
	if cur.err != nil {
		return
	}
	evs, err := registry.DecodeEventBatch(body)
	if err != nil {
		cur.fail("decode watch event batch: %v", err)
		return
	}
	m.Events.Events = evs
}

func appendBinEmpty(dst []byte, pid uint64) []byte {
	dst = append(dst, binPayloadTyped)
	return binary.AppendUvarint(dst, pid)
}

func appendBinLease(dst []byte, l pool.Lease) []byte {
	dst = appendBinString(dst, l.ID)
	dst = appendBinString(dst, l.Machine)
	dst = appendBinString(dst, l.Addr)
	dst = binary.AppendVarint(dst, int64(l.ExecUnitPort))
	dst = binary.AppendVarint(dst, int64(l.MountMgrPort))
	dst = appendBinString(dst, l.AccessKey)
	dst = appendBinString(dst, l.Pool)
	return appendBinTime(dst, l.Granted)
}

func readBinLease(cur *binCursor) pool.Lease {
	var l pool.Lease
	l.ID = cur.string()
	l.Machine = cur.string()
	l.Addr = cur.string()
	l.ExecUnitPort = int(cur.varint())
	l.MountMgrPort = int(cur.varint())
	l.AccessKey = cur.string()
	l.Pool = cur.string()
	l.Granted = cur.time()
	return l
}

func appendBinAccount(dst []byte, a shadow.Account) []byte {
	dst = appendBinString(dst, a.Machine)
	dst = appendBinString(dst, a.User)
	return binary.AppendVarint(dst, int64(a.UID))
}

func readBinAccount(cur *binCursor) shadow.Account {
	var a shadow.Account
	a.Machine = cur.string()
	a.User = cur.string()
	a.UID = int(cur.varint())
	return a
}

func appendBinString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBinBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendBinStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendBinString(dst, s)
	}
	return dst
}

// appendBinTime encodes a presence byte plus UnixNano; the zero time has
// no defined UnixNano, so it travels as the absent marker.
func appendBinTime(dst []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return binary.AppendVarint(dst, t.UnixNano())
}

// binCursor walks a binary payload with latched errors and hard bounds
// checks, so corrupt or hostile frames fail cleanly instead of panicking
// or over-allocating.
type binCursor struct {
	b   []byte
	err error
}

func (c *binCursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

func (c *binCursor) byte() byte {
	if c.err != nil {
		return 0
	}
	if len(c.b) == 0 {
		c.fail("truncated payload: missing byte")
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

func (c *binCursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.fail("truncated payload: bad uvarint")
		return 0
	}
	c.b = c.b[n:]
	return v
}

func (c *binCursor) varint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b)
	if n <= 0 {
		c.fail("truncated payload: bad varint")
		return 0
	}
	c.b = c.b[n:]
	return v
}

func (c *binCursor) string() string {
	n := c.uvarint()
	if c.err != nil {
		return ""
	}
	if n > uint64(len(c.b)) {
		c.fail("truncated payload: string of %d bytes with %d left", n, len(c.b))
		return ""
	}
	s := string(c.b[:n])
	c.b = c.b[n:]
	return s
}

// bytes reads a length-prefixed byte string, copying it out of the pooled
// read buffer. An empty string decodes as nil.
func (c *binCursor) bytes() []byte {
	n := c.uvarint()
	if c.err != nil {
		return nil
	}
	if n > uint64(len(c.b)) {
		c.fail("truncated payload: byte string of %d bytes with %d left", n, len(c.b))
		return nil
	}
	if n == 0 {
		return nil
	}
	out := append([]byte(nil), c.b[:n]...)
	c.b = c.b[n:]
	return out
}

func (c *binCursor) strings() []string {
	n := c.uvarint()
	if c.err != nil {
		return nil
	}
	// Every element costs at least one length byte, so a count past the
	// remaining bytes is corrupt — reject before allocating.
	if n > uint64(len(c.b)) {
		c.fail("truncated payload: %d strings with %d bytes left", n, len(c.b))
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n && c.err == nil; i++ {
		out = append(out, c.string())
	}
	return out
}

func (c *binCursor) time() time.Time {
	if c.byte() == 0 {
		return time.Time{}
	}
	ns := c.varint()
	if c.err != nil {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

func (c *binCursor) done() error {
	if c.err != nil {
		return c.err
	}
	if len(c.b) != 0 {
		return fmt.Errorf("payload has %d trailing bytes", len(c.b))
	}
	return nil
}
