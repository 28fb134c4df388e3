// Package wire defines the message protocol the pipeline stages use when
// they are distributed across machines ("queries propagate from one stage
// to the next via TCP or UDP", Section 6). Frames are 4-byte big-endian
// length-prefixed envelope bodies; each envelope carries a message type, a
// correlation id, and a typed payload. The body encoding is pluggable: a
// Codec (JSON or the compact binary format) is negotiated per connection
// by the hello/hello-ack handshake, which also checks that both ends speak
// Protocol. UDP datagrams, which carry no handshake, speak JSON.
package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"actyp/internal/pool"
	"actyp/internal/registry"
	"actyp/internal/shadow"
)

// MaxFrame bounds a frame's payload size; anything larger is rejected as
// corrupt or hostile.
const MaxFrame = 1 << 20

// ErrFrameTooLarge is wrapped by a framer's WriteFrame when a frame
// exceeds MaxFrame. The error precedes any bytes reaching the wire, so the
// connection is still healthy — Client keeps it open and fails only the
// oversized call.
var ErrFrameTooLarge = errors.New("wire: frame exceeds limit")

// Protocol is the wire protocol version this build speaks. Both sides of
// the handshake carry it (Hello.Proto, HelloAck.Proto) and refuse a peer
// below it: there is one protocol, with no compatibility path beneath it.
const Protocol = 1

// Message types.
const (
	TypeQuery     = "query"      // QueryRequest -> QueryReply
	TypeRelease   = "release"    // ReleaseRequest -> ReleaseReply
	TypeRenew     = "renew"      // RenewRequest -> RenewReply (lease heartbeat)
	TypePing      = "ping"       // empty -> empty (liveness)
	TypeSpawnPool = "spawn-pool" // SpawnPoolRequest -> SpawnPoolReply (proxy server)
	TypeError     = "error"      // ErrorReply (any request can fail)
	TypeHello     = "hello"      // Hello -> HelloAck (handshake, first frame only, JSON)
	TypeHelloAck  = "hello-ack"  // handshake answer, JSON
	TypeBusy      = "busy"       // BusyReply (request shed by overload control, never dispatched)
	TypeSelect    = "select"     // SelectRequest -> SelectReply (machine record batch)
	TypeRoute     = "route"      // RouteRequest -> RouteReply (domain-ownership table)

	// The watch family extends the protocol from request/reply to server
	// push: a watch subscribes the connection to the registry change
	// stream and the server then sends watch-events frames carrying the
	// subscribe envelope's id for as long as the subscription lives.
	// Like "busy" and "select", both types travel via the inline-string
	// envelope escape on binary connections (the type table predates
	// them).
	TypeWatch        = "watch"         // WatchRequest -> WatchEvents stream (first frame acks)
	TypeWatchEvents  = "watch-events"  // server->client stream frame
	TypeStreamCancel = "stream-cancel" // client->server: stop the stream with this id
)

// Envelope is the frame body. On the write side the typed payload rides in
// Msg and is encoded by the connection's codec when the frame is written;
// on the read side Payload holds the raw payload bytes in the codec that
// framed them, and Decode routes through that codec.
//
// From and Deadline are the overload-control extensions: From names the
// requesting account or group (the admission-bucket key) and Deadline is
// the caller's absolute deadline in UnixNano (0 = none; work whose
// deadline has passed is shed with a Busy reply instead of dispatched).
// Both are optional: JSON omits them when unset, and the binary codec
// marks their presence in its flags byte.
type Envelope struct {
	Type     string          `json:"type"`
	ID       uint64          `json:"id"`
	From     string          `json:"from,omitempty"`
	Deadline int64           `json:"deadline,omitempty"`
	Payload  json.RawMessage `json:"payload,omitempty"`

	// Msg is the typed payload awaiting encode. It is set by NewEnvelope
	// and consumed by the framing codec; it never travels as-is.
	Msg any `json:"-"`

	// codec is the codec that produced Payload (nil for hand-built
	// envelopes, which default to JSON).
	codec Codec
}

// SetDeadline stamps the caller's absolute deadline on the envelope; the
// zero time clears it.
func (e *Envelope) SetDeadline(t time.Time) {
	if t.IsZero() {
		e.Deadline = 0
		return
	}
	e.Deadline = t.UnixNano()
}

// Expired reports whether the envelope carries a deadline that has already
// passed at now. Envelopes without a deadline never expire.
func (e *Envelope) Expired(now time.Time) bool {
	return e.Deadline != 0 && now.UnixNano() > e.Deadline
}

// Hello opens every connection: the client's protocol version and codec
// advertisement, always encoded in JSON. A server refuses a connection
// whose first frame is not a hello or whose Proto is below Protocol.
// Codecs are listed in preference order. First, when present, piggybacks
// the connection's first request on the handshake: the server dispatches
// it immediately after picking the codec, and the reply (in the chosen
// codec) follows the hello-ack — a one-shot exchange costs one round trip
// instead of two. See CallPiggyback.
type Hello struct {
	Proto  int         `json:"proto"`
	Codecs []string    `json:"codecs"`
	First  *HelloFirst `json:"first,omitempty"`
}

// HelloFirst is the request embedded in a hello frame. The payload is
// JSON regardless of the advertised codecs, like the hello around it.
type HelloFirst struct {
	Type    string          `json:"type"`
	ID      uint64          `json:"id"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// HelloAck is the server's answer, encoded in JSON: its protocol version
// and the codec it picked, in which every later frame on the connection
// travels. A client refuses an ack whose Proto is below Protocol.
type HelloAck struct {
	Proto int    `json:"proto"`
	Codec string `json:"codec"`
}

// QueryRequest submits a (possibly composite) query in a named language.
type QueryRequest struct {
	Lang string `json:"lang,omitempty"` // "" means native
	Text string `json:"text"`
	// TTL and Visited carry the delegation state when a pool manager
	// forwards a basic query to a remote peer.
	TTL     int      `json:"ttl,omitempty"`
	Visited []string `json:"visited,omitempty"`
}

// QueryReply returns the reintegrated result.
type QueryReply struct {
	Lease     *pool.Lease     `json:"lease,omitempty"`
	Shadow    *shadow.Account `json:"shadow,omitempty"`
	Fragments int             `json:"fragments"`
	Succeeded int             `json:"succeeded"`
	ElapsedNS int64           `json:"elapsedNs"`
}

// ReleaseRequest returns a lease. Shadow echoes the grant's account; the
// service frees the account it recorded for the lease and does not read it.
type ReleaseRequest struct {
	Lease  pool.Lease      `json:"lease"`
	Shadow *shadow.Account `json:"shadow,omitempty"`
}

// ReleaseReply acknowledges a release.
type ReleaseReply struct{}

// RenewRequest extends a lease's lifetime (clients of TTL-enabled
// services heartbeat long runs with it).
type RenewRequest struct {
	Lease pool.Lease `json:"lease"`
}

// RenewReply acknowledges a renewal.
type RenewReply struct{}

// SpawnPoolRequest asks a proxy server to start a pool instance on its
// machine.
type SpawnPoolRequest struct {
	Signature  string `json:"signature"`
	Identifier string `json:"identifier"`
	Instance   int    `json:"instance"`
	Objective  string `json:"objective,omitempty"`
}

// SpawnPoolReply reports where the new pool listens.
type SpawnPoolReply struct {
	Instance string `json:"instance"` // unique instance id
	Addr     string `json:"addr"`     // host:port of the pool endpoint
}

// SelectRequest asks the registry endpoint for the machine records
// matching a basic query — the record-batch building block for resync,
// white-pages delegation, and fleet inspection. Like "busy", "select"
// travels via the inline-string envelope escape.
type SelectRequest struct {
	// Text is the basic query in the native language; "" selects every
	// record.
	Text string `json:"text"`
	// Limit caps the returned records (0 = no cap). Total still reports
	// the uncapped match count.
	Limit int `json:"limit,omitempty"`
	// Offset skips that many matching records (in the registry's sorted
	// name order) before Limit applies, so a fleet whose full record
	// batch would exceed MaxFrame is fetched in pages. Encoded on binary
	// connections as an optional trailing field, only when non-zero.
	Offset int `json:"offset,omitempty"`
	// Full pins the reply's record batch to the full per-record encoding
	// instead of the delta batch — the on-wire differential oracle, and
	// the baseline leg of the WAN benchmark.
	Full bool `json:"full,omitempty"`
}

// SelectReply returns the matching records.
type SelectReply struct {
	Total   int       `json:"total"` // matches before Limit was applied
	Records RecordSet `json:"records"`
}

// RecordSet is a machine batch with a codec-dependent wire shape: JSON
// connections (and the Full oracle) carry the plain per-record array,
// binary connections carry the delta/dictionary batch encoding
// (registry.AppendBatch) — fleet records share most of their field
// bytes, so wire cost per record is near the diff, not the record.
type RecordSet struct {
	Machines []*registry.Machine
	// Full forces the full per-record encoding on binary codecs. It is
	// not itself transmitted: a decoded RecordSet reports the format it
	// arrived in.
	Full bool
}

// MarshalJSON encodes just the machine array, so JSON peers see a plain
// record list.
func (r RecordSet) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Machines)
}

// UnmarshalJSON decodes a plain machine array.
func (r *RecordSet) UnmarshalJSON(b []byte) error {
	r.Full = false
	return json.Unmarshal(b, &r.Machines)
}

// WatchRequest subscribes the connection to the server's registry change
// stream. The request payload stays JSON-encodable on every codec (it is
// tiny and sent once per subscription), so only the streamed event frames
// pay for a typed fast path.
type WatchRequest struct {
	// Filter restricts the stream to records matching this basic query
	// text ("" streams every record's events).
	Filter string `json:"filter,omitempty"`
	// Ring sizes the server-side event FIFO for this subscription (<=0
	// uses the server default; the server caps it at that default, see
	// registry.DB.Watch). Bigger rings ride out longer consumer stalls
	// before degrading to a resync.
	Ring int `json:"ring,omitempty"`
}

// RouteRequest asks a daemon for its domain-ownership view: the static
// assignments and rendezvous node set it routes by, plus — when Domains
// is set — the resolved owner of each named domain. Like "select", the
// type travels via the inline-string envelope escape on binary
// connections.
type RouteRequest struct {
	Domains []string `json:"domains,omitempty"`
}

// RouteEntry is one domain's resolved owner.
type RouteEntry struct {
	Domain string `json:"domain"`
	Owner  string `json:"owner"`
	Static bool   `json:"static,omitempty"` // operator-pinned, not rendezvous
}

// RouteReply is a daemon's ownership table as it sees it.
type RouteReply struct {
	// Enabled is false when the daemon runs unpartitioned (it owns the
	// whole namespace and routes nothing).
	Enabled bool `json:"enabled"`
	// Node is the daemon's own node name (the name peers route by).
	Node string `json:"node"`
	// Nodes is the rendezvous candidate set, sorted.
	Nodes []string `json:"nodes,omitempty"`
	// Entries holds the static assignments plus the resolved owners of
	// any requested domains, sorted by domain.
	Entries []RouteEntry `json:"entries,omitempty"`
}

// WatchEvents is one frame of a watch stream: the subscription ack (first
// frame), a batch of events in publish order (less the load snapshots a
// later one of the same machine supersedes), or a resync marker telling
// the subscriber the server dropped events and a full snapshot re-fetch is
// required.
type WatchEvents struct {
	Ack    bool     `json:"ack,omitempty"`
	Resync bool     `json:"resync,omitempty"`
	Events EventSet `json:"events,omitempty"`
}

// EventSet is an event batch with a codec-dependent wire shape: JSON
// connections carry the plain per-event array, binary connections the
// delta/dictionary batch encoding (registry.AppendEventBatch) — a monitor
// sweep's burst of near-identical dynamic updates encodes near the diff,
// not the event.
type EventSet struct {
	Events []registry.WireEvent
}

// MarshalJSON encodes just the event array, the floor shape.
func (e EventSet) MarshalJSON() ([]byte, error) {
	return json.Marshal(e.Events)
}

// UnmarshalJSON decodes a plain event array.
func (e *EventSet) UnmarshalJSON(b []byte) error {
	return json.Unmarshal(b, &e.Events)
}

// ErrorReply carries a failure back to the requester.
type ErrorReply struct {
	Message string `json:"message"`
}

// BusyReply tells the requester its request was shed by overload control
// before any worker touched it — the admission bucket was empty, the lane
// queue was full, or the deadline had already expired. RetryAfterMS hints
// when capacity should exist again; clients back off at least that long
// (with jitter) before retrying.
type BusyReply struct {
	RetryAfterMS int64  `json:"retryAfterMs,omitempty"`
	Reason       string `json:"reason,omitempty"`
}

// NewEnvelope wraps a payload in a typed envelope. The payload is encoded
// lazily, by the codec of the connection that frames the envelope, so
// marshal failures surface from the framer's write (wrapped in ErrEncode)
// rather than here; the error return is kept for call-site compatibility
// and is always nil.
func NewEnvelope(typ string, id uint64, payload any) (*Envelope, error) {
	return &Envelope{Type: typ, ID: id, Msg: payload}, nil
}

// Decode unmarshals the envelope payload into out, using the codec that
// framed the envelope (JSON for hand-built or datagram envelopes).
func (e *Envelope) Decode(out any) error {
	if len(e.Payload) == 0 {
		return fmt.Errorf("wire: %s envelope has no payload", e.Type)
	}
	c := e.codec
	if c == nil {
		c = JSON
	}
	if err := c.DecodePayload(e.Payload, out); err != nil {
		return fmt.Errorf("wire: decode %s payload: %w", e.Type, err)
	}
	return nil
}
