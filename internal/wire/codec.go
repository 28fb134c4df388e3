package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"

	"actyp/internal/metrics"
)

// Codec is the encoding a connection's frames travel in. A codec encodes
// and decodes whole envelopes (the fixed type/id header plus the payload
// bytes) and decodes the payloads it produced. Connections pick a codec in
// the hello/hello-ack handshake (see ServeConnOpts and Client), which
// itself always travels in JSON; UDP datagrams, which carry no handshake,
// are JSON too.
type Codec interface {
	// Name identifies the codec during negotiation ("json", "binary",
	// "binary+flate").
	Name() string
	// AppendEnvelope appends env, encoded as one frame body, to dst and
	// returns the extended slice. The envelope's typed payload (Msg) is
	// encoded by this codec's rules; marshal failures surface here, before
	// any byte reaches a wire.
	AppendEnvelope(dst []byte, env *Envelope) ([]byte, error)
	// DecodeEnvelope parses one frame body. body is only valid during the
	// call (framers recycle read buffers), so implementations copy what
	// they keep.
	DecodeEnvelope(body []byte) (*Envelope, error)
	// DecodePayload unmarshals payload bytes this codec produced into out.
	DecodePayload(payload []byte, out any) error
}

// JSON is the debug codec and the negotiation floor: frames are JSON
// envelopes. It is the differential oracle the binary codec is tested
// against, the handshake's encoding, and what negotiation lands on when
// the two ends share no binary codec.
var JSON Codec = jsonCodec{}

// Binary is the compact codec: length-prefixed fields, varint ids, no
// reflection on the fixed envelope header, with per-type fast paths for
// the hot payloads and a JSON fallback for everything else. Its envelope
// header carries the overload-control fields (From, Deadline) behind a
// flags byte.
var Binary Codec = binaryCodec{}

// defaultCodecs is the negotiation preference used when a client or server
// is not configured with an explicit list. Tests may override it to force
// a whole run onto one codec.
var defaultCodecs = []Codec{Binary, JSON}

// DefaultCodecs returns the default negotiation preference, best first.
func DefaultCodecs() []Codec {
	return append([]Codec(nil), defaultCodecs...)
}

// CodecByName resolves a codec name ("json", "binary"), optionally
// carrying a compression suffix ("binary+flate"). Unknown algorithms and
// misplaced suffixes get errors that name the fix.
func CodecByName(name string) (Codec, error) {
	base, algo := splitCodecName(name)
	var inner Codec
	switch base {
	case "json":
		inner = JSON
	case "binary":
		inner = Binary
	case AlgoFlate, "gzip", "zlib", "zstd", "lz4", "snappy":
		// A bare algorithm name is a common misspelling of the real
		// syntax; point at it.
		return nil, fmt.Errorf("wire: %q is a compression algo, not a codec: append it to a base codec, e.g. %q", name, "binary+"+AlgoFlate)
	default:
		return nil, fmt.Errorf("wire: unknown codec %q (want json, binary, or binary+%s)", name, AlgoFlate)
	}
	if algo == "" {
		return inner, nil
	}
	c, err := Compressed(inner, algo)
	if err != nil {
		return nil, fmt.Errorf("%w (in codec spec %q)", err, name)
	}
	return c, nil
}

// ParseCodecs resolves a flag-style codec spec into a preference list:
// "" or "auto" means the default preference (binary first), a single name
// pins that codec (negotiation still lands on JSON against a peer that
// cannot speak it), and a comma-separated list sets an explicit order.
// Compressed codecs spell as "<codec>+<algo>" ("binary+flate").
func ParseCodecs(spec string) ([]Codec, error) {
	if spec == "" || spec == "auto" {
		return DefaultCodecs(), nil
	}
	var out []Codec
	for _, name := range strings.Split(spec, ",") {
		c, err := CodecByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func codecNames(cs []Codec) []string {
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.Name()
	}
	return names
}

// ErrEncode wraps failures producing a frame's bytes (payload marshal,
// unsupported re-framing). The error precedes any byte reaching the wire,
// so the connection is still healthy — only the failed message is lost.
var ErrEncode = errors.New("wire: encode")

// jsonCodec is the JSON implementation of Codec.
type jsonCodec struct{}

func (jsonCodec) Name() string { return "json" }

// jsonEnvelope is the marshalled shape; Envelope itself carries extra
// bookkeeping (Msg, codec) that must not leak onto the wire. From and
// Deadline are omitted when unset.
type jsonEnvelope struct {
	Type     string          `json:"type"`
	ID       uint64          `json:"id"`
	From     string          `json:"from,omitempty"`
	Deadline int64           `json:"deadline,omitempty"`
	Payload  json.RawMessage `json:"payload,omitempty"`
}

func (jsonCodec) AppendEnvelope(dst []byte, env *Envelope) ([]byte, error) {
	payload := []byte(env.Payload)
	switch {
	case len(payload) > 0:
		if env.codec != nil && env.codec != JSON {
			return dst, fmt.Errorf("cannot re-frame %s payload decoded by %q as json", env.Type, env.codec.Name())
		}
	case env.Msg != nil:
		raw, err := json.Marshal(env.Msg)
		if err != nil {
			return dst, fmt.Errorf("marshal %s payload: %w", env.Type, err)
		}
		payload = raw
	}
	raw, err := json.Marshal(jsonEnvelope{Type: env.Type, ID: env.ID, From: env.From, Deadline: env.Deadline, Payload: payload})
	if err != nil {
		return dst, fmt.Errorf("marshal %s envelope: %w", env.Type, err)
	}
	return append(dst, raw...), nil
}

func (jsonCodec) DecodeEnvelope(body []byte) (*Envelope, error) {
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, fmt.Errorf("unmarshal: %w", err)
	}
	if env.Type == "" {
		return nil, errors.New("envelope without type")
	}
	env.codec = JSON
	return &env, nil
}

func (jsonCodec) DecodePayload(payload []byte, out any) error {
	return json.Unmarshal(payload, out)
}

// pooledBuf bounds how large a pooled codec buffer may grow before it is
// dropped instead of recycled, so one oversized frame cannot pin memory.
const pooledBuf = 64 << 10

var writePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

var readPool = sync.Pool{New: func() any {
	b := make([]byte, 4096)
	return &b
}}

// Framer binds a codec to one side of a connection: it writes and reads
// 4-byte big-endian length-prefixed frames whose bodies the codec encodes.
// The framer itself is stateless and safe for concurrent use; per-frame
// scratch comes from shared pools.
type Framer struct {
	codec Codec
	stats *metrics.WireStats
}

// NewFramer builds a framer over c (nil means JSON).
func NewFramer(c Codec) *Framer {
	return NewFramerStats(c, nil)
}

// NewFramerStats builds a framer over c that additionally accounts every
// frame it writes and reads into stats under the codec's name (nil stats
// means no accounting). Wire bytes include the length prefix; raw bytes
// are the uncompressed-equivalent size, so raw/wire is the connection's
// compression ratio.
func NewFramerStats(c Codec, stats *metrics.WireStats) *Framer {
	if c == nil {
		c = JSON
	}
	return &Framer{codec: c, stats: stats}
}

// rawFrameSize returns the uncompressed-equivalent size of a frame whose
// body is encoded by c: for a binary-family frame carrying a compressed
// payload, the size it would have had with the payload inflated;
// otherwise the frame size as-is.
func rawFrameSize(c Codec, body []byte) int {
	if bc, ok := c.(binaryCodec); ok {
		return 4 + bc.rawBodyLen(body)
	}
	return 4 + len(body)
}

// Codec returns the codec the framer is bound to.
func (f *Framer) Codec() Codec { return f.codec }

// WriteFrame encodes the envelope and writes one length-prefixed frame.
// Header and body go out in a single Write from a pooled buffer, so frames
// from interleaved writers stay atomic per call and the hot path does not
// allocate. Encode failures (ErrEncode, ErrFrameTooLarge) are reported
// before any byte reaches w — the connection stays healthy.
func (f *Framer) WriteFrame(w io.Writer, env *Envelope) error {
	bp := writePool.Get().(*[]byte)
	defer func() {
		if cap(*bp) <= pooledBuf {
			writePool.Put(bp)
		}
	}()
	buf := append((*bp)[:0], 0, 0, 0, 0) // length prefix, patched below
	buf, err := f.codec.AppendEnvelope(buf, env)
	*bp = buf[:0]
	if err != nil {
		// Both sentinels stay in the chain: a compressing codec rejects
		// over-cap payloads inside AppendEnvelope with ErrFrameTooLarge,
		// and callers match on that as well as on ErrEncode.
		return fmt.Errorf("%w: %w", ErrEncode, err)
	}
	body := len(buf) - 4
	if body > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes: %w", body, ErrFrameTooLarge)
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(body))
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	if f.stats != nil {
		f.stats.Sent(f.codec.Name(), len(buf), rawFrameSize(f.codec, buf[4:]))
	}
	return nil
}

// ReadFrame reads one length-prefixed frame and decodes the envelope. The
// body is read into a pooled buffer; codecs copy the payload out during
// decode, so recycling the buffer is safe.
func (f *Framer) ReadFrame(r io.Reader) (*Envelope, error) {
	bp, body, err := readFrameBody(r)
	if err != nil {
		return nil, err
	}
	defer putReadBuf(bp)
	return f.decode(body)
}

// decode accounts and decodes one frame body read by readFrameBody.
func (f *Framer) decode(body []byte) (*Envelope, error) {
	if f.stats != nil {
		f.stats.Received(f.codec.Name(), 4+len(body), rawFrameSize(f.codec, body))
	}
	env, err := f.codec.DecodeEnvelope(body)
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	return env, nil
}

// readFrameBody reads one raw frame body into a pooled buffer. The caller
// must release it with putReadBuf once the body has been decoded.
func readFrameBody(r io.Reader) (*[]byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, nil, err // io.EOF signals a clean close
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n == 0 || n > MaxFrame {
		return nil, nil, fmt.Errorf("wire: bad frame length %d", n)
	}
	bp := readPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	body := (*bp)[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		putReadBuf(bp)
		return nil, nil, fmt.Errorf("wire: read body: %w", err)
	}
	return bp, body, nil
}

func putReadBuf(bp *[]byte) {
	if cap(*bp) <= pooledBuf {
		readPool.Put(bp)
	}
}

// jsonFramer frames the handshake, which travels in JSON both ways.
var jsonFramer = NewFramer(JSON)

// EncodeDatagram encodes one envelope as a standalone datagram body (no
// length prefix). Datagrams carry no negotiation state, so they always
// travel in JSON, the floor both ends are guaranteed to share.
func EncodeDatagram(env *Envelope) ([]byte, error) {
	b, err := JSON.AppendEnvelope(nil, env)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrEncode, err)
	}
	return b, nil
}

// DecodeDatagram decodes a standalone JSON datagram body.
func DecodeDatagram(b []byte) (*Envelope, error) {
	env, err := JSON.DecodeEnvelope(b)
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	return env, nil
}
