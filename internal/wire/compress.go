package wire

// Negotiated per-frame compression, layered inside the binary codec
// family at the payload region. A compressed codec ("binary+flate")
// writes the exact binary envelope header, so the dispatch-relevant
// fields (type, id, deadline, from) stay readable without inflating
// anything. Only the payload region
// changes, behind the payload tag byte (the "flag"):
//
//	0x03 | algo byte | uvarint rawLen | compressed bytes
//
// where the compressed bytes inflate to a normal tagged payload (0x00
// JSON, 0x01 typed, or 0x02 ext) of exactly rawLen bytes. Payloads below
// compressMinSize keep their plain tag — small control frames pay zero
// compression CPU — as do payloads that fail to shrink.
//
// The name travels through the same hello codec-preference list as every
// other codec, so a peer that does not offer it lands on plain binary; and
// because ANY binary-family decoder understands tag 0x03, a decoded
// compressed payload can be re-framed onto an uncompressed binary
// connection without re-encoding. Corrupt or truncated compressed input
// fails in DecodePayload — one message, never the connection.

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"sync"
)

// compressMinSize is the payload-size threshold below which compressed
// codecs ship the plain tagged payload: control frames and small replies
// never pay flate CPU.
const compressMinSize = 512

// Compression algorithm bytes carried after the 0x03 tag.
const algoFlate = 0x01

// AlgoFlate is the stdlib DEFLATE algorithm, the only one currently
// registered. The name appears in codec names ("binary+flate") and in
// ParseCodecs specs.
const AlgoFlate = "flate"

func algoByte(algo string) (byte, bool) {
	if algo == AlgoFlate {
		return algoFlate, true
	}
	return 0, false
}

// Compressed wraps a binary-family codec with negotiated per-frame
// compression under the given algorithm ("flate"). The JSON codec cannot
// be wrapped: it has no payload tag to carry the compressed form.
func Compressed(inner Codec, algo string) (Codec, error) {
	if _, ok := algoByte(algo); !ok {
		return nil, fmt.Errorf("wire: unknown compression algo %q (want %s)", algo, AlgoFlate)
	}
	bc, ok := inner.(binaryCodec)
	if !ok {
		return nil, fmt.Errorf("wire: codec %q cannot carry compression: only the binary family has a payload tag for it", inner.Name())
	}
	if bc.algo != "" {
		return nil, fmt.Errorf("wire: codec %q is already compressed", bc.Name())
	}
	bc.algo = algo
	return bc, nil
}

var flateWriterPool = sync.Pool{New: func() any {
	w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
	return w
}}

var flateReaderPool = sync.Pool{New: func() any {
	return flate.NewReader(bytes.NewReader(nil))
}}

// deflate compresses src and appends the result to dst.
func deflate(dst, src []byte) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(len(src) / 2)
	w := flateWriterPool.Get().(*flate.Writer)
	defer flateWriterPool.Put(w)
	w.Reset(&buf)
	if _, err := w.Write(src); err != nil {
		return dst, err
	}
	if err := w.Close(); err != nil {
		return dst, err
	}
	return append(dst, buf.Bytes()...), nil
}

// inflatePayload decodes a compressed payload region (everything after
// the 0x03 tag): algo byte, uvarint raw length, compressed stream. The
// claimed raw length is capped at MaxFrame before any allocation — a
// decompression bomb is rejected, not inflated — and the stream must
// reproduce exactly that many bytes.
func inflatePayload(b []byte) ([]byte, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("truncated compressed payload (%d bytes)", len(b))
	}
	if b[0] != algoFlate {
		return nil, fmt.Errorf("unknown compression algo byte 0x%02x", b[0])
	}
	rawLen, n := binary.Uvarint(b[1:])
	if n <= 0 {
		return nil, fmt.Errorf("truncated compressed payload: bad raw length")
	}
	if rawLen == 0 || rawLen > MaxFrame {
		return nil, fmt.Errorf("compressed payload claims %d raw bytes (cap %d)", rawLen, MaxFrame)
	}
	r := flateReaderPool.Get().(io.ReadCloser)
	defer flateReaderPool.Put(r)
	if err := r.(flate.Resetter).Reset(bytes.NewReader(b[1+n:]), nil); err != nil {
		return nil, err
	}
	// Read one byte past the claimed length: a stream holding more than
	// it declared is as corrupt as one holding less.
	out := make([]byte, rawLen+1)
	total := 0
	for total < len(out) {
		n, err := r.Read(out[total:])
		total += n
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("inflate: %w", err)
		}
	}
	if uint64(total) != rawLen {
		return nil, fmt.Errorf("compressed payload inflated to %d bytes, claimed %d", total, rawLen)
	}
	return out[:rawLen], nil
}

// splitCodecName splits "binary+flate" into base and algo ("" when the
// name carries none).
func splitCodecName(name string) (base, algo string) {
	if i := strings.IndexByte(name, '+'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return name, ""
}
