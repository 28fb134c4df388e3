package wire

// Extension payloads: the payloads of methods declared outside this
// package (the stage protocol's) can opt out of the JSON fallback inside
// binary frames by implementing ExtPayload — a hand-rolled field codec
// using the same length-prefixed primitives as the built-in fast paths. Such payloads
// travel under their own tag byte (0x02), so a peer without a decoder for
// the type fails to decode that one message (an error reply; the
// connection survives) — the same one-message blast radius as any payload
// decode failure. JSON connections are unaffected: the JSON codec
// marshals the struct as always.

import (
	"encoding/binary"
	"time"

	"actyp/internal/pool"
)

// ExtPayload is implemented by payload types that carry their own binary
// field codec. AppendExt appends the fields to dst and returns the
// extended slice; DecodeExt reads them back from the cursor in the same
// order. Implementations must consume exactly what they wrote — trailing
// bytes fail the decode.
type ExtPayload interface {
	AppendExt(dst []byte) []byte
	DecodeExt(cur *Cursor) error
}

// Cursor walks an extension payload with latched errors and hard bounds
// checks: after the first failure every read returns a zero value, and
// the error surfaces once from the decode. Corrupt or hostile frames
// fail cleanly instead of panicking or over-allocating.
type Cursor struct {
	c binCursor
}

// Err returns the latched decode error, if any.
func (c *Cursor) Err() error { return c.c.err }

// Byte reads one byte.
func (c *Cursor) Byte() byte { return c.c.byte() }

// Uvarint reads an unsigned varint.
func (c *Cursor) Uvarint() uint64 { return c.c.uvarint() }

// Varint reads a signed varint.
func (c *Cursor) Varint() int64 { return c.c.varint() }

// String reads a length-prefixed string.
func (c *Cursor) String() string { return c.c.string() }

// Strings reads a counted list of length-prefixed strings.
func (c *Cursor) Strings() []string { return c.c.strings() }

// Bytes reads a length-prefixed byte string (copied out; empty decodes
// as nil).
func (c *Cursor) Bytes() []byte { return c.c.bytes() }

// Time reads a presence byte plus UnixNano varint.
func (c *Cursor) Time() time.Time { return c.c.time() }

// Lease reads a lease in the shared wire layout (see AppendLease).
func (c *Cursor) Lease() pool.Lease { return readBinLease(&c.c) }

// AppendUvarint appends an unsigned varint.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendVarint appends a signed varint.
func AppendVarint(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte { return appendBinString(dst, s) }

// AppendStrings appends a counted list of length-prefixed strings.
func AppendStrings(dst []byte, ss []string) []byte { return appendBinStrings(dst, ss) }

// AppendBytes appends a length-prefixed byte string.
func AppendBytes(dst, b []byte) []byte { return appendBinBytes(dst, b) }

// AppendTime appends a presence byte plus UnixNano varint; the zero time
// travels as the absent marker.
func AppendTime(dst []byte, t time.Time) []byte { return appendBinTime(dst, t) }

// AppendLease appends a lease in the same layout the built-in fast paths
// use, so extension payloads carrying leases stay byte-compatible with
// them.
func AppendLease(dst []byte, l pool.Lease) []byte { return appendBinLease(dst, l) }
