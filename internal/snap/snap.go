// Package snap implements the checksummed, versioned binary image format
// behind crash-consistent snapshot/restore of device state. It is a small
// self-contained codec — varint-packed scalars, length-prefixed byte
// strings, an FNV-1a trailer over the whole image — with sticky-error
// decoding: a truncated, corrupted or version-skewed image surfaces one of
// the typed errors below and decoders read zero values from then on, so a
// caller can decode a whole module graph and check the error once, with no
// partial mutation of live state (decode into fresh objects, swap on
// success).
//
// A module states its image layout once, as a walk over its own fields with
// a Codec: the same U, I, Bool, F64 and Blob calls write the fields when the
// Codec wraps an Enc and fill them when it wraps a Dec, so the directions
// cannot drift apart. The one rule of a walk: every collection length goes
// through Len or Slice (variable size: bounds-checked on decode) or Same (a
// size the configuration fixes: ErrMismatch unless the image agrees), never
// a bare integer field, so no corrupt length can size an allocation.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Typed image errors, matched with errors.Is.
var (
	// ErrTruncated marks an image shorter than its framing or body demands.
	ErrTruncated = errors.New("snap: truncated image")
	// ErrCorrupt marks a checksum or structural mismatch: the bytes do not
	// decode to what was written.
	ErrCorrupt = errors.New("snap: corrupt image")
	// ErrVersion marks an image written by an unsupported format version.
	ErrVersion = errors.New("snap: unsupported image version")
	// ErrMismatch marks an image whose configuration fingerprint does not
	// match the target device: restoring it would build a silently wrong
	// device.
	ErrMismatch = errors.New("snap: image does not match device configuration")
)

// magic identifies an Amber snapshot image.
var magic = [8]byte{'A', 'M', 'B', 'R', 'S', 'N', 'A', 'P'}

// fnv1a is the trailer checksum. Byte-serial on purpose, slow as that is
// over a whole image: Open checks the trailer before it reads the version
// field, so it is the one algorithm no format version can change — an image
// sealed with the old one would report ErrCorrupt where ErrVersion is due.
func fnv1a(data []byte) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, b := range data {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// Fingerprint hashes an arbitrary configuration rendering into the 64-bit
// value Seal/Open compare, so an image restores only onto an identically
// configured device.
func Fingerprint(b []byte) uint64 { return fnv1a(b) }

// Enc builds a snapshot body. The zero value is ready to use.
type Enc struct {
	buf []byte
}

// Bytes returns the encoded body.
func (e *Enc) Bytes() []byte { return e.buf }

// U64 appends an unsigned varint.
func (e *Enc) U64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// I64 appends a signed (zigzag) varint.
func (e *Enc) I64(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// F64 appends a float64 as its fixed 8-byte IEEE-754 bit pattern (varint
// packing would corrupt the exponent distribution of energy accumulators).
func (e *Enc) F64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// Bool appends a boolean as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Blob appends a length-prefixed byte string.
func (e *Enc) Blob(b []byte) {
	e.U64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Dec reads a snapshot body with a sticky error: after the first failure
// every getter returns the zero value and Err reports the failure.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over body.
func NewDec(body []byte) *Dec { return &Dec{buf: body} }

// Err returns the sticky decode error, nil when every read succeeded.
func (d *Dec) Err() error { return d.err }

// fail records the first error.
func (d *Dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Done reports an error unless the body was consumed exactly.
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return nil
}

// U64 reads an unsigned varint.
func (d *Dec) U64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		if n == 0 {
			d.fail(ErrTruncated)
		} else {
			d.fail(fmt.Errorf("%w: varint overflow", ErrCorrupt))
		}
		return 0
	}
	d.off += n
	return v
}

// I64 reads a signed (zigzag) varint.
func (d *Dec) I64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		if n == 0 {
			d.fail(ErrTruncated)
		} else {
			d.fail(fmt.Errorf("%w: varint overflow", ErrCorrupt))
		}
		return 0
	}
	d.off += n
	return v
}

// F64 reads a fixed 8-byte float64.
func (d *Dec) F64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail(ErrTruncated)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// Bool reads a one-byte boolean.
func (d *Dec) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.fail(ErrTruncated)
		return false
	}
	b := d.buf[d.off]
	d.off++
	if b > 1 {
		d.fail(fmt.Errorf("%w: bad boolean byte %d", ErrCorrupt, b))
		return false
	}
	return b == 1
}

// Blob reads a length-prefixed byte string. The returned slice aliases the
// image; callers copy if they keep it.
func (d *Dec) Blob() []byte {
	n := d.U64()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail(ErrTruncated)
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// Len reads a varint-encoded collection length and bounds-checks it against
// cap (each element needs at least one body byte, so a length beyond the
// remaining bytes is structurally corrupt). It protects decoders from
// allocating attacker- or corruption-sized slices.
func (d *Dec) Len(cap int) int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if n > uint64(cap) || n > uint64(len(d.buf)-d.off)+1 {
		d.fail(fmt.Errorf("%w: collection length %d exceeds bound %d", ErrCorrupt, n, cap))
		return 0
	}
	return int(n)
}

// Seal frames a body into a complete image: magic, format version,
// configuration fingerprint, body, FNV-1a trailer over everything before
// the trailer.
func Seal(version uint32, fingerprint uint64, body []byte) []byte {
	img := make([]byte, 0, len(magic)+4+8+8+len(body)+8)
	img = append(img, magic[:]...)
	img = binary.LittleEndian.AppendUint32(img, version)
	img = binary.LittleEndian.AppendUint64(img, fingerprint)
	img = binary.LittleEndian.AppendUint64(img, uint64(len(body)))
	img = append(img, body...)
	img = binary.LittleEndian.AppendUint64(img, fnv1a(img))
	return img
}

// Open validates an image's framing — magic, version, fingerprint, length,
// checksum — and returns its body. version is the single format version
// the caller supports; fingerprint is the target device's configuration
// hash. Every failure is typed: ErrTruncated, ErrCorrupt, ErrVersion or
// ErrMismatch.
func Open(img []byte, version uint32, fingerprint uint64) ([]byte, error) {
	const headerLen = 8 + 4 + 8 + 8
	if len(img) < headerLen+8 {
		return nil, fmt.Errorf("%w: %d bytes, need at least %d", ErrTruncated, len(img), headerLen+8)
	}
	if [8]byte(img[:8]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	// The checksum seals everything, including the header fields the
	// typed checks below read — verify it first so a flipped version or
	// fingerprint byte reports corruption, not a misleading skew.
	sum := binary.LittleEndian.Uint64(img[len(img)-8:])
	if fnv1a(img[:len(img)-8]) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(img[8:12]); v != version {
		return nil, fmt.Errorf("%w: image version %d, supported %d", ErrVersion, v, version)
	}
	if fp := binary.LittleEndian.Uint64(img[12:20]); fp != fingerprint {
		return nil, fmt.Errorf("%w: image fingerprint %#x, device %#x", ErrMismatch, binary.LittleEndian.Uint64(img[12:20]), fingerprint)
	}
	bodyLen := binary.LittleEndian.Uint64(img[20:28])
	if bodyLen != uint64(len(img)-headerLen-8) {
		return nil, fmt.Errorf("%w: body length %d, image holds %d", ErrTruncated, bodyLen, len(img)-headerLen-8)
	}
	return img[headerLen : headerLen+int(bodyLen)], nil
}

// Codec walks an image layout in one direction: Encoding writes the fields
// it is shown and cannot fail, Decoding fills them under Dec's sticky error.
type Codec struct {
	e *Enc
	d *Dec
}

// Encoding returns a Codec that appends every field it walks to e.
func Encoding(e *Enc) *Codec { return &Codec{e: e} }

// Decoding returns a Codec that fills every field it walks from d.
func Decoding(d *Dec) *Codec { return &Codec{d: d} }

// Decoding reports whether the walk fills fields (true) or writes them.
func (c *Codec) Decoding() bool { return c.d != nil }

// Err returns the decoder's sticky error; nil while encoding.
func (c *Codec) Err() error {
	if c.d != nil {
		return c.d.err
	}
	return nil
}

// Integer is any integer-kinded field type.
type Integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// U walks an integer field stored as an unsigned varint.
func U[T Integer](c *Codec, p *T) {
	if c.d != nil {
		*p = T(c.d.U64())
	} else {
		c.e.U64(uint64(*p))
	}
}

// I walks an integer field stored as a signed (zigzag) varint.
func I[T Integer](c *Codec, p *T) {
	if c.d != nil {
		*p = T(c.d.I64())
	} else {
		c.e.I64(int64(*p))
	}
}

// Bool walks a boolean field.
func (c *Codec) Bool(p *bool) {
	if c.d != nil {
		*p = c.d.Bool()
	} else {
		c.e.Bool(*p)
	}
}

// F64 walks a float64 field.
func (c *Codec) F64(p *float64) {
	if c.d != nil {
		*p = c.d.F64()
	} else {
		c.e.F64(*p)
	}
}

// Blob walks a length-prefixed byte string; decoded, *p aliases the image.
func (c *Codec) Blob(p *[]byte) {
	if c.d != nil {
		*p = c.d.Blob()
	} else {
		c.e.Blob(*p)
	}
}

// Len walks a variable-size collection's length: it writes n, or reads the
// image's, bounds-checked against max like Dec.Len (0 after an error).
func (c *Codec) Len(n, max int) int {
	if c.d != nil {
		return c.d.Len(max)
	}
	c.e.U64(uint64(n))
	return n
}

// Slice walks *s's length like Len and, decoding, resizes *s to it for the
// element walk that follows: the one place a decoded length sizes memory.
func Slice[T any](c *Codec, s *[]T, max int) {
	if n := c.Len(len(*s), max); c.d != nil {
		*s = slices.Grow((*s)[:0], n)[:n]
	}
}

// Same walks a count the live configuration fixes (what names it): it
// writes have, or returns ErrMismatch unless the image carries the same.
func (c *Codec) Same(have int, what string) error {
	n := uint64(have)
	U(c, &n)
	if c.Err() == nil && n != uint64(have) {
		return fmt.Errorf("%w: image has %d %s, device %d", ErrMismatch, n, what, have)
	}
	return c.Err()
}

// SameBool is Same for a presence flag the configuration fixes.
func (c *Codec) SameBool(have bool, what string) error {
	v := have
	c.Bool(&v)
	if c.Err() == nil && v != have {
		return fmt.Errorf("%w: image has %s %v, device %v", ErrMismatch, what, v, have)
	}
	return c.Err()
}
