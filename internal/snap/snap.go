// Package snap implements the checksummed, versioned binary image format
// behind crash-consistent snapshot/restore of device state: varint-packed
// scalars, length-prefixed byte strings and an FNV-1a trailer over the whole
// image, framed by Seal and checked by Open.
//
// A module states its image layout once, as a State walk over its own
// fields with one Codec. The same U, I, Bool, F64 and Blob calls write the
// fields when the Codec was built by Encoding and fill them when it was built
// by Decoding, so the directions cannot drift apart. Decoding has a sticky
// error: a truncated or corrupted body surfaces one of the typed errors below
// and every field reads as its zero value from then on, so a caller can walk
// a whole module graph and check the error once, with no partial mutation of
// live state (decode into fresh objects, swap on success). The one rule of a
// walk: every collection length goes through Len or Slice (variable size:
// bounds-checked on decode) or Same (a size the configuration fixes:
// ErrMismatch unless the image agrees), never a bare integer field, so no
// corrupt length can size an allocation.
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

// Codec walks an image layout in one direction. Built by Encoding it appends
// every field it is shown to a body and cannot fail; built by Decoding it
// fills them from a body under the sticky error.
type Codec struct {
	buf []byte // the body written so far, or the body read
	off int    // decoding: the bytes of buf consumed
	err error  // decoding: the first failure
	dec bool
}

// Encoding returns a Codec that writes a fresh body.
func Encoding() *Codec { return &Codec{} }

// Decoding returns a Codec that reads body.
func Decoding(body []byte) *Codec { return &Codec{buf: body, dec: true} }

// Decoding reports whether the walk fills fields (true) or writes them.
func (c *Codec) Decoding() bool { return c.dec }

// Bytes returns the body written so far.
func (c *Codec) Bytes() []byte { return c.buf }

// Err returns the sticky decode error, nil while every read succeeded (and
// always while encoding).
func (c *Codec) Err() error { return c.err }

// fail records the first error.
func (c *Codec) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Done reports an error unless the body was read without error and consumed
// exactly; nil while encoding.
func (c *Codec) Done() error {
	if c.dec && c.err == nil && c.off != len(c.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(c.buf)-c.off)
	}
	return c.err
}

// Integer is any integer-kinded field type.
type Integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// advance consumes the n bytes binary.Uvarint or binary.Varint just read,
// or records why nothing was read: n == 0, the body ended mid-varint; n < 0,
// the value overflows 64 bits. Either read returns 0 then.
func (c *Codec) advance(n int) {
	switch {
	case n > 0:
		c.off += n
	case n == 0:
		c.fail(ErrTruncated)
	default:
		c.fail(fmt.Errorf("%w: varint overflow", ErrCorrupt))
	}
}

// u64 reads an unsigned varint, 0 after an error.
func (c *Codec) u64() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.buf[c.off:])
	c.advance(n)
	return v
}

// U walks an integer field stored as an unsigned varint.
func U[T Integer](c *Codec, p *T) {
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, uint64(*p))
		return
	}
	*p = T(c.u64())
}

// I walks an integer field stored as a signed (zigzag) varint.
func I[T Integer](c *Codec, p *T) {
	if !c.dec {
		c.buf = binary.AppendVarint(c.buf, int64(*p))
		return
	}
	var v int64
	if c.err == nil {
		var n int
		v, n = binary.Varint(c.buf[c.off:])
		c.advance(n)
	}
	*p = T(v)
}

// Bool walks a boolean field stored as one byte, 0 or 1; decoding refuses
// any other byte as corrupt.
func (c *Codec) Bool(p *bool) {
	if !c.dec {
		var b byte
		if *p {
			b = 1
		}
		c.buf = append(c.buf, b)
		return
	}
	*p = false
	switch {
	case c.err != nil:
	case c.off >= len(c.buf):
		c.fail(ErrTruncated)
	case c.buf[c.off] > 1:
		c.fail(fmt.Errorf("%w: bad boolean byte %d", ErrCorrupt, c.buf[c.off]))
	default:
		*p = c.buf[c.off] == 1
		c.off++
	}
}

// F64 walks a float64 field stored as its fixed 8-byte IEEE-754 bit pattern
// (varint packing would corrupt the exponent distribution of energy
// accumulators).
func (c *Codec) F64(p *float64) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*p))
		return
	}
	*p = 0
	switch {
	case c.err != nil:
	case c.off+8 > len(c.buf):
		c.fail(ErrTruncated)
	default:
		*p = math.Float64frombits(binary.LittleEndian.Uint64(c.buf[c.off:]))
		c.off += 8
	}
}

// Blob walks a length-prefixed byte string; decoded, *p aliases the body
// (callers copy what they keep), nil after an error.
func (c *Codec) Blob(p *[]byte) {
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, uint64(len(*p)))
		c.buf = append(c.buf, *p...)
		return
	}
	*p = nil
	n := c.u64()
	switch {
	case c.err != nil:
	case n > uint64(len(c.buf)-c.off):
		c.fail(ErrTruncated)
	default:
		*p = c.buf[c.off : c.off+int(n)]
		c.off += int(n)
	}
}

// Len walks a variable-size collection's length: it writes n, or reads the
// body's and bounds-checks it against max and against the bytes left (each
// element needs at least one), 0 after an error. No corrupt length survives
// it to size an allocation.
func (c *Codec) Len(n, max int) int {
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, uint64(n))
		return n
	}
	v := c.u64()
	if c.err == nil && (v > uint64(max) || v > uint64(len(c.buf)-c.off)+1) {
		c.fail(fmt.Errorf("%w: collection length %d exceeds bound %d", ErrCorrupt, v, max))
	}
	if c.err != nil {
		return 0
	}
	return int(v)
}

// Slice walks *s's length like Len and, decoding, resizes *s to it for the
// element walk that follows: the one place a decoded length sizes memory.
func Slice[T any](c *Codec, s *[]T, max int) {
	if n := c.Len(len(*s), max); c.dec {
		*s = slices.Grow((*s)[:0], n)[:n]
	}
}

// Same walks a count the live configuration fixes (what names it): it
// writes have, or returns ErrMismatch unless the image carries the same.
func (c *Codec) Same(have int, what string) error {
	n := uint64(have)
	U(c, &n)
	if c.err == nil && n != uint64(have) {
		return fmt.Errorf("%w: image has %d %s, device %d", ErrMismatch, n, what, have)
	}
	return c.err
}

// SameBool is Same for a presence flag the configuration fixes.
func (c *Codec) SameBool(have bool, what string) error {
	v := have
	c.Bool(&v)
	if c.err == nil && v != have {
		return fmt.Errorf("%w: image has %s %v, device %v", ErrMismatch, what, v, have)
	}
	return c.err
}
