package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"
)

const headerLen = 8 + 4 + 8 + 8

// sampleBody encodes one value of every kind, extremes included.
func sampleBody() []byte {
	var e Enc
	e.U64(0)
	e.U64(math.MaxUint64)
	e.I64(math.MinInt64)
	e.I64(-1)
	e.I64(1 << 40)
	e.F64(-4.4e-9)
	e.F64(math.Inf(1))
	e.Bool(true)
	e.Bool(false)
	e.Blob([]byte("payload"))
	e.Blob(nil)
	e.U64(3) // a collection length, read back with Len, and its elements
	e.U64(1)
	e.U64(2)
	e.U64(3)
	return e.Bytes()
}

func TestRoundTrip(t *testing.T) {
	fp := Fingerprint([]byte("cfg"))
	img := Seal(3, fp, sampleBody())
	body, err := Open(img, 3, fp)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDec(body)
	if v := d.U64(); v != 0 {
		t.Errorf("U64 = %d", v)
	}
	if v := d.U64(); v != math.MaxUint64 {
		t.Errorf("U64 = %d", v)
	}
	if v := d.I64(); v != math.MinInt64 {
		t.Errorf("I64 = %d", v)
	}
	if v := d.I64(); v != -1 {
		t.Errorf("I64 = %d", v)
	}
	if v := d.I64(); v != 1<<40 {
		t.Errorf("I64 = %d", v)
	}
	if v := d.F64(); v != -4.4e-9 {
		t.Errorf("F64 = %v", v)
	}
	if v := d.F64(); !math.IsInf(v, 1) {
		t.Errorf("F64 = %v", v)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool pair did not read true, false")
	}
	if v := d.Blob(); string(v) != "payload" {
		t.Errorf("Blob = %q", v)
	}
	if v := d.Blob(); len(v) != 0 {
		t.Errorf("empty Blob = %q", v)
	}
	if v := d.Len(8); v != 3 {
		t.Errorf("Len = %d", v)
	}
	for want := uint64(1); want <= 3; want++ {
		if v := d.U64(); v != want {
			t.Errorf("element = %d, want %d", v, want)
		}
	}
	if err := d.Done(); err != nil {
		t.Fatalf("Done after reading everything: %v", err)
	}
	// Sealing is a pure function of its inputs.
	if !bytes.Equal(img, Seal(3, fp, sampleBody())) {
		t.Error("Seal is not deterministic")
	}
	if Fingerprint([]byte("cfg")) == Fingerprint([]byte("cfh")) {
		t.Error("Fingerprint ignores its input")
	}
}

// TestOpenFaults is the framing table: every way an image can be short,
// altered or meant for another reader maps to its typed error.
func TestOpenFaults(t *testing.T) {
	fp := Fingerprint([]byte("cfg"))
	body := sampleBody()
	img := Seal(3, fp, body)
	flip := func(at int) []byte {
		c := append([]byte(nil), img...)
		c[at] ^= 0x40
		return c
	}
	// reseal rewrites a header field and recomputes the trailer, so the
	// typed check behind the checksum is the one that fires.
	reseal := func(edit func(img []byte)) []byte {
		c := append([]byte(nil), img[:len(img)-8]...)
		edit(c)
		return binary.LittleEndian.AppendUint64(c, fnv1a(c))
	}
	for _, tc := range []struct {
		name string
		img  []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"below minimum frame", img[:headerLen+7], ErrTruncated},
		{"half an image", img[:len(img)/2], ErrCorrupt}, // its last 8 bytes are not its checksum
		{"trailer cut off", img[:len(img)-8], ErrCorrupt},
		{"one byte appended", append(append([]byte(nil), img...), 0), ErrCorrupt},
		{"bad magic", flip(0), ErrCorrupt},
		{"flipped version byte", flip(8), ErrCorrupt},
		{"flipped fingerprint byte", flip(12), ErrCorrupt},
		{"flipped length byte", flip(20), ErrCorrupt},
		{"flipped body byte", flip(headerLen + len(body)/2), ErrCorrupt},
		{"flipped checksum byte", flip(len(img) - 1), ErrCorrupt},
		{"older version", Seal(2, fp, body), ErrVersion},
		{"newer version", Seal(4, fp, body), ErrVersion},
		{"other configuration", Seal(3, fp^1, body), ErrMismatch},
		{"version checked before fingerprint", Seal(2, fp^1, body), ErrVersion},
		{"length beyond the image", reseal(func(c []byte) { binary.LittleEndian.PutUint64(c[20:], uint64(len(body)+1)) }), ErrTruncated},
		{"length short of the image", reseal(func(c []byte) { binary.LittleEndian.PutUint64(c[20:], uint64(len(body)-1)) }), ErrTruncated},
	} {
		if _, err := Open(tc.img, 3, fp); !errors.Is(err, tc.want) {
			t.Errorf("%s: Open returned %v, want %v", tc.name, err, tc.want)
		}
	}
	if _, err := Open(img, 3, fp); err != nil {
		t.Fatalf("intact image: %v", err)
	}
}

// TestDecStickyErrors: a decoder never panics or reads past its body; the
// first failure is typed, sticks, and zeroes everything read after it.
func TestDecStickyErrors(t *testing.T) {
	body := sampleBody()
	// Every proper prefix of a valid body fails typed.
	for cut := 0; cut < len(body); cut++ {
		d := NewDec(body[:cut])
		d.U64()
		d.U64()
		d.I64()
		d.I64()
		d.I64()
		d.F64()
		d.F64()
		d.Bool()
		d.Bool()
		d.Blob()
		d.Blob()
		for n := d.Len(8); n > 0; n-- {
			d.U64()
		}
		err := d.Done()
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("body cut at %d of %d: Done returned %v", cut, len(body), err)
		}
	}
	for _, tc := range []struct {
		name string
		body []byte
		read func(d *Dec)
		want error
	}{
		{"varint overflow", bytes.Repeat([]byte{0xff}, 11), func(d *Dec) { d.U64() }, ErrCorrupt},
		{"signed varint overflow", bytes.Repeat([]byte{0xff}, 11), func(d *Dec) { d.I64() }, ErrCorrupt},
		{"boolean byte 2", []byte{2}, func(d *Dec) { d.Bool() }, ErrCorrupt},
		{"blob longer than the body", []byte{9, 'x'}, func(d *Dec) { d.Blob() }, ErrTruncated},
		{"float cut short", []byte{1, 2, 3}, func(d *Dec) { d.F64() }, ErrTruncated},
		{"length beyond its bound", []byte{200, 1}, func(d *Dec) { d.Len(100) }, ErrCorrupt},
		{"length beyond the body", []byte{50, 0}, func(d *Dec) { d.Len(100) }, ErrCorrupt},
		{"trailing bytes", []byte{1, 1}, func(d *Dec) { d.Bool() }, ErrCorrupt},
	} {
		d := NewDec(tc.body)
		tc.read(d)
		if err := d.Done(); !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
	}
	d := NewDec([]byte{2, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	d.Bool()
	first := d.Err()
	if d.U64() != 0 || d.I64() != 0 || d.F64() != 0 || d.Bool() || d.Blob() != nil || d.Len(9) != 0 {
		t.Error("reads after a failure returned non-zero values")
	}
	if d.Err() != first || first == nil {
		t.Errorf("sticky error changed from %v to %v", first, d.Err())
	}
}

// codecSample is a module-shaped value whose walk uses every Codec field
// kind, a configuration-fixed count and a variable-size list.
type codecSample struct {
	ways  int
	tick  uint32
	delta int16
	on    bool
	joule float64
	name  []byte
	list  []int32
}

func (m *codecSample) state(c *Codec) error {
	if err := c.Same(m.ways, "ways"); err != nil {
		return err
	}
	if err := c.SameBool(m.on, "switch"); err != nil {
		return err
	}
	U(c, &m.tick)
	I(c, &m.delta)
	c.Bool(&m.on)
	c.F64(&m.joule)
	c.Blob(&m.name)
	Slice(c, &m.list, 4)
	for i := range m.list {
		I(c, &m.list[i])
	}
	return c.Err()
}

// TestCodecWalk: one walk writes what the hand-written Enc calls would, and
// reads it back; Same and SameBool refuse a disagreeing image as a
// mismatch; Slice refuses a length past its bound before allocating.
func TestCodecWalk(t *testing.T) {
	src := codecSample{ways: 4, tick: 1 << 31, delta: -300, on: true, joule: 2.5, name: []byte("icl"), list: []int32{7, -8, 9}}
	var got, want Enc
	if err := src.state(Encoding(&got)); err != nil {
		t.Fatal(err)
	}
	want.U64(4)
	want.Bool(true)
	want.U64(1 << 31)
	want.I64(-300)
	want.Bool(true)
	want.F64(2.5)
	want.Blob([]byte("icl"))
	want.U64(3)
	want.I64(7)
	want.I64(-8)
	want.I64(9)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("walk wrote % x, want % x", got.Bytes(), want.Bytes())
	}

	dst := codecSample{ways: 4, on: true}
	d := NewDec(got.Bytes())
	if err := dst.state(Decoding(d)); err != nil {
		t.Fatal(err)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if dst.tick != src.tick || dst.delta != src.delta || dst.joule != src.joule ||
		string(dst.name) != "icl" || !slices.Equal(dst.list, src.list) {
		t.Fatalf("walk read %+v, want %+v", dst, src)
	}

	for name, target := range map[string]codecSample{
		"ways":   {ways: 8, on: true},
		"switch": {ways: 4},
	} {
		if err := target.state(Decoding(NewDec(got.Bytes()))); !errors.Is(err, ErrMismatch) {
			t.Errorf("%s disagrees: decode returned %v, want ErrMismatch", name, err)
		}
	}
	if err := (&codecSample{ways: 4, on: true}).state(Decoding(NewDec(got.Bytes()[:5]))); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated body: decode returned %v, want ErrTruncated", err)
	}

	long := src
	long.list = make([]int32, 5)
	var e Enc
	if err := long.state(Encoding(&e)); err != nil {
		t.Fatal(err)
	}
	over := codecSample{ways: 4, on: true}
	if err := over.state(Decoding(NewDec(e.Bytes()))); !errors.Is(err, ErrCorrupt) || len(over.list) != 0 {
		t.Errorf("list past its bound: decode returned %v with %d elements, want ErrCorrupt and none", err, len(over.list))
	}
}
