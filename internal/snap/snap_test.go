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

// sample holds one value of every kind, extremes included, and walks them.
type sample struct {
	zero, max     uint64
	min, neg, big int64
	tiny, inf     float64
	yes, no       bool
	blob, empty   []byte
	list          []uint64
}

func (m *sample) walk(c *Codec) error {
	U(c, &m.zero)
	U(c, &m.max)
	I(c, &m.min)
	I(c, &m.neg)
	I(c, &m.big)
	c.F64(&m.tiny)
	c.F64(&m.inf)
	c.Bool(&m.yes)
	c.Bool(&m.no)
	c.Blob(&m.blob)
	c.Blob(&m.empty)
	Slice(c, &m.list, 8)
	for i := range m.list {
		U(c, &m.list[i])
	}
	return c.Err()
}

func newSample() sample {
	return sample{max: math.MaxUint64, min: math.MinInt64, neg: -1, big: 1 << 40,
		tiny: -4.4e-9, inf: math.Inf(1), yes: true, blob: []byte("payload"), list: []uint64{1, 2, 3}}
}

// sampleBody encodes newSample.
func sampleBody() []byte {
	m := newSample()
	c := Encoding()
	if err := m.walk(c); err != nil || c.Done() != nil {
		panic("encoding failed")
	}
	return c.Bytes()
}

func TestRoundTrip(t *testing.T) {
	fp := Fingerprint([]byte("cfg"))
	img := Seal(3, fp, sampleBody())
	body, err := Open(img, 3, fp)
	if err != nil {
		t.Fatal(err)
	}
	var got sample
	c := Decoding(body)
	if err := got.walk(c); err != nil {
		t.Fatal(err)
	}
	if err := c.Done(); err != nil {
		t.Fatalf("Done after reading everything: %v", err)
	}
	want := newSample()
	if got.zero != 0 || got.max != want.max || got.min != want.min || got.neg != want.neg || got.big != want.big ||
		got.tiny != want.tiny || !math.IsInf(got.inf, 1) || !got.yes || got.no ||
		string(got.blob) != "payload" || len(got.empty) != 0 || !slices.Equal(got.list, want.list) {
		t.Errorf("read back %+v, want %+v", got, want)
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

// TestCodecStickyErrors: a decoding Codec never panics or reads past its
// body; the first failure is typed, sticks, and zeroes every field read
// after it.
func TestCodecStickyErrors(t *testing.T) {
	body := sampleBody()
	// Every proper prefix of a valid body fails typed.
	for cut := 0; cut < len(body); cut++ {
		var m sample
		c := Decoding(body[:cut])
		m.walk(c)
		err := c.Done()
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("body cut at %d of %d: Done returned %v", cut, len(body), err)
		}
	}
	var (
		u uint64
		i int64
		b bool
		f float64
		s []byte
	)
	for _, tc := range []struct {
		name string
		body []byte
		read func(c *Codec)
		want error
	}{
		{"varint overflow", bytes.Repeat([]byte{0xff}, 11), func(c *Codec) { U(c, &u) }, ErrCorrupt},
		{"signed varint overflow", bytes.Repeat([]byte{0xff}, 11), func(c *Codec) { I(c, &i) }, ErrCorrupt},
		{"varint cut short", []byte{0x80}, func(c *Codec) { U(c, &u) }, ErrTruncated},
		{"signed varint cut short", []byte{0x80}, func(c *Codec) { I(c, &i) }, ErrTruncated},
		{"boolean byte 2", []byte{2}, func(c *Codec) { c.Bool(&b) }, ErrCorrupt},
		{"blob longer than the body", []byte{9, 'x'}, func(c *Codec) { c.Blob(&s) }, ErrTruncated},
		{"float cut short", []byte{1, 2, 3}, func(c *Codec) { c.F64(&f) }, ErrTruncated},
		{"length beyond its bound", []byte{200, 1}, func(c *Codec) { c.Len(0, 100) }, ErrCorrupt},
		{"length beyond the body", []byte{50, 0}, func(c *Codec) { c.Len(0, 100) }, ErrCorrupt},
		{"trailing bytes", []byte{1, 1}, func(c *Codec) { c.Bool(&b) }, ErrCorrupt},
	} {
		c := Decoding(tc.body)
		tc.read(c)
		if err := c.Done(); !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
	}
	c := Decoding([]byte{2, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	c.Bool(&b)
	first := c.Err()
	u, i, b, f, s = 1, 1, true, 1, []byte{1}
	U(c, &u)
	I(c, &i)
	c.Bool(&b)
	c.F64(&f)
	c.Blob(&s)
	if u != 0 || i != 0 || b || f != 0 || s != nil || c.Len(0, 9) != 0 {
		t.Error("reads after a failure returned non-zero values")
	}
	if c.Err() != first || first == nil {
		t.Errorf("sticky error changed from %v to %v", first, c.Err())
	}
	if err := Encoding().Done(); err != nil {
		t.Errorf("an encoding Codec's Done returned %v", err)
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

// TestCodecWalk: one walk writes the wire bytes each field kind stands for,
// and reads them back; Same and SameBool refuse a disagreeing image as a
// mismatch; Slice refuses a length past its bound before allocating.
func TestCodecWalk(t *testing.T) {
	src := codecSample{ways: 4, tick: 1 << 31, delta: -300, on: true, joule: 2.5, name: []byte("icl"), list: []int32{7, -8, 9}}
	got := Encoding()
	if err := src.state(got); err != nil {
		t.Fatal(err)
	}
	want := binary.AppendUvarint(nil, 4)
	want = append(want, 1)
	want = binary.AppendUvarint(want, 1<<31)
	want = binary.AppendVarint(want, -300)
	want = append(want, 1)
	want = binary.LittleEndian.AppendUint64(want, math.Float64bits(2.5))
	want = binary.AppendUvarint(want, 3)
	want = append(want, "icl"...)
	want = binary.AppendUvarint(want, 3)
	want = binary.AppendVarint(want, 7)
	want = binary.AppendVarint(want, -8)
	want = binary.AppendVarint(want, 9)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("walk wrote % x, want % x", got.Bytes(), want)
	}

	dst := codecSample{ways: 4, on: true}
	d := Decoding(got.Bytes())
	if err := dst.state(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if dst.tick != src.tick || dst.delta != src.delta || dst.joule != src.joule ||
		string(dst.name) != "icl" || !slices.Equal(dst.list, src.list) {
		t.Fatalf("walk read %+v, want %+v", dst, src)
	}
	again := Encoding()
	if err := dst.state(again); err != nil || !bytes.Equal(again.Bytes(), want) {
		t.Fatalf("re-encoding wrote % x (error %v), want % x", again.Bytes(), err, want)
	}

	for name, target := range map[string]codecSample{
		"ways":   {ways: 8, on: true},
		"switch": {ways: 4},
	} {
		if err := target.state(Decoding(got.Bytes())); !errors.Is(err, ErrMismatch) {
			t.Errorf("%s disagrees: decode returned %v, want ErrMismatch", name, err)
		}
	}
	if err := (&codecSample{ways: 4, on: true}).state(Decoding(got.Bytes()[:5])); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated body: decode returned %v, want ErrTruncated", err)
	}

	long := src
	long.list = make([]int32, 5)
	e := Encoding()
	if err := long.state(e); err != nil {
		t.Fatal(err)
	}
	over := codecSample{ways: 4, on: true}
	if err := over.state(Decoding(e.Bytes())); !errors.Is(err, ErrCorrupt) || len(over.list) != 0 {
		t.Errorf("list past its bound: decode returned %v with %d elements, want ErrCorrupt and none", err, len(over.list))
	}
}
