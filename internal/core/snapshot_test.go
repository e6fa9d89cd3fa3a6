package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"runtime"
	"testing"

	"amber/internal/config"
	"amber/internal/core"
	"amber/internal/icl"
	"amber/internal/nand"
	"amber/internal/proto"
	"amber/internal/snap"
	"amber/internal/workload"
)

// snapshotImage drives a TrackData system through a durable fill and a
// GC-provoking overwrite storm, then snapshots it. Returns the system
// (still live, positioned exactly at the snapshot point) and the image.
func snapshotImage(t *testing.T, s *core.System) []byte {
	t.Helper()
	seqFillDurable(t, s)
	gen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 21)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(gen, core.RunConfig{Requests: 200, IODepth: 16, WithData: true}); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	img, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(img) == 0 {
		t.Fatal("empty snapshot image")
	}
	return img
}

// snapshotTail continues a system past the snapshot point — an overwrite
// storm, then a full payload read-back — and renders every observable into
// a golden string.
func snapshotTail(t *testing.T, s *core.System) string {
	t.Helper()
	var out bytes.Buffer
	gen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 23)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(gen, core.RunConfig{Requests: 200, IODepth: 16, WithData: true})
	if err != nil {
		t.Fatal(err)
	}
	renderRun(&out, "tail", res)
	renderState(&out, s)
	renderData(t, &out, s)
	return out.String()
}

// TestSnapshotRestoreGoldenEquivalence is the snapshot acceptance bar:
// restore(snapshot(S)) must continue byte-identical to S itself — same run
// timings, same component stats and energy, same payload fingerprints — and
// that continuation is the committed one. A snapshot taken from the restored
// system must also reproduce the image byte for byte (the state round-trips
// with no drift).
func TestSnapshotRestoreGoldenEquivalence(t *testing.T) {
	s := wideSystem(t)
	img := snapshotImage(t, s)
	want := snapshotTail(t, s) // the original continues
	checkPin(t, "snapshot-tail", want)
	// Version 8: the nand section carries the in-flight journals instead of a
	// completion time per written page.
	if v := binary.LittleEndian.Uint32(img[8:12]); v != 8 || core.SnapshotVersion != 8 {
		t.Fatalf("image carries format version %d, core.SnapshotVersion is %d, want 8", v, core.SnapshotVersion)
	}

	r := wideSystem(t)
	if err := r.Restore(img); err != nil {
		t.Fatalf("restore: %v", err)
	}
	// The restored stamps are checksums of the restored payloads.
	g, pages := r.Flash.Geometry(), 0
	for ch := 0; ch < g.Channels; ch++ {
		for pkg := 0; pkg < g.PackagesPerChannel; pkg++ {
			for die := 0; die < g.DiesPerPackage; die++ {
				for pl := 0; pl < g.PlanesPerDie; pl++ {
					for blk := 0; blk < g.BlocksPerPlane; blk++ {
						for pg := 0; pg < g.PagesPerBlock; pg++ {
							a := nand.Address{Channel: ch, Package: pkg, Die: die, Plane: pl, Block: blk, Page: pg}
							if !r.Flash.PageWritten(a) {
								continue
							}
							pages++
							if !r.Flash.VerifyPage(a) {
								t.Fatalf("restored page %v fails VerifyPage", a)
							}
						}
					}
				}
			}
		}
	}
	if pages == 0 {
		t.Fatal("restored flash holds no written page")
	}
	img2, err := r.Snapshot()
	if err != nil {
		t.Fatalf("re-snapshot: %v", err)
	}
	if !bytes.Equal(img, img2) {
		t.Fatalf("snapshot(restore(img)) differs from img: %d vs %d bytes", len(img2), len(img))
	}
	got := snapshotTail(t, r)
	if got != want {
		t.Fatalf("restored trajectory diverged from original:\n--- original ---\n%s--- restored ---\n%s", want, got)
	}
}

// TestSnapshotLoaderFaults is the loader-robustness table: truncated
// images, flipped bytes in every framing region, version-skewed and
// fingerprint-mismatched images must all fail Restore with the right typed
// error — and leave the target system bit-for-bit untouched (proven by
// comparing its own snapshot before and after every failed load).
func TestSnapshotLoaderFaults(t *testing.T) {
	s := wideSystem(t)
	img := snapshotImage(t, s)

	const headerLen = 8 + 4 + 8 + 8
	fp := binary.LittleEndian.Uint64(img[12:20])
	body := img[headerLen : len(img)-8]

	clone := func() []byte { return append([]byte(nil), img...) }
	flip := func(at int) []byte {
		c := clone()
		c[at] ^= 0x40
		return c
	}

	cases := []struct {
		name    string
		img     []byte
		wantErr error // nil: any error accepted
	}{
		{"empty", nil, snap.ErrTruncated},
		{"below-min-frame", img[:headerLen+7], snap.ErrTruncated},
		{"half-image", clone()[:len(img)/2], nil},
		{"missing-trailer", clone()[:len(img)-8], nil},
		{"bad-magic", flip(0), snap.ErrCorrupt},
		{"flipped-version-byte", flip(8), snap.ErrCorrupt},
		{"flipped-fingerprint-byte", flip(12), snap.ErrCorrupt},
		{"flipped-bodylen-byte", flip(20), snap.ErrCorrupt},
		{"flipped-body-byte", flip(headerLen + len(body)/2), snap.ErrCorrupt},
		{"flipped-checksum-byte", flip(len(img) - 1), snap.ErrCorrupt},
		{"future-version", snap.Seal(core.SnapshotVersion+1, fp, body), snap.ErrVersion},
		{"version-2", snap.Seal(2, fp, body), snap.ErrVersion},
		{"version-3", snap.Seal(3, fp, body), snap.ErrVersion},
		{"version-4", snap.Seal(4, fp, body), snap.ErrVersion},
		{"version-5", snap.Seal(5, fp, body), snap.ErrVersion},
		{"version-6", snap.Seal(6, fp, body), snap.ErrVersion},
		{"version-7", snap.Seal(7, fp, body), snap.ErrVersion},
		{"wrong-fingerprint", snap.Seal(core.SnapshotVersion, fp^0xdeadbeef, body), snap.ErrMismatch},
		{"valid-frame-truncated-body", snap.Seal(core.SnapshotVersion, fp, body[:len(body)-16]), nil},
		{"valid-frame-garbage-body", snap.Seal(core.SnapshotVersion, fp, bytes.Repeat([]byte{0xa5}, 64)), nil},
	}

	target := wideSystem(t)
	seqFillDurable(t, target)
	before, err := target.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := target.Restore(tc.img)
			if err == nil {
				t.Fatalf("restore of %s image succeeded", tc.name)
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("restore of %s image: got %v, want %v", tc.name, err, tc.wantErr)
			}
			after, serr := target.Snapshot()
			if serr != nil {
				t.Fatalf("snapshot after failed restore: %v", serr)
			}
			if !bytes.Equal(before, after) {
				t.Fatalf("failed restore of %s image mutated the target system", tc.name)
			}
		})
	}

	// The intact image still loads after the gauntlet.
	if err := target.Restore(img); err != nil {
		t.Fatalf("restore of intact image: %v", err)
	}
}

// relayU, relayI and relayBool read one field from d, write it to e and
// return it: a hand-written re-encoding of part of a section.
func relayU(d, e *snap.Codec) uint64 {
	var v uint64
	snap.U(d, &v)
	snap.U(e, &v)
	return v
}

func relayI(d, e *snap.Codec) int64 {
	var v int64
	snap.I(d, &v)
	snap.I(e, &v)
	return v
}

func relayBool(d, e *snap.Codec) bool {
	var v bool
	d.Bool(&v)
	e.Bool(&v)
	return v
}

// section returns the image section one module's State walk writes.
func section(walk func(*snap.Codec) error) []byte {
	c := snap.Encoding()
	_ = walk(c) // encoding cannot fail
	return c.Bytes()
}

// rewriteCacheFrames re-encodes the frame records of an icl State section
// with edit applied to each frame's tag and LRU stamp; the rest of the
// section (clock, detector, statistics) is kept verbatim.
func rewriteCacheFrames(section []byte, cfg icl.Config, edit func(frame int, lspn *int64, lastUse *uint64)) []byte {
	frames := func(edit func(int, *int64, *uint64)) []byte {
		d, e := snap.Decoding(section), snap.Encoding()
		for f := 0; f < cfg.Lines; f++ {
			var lspn int64
			snap.I(d, &lspn)
			masks := make([]bool, 2*cfg.SubsPerLine+1) // valid/dirty pairs, prefetched
			for i := range masks {
				d.Bool(&masks[i])
			}
			var lastUse uint64
			snap.U(d, &lastUse)
			edit(f, &lspn, &lastUse)
			snap.I(e, &lspn)
			for i := range masks {
				e.Bool(&masks[i])
			}
			snap.U(e, &lastUse)
			if cfg.TrackData {
				var data []byte
				d.Blob(&data)
				e.Blob(&data)
			}
		}
		return e.Bytes()
	}
	// The encoding is canonical, so an unedited pass is as long as the
	// frame records it read.
	consumed := len(frames(func(int, *int64, *uint64) {}))
	return append(frames(edit), section[consumed:]...)
}

// TestSnapshotRefusesUnindexableCache: the cache finds lines through an
// LSPN index, so an image whose frames the index cannot mirror — one LSPN
// in two frames, a frame stamped ahead of the LRU clock — must be refused
// as corrupt rather than restored into a device that answers differently
// from its own frames. The target stays untouched, and the unedited image
// still restores.
func TestSnapshotRefusesUnindexableCache(t *testing.T) {
	build := func() *core.System {
		s, err := core.NewSystem(config.PCSystem(config.SmallTestDevice()))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := build()
	img := snapshotImage(t, s)
	if got := s.ICL.ResidentLines(); got != 8 {
		t.Fatalf("%d resident lines, want a full cache", got)
	}

	const headerLen = 8 + 4 + 8 + 8
	fp := binary.LittleEndian.Uint64(img[12:20])
	body := img[headerLen : len(img)-8]
	cache := section(s.ICL.State)
	at := bytes.Index(body, cache)
	if at < 0 {
		t.Fatal("cache section not found in the image body")
	}
	seal := func(edit func(frame int, lspn *int64, lastUse *uint64)) []byte {
		b := append([]byte(nil), body[:at]...)
		b = append(b, rewriteCacheFrames(cache, s.ICL.Config(), edit)...)
		b = append(b, body[at+len(cache):]...)
		return snap.Seal(core.SnapshotVersion, fp, b)
	}
	var first int64
	cases := []struct {
		name string
		edit func(frame int, lspn *int64, lastUse *uint64)
	}{
		{"lspn-in-two-frames", func(f int, lspn *int64, _ *uint64) {
			if f == 0 {
				first = *lspn
			} else if f == 1 {
				*lspn = first
			}
		}},
		{"stamped-ahead-of-clock", func(f int, _ *int64, lastUse *uint64) {
			if f == 2 {
				*lastUse += 1 << 40
			}
		}},
	}

	if !bytes.Equal(seal(func(int, *int64, *uint64) {}), img) {
		t.Fatal("an unedited rewrite does not reproduce the image")
	}
	target := build()
	before, err := target.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		err := target.Restore(seal(tc.edit))
		if !errors.Is(err, snap.ErrCorrupt) {
			t.Errorf("%s: restore returned %v, want snap.ErrCorrupt", tc.name, err)
		}
		after, serr := target.Snapshot()
		if serr != nil || !bytes.Equal(before, after) {
			t.Errorf("%s: failed restore mutated the target (snapshot error %v)", tc.name, serr)
		}
	}
	if err := target.Restore(img); err != nil {
		t.Fatalf("restore of intact image: %v", err)
	}
}

// rewriteForward re-encodes the forward map at the head of an ftl State
// section with edit applied to each entry; the rest of the section is kept
// verbatim.
func rewriteForward(section []byte, edit func(i int, v *int64)) []byte {
	walk := func(edit func(int, *int64)) []byte {
		d, e := snap.Decoding(section), snap.Encoding()
		n := relayU(d, e)
		for i := 0; i < int(n); i++ {
			var v int64
			snap.I(d, &v)
			edit(i, &v)
			snap.I(e, &v)
		}
		return e.Bytes()
	}
	consumed := len(walk(func(int, *int64) {}))
	return append(walk(edit), section[consumed:]...)
}

// rewriteFirstStamp re-encodes a nand State section of a flash of
// geometry g with edit applied to the tag and sequence of the first OOB
// stamp — the lowest written page's; the rest of the section is kept
// verbatim. Nil when no page is written.
func rewriteFirstStamp(section []byte, g nand.Geometry, edit func(fi *int64, seq *uint64)) []byte {
	walk := func(edit func(*int64, *uint64)) []byte {
		d, e := snap.Decoding(section), snap.Encoding()
		for r := 0; r < g.Channels+g.TotalDies(); r++ { // resource reservations
			relayI(d, e)
			relayI(d, e)
			relayU(d, e)
		}
		written := 0
		for b := 0; b < g.TotalBlocks(); b++ {
			relayU(d, e) // erase count
			relayI(d, e) // next page
			relayBool(d, e)
			for pg := 0; pg < g.PagesPerBlock; pg++ {
				if relayBool(d, e) {
					written++
				}
			}
		}
		if written == 0 {
			return nil
		}
		var fi int64
		var seq uint64
		snap.I(d, &fi)
		snap.U(d, &seq)
		edit(&fi, &seq)
		snap.I(e, &fi)
		snap.U(e, &seq)
		return e.Bytes()
	}
	unedited := walk(func(*int64, *uint64) {})
	if unedited == nil {
		return nil
	}
	return append(walk(edit), section[len(unedited):]...)
}

// TestSnapshotRefusesUnnarrowableFields: the forward map and the OOB stamps
// hold 32-bit tags and a 63-bit sequence, while the image carries varints of
// the wide values. An image value the narrow field cannot hold must be
// refused as corrupt, never truncated: a forward entry below -1 or past the
// physical sub-pages (2^32 + k would alias onto sub k), an OOB tag outside
// int32, a sequence with the good flag's bit set. The target stays
// untouched, and the unedited image still restores.
func TestSnapshotRefusesUnnarrowableFields(t *testing.T) {
	s := wideSystem(t)
	img := snapshotImage(t, s)
	const headerLen = 8 + 4 + 8 + 8
	fp := binary.LittleEndian.Uint64(img[12:20])
	body := img[headerLen : len(img)-8]
	locate := func(walk func(*snap.Codec) error) (int, []byte) {
		sec := section(walk)
		at := bytes.Index(body, sec)
		if at < 0 {
			t.Fatal("section not found in the image body")
		}
		return at, sec
	}
	flashAt, flashSec := locate(s.Flash.State)
	ftlAt, ftlSec := locate(s.FTL.State)
	splice := func(at int, old, section []byte) []byte {
		b := append([]byte(nil), body[:at]...)
		b = append(b, section...)
		b = append(b, body[at+len(old):]...)
		return snap.Seal(core.SnapshotVersion, fp, b)
	}
	forward := func(edit func(v int64) int64) []byte {
		done := false
		return splice(ftlAt, ftlSec, rewriteForward(ftlSec, func(_ int, v *int64) {
			if !done && *v >= 0 {
				*v, done = edit(*v), true
			}
		}))
	}
	stamp := func(edit func(fi *int64, seq *uint64)) []byte {
		sec := rewriteFirstStamp(flashSec, s.Flash.Geometry(), edit)
		if sec == nil {
			t.Fatal("no written page in the flash section")
		}
		return splice(flashAt, flashSec, sec)
	}
	physSubs := s.Flash.Geometry().TotalPages()

	if !bytes.Equal(forward(func(v int64) int64 { return v }), img) ||
		!bytes.Equal(stamp(func(*int64, *uint64) {}), img) {
		t.Fatal("an unedited rewrite does not reproduce the image")
	}
	cases := []struct {
		name string
		img  []byte
	}{
		{"forward-below-minus-one", forward(func(int64) int64 { return -5 })},
		{"forward-aliases-past-32-bits", forward(func(v int64) int64 { return v + 1<<32 })},
		{"forward-past-physical", forward(func(int64) int64 { return physSubs })},
		{"oob-tag-above-int32", stamp(func(fi *int64, _ *uint64) { *fi = 1 << 31 })},
		{"oob-tag-below-int32", stamp(func(fi *int64, _ *uint64) { *fi = -1<<31 - 1 })},
		{"oob-seq-top-bit", stamp(func(_ *int64, seq *uint64) { *seq |= 1 << 63 })},
	}
	target := wideSystem(t)
	seqFillDurable(t, target)
	before, err := target.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := target.Restore(tc.img); !errors.Is(err, snap.ErrCorrupt) {
				t.Fatalf("restore returned %v, want snap.ErrCorrupt", err)
			}
			after, serr := target.Snapshot()
			if serr != nil || !bytes.Equal(before, after) {
				t.Fatalf("failed restore mutated the target (snapshot error %v)", serr)
			}
		})
	}
	if err := target.Restore(img); err != nil {
		t.Fatalf("restore of intact image: %v", err)
	}
}

// FuzzSnapshotOpen fuzzes the image loader's framing validation: arbitrary
// byte soup must produce a typed error or a clean open — never a panic or
// an out-of-bounds slice.
func FuzzSnapshotOpen(f *testing.F) {
	e := snap.Encoding()
	u, i, blob := uint64(7), int64(-3), []byte("payload")
	snap.U(e, &u)
	snap.I(e, &i)
	e.Blob(&blob)
	valid := snap.Seal(1, snap.Fingerprint([]byte("cfg")), e.Bytes())
	f.Add(valid)
	f.Add(valid[:len(valid)-9])
	f.Add([]byte("AMBRSNAP"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, img []byte) {
		body, err := snap.Open(img, 1, snap.Fingerprint([]byte("cfg")))
		if err == nil {
			// A clean open hands the body to the decoder, which must fail
			// softly (sticky typed error) on any content.
			var (
				u    uint64
				i    int64
				blob []byte
			)
			d := snap.Decoding(body)
			snap.U(d, &u)
			snap.I(d, &i)
			d.Blob(&blob)
			_ = d.Done()
			return
		}
		if !errors.Is(err, snap.ErrTruncated) && !errors.Is(err, snap.ErrCorrupt) &&
			!errors.Is(err, snap.ErrVersion) && !errors.Is(err, snap.ErrMismatch) {
			t.Fatalf("untyped open error: %v", err)
		}
	})
}

// imageScenarios are three small fixed devices whose images between them
// reach every branch of the layout: plain, RAIN with a fault model that
// draws on fresh blocks, and an h-type protocol (the HBA resource). sha256
// is the image hash recorded for format version 8.
var imageScenarios = []struct {
	name   string
	mutate func(*core.DeviceConfig)
	sha256 string
}{
	{"plain", func(*core.DeviceConfig) {},
		"5caa32188e59785f8e7af5eac661e2966c38f1b042f1d3aa50a8a841d89e0c24"},
	{"rain-faults", func(d *core.DeviceConfig) {
		d.RAINWidth = 3
		d.Faults, _ = config.FaultProfile("wearout", 5)
		d.Faults.WearEraseLimit = 0 // draw on fresh blocks: the short run wears none out
	}, "aabd97d68ae2e3b0bc35c4573f52495d726e70bef80795682512abd73ff8078c"},
	{"h-type", func(d *core.DeviceConfig) { d.Protocol = proto.SATA30() },
		"23b7ebe2e0d669de600cf197769fabef631b8825093c4df64551d1c174f04f05"},
}

// scenarioSystem builds SmallTestDevice with mutate applied and, when run
// is set, drives it through a short seeded write+read run and drains it.
func scenarioSystem(t testing.TB, mutate func(*core.DeviceConfig), run bool) *core.System {
	t.Helper()
	d := config.SmallTestDevice()
	mutate(&d)
	s, err := core.NewSystem(config.PCSystem(d))
	if err != nil {
		t.Fatal(err)
	}
	if !run {
		return s
	}
	for i, p := range []workload.Pattern{workload.RandWrite, workload.RandRead} {
		gen, err := workload.NewFIO(p, 4096, s.VolumeBytes(), uint64(31+i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(gen, core.RunConfig{Requests: 300, IODepth: 8, WithData: true}); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain()
	return s
}

// TestSnapshotImageStable pins the on-disk layout to core.SnapshotVersion:
// each scenario's image must hash to the constant recorded when the version
// was frozen. A layout edit that forgets the version bump fails here; an
// intended one bumps the version and re-records the constants.
func TestSnapshotImageStable(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("energy accumulators are floats; the recorded hashes are amd64's")
	}
	for _, sc := range imageScenarios {
		t.Run(sc.name, func(t *testing.T) {
			img, err := scenarioSystem(t, sc.mutate, true).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(img)
			if got := hex.EncodeToString(sum[:]); got != sc.sha256 {
				t.Errorf("version %d image of %d bytes hashes to %s, want %s", core.SnapshotVersion, len(img), got, sc.sha256)
			}
		})
	}
}

// TestModuleStateRoundTrip: for every module, encode → decode into a fresh
// module → encode again must reproduce the bytes, with the section consumed
// exactly — each State walk reads back all of what it writes and nothing
// else.
func TestModuleStateRoundTrip(t *testing.T) {
	modules := []struct {
		name string
		walk func(*core.System, *snap.Codec) error
	}{
		{"nand", func(s *core.System, c *snap.Codec) error { return s.Flash.State(c) }},
		{"ftl", func(s *core.System, c *snap.Codec) error { return s.FTL.State(c) }},
		{"icl", func(s *core.System, c *snap.Codec) error { return s.ICL.State(c) }},
		{"fil", func(s *core.System, c *snap.Codec) error { return s.FIL.State(c, s.FTL) }},
		{"dram", func(s *core.System, c *snap.Codec) error { return s.DevDRAM.State(c) }},
		{"cpu", func(s *core.System, c *snap.Codec) error { return s.DevCPU.State(c) }},
		{"host", func(s *core.System, c *snap.Codec) error { return s.Host.State(c) }},
		{"dma", func(s *core.System, c *snap.Codec) error { return s.DMA.State(c) }},
	}
	for _, sc := range imageScenarios {
		t.Run(sc.name, func(t *testing.T) {
			s := scenarioSystem(t, sc.mutate, true)
			fresh := scenarioSystem(t, sc.mutate, false)
			for _, m := range modules {
				e, again := snap.Encoding(), snap.Encoding()
				if err := m.walk(s, e); err != nil || len(e.Bytes()) == 0 {
					t.Errorf("%s: encoding returned %v with %d bytes", m.name, err, len(e.Bytes()))
				}
				d := snap.Decoding(e.Bytes())
				if err := m.walk(fresh, d); err != nil {
					t.Fatalf("%s: decode: %v", m.name, err)
				}
				if err := d.Done(); err != nil {
					t.Errorf("%s: %v", m.name, err)
				}
				_ = m.walk(fresh, again)
				if !bytes.Equal(e.Bytes(), again.Bytes()) {
					t.Errorf("%s: re-encoded section differs (%d vs %d bytes)", m.name, len(again.Bytes()), len(e.Bytes()))
				}
			}
			// core: the system header rides with the whole image.
			img, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			whole := scenarioSystem(t, sc.mutate, false)
			if err := whole.Restore(img); err != nil {
				t.Fatalf("core: restore: %v", err)
			}
			if again, err := whole.Snapshot(); err != nil || !bytes.Equal(img, again) {
				t.Errorf("core: re-snapshot differs (error %v)", err)
			}
		})
	}
}

// headerLengthOffsets locates, in the snapshot body of a device without an
// HBA, the two collection lengths of the system header: the scrub-queue
// length and the flush-buffer slot count. It reads the fields before each
// and re-encodes them — the encoding is canonical, so the re-encoding is as
// long as what was read.
func headerLengthOffsets(body []byte) (scrubLen, flushSlots int) {
	d, e := snap.Decoding(body), snap.Encoding()
	relayI(d, e) // now
	relayI(d, e) // lastEnd
	relayU(d, e) // reqs
	relayU(d, e) // bytesRead
	relayU(d, e) // bytesWritten
	scrubLen = len(e.Bytes())
	for n := relayU(d, e); n > 0; n-- {
		relayU(d, e)
	}
	relayI(d, e) // link: freeAt, busy, claims
	relayI(d, e)
	relayU(d, e)
	relayBool(d, e) // hba presence
	return scrubLen, len(e.Bytes())
}

// TestRestoreRejectsCraftedLengths: a checksum-valid image whose header
// carries an absurd collection length must be refused with a typed error
// before anything is allocated from it, the target untouched.
func TestRestoreRejectsCraftedLengths(t *testing.T) {
	mutate := imageScenarios[0].mutate
	img, err := scenarioSystem(t, mutate, true).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	const headerLen = 8 + 4 + 8 + 8
	fp := binary.LittleEndian.Uint64(img[12:20])
	body := img[headerLen : len(img)-8]
	scrubLen, flushSlots := headerLengthOffsets(body)
	if body[scrubLen] != 0 || body[flushSlots] != 4 {
		t.Fatalf("header lengths read %d and %d, want an empty scrub queue and 4 flush-buffer slots", body[scrubLen], body[flushSlots])
	}

	target := scenarioSystem(t, mutate, false)
	before, err := target.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []int{scrubLen, flushSlots} {
		for _, n := range []uint64{1 << 40, 1 << 62} {
			crafted := append([]byte(nil), body[:at]...)
			crafted = binary.AppendUvarint(crafted, n)
			crafted = append(crafted, body[at+1:]...)
			err := target.Restore(snap.Seal(core.SnapshotVersion, fp, crafted))
			if !errors.Is(err, snap.ErrCorrupt) && !errors.Is(err, snap.ErrTruncated) && !errors.Is(err, snap.ErrMismatch) {
				t.Errorf("length %d at body offset %d: restore returned %v, want a typed snap error", n, at, err)
			}
			if after, serr := target.Snapshot(); serr != nil || !bytes.Equal(before, after) {
				t.Errorf("length %d at body offset %d: failed restore mutated the target (snapshot error %v)", n, at, serr)
			}
		}
	}
}

// FuzzRestoreBody fuzzes the module decoders behind the framing: a real
// tiny-device body with repl written over it at off, re-sealed so the
// checksum holds, must restore cleanly or fail with a typed snap error —
// never panic, never allocate what a corrupt length asks for.
func FuzzRestoreBody(f *testing.F) {
	tiny := func(d *core.DeviceConfig) {
		d.Geometry.PackagesPerChannel = 1
		d.Geometry.BlocksPerPlane = 8
		d.Geometry.PagesPerBlock = 8
		d.Faults, _ = config.FaultProfile("wearout", 5)
		d.Faults.WearEraseLimit = 0
	}
	img, err := scenarioSystem(f, tiny, true).Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	const headerLen = 8 + 4 + 8 + 8
	fp := binary.LittleEndian.Uint64(img[12:20])
	body := img[headerLen : len(img)-8]
	scrubLen, flushSlots := headerLengthOffsets(body)
	huge := binary.AppendUvarint(nil, 1<<40)
	f.Add(uint32(0), []byte{})
	f.Add(uint32(scrubLen), huge)
	f.Add(uint32(flushSlots), huge)
	f.Add(uint32(len(body)/2), []byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add(uint32(len(body)-40), huge)
	target := scenarioSystem(f, tiny, false)
	f.Fuzz(func(t *testing.T, off uint32, repl []byte) {
		b := append([]byte(nil), body...)
		copy(b[int(off)%len(b):], repl)
		err := target.Restore(snap.Seal(core.SnapshotVersion, fp, b))
		if err != nil && !errors.Is(err, snap.ErrTruncated) && !errors.Is(err, snap.ErrCorrupt) && !errors.Is(err, snap.ErrMismatch) {
			t.Fatalf("untyped restore error: %v", err)
		}
	})
}
