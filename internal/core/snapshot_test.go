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
	// Version 5: the system header carries no per-fill-path counters.
	if v := binary.LittleEndian.Uint32(img[8:12]); v != 5 || core.SnapshotVersion != 5 {
		t.Fatalf("image carries format version %d, core.SnapshotVersion is %d, want 5", v, core.SnapshotVersion)
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

// rewriteCacheFrames re-encodes the frame records of an icl.EncodeState
// section with edit applied to each frame's tag and replacement stamps; the
// rest of the section (clock, RNG, detector, statistics) is kept verbatim.
func rewriteCacheFrames(section []byte, cfg icl.Config, edit func(frame int, lspn *int64, lastUse, inserted *uint64)) []byte {
	frames := func(edit func(int, *int64, *uint64, *uint64)) []byte {
		d := snap.NewDec(section)
		var e snap.Enc
		nsets, ways := d.U64(), d.U64()
		e.U64(nsets)
		e.U64(ways)
		for f := 0; f < int(nsets*ways); f++ {
			lspn := d.I64()
			masks := make([]bool, 2*cfg.SubsPerLine+1) // valid/dirty pairs, prefetched
			for i := range masks {
				masks[i] = d.Bool()
			}
			lastUse, inserted := d.U64(), d.U64()
			edit(f, &lspn, &lastUse, &inserted)
			e.I64(lspn)
			for _, b := range masks {
				e.Bool(b)
			}
			e.U64(lastUse)
			e.U64(inserted)
			if cfg.TrackData {
				e.Blob(d.Blob())
			}
		}
		return e.Bytes()
	}
	// The encoding is canonical, so an unedited pass is as long as the
	// frame records it read.
	consumed := len(frames(func(int, *int64, *uint64, *uint64) {}))
	return append(frames(edit), section[consumed:]...)
}

// TestSnapshotRefusesUnindexableCache: the cache finds lines through an
// LSPN index, so an image whose frames the index cannot mirror — one LSPN
// in two frames, a line outside the set its LSPN maps to, a frame stamped
// ahead of the replacement clock — must be refused as corrupt rather than
// restored into a device that answers differently from its own frames. The
// target stays untouched, and the unedited image still restores.
func TestSnapshotRefusesUnindexableCache(t *testing.T) {
	build := func() *core.System {
		d := config.SmallTestDevice()
		d.CacheAssoc = icl.SetAssoc // 8 lines: 2 sets of 4 ways
		s, err := core.NewSystem(config.PCSystem(d))
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
	var e snap.Enc
	s.ICL.EncodeState(&e)
	section := e.Bytes()
	at := bytes.Index(body, section)
	if at < 0 {
		t.Fatal("cache section not found in the image body")
	}
	seal := func(edit func(frame int, lspn *int64, lastUse, inserted *uint64)) []byte {
		b := append([]byte(nil), body[:at]...)
		b = append(b, rewriteCacheFrames(section, s.ICL.Config(), edit)...)
		b = append(b, body[at+len(section):]...)
		return snap.Seal(core.SnapshotVersion, fp, b)
	}
	var first int64
	cases := []struct {
		name string
		edit func(frame int, lspn *int64, lastUse, inserted *uint64)
	}{
		{"lspn-in-two-frames", func(f int, lspn *int64, _, _ *uint64) {
			if f == 0 {
				first = *lspn
			} else if f == 1 {
				*lspn = first
			}
		}},
		{"line-in-wrong-set", func(f int, lspn *int64, _, _ *uint64) {
			if f == 0 {
				*lspn++ // set 0 holds even LSPNs
			}
		}},
		{"stamped-ahead-of-clock", func(f int, _ *int64, lastUse, _ *uint64) {
			if f == 2 {
				*lastUse += 1 << 40
			}
		}},
	}

	if !bytes.Equal(seal(func(int, *int64, *uint64, *uint64) {}), img) {
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

// FuzzSnapshotOpen fuzzes the image loader's framing validation: arbitrary
// byte soup must produce a typed error or a clean open — never a panic or
// an out-of-bounds slice.
func FuzzSnapshotOpen(f *testing.F) {
	var e snap.Enc
	e.U64(7)
	e.I64(-3)
	e.Blob([]byte("payload"))
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
			d := snap.NewDec(body)
			_ = d.U64()
			_ = d.I64()
			_ = d.Blob()
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
// is the image hash recorded when format version 5 was frozen.
var imageScenarios = []struct {
	name   string
	mutate func(*core.DeviceConfig)
	sha256 string
}{
	{"plain", func(*core.DeviceConfig) {},
		"5c1b5808fa63217425c7bb5213614a739f6369e750ca91ef613c122be4176523"},
	{"rain-faults", func(d *core.DeviceConfig) {
		d.RAINWidth = 3
		d.Faults, _ = config.FaultProfile("wearout", 5)
		d.Faults.WearEraseLimit = 0 // draw on fresh blocks: the short run wears none out
	}, "72d79639c84e534a34f1782b53023dbb8286dbdbe55804311c1667e5c2decdc1"},
	{"h-type", func(d *core.DeviceConfig) { d.Protocol = proto.SATA30() },
		"b3e648ac352e7826e79eaba436f5b8a0295c01bd1cc767fcf6635d8b2345491e"},
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
// exactly — each state walk reads back all of what it writes and nothing
// else.
func TestModuleStateRoundTrip(t *testing.T) {
	modules := []struct {
		name string
		enc  func(*core.System, *snap.Enc)
		dec  func(*core.System, *snap.Dec) error
	}{
		{"nand", func(s *core.System, e *snap.Enc) { s.Flash.EncodeState(e) },
			func(s *core.System, d *snap.Dec) error { return s.Flash.DecodeState(d) }},
		{"ftl", func(s *core.System, e *snap.Enc) { s.FTL.EncodeState(e) },
			func(s *core.System, d *snap.Dec) error { return s.FTL.DecodeState(d) }},
		{"icl", func(s *core.System, e *snap.Enc) { s.ICL.EncodeState(e) },
			func(s *core.System, d *snap.Dec) error { return s.ICL.DecodeState(d) }},
		{"fil", func(s *core.System, e *snap.Enc) { s.FIL.EncodeState(e) },
			func(s *core.System, d *snap.Dec) error { return s.FIL.DecodeState(d, s.FTL) }},
		{"dram", func(s *core.System, e *snap.Enc) { s.DevDRAM.EncodeState(e) },
			func(s *core.System, d *snap.Dec) error { return s.DevDRAM.DecodeState(d) }},
		{"cpu", func(s *core.System, e *snap.Enc) { s.DevCPU.EncodeState(e) },
			func(s *core.System, d *snap.Dec) error { return s.DevCPU.DecodeState(d) }},
		{"host", func(s *core.System, e *snap.Enc) { s.Host.EncodeState(e) },
			func(s *core.System, d *snap.Dec) error { return s.Host.DecodeState(d) }},
		{"dma", func(s *core.System, e *snap.Enc) { s.DMA.EncodeState(e) },
			func(s *core.System, d *snap.Dec) error { return s.DMA.DecodeState(d) }},
	}
	for _, sc := range imageScenarios {
		t.Run(sc.name, func(t *testing.T) {
			s := scenarioSystem(t, sc.mutate, true)
			fresh := scenarioSystem(t, sc.mutate, false)
			for _, m := range modules {
				var e, again snap.Enc
				m.enc(s, &e)
				if len(e.Bytes()) == 0 {
					t.Errorf("%s: empty section", m.name)
				}
				d := snap.NewDec(e.Bytes())
				if err := m.dec(fresh, d); err != nil {
					t.Fatalf("%s: decode: %v", m.name, err)
				}
				if err := d.Done(); err != nil {
					t.Errorf("%s: %v", m.name, err)
				}
				m.enc(fresh, &again)
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
	d := snap.NewDec(body)
	var e snap.Enc
	e.I64(d.I64()) // now
	e.I64(d.I64()) // lastEnd
	e.U64(d.U64()) // reqs
	e.U64(d.U64()) // bytesRead
	e.U64(d.U64()) // bytesWritten
	scrubLen = len(e.Bytes())
	n := d.U64()
	e.U64(n)
	for ; n > 0; n-- {
		e.U64(d.U64())
	}
	e.I64(d.I64()) // link: freeAt, busy, claims
	e.I64(d.I64())
	e.U64(d.U64())
	e.Bool(d.Bool()) // hba presence
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
