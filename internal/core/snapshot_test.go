package core_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"amber/internal/config"
	"amber/internal/core"
	"amber/internal/icl"
	"amber/internal/nand"
	"amber/internal/snap"
	"amber/internal/workload"
)

// snapshotImage drives a TrackData system through a durable fill and a
// GC-provoking overwrite storm, then snapshots it. Returns the system
// (still live, positioned exactly at the snapshot point) and the image.
func snapshotImage(t *testing.T, s *core.System) []byte {
	t.Helper()
	seqFillDurable(t, s, 0)
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
func snapshotTail(t *testing.T, s *core.System, workers int) string {
	t.Helper()
	var out bytes.Buffer
	gen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 23)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(gen, core.RunConfig{Requests: 200, IODepth: 16, IntraWorkers: workers, WithData: true})
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
// timings, same component stats and energy, same payload fingerprints — at
// every intra-parallel worker count. A snapshot taken from the restored
// system must also reproduce the image byte for byte (the state round-trips
// with no drift).
func TestSnapshotRestoreGoldenEquivalence(t *testing.T) {
	s := wideSystem(t)
	img := snapshotImage(t, s)
	want := snapshotTail(t, s, 0) // the original continues
	// Version 5: the system header carries no per-fill-path counters.
	if v := binary.LittleEndian.Uint32(img[8:12]); v != 5 || core.SnapshotVersion != 5 {
		t.Fatalf("image carries format version %d, core.SnapshotVersion is %d, want 5", v, core.SnapshotVersion)
	}

	for _, workers := range intraWorkerMatrix(t) {
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
		got := snapshotTail(t, r, workers)
		if got != want {
			t.Fatalf("workers=%d restored trajectory diverged from original:\n--- original ---\n%s--- restored ---\n%s",
				workers, want, got)
		}
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
	seqFillDurable(t, target, 0)
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
