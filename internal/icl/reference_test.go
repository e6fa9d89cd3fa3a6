package icl

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"amber/internal/sim"
	"amber/internal/snap"
)

// refCache is the scanning reference the indexed Cache is held equal to:
// frames in a plain slice, a line found by comparing every tag, a victim
// found by scanning for the first empty frame and then for the smallest
// stamp — no index, no LRU list, no buffer swapping. It exists only here.
type refCache struct {
	cfg         Config
	frames      []*refLine
	tick        uint64
	stats       Stats
	seqNext     int64
	seqStreak   int
	preferClean bool
}

type refLine struct {
	lspn       int64
	valid      []bool
	dirty      []bool
	data       []byte
	prefetched bool
	lastUse    uint64
}

func (ln *refLine) isDirty() bool {
	for _, d := range ln.dirty {
		if d {
			return true
		}
	}
	return false
}

func newRefCache(cfg Config) *refCache {
	r := &refCache{cfg: cfg, seqNext: -1}
	for i := 0; i < cfg.Lines; i++ {
		ln := &refLine{lspn: -1, valid: make([]bool, cfg.SubsPerLine), dirty: make([]bool, cfg.SubsPerLine)}
		if cfg.TrackData {
			ln.data = make([]byte, cfg.LineBytes())
		}
		r.frames = append(r.frames, ln)
	}
	return r
}

func (r *refCache) find(lspn int64) *refLine {
	for _, ln := range r.frames {
		if ln.lspn == lspn {
			return ln
		}
	}
	return nil
}

func (r *refCache) victim() *refLine {
	for _, ln := range r.frames {
		if ln.lspn < 0 {
			return ln
		}
	}
	frames := r.frames
	if r.preferClean {
		var clean []*refLine
		for _, ln := range frames {
			if !ln.isDirty() {
				clean = append(clean, ln)
			}
		}
		if len(clean) > 0 {
			frames = clean
		}
	}
	best := frames[0]
	for _, ln := range frames[1:] {
		if ln.lastUse < best.lastUse {
			best = ln
		}
	}
	return best
}

// evictInto hands the frame to lspn; the outgoing line, if any, is returned
// as a copy and counted.
func (r *refCache) evictInto(ln *refLine, lspn int64) *Eviction {
	var ev *Eviction
	if ln.lspn >= 0 {
		ev = &Eviction{LSPN: ln.lspn, Dirty: append([]bool(nil), ln.dirty...), nDirty: scanSet(ln.dirty)}
		if r.cfg.TrackData {
			ev.Data = append([]byte(nil), ln.data...)
		}
		r.stats.Evictions++
		if ev.IsDirty() {
			r.stats.DirtyEvictions++
		}
		clear(ln.valid)
		clear(ln.dirty)
		clear(ln.data)
	}
	ln.lspn = lspn
	ln.prefetched = false
	r.tick++
	ln.lastUse = r.tick
	return ev
}

func (r *refCache) touch(ln *refLine) {
	r.tick++
	ln.lastUse = r.tick
}

func (r *refCache) read(lspn int64, firstSub, nSubs int, dst []byte) ReadResult {
	var res ReadResult
	ss := r.cfg.SubSize
	ln := r.find(lspn)
	for s := firstSub; s < firstSub+nSubs; s++ {
		if ln != nil && ln.valid[s] {
			res.HitSubs = append(res.HitSubs, s)
			r.stats.ReadSubHits++
			if ln.prefetched {
				r.stats.ReadaheadHits++
			}
			if r.cfg.TrackData && dst != nil {
				copy(dst[s*ss:(s+1)*ss], ln.data[s*ss:(s+1)*ss])
			}
		} else {
			res.MissSubs = append(res.MissSubs, s)
			r.stats.ReadSubMisses++
		}
	}
	if ln != nil {
		r.touch(ln)
	}
	if r.cfg.ReadaheadThreshold > 0 {
		armed := false
		switch {
		case len(res.MissSubs) > 0:
			if lspn == r.seqNext {
				r.seqStreak++
			} else {
				r.seqStreak = 1
			}
			r.seqNext = lspn + 1
			armed = r.seqStreak >= r.cfg.ReadaheadThreshold
		case ln != nil && ln.prefetched:
			r.seqStreak = r.cfg.ReadaheadThreshold
			if lspn+1 > r.seqNext {
				r.seqNext = lspn + 1
			}
			armed = true
		}
		if armed {
			for i := int64(1); i <= int64(r.cfg.ReadaheadLines); i++ {
				if r.find(lspn+i) == nil {
					res.Readahead = append(res.Readahead, lspn+i)
					r.stats.Readaheads++
				}
			}
		}
	}
	return res
}

func (r *refCache) fill(lspn int64, subs []int, data []byte, prefetched bool) *Eviction {
	ss := r.cfg.SubSize
	ln := r.find(lspn)
	var ev *Eviction
	if ln == nil {
		ln = r.victim()
		if r.preferClean && ln.lspn >= 0 && ln.isDirty() {
			return nil
		}
		ev = r.evictInto(ln, lspn)
	}
	ln.prefetched = ln.prefetched || prefetched
	for _, s := range subs {
		ln.valid[s] = true
		if r.cfg.TrackData && data != nil && !ln.dirty[s] {
			copy(ln.data[s*ss:(s+1)*ss], data[s*ss:(s+1)*ss])
		}
	}
	r.touch(ln)
	return ev
}

func (r *refCache) writeAt(lspn int64, firstSub, nSubs int, src []byte, off int) *Eviction {
	ln := r.find(lspn)
	var ev *Eviction
	if ln == nil {
		r.stats.WriteSubMisses += uint64(nSubs)
		ln = r.victim()
		ev = r.evictInto(ln, lspn)
	} else {
		r.stats.WriteSubHits += uint64(nSubs)
	}
	for s := firstSub; s < firstSub+nSubs; s++ {
		ln.valid[s], ln.dirty[s] = true, true
	}
	if r.cfg.TrackData && src != nil {
		// Byte by byte: line byte b comes from src[b-off] when src has it.
		for b := firstSub * r.cfg.SubSize; b < (firstSub+nSubs)*r.cfg.SubSize; b++ {
			if b >= off && b-off < len(src) {
				ln.data[b] = src[b-off]
			}
		}
	}
	r.touch(ln)
	return ev
}

// flushEach cleans every dirty line in frame order, returning a copy of each
// record it visits; with stop > 0 the stop-th visit fails, so that line and
// the lines after it stay dirty.
func (r *refCache) flushEach(stop int) []*Eviction {
	var out []*Eviction
	for _, ln := range r.frames {
		if ln.lspn < 0 || !ln.isDirty() {
			continue
		}
		ev := &Eviction{LSPN: ln.lspn, Dirty: append([]bool(nil), ln.dirty...), nDirty: scanSet(ln.dirty)}
		if r.cfg.TrackData {
			ev.Data = append([]byte(nil), ln.data...)
		}
		out = append(out, ev)
		if len(out) == stop {
			break
		}
		clear(ln.dirty)
		r.stats.Flushes++
	}
	return out
}

func (r *refCache) invalidate() {
	for _, ln := range r.frames {
		ln.lspn, ln.prefetched, ln.lastUse = -1, false, 0
		clear(ln.valid)
		clear(ln.dirty)
		clear(ln.data)
	}
	r.tick, r.seqNext, r.seqStreak, r.preferClean = 0, -1, 0, false
}

// walk is the reference's own walk of Cache.State's image layout.
func (r *refCache) walk(c *snap.Codec) {
	for _, ln := range r.frames {
		snap.I(c, &ln.lspn)
		for i := range ln.valid {
			c.Bool(&ln.valid[i])
			c.Bool(&ln.dirty[i])
		}
		c.Bool(&ln.prefetched)
		snap.U(c, &ln.lastUse)
		if r.cfg.TrackData {
			data := ln.data
			c.Blob(&data)
			copy(ln.data, data)
		}
	}
	snap.U(c, &r.tick)
	snap.I(c, &r.seqNext)
	snap.I(c, &r.seqStreak)
	c.Bool(&r.preferClean)
	for _, p := range []*uint64{&r.stats.ReadSubHits, &r.stats.ReadSubMisses, &r.stats.WriteSubHits, &r.stats.WriteSubMisses,
		&r.stats.Evictions, &r.stats.DirtyEvictions, &r.stats.Readaheads, &r.stats.ReadaheadHits, &r.stats.Flushes} {
		snap.U(c, p)
	}
}

// encode writes the reference's image.
func (r *refCache) encode() []byte {
	c := snap.Encoding()
	r.walk(c)
	return c.Bytes()
}

// decode reads an encode image into a fresh reference.
func (r *refCache) decode(img []byte) { r.walk(snap.Decoding(img)) }

// encodeCache returns c's image.
func encodeCache(c *Cache) []byte {
	k := snap.Encoding()
	_ = c.State(k) // encoding cannot fail
	return k.Bytes()
}

// sameEviction compares what a caller acts on: which line left, which subs
// must be written back, and (TrackData) those subs' bytes — the rest of Data
// is not defined.
func sameEviction(got, want *Eviction, ss int) error {
	if (got == nil) != (want == nil) {
		return fmt.Errorf("eviction %v, reference %v", got, want)
	}
	if got == nil {
		return nil
	}
	if got.IsDirty() != (scanSet(got.Dirty) > 0) {
		return fmt.Errorf("evicted line %d: IsDirty %v over mask %v", got.LSPN, got.IsDirty(), got.Dirty)
	}
	if got.LSPN != want.LSPN || !slices.Equal(got.Dirty, want.Dirty) {
		return fmt.Errorf("evicted line %d dirty %v, reference line %d dirty %v", got.LSPN, got.Dirty, want.LSPN, want.Dirty)
	}
	if !bytes.Equal(dirtyBytes(got, ss), dirtyBytes(want, ss)) {
		return fmt.Errorf("evicted line %d: dirty bytes differ from the reference's", got.LSPN)
	}
	return nil
}

// dirtyBytes returns the bytes of an eviction's dirty subs, in sub order.
func dirtyBytes(ev *Eviction, ss int) []byte {
	var out []byte
	for s, d := range ev.Dirty {
		if d && ev.Data != nil {
			out = append(out, ev.Data[s*ss:(s+1)*ss]...)
		}
	}
	return out
}

// scanSet counts a mask's set bits the slow way.
func scanSet(mask []bool) int {
	n := 0
	for _, b := range mask {
		if b {
			n++
		}
	}
	return n
}

// checkCounts holds every count the cache keeps beside a mask — each
// frame's, and the eviction scratch's — to a scan of that mask, and each
// frame's pin count to its pins, which only valid clean subs hold.
func checkCounts(c *Cache) error {
	for f, ln := range c.frames {
		if v, d := scanSet(ln.valid), scanSet(ln.dirty); ln.nValid != v || ln.nDirty != d {
			return fmt.Errorf("frame %d (line %d): counts %d valid / %d dirty, masks hold %d / %d",
				f, ln.lspn, ln.nValid, ln.nDirty, v, d)
		}
		pinned := 0
		for s, pin := range ln.pins {
			if pin == nil {
				continue
			}
			pinned++
			if !ln.valid[s] || ln.dirty[s] {
				return fmt.Errorf("frame %d (line %d): sub %d pinned while valid %v, dirty %v", f, ln.lspn, s, ln.valid[s], ln.dirty[s])
			}
		}
		if ln.nPinned != pinned {
			return fmt.Errorf("frame %d (line %d): count %d pinned, pins hold %d", f, ln.lspn, ln.nPinned, pinned)
		}
	}
	if d := scanSet(c.scratchEv.Dirty); c.scratchEv.nDirty != d {
		return fmt.Errorf("eviction scratch: count %d dirty, mask holds %d", c.scratchEv.nDirty, d)
	}
	return nil
}

// TestCacheMatchesScanningReference drives random streams of every
// state-changing call — Read, Write, WriteAt, Fill, FillPinned, FlushEach,
// Invalidate, SetPreferCleanVictims, and an encode → decode State hop
// onto a fresh cache — through the indexed Cache and the scanning reference,
// with and without TrackData. Probe results, evictions, Stats and the State
// image must agree after every call: the index and the LRU list, walked
// from its head to a clean frame in the degraded mode, never choose a
// different frame than the scans. So
// must every valid/dirty/pinned count with a scan of its mask, and IsDirty
// with the record's. The reference copies what the cache pins, so it is the
// copying twin of every pinned fill.
func TestCacheMatchesScanningReference(t *testing.T) {
	forReferenceConfigs(t, func(t *testing.T, cfg Config, seed uint64) {
		referenceStream(t, cfg, seed, false)
	})
}

// TestPoisonedInvalidSubsChangeNothing runs the tracked scanning-reference
// stream twice, the second time with 0xA5 written over
// the frame bytes of every invalid or pinned sub and every clean sub of the
// eviction scratch between calls. Read bytes, evictions' dirty bytes and
// State images are the same in both runs: nothing reads a byte the
// payload contract leaves undefined.
func TestPoisonedInvalidSubsChangeNothing(t *testing.T) {
	forReferenceConfigs(t, func(t *testing.T, cfg Config, seed uint64) {
		if !cfg.TrackData {
			t.Skip("a timing-only cache holds no payload")
		}
		if clean, poisoned := referenceStream(t, cfg, seed, false), referenceStream(t, cfg, seed, true); clean != poisoned {
			t.Fatalf("poisoning invalid subs changed the stream's observables: digest %x, clean %x", poisoned, clean)
		}
	})
}

// forReferenceConfigs runs body as a subtest for each TrackData setting.
// The names keep the organisation and policy the cache once chose between.
func forReferenceConfigs(t *testing.T, body func(t *testing.T, cfg Config, seed uint64)) {
	for _, trackData := range []bool{true, false} {
		cfg := Config{
			Lines: 12, SubsPerLine: 4, SubSize: 8,
			ReadaheadThreshold: 2, ReadaheadLines: 2,
			TrackData: trackData,
		}
		t.Run(fmt.Sprintf("fully-associative/lru/data=%v", trackData), func(t *testing.T) { body(t, cfg, 3) })
	}
}

// pinLedger stands in for the owner of the buffers a cache pins: it keeps a
// copy of each live pin's bytes and, when the cache releases the pin,
// checks that the bytes are unchanged and scribbles 0x5A over them, so a
// cache that read a released pin would disagree with the reference.
type pinLedger struct {
	t        *testing.T
	live     map[*byte][]byte
	released int
}

func newPinLedger(t *testing.T) *pinLedger {
	return &pinLedger{t: t, live: make(map[*byte][]byte)}
}

// pin returns a fresh pinned copy of b.
func (l *pinLedger) pin(b []byte) []byte {
	buf := slices.Clone(b)
	l.live[&buf[0]] = slices.Clone(b)
	return buf
}

func (l *pinLedger) release(buf []byte) {
	l.t.Helper()
	want, ok := l.live[&buf[0]]
	if !ok {
		l.t.Fatal("the cache released a pin it did not hold")
	}
	if !bytes.Equal(buf, want) {
		l.t.Fatal("a pinned buffer's bytes changed while the cache held it")
	}
	delete(l.live, &buf[0])
	for i := range buf {
		buf[i] = 0x5A
	}
	l.released++
}

// referenceStream drives one random stream through a Cache and the scanning
// reference, failing t at the first disagreement, and returns a digest of
// what a caller observes: read bytes, each eviction's line, mask and dirty
// bytes, and the State image after every call. With poison, every
// undefined frame byte is overwritten between calls.
func referenceStream(t *testing.T, cfg Config, seed uint64, poison bool) uint64 {
	const ops = 4000
	trackData, ss := cfg.TrackData, cfg.SubSize
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pins := newPinLedger(t)
	c.SetPinRelease(pins.release)
	pinnedFills := 0
	ref := newRefCache(cfg)
	rng := sim.NewRNG(seed)
	digest := fnv.New64a()
	payload := func() []byte {
		if !trackData || rng.Intn(8) == 0 {
			return nil
		}
		b := make([]byte, cfg.LineBytes())
		for i := range b {
			b[i] = byte(rng.Intn(255)) + 1
		}
		return b
	}
	allSubs := []int{0, 1, 2, 3}
	for op := 0; op < ops; op++ {
		lspn := int64(rng.Intn(3 * cfg.Lines))
		if rng.Intn(3) == 0 {
			lspn = int64(op/8) % int64(4*cfg.Lines) // sequential stretches arm the readahead
		}
		first := rng.Intn(cfg.SubsPerLine)
		n := 1 + rng.Intn(cfg.SubsPerLine-first)
		var what string
		var evs, refEvs []*Eviction
		switch k := rng.Intn(100); {
		case k < 35:
			what = "Read"
			var dst, dstRef []byte
			if trackData {
				dst, dstRef = make([]byte, cfg.LineBytes()), make([]byte, cfg.LineBytes())
			}
			got, err := c.Read(lspn, first, n, dst)
			if err != nil {
				t.Fatal(err)
			}
			want := ref.read(lspn, first, n, dstRef)
			if !slices.Equal(got.HitSubs, want.HitSubs) || !slices.Equal(got.MissSubs, want.MissSubs) ||
				!slices.Equal(got.Readahead, want.Readahead) || !bytes.Equal(dst, dstRef) {
				t.Fatalf("op %d Read(%d,%d,%d) = %+v, reference %+v", op, lspn, first, n, got, want)
			}
			digest.Write(dst)
		case k < 55:
			what = "WriteAt"
			src := payload()
			off := 0
			if src != nil && rng.Intn(2) == 0 {
				// A window: the line bytes [off, off+len).
				off = rng.Intn(cfg.LineBytes())
				src = src[off : off+rng.Intn(cfg.LineBytes()-off+1)]
			}
			ev, err := c.WriteAt(lspn, first, n, src, off)
			if err != nil {
				t.Fatal(err)
			}
			evs, refEvs = []*Eviction{ev}, []*Eviction{ref.writeAt(lspn, first, n, src, off)}
		case k < 60:
			what = "Write"
			src := payload()
			ev, err := c.Write(lspn, first, n, src)
			if err != nil {
				t.Fatal(err)
			}
			evs, refEvs = []*Eviction{ev}, []*Eviction{ref.writeAt(lspn, first, n, src, 0)}
		case k < 85:
			what = "Fill"
			subs := []int{first}
			if n > 1 {
				subs = append(subs, first+n-1)
			}
			data, pre := payload(), rng.Intn(4) == 0
			if data != nil && rng.Intn(4) == 0 {
				// Every sub pinned, or unmapped (nil: zeroes) now and then;
				// the reference copies the same bytes in.
				what = "FillPinned"
				line := make([][]byte, cfg.SubsPerLine)
				for s := range line {
					if rng.Intn(8) == 0 {
						clear(data[s*ss : (s+1)*ss])
						continue
					}
					line[s] = pins.pin(data[s*ss : (s+1)*ss])
				}
				ev, err := c.FillPinned(lspn, line, pre)
				if err != nil {
					t.Fatalf("op %d FillPinned(%d): %v", op, lspn, err)
				}
				evs, refEvs = []*Eviction{ev}, []*Eviction{ref.fill(lspn, allSubs, data, pre)}
				pinnedFills++
				if rng.Intn(2) == 0 {
					// Write part of one sub, merging it over its pin.
					s := rng.Intn(cfg.SubsPerLine)
					lo := s*ss + rng.Intn(ss)
					src := payload()
					if src != nil {
						src = src[lo : lo+1+rng.Intn((s+1)*ss-lo)]
					}
					ev, err := c.WriteAt(lspn, s, 1, src, lo)
					if err != nil {
						t.Fatal(err)
					}
					evs, refEvs = append(evs, ev), append(refEvs, ref.writeAt(lspn, s, 1, src, lo))
				}
				break
			}
			ev, err := c.Fill(lspn, subs, data, pre)
			if err != nil {
				t.Fatal(err)
			}
			evs, refEvs = []*Eviction{ev}, []*Eviction{ref.fill(lspn, subs, data, pre)}
		case k < 92:
			what = "FlushEach"
			dirty := 0
			for _, ln := range ref.frames {
				if ln.lspn >= 0 && ln.isDirty() {
					dirty++
				}
			}
			stop := rng.Intn(dirty + 1) // the visit that fails, if any
			refEvs = ref.flushEach(stop)
			boom := errors.New("boom")
			err := c.FlushEach(func(ev *Eviction) error {
				evs = append(evs, &Eviction{LSPN: ev.LSPN, Dirty: slices.Clone(ev.Dirty), Data: slices.Clone(ev.Data), nDirty: ev.nDirty})
				if len(evs) == stop {
					return boom
				}
				return nil
			})
			if (err != nil) != (stop > 0) || len(evs) != len(refEvs) {
				t.Fatalf("op %d FlushEach = %v after %d visits, reference %d dirty lines, visit %d failing", op, err, len(evs), len(refEvs), stop)
			}
		case k < 96:
			what = "SetPreferCleanVictims"
			on := rng.Intn(3) == 0
			c.SetPreferCleanVictims(on)
			ref.preferClean = on
		case k < 97:
			what = "Invalidate"
			c.Invalidate()
			ref.invalidate()
		default:
			what = "Encode→Decode"
			restored, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			restored.SetPinRelease(pins.release)
			if err := restored.State(snap.Decoding(encodeCache(c))); err != nil {
				t.Fatalf("op %d: decode of the cache's own image: %v", op, err)
			}
			c.Invalidate() // the discarded cache lets go of its pins
			c = restored
			refRestored := newRefCache(cfg)
			refRestored.decode(ref.encode())
			ref = refRestored
		}
		for i, ev := range evs {
			if err := sameEviction(ev, refEvs[i], ss); err != nil {
				t.Fatalf("op %d %s(%d): %v", op, what, lspn, err)
			}
			if ev != nil {
				fmt.Fprintf(digest, "ev %d %v ", ev.LSPN, ev.Dirty)
				digest.Write(dirtyBytes(ev, ss))
			}
		}
		if c.Stats() != ref.stats {
			t.Fatalf("op %d %s(%d): stats %+v, reference %+v", op, what, lspn, c.Stats(), ref.stats)
		}
		img := encodeCache(c)
		if !bytes.Equal(img, ref.encode()) {
			t.Fatalf("op %d %s(%d): State image differs from the reference's", op, what, lspn)
		}
		digest.Write(img)
		if err := checkCounts(c); err != nil {
			t.Fatalf("op %d %s(%d): %v", op, what, lspn, err)
		}
		if held := c.pinnedSubs(); held != len(pins.live) {
			t.Fatalf("op %d %s(%d): the cache holds %d pins, %d are live", op, what, lspn, held, len(pins.live))
		}
		if poison {
			c.poisonInvalidSubs()
		}
	}
	if st := c.Stats(); st.DirtyEvictions == 0 || st.Flushes == 0 || st.ReadSubHits == 0 || st.Readaheads == 0 ||
		trackData && (pinnedFills == 0 || pins.released == 0) {
		t.Fatalf("stream exercised too little: %+v, %d pinned fills, %d pins released", c.Stats(), pinnedFills, pins.released)
	}
	return digest.Sum64()
}

// TestFillKeepsDirtySub: a sub that a write made dirty while its fetch was
// in flight holds the newer bytes; Fill installs the clean subs around it
// and leaves its bytes and dirty bit alone.
func TestFillKeepsDirtySub(t *testing.T) {
	c := newCache(t, nil)
	ss := c.Config().SubSize
	written := bytes.Repeat([]byte{0xAA}, c.Config().LineBytes())
	fetched := bytes.Repeat([]byte{0x55}, c.Config().LineBytes())
	if _, err := c.Write(7, 1, 1, written); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	if _, err := c.Fill(7, []int{0, 1, 2}, fetched, false); err != nil {
		t.Fatal(err)
	}
	if c.Stats() != before {
		t.Fatalf("Fill onto a resident line moved counters: %+v -> %+v", before, c.Stats())
	}
	got := make([]byte, c.Config().LineBytes())
	res, err := c.Read(7, 0, 3, got)
	if err != nil || len(res.MissSubs) != 0 {
		t.Fatalf("read after fill: %+v, %v", res, err)
	}
	want := append(append(append([]byte(nil), fetched[:ss]...), written[ss:2*ss]...), fetched[2*ss:3*ss]...)
	if !bytes.Equal(got[:3*ss], want) {
		t.Fatal("Fill overwrote the dirty sub with the fetched bytes")
	}
	if evs := c.FlushAll(); len(evs) != 1 || !slices.Equal(evs[0].Dirty[:3], []bool{false, true, false}) {
		t.Fatalf("dirty mask after fill: %+v", evs)
	}
}

// TestStateRefusesUnindexableFrames: images the LSPN index cannot
// mirror are corrupt, not merely odd.
func TestStateRefusesUnindexableFrames(t *testing.T) {
	cfg := testConfig()
	build := func(edit func(r *refCache)) error {
		r := newRefCache(cfg)
		for l := int64(0); l < int64(cfg.Lines); l++ {
			r.writeAt(l, 0, 1, nil, 0)
		}
		edit(r)
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c.State(snap.Decoding(r.encode()))
	}
	if err := build(func(*refCache) {}); err != nil {
		t.Fatalf("intact image: %v", err)
	}
	for name, edit := range map[string]func(r *refCache){
		"lspn in two frames":     func(r *refCache) { r.frames[1].lspn = r.frames[0].lspn },
		"stamped ahead of clock": func(r *refCache) { r.frames[2].lastUse = r.tick + 1 },
	} {
		if err := build(edit); !errors.Is(err, snap.ErrCorrupt) {
			t.Errorf("%s: decoding State returned %v, want snap.ErrCorrupt", name, err)
		}
	}
}

// benchReadHit measures a full-line read hit on a warm cache of the given
// size; the probe must not cost more on a larger cache.
func benchReadHit(b *testing.B, lines int) {
	c, err := New(Config{Lines: lines, SubsPerLine: 120, SubSize: 8192})
	if err != nil {
		b.Fatal(err)
	}
	for l := 0; l < lines; l++ {
		if _, err := c.Write(int64(l), 0, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A stride coprime to the size visits every line, far apart.
		if _, err := c.Read(int64(i*389%lines), 0, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadHit(b *testing.B) {
	for _, lines := range []int{764, 4096} {
		b.Run(fmt.Sprintf("lines=%d", lines), func(b *testing.B) { benchReadHit(b, lines) })
	}
}
