package icl

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"amber/internal/sim"
	"amber/internal/snap"
)

// refCache is the scanning reference the indexed Cache is held equal to:
// frames in plain per-set slices, a line found by comparing every tag of its
// set, a victim found by scanning for the first empty frame and then for the
// smallest stamp — no index, no victim order, no buffer swapping. It exists
// only here.
type refCache struct {
	cfg         Config
	sets        [][]*refLine
	tick        uint64
	rng         *sim.RNG
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
	inserted   uint64
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
	ways := cfg.Lines
	switch cfg.Assoc {
	case SetAssoc:
		ways = cfg.Ways
	case DirectMap:
		ways = 1
	}
	r := &refCache{cfg: cfg, rng: sim.NewRNG(cfg.Seed ^ 0x1c1), seqNext: -1}
	for i := 0; i < cfg.Lines/ways; i++ {
		var set []*refLine
		for w := 0; w < ways; w++ {
			ln := &refLine{lspn: -1, valid: make([]bool, cfg.SubsPerLine), dirty: make([]bool, cfg.SubsPerLine)}
			if cfg.TrackData {
				ln.data = make([]byte, cfg.LineBytes())
			}
			set = append(set, ln)
		}
		r.sets = append(r.sets, set)
	}
	return r
}

func (r *refCache) setOf(lspn int64) []*refLine { return r.sets[lspn%int64(len(r.sets))] }

func (r *refCache) find(lspn int64) *refLine {
	for _, ln := range r.setOf(lspn) {
		if ln.lspn == lspn {
			return ln
		}
	}
	return nil
}

func (r *refCache) victim(lspn int64) *refLine {
	set := r.setOf(lspn)
	for _, ln := range set {
		if ln.lspn < 0 {
			return ln
		}
	}
	if r.preferClean {
		var clean []*refLine
		for _, ln := range set {
			if !ln.isDirty() {
				clean = append(clean, ln)
			}
		}
		if len(clean) > 0 {
			set = clean
		}
	}
	best := set[0]
	switch r.cfg.Replacement {
	case Random:
		return set[r.rng.Intn(len(set))]
	case FIFO:
		for _, ln := range set[1:] {
			if ln.inserted < best.inserted {
				best = ln
			}
		}
	default:
		for _, ln := range set[1:] {
			if ln.lastUse < best.lastUse {
				best = ln
			}
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
	ln.inserted, ln.lastUse = r.tick, r.tick
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
		ln = r.victim(lspn)
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
		ln = r.victim(lspn)
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

func (r *refCache) flushLine(lspn int64) *Eviction {
	ln := r.find(lspn)
	if ln == nil {
		return nil
	}
	ev := &Eviction{LSPN: lspn, Dirty: append([]bool(nil), ln.dirty...), nDirty: scanSet(ln.dirty)}
	if r.cfg.TrackData {
		ev.Data = append([]byte(nil), ln.data...)
	}
	clear(ln.dirty)
	r.stats.Flushes++
	return ev
}

func (r *refCache) invalidate() {
	for _, set := range r.sets {
		for _, ln := range set {
			ln.lspn, ln.prefetched, ln.lastUse, ln.inserted = -1, false, 0, 0
			clear(ln.valid)
			clear(ln.dirty)
			clear(ln.data)
		}
	}
	r.tick, r.seqNext, r.seqStreak, r.preferClean = 0, -1, 0, false
}

// encode writes the image layout of Cache.EncodeState.
func (r *refCache) encode() []byte {
	var e snap.Enc
	e.U64(uint64(len(r.sets)))
	e.U64(uint64(len(r.sets[0])))
	for _, set := range r.sets {
		for _, ln := range set {
			e.I64(ln.lspn)
			for i := range ln.valid {
				e.Bool(ln.valid[i])
				e.Bool(ln.dirty[i])
			}
			e.Bool(ln.prefetched)
			e.U64(ln.lastUse)
			e.U64(ln.inserted)
			if r.cfg.TrackData {
				e.Blob(ln.data)
			}
		}
	}
	e.U64(r.tick)
	for _, w := range r.rng.State() {
		e.U64(w)
	}
	e.I64(r.seqNext)
	e.I64(int64(r.seqStreak))
	e.Bool(r.preferClean)
	for _, v := range []uint64{r.stats.ReadSubHits, r.stats.ReadSubMisses, r.stats.WriteSubHits, r.stats.WriteSubMisses,
		r.stats.Evictions, r.stats.DirtyEvictions, r.stats.Readaheads, r.stats.ReadaheadHits, r.stats.Flushes} {
		e.U64(v)
	}
	return e.Bytes()
}

// decode reads an encode image into a fresh reference.
func (r *refCache) decode(img []byte) {
	d := snap.NewDec(img)
	d.U64()
	d.U64()
	for _, set := range r.sets {
		for _, ln := range set {
			ln.lspn = d.I64()
			for i := range ln.valid {
				ln.valid[i] = d.Bool()
				ln.dirty[i] = d.Bool()
			}
			ln.prefetched = d.Bool()
			ln.lastUse = d.U64()
			ln.inserted = d.U64()
			if r.cfg.TrackData {
				copy(ln.data, d.Blob())
			}
		}
	}
	r.tick = d.U64()
	var rs [4]uint64
	for i := range rs {
		rs[i] = d.U64()
	}
	r.rng.SetState(rs)
	r.seqNext = d.I64()
	r.seqStreak = int(d.I64())
	r.preferClean = d.Bool()
	for _, p := range []*uint64{&r.stats.ReadSubHits, &r.stats.ReadSubMisses, &r.stats.WriteSubHits, &r.stats.WriteSubMisses,
		&r.stats.Evictions, &r.stats.DirtyEvictions, &r.stats.Readaheads, &r.stats.ReadaheadHits, &r.stats.Flushes} {
		*p = d.U64()
	}
}

func encodeCache(c *Cache) []byte {
	var e snap.Enc
	c.EncodeState(&e)
	return e.Bytes()
}

// sameEviction compares what a caller acts on: which line left, which subs
// must be written back, and (TrackData) the bytes of its valid subs — all
// Data is, the rest being zero on both sides.
func sameEviction(got, want *Eviction) error {
	if (got == nil) != (want == nil) {
		return fmt.Errorf("eviction %v, reference %v", got, want)
	}
	if got == nil {
		return nil
	}
	if got.IsDirty() != (scanSet(got.Dirty) > 0) {
		return fmt.Errorf("evicted line %d: IsDirty %v over mask %v", got.LSPN, got.IsDirty(), got.Dirty)
	}
	if got.LSPN != want.LSPN || !slices.Equal(got.Dirty, want.Dirty) || !bytes.Equal(got.Data, want.Data) {
		return fmt.Errorf("evicted line %d dirty %v, reference line %d dirty %v (data equal: %v)",
			got.LSPN, got.Dirty, want.LSPN, want.Dirty, bytes.Equal(got.Data, want.Data))
	}
	return nil
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
// frame's, and the eviction scratch's — to a scan of that mask.
func checkCounts(c *Cache) error {
	for si := range c.sets {
		for w, ln := range c.sets[si].frames {
			if v, d := scanSet(ln.valid), scanSet(ln.dirty); ln.nValid != v || ln.nDirty != d {
				return fmt.Errorf("set %d way %d (line %d): counts %d valid / %d dirty, masks hold %d / %d",
					si, w, ln.lspn, ln.nValid, ln.nDirty, v, d)
			}
		}
	}
	if v, d := scanSet(c.scratchValid), scanSet(c.scratchEv.Dirty); c.scratchNValid != v || c.scratchEv.nDirty != d {
		return fmt.Errorf("eviction scratch: counts %d valid / %d dirty, masks hold %d / %d",
			c.scratchNValid, c.scratchEv.nDirty, v, d)
	}
	return nil
}

// TestCacheMatchesScanningReference drives random streams of every
// state-changing call — Read, Write, WriteAt, Fill, FlushLine, Invalidate,
// SetPreferCleanVictims, and an EncodeState → DecodeState hop onto a fresh
// cache — through the indexed Cache and the scanning reference, for every
// organisation and replacement policy. Probe results, evictions, Stats and
// the EncodeState image must agree after every call: the index and the
// victim order never choose a different frame than the scans. So must every
// valid/dirty count with a scan of its mask, and IsDirty with the record's.
func TestCacheMatchesScanningReference(t *testing.T) {
	const ops = 4000
	for ai, assoc := range []Assoc{FullyAssoc, SetAssoc, DirectMap} {
		for ri, repl := range []Replacement{LRU, FIFO, Random} {
			for _, trackData := range []bool{true, false} {
				name := fmt.Sprintf("%v/%v/data=%v", assoc, repl, trackData)
				t.Run(name, func(t *testing.T) {
					cfg := Config{
						Lines: 12, Ways: 4, SubsPerLine: 4, SubSize: 8,
						Assoc: assoc, Replacement: repl,
						ReadaheadThreshold: 2, ReadaheadLines: 2,
						TrackData: trackData, Seed: uint64(100 + 10*ai + ri),
					}
					c, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					ref := newRefCache(cfg)
					rng := sim.NewRNG(uint64(3 + 7*ai + ri))
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
					for op := 0; op < ops; op++ {
						lspn := int64(rng.Intn(3 * cfg.Lines))
						if rng.Intn(3) == 0 {
							lspn = int64(op/8) % int64(4*cfg.Lines) // sequential stretches arm the readahead
						}
						first := rng.Intn(cfg.SubsPerLine)
						n := 1 + rng.Intn(cfg.SubsPerLine-first)
						var what string
						var evErr error
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
							evErr = sameEviction(ev, ref.writeAt(lspn, first, n, src, off))
						case k < 60:
							what = "Write"
							src := payload()
							ev, err := c.Write(lspn, first, n, src)
							if err != nil {
								t.Fatal(err)
							}
							evErr = sameEviction(ev, ref.writeAt(lspn, first, n, src, 0))
						case k < 85:
							what = "Fill"
							subs := []int{first}
							if n > 1 {
								subs = append(subs, first+n-1)
							}
							data, pre := payload(), rng.Intn(4) == 0
							ev, err := c.Fill(lspn, subs, data, pre)
							if err != nil {
								t.Fatal(err)
							}
							evErr = sameEviction(ev, ref.fill(lspn, subs, data, pre))
						case k < 92:
							what = "FlushLine"
							evErr = sameEviction(c.FlushLine(lspn), ref.flushLine(lspn))
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
							if err := restored.DecodeState(snap.NewDec(encodeCache(c))); err != nil {
								t.Fatalf("op %d: decode of the cache's own image: %v", op, err)
							}
							c = restored
							refRestored := newRefCache(cfg)
							refRestored.decode(ref.encode())
							ref = refRestored
						}
						if evErr != nil {
							t.Fatalf("op %d %s(%d): %v", op, what, lspn, evErr)
						}
						if c.Stats() != ref.stats {
							t.Fatalf("op %d %s(%d): stats %+v, reference %+v", op, what, lspn, c.Stats(), ref.stats)
						}
						if !bytes.Equal(encodeCache(c), ref.encode()) {
							t.Fatalf("op %d %s(%d): EncodeState image differs from the reference's", op, what, lspn)
						}
						if err := checkCounts(c); err != nil {
							t.Fatalf("op %d %s(%d): %v", op, what, lspn, err)
						}
					}
					if c.Stats().Evictions == 0 || c.Stats().ReadSubHits == 0 || c.Stats().Readaheads == 0 {
						t.Fatalf("stream exercised too little: %+v", c.Stats())
					}
				})
			}
		}
	}
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
	ev := c.FlushLine(7)
	if ev == nil || !slices.Equal(ev.Dirty[:3], []bool{false, true, false}) {
		t.Fatalf("dirty mask after fill: %+v", ev)
	}
}

// TestDecodeStateRefusesUnindexableFrames: images the LSPN index cannot
// mirror are corrupt, not merely odd.
func TestDecodeStateRefusesUnindexableFrames(t *testing.T) {
	cfg := testConfig()
	cfg.Assoc, cfg.Ways = SetAssoc, 2
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
		return c.DecodeState(snap.NewDec(r.encode()))
	}
	if err := build(func(*refCache) {}); err != nil {
		t.Fatalf("intact image: %v", err)
	}
	nsets := int64(cfg.Lines / cfg.Ways)
	for name, edit := range map[string]func(r *refCache){
		"lspn in two frames":      func(r *refCache) { r.sets[0][1].lspn = r.sets[0][0].lspn },
		"line in the wrong set":   func(r *refCache) { r.sets[0][0].lspn = nsets + 1 },
		"stamped ahead of clock":  func(r *refCache) { r.sets[1][0].lastUse = r.tick + 1 },
		"inserted ahead of clock": func(r *refCache) { r.sets[1][1].inserted = r.tick + 9 },
	} {
		if err := build(edit); !errors.Is(err, snap.ErrCorrupt) {
			t.Errorf("%s: DecodeState returned %v, want snap.ErrCorrupt", name, err)
		}
	}
}

// benchReadHit measures a full-line read hit on a warm fully-associative
// cache of the given size; the probe must not cost more on a larger cache.
func benchReadHit(b *testing.B, lines int) {
	c, err := New(Config{Lines: lines, SubsPerLine: 120, SubSize: 8192, Assoc: FullyAssoc, Replacement: LRU})
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
