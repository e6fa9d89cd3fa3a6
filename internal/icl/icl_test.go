package icl

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"amber/internal/sim"
	"amber/internal/snap"
)

func testConfig() Config {
	return Config{
		Lines:              8,
		SubsPerLine:        4,
		SubSize:            512,
		ReadaheadThreshold: 3,
		ReadaheadLines:     2,
		TrackData:          true,
		SuperPages:         128,
	}
}

func newCache(t *testing.T, mutate func(*Config)) *Cache {
	t.Helper()
	cfg := testConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Lines = 0 },
		func(c *Config) { c.SubsPerLine = 0 },
		func(c *Config) { c.SubSize = 0 },
		func(c *Config) { c.ReadaheadThreshold = 2; c.ReadaheadLines = 0 },
		func(c *Config) { c.SuperPages = 0 },
	}
	for i, m := range cases {
		cfg := testConfig()
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if got := testConfig().LineBytes(); got != 2048 {
		t.Fatalf("LineBytes = %d", got)
	}
	if got := testConfig().CapacityBytes(); got != 8*2048 {
		t.Fatalf("CapacityBytes = %d", got)
	}
}

// TestPayloadBytes counts the bytes each call moves: a write the part of its
// source inside its subs, zero-padding the rest of a sub it makes valid and
// merging a pinned sub's bytes around it; a read and a fill a whole sub
// each, a fill without data zeroing a sub it makes valid; FillPinned only
// the zeroes of a nil pin; FlushEach nothing and FlushAll its copy of the
// line. Eviction clears no bytes. A timing-only cache counts nothing.
func TestPayloadBytes(t *testing.T) {
	for _, track := range []bool{true, false} {
		c := newCache(t, func(cfg *Config) { cfg.Lines, cfg.ReadaheadThreshold, cfg.TrackData = 1, 0, track })
		line := make([]byte, 2048)
		steps := []struct {
			op             func() error
			copied, zeroed uint64
		}{
			{func() error { _, err := c.WriteAt(0, 1, 2, line[:700], 600); return err }, 700, 88 + 236},
			{func() error { _, err := c.Read(0, 0, 4, line); return err }, 700 + 1024, 324},
			{func() error { _, err := c.Fill(0, []int{0, 1}, line, false); return err }, 1724 + 512, 324}, // sub 1 is dirty: kept
			{func() error { _, err := c.Write(1, 0, 1, line); return err }, 2236 + 512, 324},              // evicts line 0
			{func() error { _, err := c.Write(2, 0, 1, line); return err }, 2748 + 512, 324},              // evicts line 1
			{func() error { // sub 0 is dirty: its pin goes; sub 2 zeroed; a timing-only cache has no FillPinned
				if !track {
					return nil
				}
				pin := func() []byte { return make([]byte, 512) }
				_, err := c.FillPinned(2, [][]byte{pin(), pin(), nil, pin()}, false)
				return err
			}, 3260, 324 + 512},
			{func() error { _, err := c.WriteAt(2, 1, 1, line[:100], 600); return err }, 3260 + 412 + 100, 836}, // merged over sub 1's pin
			{func() error { return c.FlushEach(func(*Eviction) error { return nil }) }, 3772, 836},
			{func() error { _, err := c.Write(2, 3, 1, line); return err }, 3772 + 512, 836}, // covers sub 3's pin
			{func() error { c.FlushAll(); return nil }, 4284 + 2048, 836},
			{func() error { _, err := c.Fill(3, []int{2}, nil, false); return err }, 6332, 836 + 512}, // evicts line 2
		}
		for i, st := range steps {
			if err := st.op(); err != nil {
				t.Fatal(err)
			}
			want := [2]uint64{st.copied, st.zeroed}
			if !track {
				want = [2]uint64{}
			}
			if cp, z := c.PayloadBytes(); [2]uint64{cp, z} != want {
				t.Fatalf("TrackData=%v step %d: copied %d, zeroed %d; want %v", track, i, cp, z, want)
			}
		}
	}
}

func TestReadMissThenFillHit(t *testing.T) {
	c := newCache(t, nil)
	res, err := c.Read(5, 0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MissSubs) != 4 || len(res.HitSubs) != 0 {
		t.Fatalf("cold read: %+v", res)
	}
	data := make([]byte, 2048)
	for i := range data {
		data[i] = byte(i)
	}
	if _, err := c.Fill(5, []int{0, 1, 2, 3}, data, false); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 2048)
	res, err = c.Read(5, 0, 4, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.HitSubs) != 4 || len(res.MissSubs) != 0 {
		t.Fatalf("warm read: %+v", res)
	}
	if !bytes.Equal(dst, data) {
		t.Fatal("hit bytes differ from filled bytes")
	}
}

func TestPartialLineValidity(t *testing.T) {
	c := newCache(t, nil)
	if _, err := c.Fill(7, []int{1}, nil, false); err != nil {
		t.Fatal(err)
	}
	res, err := c.Read(7, 0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.HitSubs) != 1 || res.HitSubs[0] != 1 {
		t.Fatalf("hits = %v", res.HitSubs)
	}
	if len(res.MissSubs) != 3 {
		t.Fatalf("misses = %v", res.MissSubs)
	}
}

func TestWriteAllocateAndDirty(t *testing.T) {
	c := newCache(t, nil)
	src := make([]byte, 1024) // the payload of subs 1-2 alone
	src[0] = 0xAB             // sub 1 first byte
	ev, err := c.WriteAt(3, 1, 2, src, 512)
	if err != nil {
		t.Fatal(err)
	}
	if ev != nil {
		t.Fatal("write into empty cache should not evict")
	}
	if c.DirtyLines() != 1 {
		t.Fatalf("DirtyLines = %d", c.DirtyLines())
	}
	// Read back the written sub.
	dst := make([]byte, 2048)
	res, err := c.Read(3, 1, 1, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.HitSubs) != 1 || dst[512] != 0xAB {
		t.Fatal("write data not readable from cache")
	}
}

func TestEvictionCarriesDirtyData(t *testing.T) {
	c := newCache(t, func(cfg *Config) { cfg.Lines = 2; cfg.ReadaheadThreshold = 0 })
	src := make([]byte, 512)
	src[0] = 0x11
	if _, err := c.WriteAt(0, 0, 1, src, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(1, 0, 4, nil); err != nil {
		t.Fatal(err)
	}
	// Third distinct line evicts the LRU (lspn 0).
	ev, err := c.Write(2, 0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ev == nil || ev.LSPN != 0 {
		t.Fatalf("eviction = %+v", ev)
	}
	if !ev.IsDirty() || !ev.Dirty[0] || ev.Dirty[1] {
		t.Fatalf("dirty mask = %v", ev.Dirty)
	}
	if ev.Data[0] != 0x11 {
		t.Fatal("eviction lost data")
	}
	if c.Stats().DirtyEvictions != 1 {
		t.Fatalf("DirtyEvictions = %d", c.Stats().DirtyEvictions)
	}
}

func TestLRUOrder(t *testing.T) {
	c := newCache(t, func(cfg *Config) { cfg.Lines = 2; cfg.ReadaheadThreshold = 0 })
	mustFill := func(lspn int64) {
		t.Helper()
		if _, err := c.Fill(lspn, []int{0}, nil, false); err != nil {
			t.Fatal(err)
		}
	}
	mustFill(0)
	mustFill(1)
	// Touch 0 so 1 becomes LRU.
	if _, err := c.Read(0, 0, 1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fill(2, []int{0}, nil, false); err != nil {
		t.Fatal(err)
	}
	if !c.Contains(0, 0) || c.Contains(1, 0) {
		t.Fatal("LRU evicted the wrong line")
	}
}

func TestReadaheadArmsAfterStreak(t *testing.T) {
	c := newCache(t, nil) // threshold 3, lines 2
	var ra []int64
	for l := int64(10); l < 14; l++ {
		res, err := c.Read(l, 0, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		ra = append(ra, res.Readahead...)
	}
	if len(ra) == 0 {
		t.Fatal("sequential miss streak did not arm readahead")
	}
	// Prefetches are the LSPNs after the streak.
	if ra[0] != 13 && ra[0] != 14 {
		t.Fatalf("unexpected readahead target %d (all: %v)", ra[0], ra)
	}
}

func TestReadaheadNotArmedByRandom(t *testing.T) {
	c := newCache(t, nil)
	for _, l := range []int64{5, 92, 17, 44, 3, 71} {
		res, err := c.Read(l, 0, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Readahead) != 0 {
			t.Fatalf("random pattern armed readahead at %d", l)
		}
	}
}

func TestReadaheadHitsAttributed(t *testing.T) {
	c := newCache(t, func(cfg *Config) { cfg.Lines = 16 })
	// Arm the prefetcher.
	for l := int64(0); l < 3; l++ {
		if _, err := c.Read(l, 0, 4, nil); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Read(3, 0, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Readahead) == 0 {
		t.Fatal("prefetch not armed")
	}
	for _, l := range res.Readahead {
		if _, err := c.Fill(l, []int{0, 1, 2, 3}, nil, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Read(res.Readahead[0], 0, 4, nil); err != nil {
		t.Fatal(err)
	}
	if c.Stats().ReadaheadHits == 0 {
		t.Fatal("prefetched hit not attributed")
	}
}

func TestFlushEachAndAll(t *testing.T) {
	c := newCache(t, nil)
	for _, w := range []struct {
		lspn        int64
		first, subs int
	}{{1, 0, 2}, {2, 1, 1}, {3, 3, 1}} {
		if _, err := c.Write(w.lspn, w.first, w.subs, nil); err != nil {
			t.Fatal(err)
		}
	}
	// The visitor sees each dirty frame's own mask; its first error stops
	// the flush there and is what FlushEach returns: the failed line and
	// the unvisited one stay dirty.
	boom := errors.New("boom")
	var visited []int64
	err := c.FlushEach(func(ev *Eviction) error {
		visited = append(visited, ev.LSPN)
		if ev.LSPN == 1 && (!ev.Dirty[0] || !ev.Dirty[1] || ev.Dirty[2]) {
			t.Errorf("line 1 visited with dirty mask %v", ev.Dirty)
		}
		if len(visited) == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || !slices.Equal(visited, []int64{1, 2}) {
		t.Fatalf("FlushEach = %v after visiting %v; want boom after [1 2]", err, visited)
	}
	if c.DirtyLines() != 2 || c.Stats().Flushes != 1 {
		t.Fatalf("after FlushEach: %d dirty lines, %d flushes; want 2 and 1", c.DirtyLines(), c.Stats().Flushes)
	}
	if _, err := c.Write(2, 0, 1, nil); err != nil {
		t.Fatal(err)
	}
	all := c.FlushAll()
	if len(all) != 2 || all[0].LSPN != 2 || !slices.Equal(all[0].Dirty, []bool{true, true, false, false}) ||
		all[1].LSPN != 3 || !slices.Equal(all[1].Dirty, []bool{false, false, false, true}) {
		t.Fatalf("FlushAll = %+v", all)
	}
	if c.DirtyLines() != 0 || c.FlushAll() != nil {
		t.Fatal("dirty lines remain after FlushAll")
	}
	// Lines stay resident after flush.
	if !c.Contains(1, 0) || !c.Contains(2, 1) || !c.Contains(3, 3) {
		t.Fatal("flush dropped resident lines")
	}
}

// TestFillPinnedHoldsPins: FillPinned serves a line's clean subs from the
// caller's pinned buffers without copying them, releases the pin of the
// sub a write made dirty at once, and the rest when the cache is invalidated;
// it refuses a short pin list, a wrong-size pin and a timing-only cache,
// releasing the pins it was given.
func TestFillPinnedHoldsPins(t *testing.T) {
	c := newCache(t, nil)
	var released [][]byte
	c.SetPinRelease(func(buf []byte) { released = append(released, buf) })
	written := bytes.Repeat([]byte{0xAA}, 2048)
	fetched := bytes.Repeat([]byte{0x55}, 2048)
	if _, err := c.Write(7, 1, 1, written); err != nil {
		t.Fatal(err)
	}
	pins := [][]byte{fetched[:512:512], fetched[512:1024:1024], nil, fetched[1536:]}
	copied, _ := c.PayloadBytes()
	ev, err := c.FillPinned(7, pins, true)
	if err != nil || ev != nil || len(released) != 1 || &released[0][0] != &fetched[512] {
		t.Fatalf("FillPinned = %v, %v, released %d pins; want the dirty sub's pin released", ev, err, len(released))
	}
	if cp, _ := c.PayloadBytes(); cp != copied {
		t.Fatalf("FillPinned copied %d bytes", cp-copied)
	}
	got := make([]byte, 2048)
	if res, err := c.Read(7, 0, 4, got); err != nil || len(res.HitSubs) != 4 {
		t.Fatalf("read after FillPinned: %+v, %v", res, err)
	}
	want := slices.Concat(fetched[:512], written[:512], make([]byte, 512), fetched[1536:])
	if !bytes.Equal(got, want) {
		t.Fatal("FillPinned lost the dirty sub, the pinned bytes or the nil pin's zeroes")
	}
	fetched[0] = 0x66 // the cache reads the pin itself, not a copy
	if _, err := c.Read(7, 0, 1, got); err != nil || got[0] != 0x66 {
		t.Fatalf("read of a pinned sub: %x, %v", got[0], err)
	}
	c.Invalidate()
	if len(released) != 3 {
		t.Fatalf("%d pins released after Invalidate, want 3", len(released))
	}
	for name, bad := range map[string][][]byte{
		"short pin list":          {make([]byte, 512), nil, nil},
		"wrong-size pin":          {make([]byte, 511), nil, nil, nil},
		"lspn outside the volume": {make([]byte, 512), nil, nil, nil},
	} {
		released = released[:0]
		lspn := int64(8)
		if name == "lspn outside the volume" {
			lspn = c.Config().SuperPages
		}
		if _, err := c.FillPinned(lspn, bad, false); err == nil || c.Contains(lspn, 0) {
			t.Fatalf("%s accepted", name)
		}
		if len(released) != 1 {
			t.Fatalf("%s: %d pins released, want its one", name, len(released))
		}
	}
	timing := newCache(t, func(cfg *Config) { cfg.TrackData = false })
	if _, err := timing.FillPinned(8, make([][]byte, 4), false); err == nil {
		t.Fatal("FillPinned on a timing-only cache accepted")
	}
}

func TestStatsHitRate(t *testing.T) {
	c := newCache(t, func(cfg *Config) { cfg.ReadaheadThreshold = 0 })
	if _, err := c.Fill(0, []int{0, 1}, nil, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(0, 0, 4, nil); err != nil { // 2 hits, 2 misses
		t.Fatal(err)
	}
	if hr := c.Stats().HitRate(); hr != 0.5 {
		t.Fatalf("HitRate = %v", hr)
	}
}

func TestRangeChecks(t *testing.T) {
	c := newCache(t, nil)
	if _, err := c.Read(0, -1, 1, nil); err == nil {
		t.Fatal("negative sub accepted")
	}
	if _, err := c.Read(0, 0, 5, nil); err == nil {
		t.Fatal("overlong range accepted")
	}
	if _, err := c.Write(0, 4, 1, nil); err == nil {
		t.Fatal("out-of-line write accepted")
	}
	if _, err := c.Fill(0, []int{4}, nil, false); err == nil {
		t.Fatal("out-of-line fill accepted")
	}
	for _, lspn := range []int64{-1, c.Config().SuperPages} {
		if _, err := c.Read(lspn, 0, 1, nil); err == nil {
			t.Fatalf("read of lspn %d outside the volume accepted", lspn)
		}
		if _, err := c.Write(lspn, 0, 1, nil); err == nil {
			t.Fatalf("write of lspn %d outside the volume accepted", lspn)
		}
		if _, err := c.Fill(lspn, []int{0}, nil, false); err == nil {
			t.Fatalf("fill of lspn %d outside the volume accepted", lspn)
		}
		if c.Contains(lspn, 0) {
			t.Fatalf("lspn %d outside the volume resident", lspn)
		}
	}
}

// Property-style stress: cached data always matches a shadow model.
func TestCacheDataCoherence(t *testing.T) {
	c := newCache(t, func(cfg *Config) { cfg.Lines = 4; cfg.ReadaheadThreshold = 0 })
	rng := sim.NewRNG(31)
	shadow := map[int64][]byte{} // lspn -> line bytes (last written anywhere)
	flashed := map[int64][]byte{}
	flush := func(ev *Eviction) {
		if ev == nil || !ev.IsDirty() {
			return
		}
		// Persist dirty subs to "flash".
		line, ok := flashed[ev.LSPN]
		if !ok {
			line = make([]byte, 2048)
		}
		for s, d := range ev.Dirty {
			if d {
				copy(line[s*512:(s+1)*512], ev.Data[s*512:(s+1)*512])
			}
		}
		flashed[ev.LSPN] = line
	}
	for i := 0; i < 500; i++ {
		lspn := int64(rng.Intn(8))
		sub := rng.Intn(4)
		if rng.Float64() < 0.5 {
			// Write one sub with a known byte pattern.
			src := bytes.Repeat([]byte{byte(rng.Uint64())}, 512)
			ev, err := c.WriteAt(lspn, sub, 1, src, sub*512)
			if err != nil {
				t.Fatal(err)
			}
			flush(ev)
			line, ok := shadow[lspn]
			if !ok {
				line = make([]byte, 2048)
			}
			copy(line[sub*512:(sub+1)*512], src)
			shadow[lspn] = line
		} else {
			dst := make([]byte, 2048)
			res, err := c.Read(lspn, sub, 1, dst)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.HitSubs) == 1 {
				want, ok := shadow[lspn]
				if !ok {
					continue
				}
				if !bytes.Equal(dst[sub*512:(sub+1)*512], want[sub*512:(sub+1)*512]) {
					t.Fatalf("iter %d: stale bytes for lspn %d sub %d", i, lspn, sub)
				}
			}
		}
	}
}

// WriteAt's source is a window onto the line: bytes land at their true
// offset, a sub that was already valid keeps what the window does not
// cover, and one that was not reads as zero-padded.
func TestWriteAtByteWindow(t *testing.T) {
	c := newCache(t, func(cfg *Config) { cfg.ReadaheadThreshold = 0 })
	read := func(lspn int64) []byte {
		t.Helper()
		dst := bytes.Repeat([]byte{0xEE}, 2048) // a recycled, dirty buffer
		res, err := c.Read(lspn, 0, 4, dst)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range res.MissSubs {
			clear(dst[s*512 : (s+1)*512])
		}
		return dst
	}
	want := make([]byte, 2048)

	// Upper half of sub 1, lower half of sub 2: neither was valid.
	payload := bytes.Repeat([]byte{0xA1}, 512)
	if _, err := c.WriteAt(9, 1, 2, payload, 768); err != nil {
		t.Fatal(err)
	}
	copy(want[768:], payload)
	if got := read(9); !bytes.Equal(got, want) {
		t.Fatalf("unaligned write into an empty frame: got % x", got[500:1300])
	}

	// Now both are valid: a second partial write overwrites only its bytes.
	payload = bytes.Repeat([]byte{0xB2}, 128)
	if _, err := c.WriteAt(9, 1, 1, payload, 512); err != nil {
		t.Fatal(err)
	}
	copy(want[512:], payload)
	if got := read(9); !bytes.Equal(got, want) {
		t.Fatal("partial write of a valid sub disturbed bytes outside its window")
	}

	// A window wider than the sub range contributes only the range, and the
	// line-layout Write is the window at offset 0.
	line := bytes.Repeat([]byte{0xC3}, 2048)
	if _, err := c.Write(9, 3, 1, line); err != nil {
		t.Fatal(err)
	}
	copy(want[1536:], line[1536:])
	if got := read(9); !bytes.Equal(got, want) {
		t.Fatal("line-layout write leaked bytes outside its sub range")
	}
	if _, err := c.WriteAt(9, 0, 1, payload, -1); err == nil {
		t.Fatal("negative window offset accepted")
	}
}

// Frame reuse never leaks a previous resident: eviction clears no bytes, so
// every way a sub of the new line becomes valid without bytes has to
// zero-pad it.
func TestFrameReuseNeverLeaksPreviousResident(t *testing.T) {
	c := newCache(t, func(cfg *Config) { cfg.Lines = 1; cfg.ReadaheadThreshold = 0 })
	pattern := bytes.Repeat([]byte{0x5A}, 2048)
	sub := func(b []byte, s int) []byte { return b[s*512 : (s+1)*512] }
	// Frame and scratch trade places each round; the subs rotate so that
	// the one filled without data is where this buffer's last line wrote.
	for round := 0; round < 8; round++ {
		a, b := int64(10+2*round), int64(11+2*round)
		written, unmapped, missed, noData := round%4, (round+1)%4, (round+2)%4, (round+3)%4
		if _, err := c.Fill(a, []int{0, 1, 2, 3}, pattern, false); err != nil {
			t.Fatal(err)
		}
		ev, err := c.WriteAt(b, written, 1, pattern[:512], written*512)
		if err != nil {
			t.Fatal(err)
		}
		if ev == nil || ev.LSPN != a || !bytes.Equal(ev.Data, pattern) {
			t.Fatalf("round %d: eviction of line %d lost its bytes", round, a)
		}
		// B's other subs: one filled without data, one from a buffer whose
		// sub is zero because flash had it unmapped.
		if _, err := c.Fill(b, []int{noData}, nil, false); err != nil {
			t.Fatal(err)
		}
		staged := bytes.Repeat([]byte{0x77}, 2048)
		clear(sub(staged, unmapped))
		if _, err := c.Fill(b, []int{unmapped}, staged, false); err != nil {
			t.Fatal(err)
		}
		dst := bytes.Repeat([]byte{0xEE}, 2048)
		res, err := c.Read(b, 0, 4, dst)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.HitSubs) != 3 || len(res.MissSubs) != 1 || res.MissSubs[0] != missed {
			t.Fatalf("round %d: hits %v misses %v", round, res.HitSubs, res.MissSubs)
		}
		zero := make([]byte, 512)
		if !bytes.Equal(sub(dst, noData), zero) || !bytes.Equal(sub(dst, unmapped), zero) {
			t.Fatalf("round %d: line %d surfaced bytes of an evicted line", round, b)
		}
		if !bytes.Equal(sub(dst, written), pattern[:512]) {
			t.Fatalf("round %d: written sub lost", round)
		}
		if !bytes.Equal(sub(dst, missed), bytes.Repeat([]byte{0xEE}, 512)) {
			t.Fatalf("round %d: Read wrote a missed sub of dst", round)
		}
	}
}

// The snapshot image of a cache that never clears invalid subs is the image
// an eagerly zeroing cache produces: zeroing every invalid sub by hand
// changes nothing, at any point of a long mixed history.
func TestStateMatchesEagerZero(t *testing.T) {
	c := newCache(t, func(cfg *Config) { cfg.Lines = 4; cfg.ReadaheadThreshold = 0 })
	image := func() []byte {
		return encodeCache(c)
	}
	rng := sim.NewRNG(77)
	buf := make([]byte, 2048)
	for i := 0; i < 1000; i++ {
		lspn := int64(rng.Intn(16))
		first := rng.Intn(4)
		n := 1 + rng.Intn(4-first)
		for j := range buf {
			buf[j] = byte(rng.Uint64()) | 1 // never zero: a leak shows
		}
		var err error
		switch rng.Intn(4) {
		case 0:
			_, err = c.WriteAt(lspn, first, n, buf[:n*512], first*512)
		case 1: // unaligned, short of its last sub's end
			_, err = c.WriteAt(lspn, first, n, buf[:n*512-300], first*512+100)
		case 2:
			subs := []int{first}
			if n > 1 {
				subs = append(subs, first+n-1)
			}
			_, err = c.Fill(lspn, subs, buf, rng.Float64() < 0.3)
		default:
			_, err = c.Fill(lspn, []int{first}, nil, false)
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%50 != 49 {
			continue
		}
		lazy := image()
		for _, ln := range c.frames {
			for s, v := range ln.valid {
				if !v {
					clear(ln.data[s*512 : (s+1)*512])
				}
			}
		}
		if !bytes.Equal(lazy, image()) {
			t.Fatalf("op %d: an invalid sub of some frame held non-zero bytes", i)
		}
		restored := newCache(t, func(cfg *Config) { *cfg = c.Config() })
		if err := restored.State(snap.Decoding(lazy)); err != nil {
			t.Fatal(err)
		}
		c = restored // and continue on it
		if !bytes.Equal(lazy, image()) {
			t.Fatal("restored cache re-encodes differently")
		}
	}
	if c.Stats().Evictions < 100 {
		t.Fatalf("only %d evictions: the history did not stress frame reuse", c.Stats().Evictions)
	}
}

func BenchmarkCacheReadWrite(b *testing.B) {
	cfg := testConfig()
	cfg.Lines = 1024
	cfg.TrackData = false
	cfg.ReadaheadThreshold = 0
	cfg.SuperPages = 4096
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lspn := int64(rng.Intn(4096))
		if i%2 == 0 {
			if _, err := c.Write(lspn, 0, 4, nil); err != nil {
				b.Fatal(err)
			}
		} else {
			if _, err := c.Read(lspn, 0, 4, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}
