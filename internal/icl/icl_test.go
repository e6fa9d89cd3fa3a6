package icl

import (
	"bytes"
	"testing"

	"amber/internal/sim"
	"amber/internal/snap"
)

func testConfig() Config {
	return Config{
		Lines:              8,
		SubsPerLine:        4,
		SubSize:            512,
		Assoc:              FullyAssoc,
		Replacement:        LRU,
		ReadaheadThreshold: 3,
		ReadaheadLines:     2,
		TrackData:          true,
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
		func(c *Config) { c.Assoc = SetAssoc; c.Ways = 3 }, // 8 % 3 != 0
		func(c *Config) { c.ReadaheadThreshold = 2; c.ReadaheadLines = 0 },
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
// source inside its subs, a read and a fill a whole sub each, a flush the
// whole line, and retiring an eviction record the subs the evicted line had
// valid. A timing-only cache counts nothing.
func TestPayloadBytes(t *testing.T) {
	for _, track := range []bool{true, false} {
		c := newCache(t, func(cfg *Config) { cfg.Lines, cfg.ReadaheadThreshold, cfg.TrackData = 1, 0, track })
		line := make([]byte, 2048)
		steps := []struct {
			op             func() error
			copied, zeroed uint64
		}{
			{func() error { _, err := c.WriteAt(0, 1, 2, line[:700], 600); return err }, 700, 0},
			{func() error { _, err := c.Read(0, 0, 4, line); return err }, 700 + 1024, 0},
			{func() error { _, err := c.Fill(0, []int{0, 1}, line, false); return err }, 1724 + 512, 0}, // sub 1 is dirty: kept
			{func() error { _, err := c.Write(1, 0, 1, line); return err }, 2236 + 512, 0},              // evicts line 0
			{func() error { _, err := c.Write(2, 0, 1, line); return err }, 2748 + 512, 3 * 512},        // retires line 0's record
			{func() error { c.FlushAll(); return nil }, 3260 + 2048, 1536},
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

func TestFIFOIgnoresTouches(t *testing.T) {
	c := newCache(t, func(cfg *Config) {
		cfg.Lines = 2
		cfg.Replacement = FIFO
		cfg.ReadaheadThreshold = 0
	})
	for _, l := range []int64{0, 1} {
		if _, err := c.Fill(l, []int{0}, nil, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Read(0, 0, 1, nil); err != nil { // touch 0; FIFO must still evict it
		t.Fatal(err)
	}
	if _, err := c.Fill(2, []int{0}, nil, false); err != nil {
		t.Fatal(err)
	}
	if c.Contains(0, 0) || !c.Contains(1, 0) {
		t.Fatal("FIFO evicted the wrong line")
	}
}

func TestRandomReplacementStaysInSet(t *testing.T) {
	c := newCache(t, func(cfg *Config) {
		cfg.Lines = 4
		cfg.Replacement = Random
		cfg.ReadaheadThreshold = 0
	})
	for i := int64(0); i < 50; i++ {
		if _, err := c.Fill(i, []int{0}, nil, false); err != nil {
			t.Fatal(err)
		}
	}
	if c.ResidentLines() != 4 {
		t.Fatalf("ResidentLines = %d", c.ResidentLines())
	}
}

func TestDirectMapConflicts(t *testing.T) {
	c := newCache(t, func(cfg *Config) {
		cfg.Assoc = DirectMap
		cfg.Lines = 4
		cfg.ReadaheadThreshold = 0
	})
	// LSPN 0 and 4 conflict (4 sets).
	if _, err := c.Fill(0, []int{0}, nil, false); err != nil {
		t.Fatal(err)
	}
	ev, err := c.Fill(4, []int{0}, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if ev == nil || ev.LSPN != 0 {
		t.Fatalf("direct-map conflict did not evict 0: %+v", ev)
	}
	// LSPN 1 does not conflict.
	if ev, _ := c.Fill(1, []int{0}, nil, false); ev != nil {
		t.Fatal("non-conflicting fill evicted")
	}
}

func TestSetAssocSetSelection(t *testing.T) {
	c := newCache(t, func(cfg *Config) {
		cfg.Assoc = SetAssoc
		cfg.Lines = 8
		cfg.Ways = 2
		cfg.ReadaheadThreshold = 0
	})
	// 4 sets of 2: LSPNs 0,4,8 share set 0; third fill evicts.
	for _, l := range []int64{0, 4} {
		if ev, _ := c.Fill(l, []int{0}, nil, false); ev != nil {
			t.Fatal("premature eviction")
		}
	}
	ev, _ := c.Fill(8, []int{0}, nil, false)
	if ev == nil {
		t.Fatal("full set did not evict")
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

func TestFlushLineAndAll(t *testing.T) {
	c := newCache(t, nil)
	if _, err := c.Write(1, 0, 2, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(2, 1, 1, nil); err != nil {
		t.Fatal(err)
	}
	ev := c.FlushLine(1)
	if ev == nil || !ev.Dirty[0] || !ev.Dirty[1] || ev.Dirty[2] {
		t.Fatalf("FlushLine = %+v", ev)
	}
	if c.DirtyLines() != 1 {
		t.Fatalf("DirtyLines after FlushLine = %d", c.DirtyLines())
	}
	all := c.FlushAll()
	if len(all) != 1 || all[0].LSPN != 2 {
		t.Fatalf("FlushAll = %+v", all)
	}
	if c.DirtyLines() != 0 {
		t.Fatal("dirty lines remain after FlushAll")
	}
	// Lines stay resident after flush.
	if !c.Contains(1, 0) || !c.Contains(2, 1) {
		t.Fatal("flush dropped resident lines")
	}
	if c.FlushLine(99) != nil {
		t.Fatal("flush of uncached line returned record")
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
		if rng.Bool(0.5) {
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

// Frame reuse never leaks a previous resident: eviction clears only the
// subs the old line had valid, and that has to be enough for every way a
// sub of the new line becomes valid without bytes.
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

// The snapshot image of a cache that clears frames lazily is the image an
// eagerly zeroing cache produces: re-zeroing every invalid sub by hand
// changes nothing, at any point of a long mixed history.
func TestEncodeStateMatchesEagerZero(t *testing.T) {
	c := newCache(t, func(cfg *Config) { cfg.Lines = 4; cfg.Assoc = SetAssoc; cfg.Ways = 2; cfg.ReadaheadThreshold = 0 })
	image := func() []byte {
		var e snap.Enc
		c.EncodeState(&e)
		return append([]byte(nil), e.Bytes()...)
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
			_, err = c.Fill(lspn, subs, buf, rng.Bool(0.3))
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
		for si := range c.sets {
			for _, ln := range c.sets[si].frames {
				for s, v := range ln.valid {
					if !v {
						clear(ln.data[s*512 : (s+1)*512])
					}
				}
			}
		}
		if !bytes.Equal(lazy, image()) {
			t.Fatalf("op %d: an invalid sub of some frame held non-zero bytes", i)
		}
		restored := newCache(t, func(cfg *Config) { *cfg = c.Config() })
		if err := restored.DecodeState(snap.NewDec(lazy)); err != nil {
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
