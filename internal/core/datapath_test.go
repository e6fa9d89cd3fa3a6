package core_test

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"amber/internal/config"
	"amber/internal/core"
	"amber/internal/sim"
	"amber/internal/snap"
	"amber/internal/workload"
)

// dataDevice is the Table I Intel 750 geometry (120 sub-pages of 8 KiB per
// super-page line) shrunk to a 60 MB volume behind a 16-line cache, so that
// nearly every write evicts and every line-sized cost shows.
func dataDevice(trackData bool) core.DeviceConfig {
	d := config.Intel750()
	d.Geometry.BlocksPerPlane = 4
	d.Geometry.PagesPerBlock = 32
	d.CacheLines = 16
	d.TrackData = trackData
	return d
}

func dataSystem(t testing.TB, trackData, precondition bool) *core.System {
	t.Helper()
	s, err := core.NewSystem(config.PCSystem(dataDevice(trackData)))
	if err != nil {
		t.Fatal(err)
	}
	if precondition {
		if err := s.Precondition(32); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// fillPayload writes a pattern that depends on every byte's volume offset
// and on the write's version, so misplaced and stale bytes both show.
func fillPayload(buf []byte, off int64, version int) {
	for i := range buf {
		x := uint64(off+int64(i))*0x9E3779B97F4A7C15 + uint64(version)*0xBF58476D1CE4E5B9
		buf[i] = byte(x>>56) | 1 // never zero
	}
}

// TestSubmitBatchMixedVectorMatchesSubmitLoop: vectors that mix reads with
// writes whose evictions flush to flash used to panic ("scheduling event
// before now" out of nand.PlanBatch.Commit) — the evented fallback left the
// shared engine's clock at the read's completion. They must run, and agree
// with a Submit loop on every completion time, payload byte and statistic.
func TestSubmitBatchMixedVectorMatchesSubmitLoop(t *testing.T) {
	const (
		vectors = 200
		window  = 64
		bs      = 8192
	)
	for _, trackData := range []bool{false, true} {
		run := func(batched bool) string {
			s := dataSystem(t, trackData, true)
			rng := sim.NewRNG(5)
			blocks := uint64(s.VolumeBytes() / bs)
			reqs := make([]workload.Request, window)
			times := make([]sim.Time, window)
			var datas [][]byte
			if trackData {
				datas = make([][]byte, window)
				for k := range datas {
					datas[k] = make([]byte, bs)
				}
			}
			var out bytes.Buffer
			for v := 0; v < vectors; v++ {
				for k := range reqs {
					reqs[k] = workload.Request{Write: rng.Float64() < 0.75, Offset: int64(rng.Uint64n(blocks)) * bs, Length: bs}
					if trackData && reqs[k].Write {
						fillPayload(datas[k], reqs[k].Offset, v*window+k)
					}
				}
				if batched {
					if _, err := s.SubmitBatch(s.Now(), reqs, datas, times); err != nil {
						t.Fatalf("TrackData=%v vector %d: %v", trackData, v, err)
					}
				} else {
					for k, req := range reqs {
						var data []byte
						if trackData {
							data = datas[k]
						}
						done, err := s.Submit(s.Now(), req, data)
						if err != nil {
							t.Fatalf("TrackData=%v vector %d request %d: %v", trackData, v, k, err)
						}
						times[k] = done
					}
				}
				for k, req := range reqs {
					fmt.Fprintf(&out, "%d.%d %d", v, k, times[k])
					if trackData && !req.Write {
						fmt.Fprintf(&out, " %016x", snap.Fingerprint(datas[k]))
					}
					out.WriteByte('\n')
				}
			}
			renderState(&out, s)
			return out.String()
		}
		loop := run(false)
		if got := run(true); got != loop {
			t.Fatalf("TrackData=%v: SubmitBatch diverged from the Submit loop (first difference at byte %d of %d)",
				trackData, firstDiff(got, loop), len(loop))
		}
	}
}

// payloadBytes lists the payload bytes the cache, the flash and core have
// copied and zeroed, in that order.
func payloadBytes(s *core.System) [6]uint64 {
	var b [6]uint64
	b[0], b[1] = s.ICL.PayloadBytes()
	b[2], b[3] = s.Flash.PayloadBytes()
	b[4], b[5] = s.PayloadBytes()
	return b
}

func firstDiff(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestUnalignedPayloadsPreserved: I/O that is not aligned to the 8 KiB
// sub-page keeps its bytes. A partial write of a cached sub overwrites only
// what it covers; one of an uncached sub is merged with the sub's bytes on
// flash. The merge is functional: the same stream on a timing-only device
// completes at the same simulated times with the same statistics.
func TestUnalignedPayloadsPreserved(t *testing.T) {
	const bs = 4096
	run := func(trackData bool) (string, *core.System, map[int64][]byte) {
		s := dataSystem(t, trackData, true)
		rng := sim.NewRNG(5)
		blocks := uint64(s.VolumeBytes() / bs)
		shadow := map[int64][]byte{}
		var out bytes.Buffer
		for i := 0; i < 3000; i++ {
			// Mostly single 4 KiB blocks; now and then a run of three or
			// five that starts and ends inside a sub-page.
			n := 1
			if i%16 == 15 {
				n = 3 + 2*(i/16%2)
			}
			first := int64(rng.Uint64n(blocks - uint64(n)))
			buf := make([]byte, n*bs)
			fillPayload(buf, first*bs, i+1)
			done, err := s.Submit(s.Now(), workload.Request{Write: true, Offset: first * bs, Length: len(buf)}, buf)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "%d %d\n", i, done)
			for k := 0; k < n; k++ {
				shadow[(first+int64(k))*bs] = buf[k*bs : (k+1)*bs]
			}
		}
		renderState(&out, s)
		return out.String(), s, shadow
	}
	tracked, s, shadow := run(true)
	timingOnly, t0, _ := run(false)
	if tracked != timingOnly {
		t.Errorf("merging partial sub-pages moved simulated time or statistics (first difference at byte %d)",
			firstDiff(tracked, timingOnly))
	}
	// Payload bytes are counted where they move, and only there: the writes
	// copy into the cache, the merges copy flash sub-pages and the payload
	// over them, and the timing-only device moves nothing.
	if b := payloadBytes(t0); b != [6]uint64{} {
		t.Errorf("timing-only device counted payload bytes: %v", b)
	}
	if b := payloadBytes(s); b[0] == 0 || b[2] == 0 || b[4] == 0 {
		t.Errorf("payload copies uncounted (icl, nand, core copied and zeroed): %v", b)
	}
	bad := 0
	got := make([]byte, 3*bs)
	for off, want := range shadow {
		// Read each block with its neighbours when they fit, so the copy-out
		// offset is exercised at both halves of a sub-page.
		start, length := off, bs
		if off >= bs && off+2*bs <= s.VolumeBytes() {
			start, length = off-bs, 3*bs
		}
		if _, err := s.Submit(s.Now(), workload.Request{Offset: start, Length: length}, got[:length]); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[off-start:off-start+bs], want) {
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d 4 KiB blocks read back wrong", bad, len(shadow))
	}
}

// TestRecycledReadBufferNeverSurfacesStaleBytes: read staging buffers are
// recycled as they are, so every way a read is served must overwrite or
// zero what the buffer's last user left: a flash fetch, an unmapped line,
// a partly mapped line, a line a readahead prefetch staged, and a read
// that coalesced onto another read's fill.
func TestRecycledReadBufferNeverSurfacesStaleBytes(t *testing.T) {
	s := dataSystem(t, true, false) // not preconditioned: unwritten is unmapped
	lineBytes := int64(s.Split.LineBytes())
	const sub = 8192
	shadow := map[int64][]byte{} // sub-page offset -> bytes
	version := 0
	write := func(off int64, length int) {
		t.Helper()
		version++
		buf := make([]byte, length)
		fillPayload(buf, off, version)
		if _, err := s.Submit(s.Now(), workload.Request{Write: true, Offset: off, Length: length}, buf); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < length/sub; k++ {
			shadow[off+int64(k)*sub] = buf[k*sub : (k+1)*sub]
		}
	}
	check := func(what string, off int64, got []byte) {
		t.Helper()
		for k := 0; k < len(got)/sub; k++ {
			want, ok := shadow[off+int64(k)*sub]
			if !ok {
				want = make([]byte, sub)
			}
			if !bytes.Equal(got[k*sub:(k+1)*sub], want) {
				t.Errorf("%s: sub-page at %d read back wrong (written=%v)", what, off+int64(k)*sub, ok)
			}
		}
	}
	read := func(what string, off int64, length int) {
		t.Helper()
		got := bytes.Repeat([]byte{0xEE}, length)
		if _, err := s.Submit(s.Now(), workload.Request{Offset: off, Length: length}, got); err != nil {
			t.Fatal(err)
		}
		check(what, off, got)
	}

	// Lines 0-7 fully written, lines 8-15 only at sub-pages 3 and 40, then
	// 16 more lines to push all of them out of the 16-line cache.
	for l := int64(0); l < 8; l++ {
		write(l*lineBytes, int(lineBytes))
	}
	for l := int64(8); l < 16; l++ {
		write(l*lineBytes+3*sub, sub)
		write(l*lineBytes+40*sub, sub)
	}
	for l := int64(20); l < 36; l++ {
		write(l*lineBytes+5*sub, sub)
	}
	if s.ICL.Contains(0, 3) || s.ICL.Contains(8, 3) {
		t.Fatal("set-up left the lines under test cached")
	}

	read("written block", 0*lineBytes+2*sub, 3*sub)
	read("unmapped line, same in-line range", 18*lineBytes+2*sub, 3*sub)
	read("partly mapped line", 8*lineBytes+2*sub, 3*sub)

	// A sequential scan arms the readahead: the partly mapped lines 10-15
	// are staged by prefetches, whole, through buffers that last carried
	// fully written lines.
	before := s.ICL.Stats()
	for l := int64(1); l < 16; l++ {
		read(fmt.Sprintf("sequential scan, line %d", l), l*lineBytes+2*sub, 3*sub)
		read(fmt.Sprintf("sequential scan, line %d, second range", l), l*lineBytes+39*sub, 3*sub)
	}
	if st := s.ICL.Stats(); st.Readaheads == before.Readaheads || st.ReadaheadHits == before.ReadaheadHits {
		t.Fatalf("the scan armed no readahead (stats %+v)", st)
	}

	// Two concurrent reads of one uncached line: the second coalesces onto
	// the first's fill and is served when it lands.
	for l := int64(36); l < 52; l++ {
		write(l*lineBytes+5*sub, sub) // the scan left lines 1-15 cached
	}
	e := sim.NewEngine()
	flashReads := s.Flash.Stats().Reads
	off := 4*lineBytes + 7*sub
	if s.ICL.Contains(4, 7) {
		t.Fatal("line 4 still cached")
	}
	bufs := [2][]byte{bytes.Repeat([]byte{0xEE}, sub), bytes.Repeat([]byte{0xEE}, sub)}
	for k := range bufs {
		e.AtIn(sim.DefaultDomain, s.Now(), func() {
			s.SubmitAsync(e, workload.Request{Offset: off, Length: sub}, bufs[k], func(_ sim.Time, err error) {
				if err != nil {
					t.Error(err)
				}
			})
		})
	}
	e.Run()
	if got := s.Flash.Stats().Reads - flashReads; got != 1 {
		t.Fatalf("%d flash reads for two reads of one sub-page: the second did not coalesce", got)
	}
	check("fill owner", off, bufs[0])
	check("coalesced waiter", off, bufs[1])
}

// TestSubmitDataAllocBytes gates the data path's steady-state allocation
// volume beside the object-count gates: an 8 KiB payload-carrying write
// used to allocate (and zero) a whole 960 KiB line buffer, and its flush a
// page buffer or three. Once the pools have seen the stream's largest
// window, a write allocates nothing by the page: the budget is a thirty-
// second of one, room for a scratch slice growing and nothing else.
func TestSubmitDataAllocBytes(t *testing.T) {
	const (
		bs     = 8192
		ops    = 512
		budget = 256
	)
	s := dataSystem(t, true, true)
	rng := sim.NewRNG(9)
	blocks := uint64(s.VolumeBytes() / bs)
	reqs := make([]workload.Request, ops)
	datas := make([][]byte, ops)
	for k := range datas {
		datas[k] = make([]byte, bs)
		fillPayload(datas[k], int64(k)*bs, 1)
	}
	next := func() {
		for k := range reqs {
			reqs[k] = workload.Request{Write: true, Offset: int64(rng.Uint64n(blocks)) * bs, Length: bs}
		}
	}
	measure := func(name string, submit func()) {
		next()
		submit() // warm pools, cache and GC
		next()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		submit()
		runtime.ReadMemStats(&after)
		if perOp := (after.TotalAlloc - before.TotalAlloc) / ops; perOp >= budget {
			t.Errorf("%s: %d B allocated per 8 KiB data write, want < %d", name, perOp, budget)
		}
	}
	measure("Submit", func() {
		for k, req := range reqs {
			if _, err := s.Submit(s.Now(), req, datas[k]); err != nil {
				t.Fatal(err)
			}
		}
	})
	measure("SubmitBatch", func() {
		if _, err := s.SubmitBatch(s.Now(), reqs, datas, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFillKeepsWriteLandedInFlight: a write that lands in the cache between
// a read miss's flash fetch (startFill) and its install (fillOp.done) holds
// the newer bytes; the install used to overwrite them with the fetched —
// stale — copy, and the line later flushed the stale bytes as if dirty.
func TestFillKeepsWriteLandedInFlight(t *testing.T) {
	s := dataSystem(t, true, false)
	lineBytes := int64(s.ICL.Config().LineBytes())
	const sub = 8192
	put := func(off int64, version int) []byte {
		t.Helper()
		buf := make([]byte, sub)
		fillPayload(buf, off, version)
		if _, err := s.Submit(s.Now(), workload.Request{Write: true, Offset: off, Length: sub}, buf); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	off := 2*lineBytes + 9*sub
	put(off, 1)
	for l := int64(20); l < 36; l++ { // push line 2 out to flash
		put(l*lineBytes, 1)
	}
	if s.ICL.Contains(2, 9) {
		t.Fatal("set-up left the sub under test cached")
	}

	e := sim.NewEngine()
	newer := make([]byte, sub)
	fillPayload(newer, off, 2)
	got := make([]byte, sub)
	var readDone, writeDone sim.Time
	e.AtIn(sim.DefaultDomain, s.Now(), func() {
		s.SubmitAsync(e, workload.Request{Offset: off, Length: sub}, got, func(at sim.Time, err error) {
			if err != nil {
				t.Error(err)
			}
			readDone = at
		})
	})
	e.AtIn(sim.DefaultDomain, s.Now()+sim.Microsecond, func() {
		s.SubmitAsync(e, workload.Request{Write: true, Offset: off, Length: sub}, newer, func(at sim.Time, err error) {
			if err != nil {
				t.Error(err)
			}
			writeDone = at
		})
	})
	e.Run()
	if writeDone == 0 || writeDone >= readDone {
		t.Fatalf("write completed at %v, read at %v: the write did not land while the fill was in flight", writeDone, readDone)
	}

	back := make([]byte, sub)
	if _, err := s.Submit(e.Now(), workload.Request{Offset: off, Length: sub}, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, newer) {
		t.Fatal("read-back after an overlapping read and write returned the bytes the fill fetched, not the written ones")
	}
	// And the bytes survive eviction to flash: the sub is still dirty.
	for l := int64(36); l < 52; l++ {
		put(l*lineBytes, 1)
	}
	if s.ICL.Contains(2, 9) {
		t.Fatal("line 2 still cached")
	}
	if _, err := s.Submit(s.Now(), workload.Request{Offset: off, Length: sub}, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, newer) {
		t.Fatal("the written bytes did not reach flash")
	}
}

// TestPrefetchKeepsWriteLandedInFlight: a readahead prefetch hands its whole
// line buffer to the cache, which copies in only the subs written while the
// fetch was in flight. The written sub reads back new, the rest of the line
// reads back what flash held, and the written sub is still dirty.
func TestPrefetchKeepsWriteLandedInFlight(t *testing.T) {
	s := dataSystem(t, true, false)
	lineBytes := int64(s.ICL.Config().LineBytes())
	ra := int64(s.ICL.Config().ReadaheadThreshold)
	if ra == 0 {
		t.Skip("the device has no readahead")
	}
	const sub = 8192
	old := make([]byte, lineBytes)
	for l := int64(0); l <= ra; l++ {
		fillPayload(old, l*lineBytes, 1)
		if _, err := s.Submit(s.Now(), workload.Request{Write: true, Offset: l * lineBytes, Length: int(lineBytes)}, old); err != nil {
			t.Fatal(err)
		}
	}
	push := func(first int64) { // write 16 other lines, evicting the rest
		t.Helper()
		for l := first; l < first+16; l++ {
			if _, err := s.Submit(s.Now(), workload.Request{Write: true, Offset: l * lineBytes, Length: sub}, make([]byte, sub)); err != nil {
				t.Fatal(err)
			}
		}
	}
	push(20)

	// Sequential misses on lines 0 .. ra-1 arm the prefetch of line ra; the
	// write to its sub 9 lands a microsecond later, long before the fetch.
	e := sim.NewEngine()
	before := s.ICL.Stats()
	for l := int64(0); l < ra; l++ {
		e.AtIn(sim.DefaultDomain, s.Now(), func() {
			s.SubmitAsync(e, workload.Request{Offset: l * lineBytes, Length: sub}, make([]byte, sub), func(_ sim.Time, err error) {
				if err != nil {
					t.Error(err)
				}
			})
		})
	}
	off := ra*lineBytes + 9*sub
	newer := make([]byte, sub)
	fillPayload(newer, off, 2)
	e.AtIn(sim.DefaultDomain, s.Now()+sim.Microsecond, func() {
		s.SubmitAsync(e, workload.Request{Write: true, Offset: off, Length: sub}, newer, func(_ sim.Time, err error) {
			if err != nil {
				t.Error(err)
			}
		})
	})
	e.Run()
	if st := s.ICL.Stats(); st.Readaheads == before.Readaheads || st.WriteSubMisses != before.WriteSubMisses+1 {
		t.Fatalf("no prefetch, or the write found line %d resident (stats %+v)", ra, st)
	}

	fillPayload(old, ra*lineBytes, 1)
	check := func(what string) {
		t.Helper()
		got := make([]byte, 3*sub)
		if _, err := s.Submit(s.Now(), workload.Request{Offset: ra*lineBytes + 8*sub, Length: 3 * sub}, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:sub], old[8*sub:9*sub]) || !bytes.Equal(got[2*sub:], old[10*sub:11*sub]) {
			t.Fatalf("%s: the prefetched subs around the write read back wrong", what)
		}
		if !bytes.Equal(got[sub:2*sub], newer) {
			t.Fatalf("%s: the sub written while the prefetch was in flight read back wrong", what)
		}
	}
	hits := s.ICL.Stats().ReadaheadHits
	check("cached")
	if s.ICL.Stats().ReadaheadHits != hits+3 {
		t.Fatal("the read back did not hit the prefetched line")
	}
	push(40)
	if s.ICL.Contains(ra, 9) {
		t.Fatalf("line %d still cached", ra)
	}
	check("after eviction")
}

// TestReadMissAllocs holds the read path at 0 allocs/op: a 4 KiB timing-only
// read miss through Submit runs on recycled ops, fills, masks and lookup
// buffers.
func TestReadMissAllocs(t *testing.T) {
	s := dataSystem(t, false, true)
	gen, err := workload.NewFIO(workload.RandRead, 4096, s.VolumeBytes(), 3)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	read := func() {
		if _, err := s.Submit(s.Now(), gen.Next(i), nil); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for i < 500 {
		read() // warm the op, fill, mask and engine pools
	}
	before := s.ICL.Stats()
	allocs := testing.AllocsPerRun(500, read)
	st := s.ICL.Stats()
	if hits, misses := st.ReadSubHits-before.ReadSubHits, st.ReadSubMisses-before.ReadSubMisses; misses < 10*hits {
		t.Fatalf("%d hits, %d misses: the stream is not a miss stream", hits, misses)
	}
	if allocs != 0 {
		t.Fatalf("a 4 KiB timing-only read miss allocates %.2f objects, want 0", allocs)
	}
}

// TestRunClosedLoopAllocs gates Run's own per-request cost on the same
// stream: the closed loop recycles one carrier per job, so what a run
// allocates beyond its fixed set-up (engine, carriers, result) must not grow
// with the request count — the difference between a run of 2N and a run of
// N leaves room for the latency samples' slice doubling and nothing else.
func TestRunClosedLoopAllocs(t *testing.T) {
	const n = 4000
	// The bench750 shape: a volume wide enough that two of the 32 reads in
	// flight seldom want one sub-page (a coalesced read parks a closure).
	d := config.Intel750()
	d.Geometry.BlocksPerPlane = 12
	d.TrackData = false
	s, err := core.NewSystem(config.PCSystem(d))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Precondition(32); err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewFIO(workload.RandRead, 4096, s.VolumeBytes(), 3)
	if err != nil {
		t.Fatal(err)
	}
	run := func(requests int) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := s.Run(gen, core.RunConfig{Requests: requests, IODepth: 32})
		runtime.ReadMemStats(&after)
		if err != nil || res.Latency.Count() != requests {
			t.Fatalf("run of %d: %d completions, %v", requests, res.Latency.Count(), err)
		}
		return float64(after.Mallocs - before.Mallocs)
	}
	run(4 * n) // warm the op, fill, mask and domain pools
	short, long := run(n), run(2*n)
	perReq := (long - short) / n
	t.Logf("%.0f allocations for %d requests, %.0f for %d: %.4f per extra request", short, n, long, 2*n, perReq)
	if perReq >= 0.05 {
		t.Fatalf("Run allocates %.3f objects per extra request (%.0f for %d, %.0f for %d), want < 0.05",
			perReq, short, n, long, 2*n)
	}
}

// fillTableGen reads line cold's sub 0, then its sub 1 twice, then sub 2 of
// lines 0, 1, 2, ... skipping cold, recording how many entries the fill
// table holds as each request is issued.
type fillTableGen struct {
	s         *core.System
	lineBytes int64
	cold      int64
	entries   []int // the fill table's entries at each Next
}

func (g *fillTableGen) Name() string { return "fill-table" }

func (g *fillTableGen) Next(i int) workload.Request {
	_, entries, _ := core.FillTable(g.s)
	g.entries = append(g.entries, entries)
	sub := int64(g.s.ICL.Config().SubSize)
	switch {
	case i == 0:
		return workload.Request{Offset: g.cold * g.lineBytes, Length: int(sub)}
	case i < 3:
		return workload.Request{Offset: g.cold*g.lineBytes + sub, Length: int(sub)}
	}
	line := int64(i - 3)
	if line >= g.cold {
		line++
	}
	return workload.Request{Offset: line*g.lineBytes + 2*sub, Length: int(sub)}
}

// TestFillTableReusesEntries runs, in one Run at depth 3, three reads of one
// cold line — sub 0, then sub 1 twice — and then reads of twenty more cold
// lines. The first two reads start a fetch each on one fill-table entry; the
// third is covered by them and parks. Sub 0's fetch lands first and wakes
// it while sub 1's is still in flight, so its retry misses again and
// registers a fetch of its own on the same live entry. The table never
// holds more entries than reads in flight: each later line reuses an entry
// another LSPN released. After Drain the table is empty and Snapshot works.
func TestFillTableReusesEntries(t *testing.T) {
	s := smallSystem(t, func(c *core.SystemConfig) { c.Device.ReadaheadThreshold = 0 })
	lineBytes := int64(s.Split.LineBytes())
	const lines = 24
	for l := int64(0); l < lines+int64(s.ICL.Config().Lines); l++ {
		if _, err := s.Submit(s.Now(), workload.Request{Write: true, Offset: l * lineBytes, Length: int(lineBytes)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Drain() // idle dies: the fetches land in the order they were issued
	g := &fillTableGen{s: s, lineBytes: lineBytes, cold: 5}
	for l := int64(0); l < lines; l++ {
		if s.ICL.Contains(l, 0) {
			t.Fatalf("set-up left line %d cached", l)
		}
	}
	flashReads, misses := s.Flash.Stats().Reads, s.ICL.Stats().ReadSubMisses
	const n = 3 + 20
	res, err := s.Run(g, core.RunConfig{Requests: n, IODepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Count() != n || res.FailedReads != 0 {
		t.Fatalf("%d of %d reads completed, %d failed", res.Latency.Count(), n, res.FailedReads)
	}
	// The parked read probes twice and fetches once, on its retry.
	if got, want := s.ICL.Stats().ReadSubMisses-misses, uint64(n+1); got != want {
		t.Fatalf("%d sub misses for %d one-sub reads, want %d: the third read did not retry after a miss", got, n, want)
	}
	if got := s.Flash.Stats().Reads - flashReads; got != n {
		t.Fatalf("%d flash reads for %d reads, want %d: the third read did not park, or its retry did not fetch", got, n, n)
	}
	if g.entries[3] != 1 {
		t.Fatalf("the cold line's three fetches took %d fill-table entries, want 1", g.entries[3])
	}
	if most := slices.Max(g.entries); most > 3 {
		t.Fatalf("fill table grew to %d entries for at most 3 reads in flight (per Next: %v)", most, g.entries)
	}
	s.Drain()
	if in, _, parked := core.FillTable(s); in != 0 || parked != 0 {
		t.Fatalf("after Drain: %d LSPNs in flight, %d readers parked", in, parked)
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	t.Logf("fill table: %d entries served 21 lines", slices.Max(g.entries))
}
