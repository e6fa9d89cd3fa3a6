package core_test

import (
	"bytes"
	"testing"

	"amber/internal/core"
	"amber/internal/sim"
	"amber/internal/workload"
)

// TestPrefetchPinsSurviveGCAndPowerLoss follows a tracked prefetch's pinned
// flash pages end to end. The volume's last line is prefetched and stays
// resident (a one-sub read keeps it young; no line follows it to prefetch)
// while random overwrites run garbage collection, which migrates its pages
// and erases their blocks: its pinned buffers become orphans, and the line
// keeps reading back what was written. Then, with
// that line still resident and more prefetches in flight, power is cut: the
// flash holds no pin afterwards, and after Mount every line reads back what
// was written. Every pooled buffer is poisoned with 0xA5 between steps, so a
// pin that let a pooled buffer through, or a taker that left part of one
// unwritten, shows.
func TestPrefetchPinsSurviveGCAndPowerLoss(t *testing.T) {
	s := dataSystem(t, true, false)
	lineBytes := s.ICL.Config().LineBytes()
	const sub = 8192
	lines := s.VolumeBytes() / int64(lineBytes)
	version := make(map[int64]int) // by sub offset, the last version written
	write := func(off int64, n, v int) {
		t.Helper()
		buf := make([]byte, n)
		fillPayload(buf, off, v)
		if _, err := s.Submit(s.Now(), workload.Request{Write: true, Offset: off, Length: n}, buf); err != nil {
			t.Fatal(err)
		}
		for o := off; o < off+int64(n); o += sub {
			version[o] = v
		}
	}
	readBack := func(what string, off int64, n int) {
		t.Helper()
		got := make([]byte, n)
		if _, err := s.Submit(s.Now(), workload.Request{Offset: off, Length: n}, got); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, sub)
		for o := int64(0); o < int64(n); o += sub {
			fillPayload(want, off+o, version[off+o])
			if !bytes.Equal(got[o:o+sub], want) {
				t.Fatalf("%s: the sub at volume offset %d reads back wrong", what, off+o)
			}
		}
	}
	for l := lines - 1; l >= 0; l-- { // the cache keeps the first lines
		write(l*int64(lineBytes), lineBytes, 1)
	}
	core.PoisonFlashPool(s)

	// Two sequential misses arm the readahead of the line after them.
	held := lines - 1
	for l := held - 2; l < held; l++ {
		readBack("arming read", l*int64(lineBytes), sub)
	}
	if !s.ICL.Contains(held, 0) {
		t.Fatalf("line %d was not prefetched", held)
	}
	if pinned, _, _ := s.Flash.Buffers(); pinned == 0 {
		t.Fatal("the prefetch pinned no flash page")
	}

	rng := sim.NewRNG(7)
	erases0 := s.Flash.Stats().Erases
	orphaned := false
	for i := 0; i < 6000; i++ {
		l := int64(rng.Intn(int(lines)))
		if l == held {
			continue
		}
		write(l*int64(lineBytes)+int64(rng.Intn(lineBytes/sub))*sub, sub, 2+i)
		if i%4 == 0 {
			readBack("held line", held*int64(lineBytes)+int64(i/4%(lineBytes/sub))*sub, sub)
		}
		if _, orphans, _ := s.Flash.Buffers(); orphans > 0 {
			orphaned = true
		}
		if i%50 == 0 {
			core.PoisonFlashPool(s)
		}
		if i%1000 == 999 {
			readBack("held line, whole", held*int64(lineBytes), lineBytes)
		}
	}
	if !s.ICL.Contains(held, 0) {
		t.Fatalf("line %d left the cache during the storm", held)
	}
	pinned, orphans, _ := s.Flash.Buffers()
	if s.Flash.Stats().Erases == erases0 || !orphaned || orphans == 0 || pinned != lineBytes/sub {
		t.Fatalf("the storm erased %d blocks; %d pins, %d orphans: it never reached the held line's pages alone",
			s.Flash.Stats().Erases-erases0, pinned, orphans)
	}
	readBack("held line after the storm", held*int64(lineBytes), lineBytes)

	// Make every write durable, then cut power while more prefetches are in
	// flight.
	if _, err := s.Flush(s.Now()); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	core.PoisonFlashPool(s)
	first := int64(0) // two uncached lines whose misses arm a prefetch
	for s.ICL.Contains(first, 0) || s.ICL.Contains(first+1, 0) || s.ICL.Contains(first+2, 0) {
		first++
	}
	e := sim.NewEngine()
	start := s.Now()
	readahead0 := s.ICL.Stats().Readaheads
	for l := first; l < first+2; l++ {
		e.AtIn(sim.DefaultDomain, start, func() {
			s.SubmitAsync(e, workload.Request{Offset: l * int64(lineBytes), Length: sub}, make([]byte, sub), func(sim.Time, error) {})
		})
	}
	cut := start + 20*sim.Microsecond
	e.AtIn(sim.DefaultDomain, cut, e.Halt)
	e.Run()
	if e.Pending() == 0 || s.ICL.Stats().Readaheads == readahead0 {
		t.Fatal("no prefetch was in flight at the cut")
	}
	if pinned, _, _ := s.Flash.Buffers(); pinned <= lineBytes/sub {
		t.Fatalf("%d pins live at the cut: none but the held line's", pinned)
	}
	s.PowerLoss(cut)
	if pinned, orphans, _ := s.Flash.Buffers(); pinned != 0 || orphans != 0 {
		t.Fatalf("after the cut the flash holds %d pins and %d orphans", pinned, orphans)
	}
	if _, err := s.Mount(); err != nil {
		t.Fatal(err)
	}
	for l := int64(0); l < lines; l++ {
		if l%8 == 0 {
			core.PoisonFlashPool(s)
		}
		readBack("after the cut and mount", l*int64(lineBytes), lineBytes)
	}
}
