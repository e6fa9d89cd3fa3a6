package main

import (
	"bytes"
	"os"
	"testing"

	"amber/internal/config"
	"amber/internal/core"
	"amber/internal/sim"
	"amber/internal/workload"
)

// The two tests below reproduce simulator defects found while sizing the
// benchmark (README, "Known defects"). They fail today, so they are skipped
// unless BENCH_KNOWN_DEFECTS is set; a fix deletes the skip.
func skipKnownDefect(t *testing.T) {
	t.Helper()
	if os.Getenv("BENCH_KNOWN_DEFECTS") == "" {
		t.Skip("known defect, see README; set BENCH_KNOWN_DEFECTS=1 to run the reproducer")
	}
}

func defectSystem(t *testing.T, trackData bool) *core.System {
	t.Helper()
	d := bench750d()
	d.TrackData = trackData
	s, err := core.NewSystem(config.PCSystem(d))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Precondition(queueDepth); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDefectMixedBatchPanics: a SubmitBatch vector that mixes reads with
// writes whose evictions flush to flash panics with "sim: scheduling event
// ... before now" out of nand.PlanBatch.Commit — the read's evented Submit
// advances the shared engine's clock past completion times the next inline
// write's deferred bookkeeping is scheduled at. Intel 750 geometry, 16 cache
// lines, 75 % writes, 8 KiB, with or without TrackData.
func TestDefectMixedBatchPanics(t *testing.T) {
	skipKnownDefect(t)
	for _, trackData := range []bool{false, true} {
		s := defectSystem(t, trackData)
		rng := sim.NewRNG(5)
		blocks := uint64(s.VolumeBytes() / dataIO)
		reqs := make([]workload.Request, batchWindow)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("TrackData=%v: SubmitBatch panicked: %v", trackData, r)
				}
			}()
			for w := 0; w < 200; w++ {
				for k := range reqs {
					reqs[k] = workload.Request{Write: rng.Float64() < 0.75, Offset: int64(rng.Uint64n(blocks)) * dataIO, Length: dataIO}
				}
				if _, err := s.SubmitBatch(s.Now(), reqs, nil, nil); err != nil {
					t.Fatalf("TrackData=%v: %v", trackData, err)
				}
			}
		}()
	}
}

// TestDefectSubPageUnalignedPayload: payloads of I/O not aligned to the
// 8 KiB sub-page are not preserved — core.lineByteStart drops the offset
// inside the sub-page, so a 4 KiB write to the upper half of a sub-page
// lands in its lower half. A tenth of 4 KiB read-backs mismatch after 3000
// writes, more as blocks are overwritten.
func TestDefectSubPageUnalignedPayload(t *testing.T) {
	skipKnownDefect(t)
	const bs = 4096
	s := defectSystem(t, true)
	rng := sim.NewRNG(5)
	blocks := uint64(s.VolumeBytes() / bs)
	shadow := map[int64][]byte{}
	for i := 0; i < 3000; i++ {
		off := int64(rng.Uint64n(blocks)) * bs
		buf := make([]byte, bs)
		payload(buf, off/bs, uint32(i+1))
		if _, err := s.Submit(s.Now(), workload.Request{Write: true, Offset: off, Length: bs}, buf); err != nil {
			t.Fatal(err)
		}
		shadow[off] = buf
	}
	bad := 0
	got := make([]byte, bs)
	for off, want := range shadow {
		if _, err := s.Submit(s.Now(), workload.Request{Offset: off, Length: bs}, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d 4 KiB blocks read back wrong", bad, len(shadow))
	}
}
