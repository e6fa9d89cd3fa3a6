package core_test

import (
	"reflect"
	"testing"

	"amber/internal/core"
	"amber/internal/sim"
	"amber/internal/workload"
)

// TestCountersSince holds the measured window: a reading minus itself is
// zero after a GC-heavy run, a window reports what its run added, and a
// window across a power cut reads its FTL counters off the mounted FTL,
// which restarted them, instead of wrapping the old FTL's below zero.
func TestCountersSince(t *testing.T) {
	s := wideSystem(t)
	seqFillDurable(t, s)
	storm := func(seed uint64, rc core.RunConfig) *core.RunResult {
		t.Helper()
		gen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), seed)
		if err != nil {
			t.Fatal(err)
		}
		rc.IODepth, rc.WithData = 16, true
		res, err := s.Run(gen, rc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	base := s.Counters()
	res := storm(11, core.RunConfig{Requests: 300})
	now := s.Counters()
	if z := now.Since(now); z != (core.Counters{}) {
		t.Fatalf("a reading minus itself is %+v, want zero", z)
	}
	w := now.Since(base)
	if w.FTL.GCRuns == 0 || w.FTL.HostSubWrites == 0 || w.Firmware.Total() == 0 || w.DMA.BytesMoved == 0 || w.CPUJ <= 0 {
		t.Fatalf("the storm's window shows no GC, host writes, firmware, DMA or energy: %+v", w)
	}
	if w.FTL.GCRuns != now.FTL.GCRuns-base.FTL.GCRuns {
		t.Fatalf("window GC runs %d, readings %d and %d", w.FTL.GCRuns, base.FTL.GCRuns, now.FTL.GCRuns)
	}

	// The cut lands a third of the storm's span into the next storm.
	before := s.Counters()
	res = storm(13, core.RunConfig{Requests: 600, PowerLossAt: s.Now() + sim.Time((res.End-res.Start)/3)})
	if !res.PowerLost {
		t.Fatal("the cut did not fire")
	}
	after := s.Counters()
	if before.FTL.HostSubWrites <= after.FTL.HostSubWrites {
		t.Fatalf("the mounted FTL has %d host sub-writes, the old one had %d: a plain subtraction would not wrap, so the check below is vacuous",
			after.FTL.HostSubWrites, before.FTL.HostSubWrites)
	}
	w = after.Since(before)
	if w.FTL != s.FTL.Stats() {
		t.Fatalf("window FTL counters %+v, the mounted FTL's own %+v", w.FTL, s.FTL.Stats())
	}
	noWrap(t, "window", reflect.ValueOf(w), reflect.ValueOf(after))
}

// noWrap fails on a window count larger than the lifetime count it was
// taken from: a subtraction that wrapped around.
func noWrap(t *testing.T, path string, w, life reflect.Value) {
	t.Helper()
	switch w.Kind() {
	case reflect.Struct:
		for i := 0; i < w.NumField(); i++ {
			if w.Type().Field(i).IsExported() {
				noWrap(t, path+"."+w.Type().Field(i).Name, w.Field(i), life.Field(i))
			}
		}
	case reflect.Uint64:
		if w.Uint() > life.Uint() {
			t.Errorf("%s = %d exceeds the lifetime count %d: it wrapped", path, w.Uint(), life.Uint())
		}
	}
}
