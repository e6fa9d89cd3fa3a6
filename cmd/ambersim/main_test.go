package main

import (
	"strings"
	"testing"

	"amber/internal/sim"
)

// TestRunFlagsValidate pins the up-front flag cross-checks: every rejected
// combination names the offending flag, and a good set yields the parsed
// durations.
func TestRunFlagsValidate(t *testing.T) {
	good := runFlags{requests: 100, devices: 1}
	with := func(edit func(*runFlags)) runFlags {
		f := good
		edit(&f)
		return f
	}
	cases := []struct {
		name       string
		flags      runFlags
		wantErr    string // substring; "" = must pass
		cut, scrub sim.Duration
	}{
		{"batch-submit n=-1", with(func(f *runFlags) { f.batchSubmit, f.requests = true, -1 }), "bad -n -1", 0, 0},
		{"batch-submit n=0", with(func(f *runFlags) { f.batchSubmit, f.requests = true, 0 }), "bad -n 0", 0, 0},
		{"evented n=0", with(func(f *runFlags) { f.requests = 0 }), "bad -n 0", 0, 0},
		{"batch-submit power-loss", with(func(f *runFlags) { f.batchSubmit, f.powerLossAt = true, "50ms" }), "-power-loss-at are incompatible", 0, 0},
		{"batch-submit scrub", with(func(f *runFlags) { f.batchSubmit, f.scrubEvery = true, "5ms" }), "-scrub-every are incompatible", 0, 0},
		{"batch-submit intra-parallel", with(func(f *runFlags) { f.batchSubmit, f.intraParallel = true, 2 }), "-intra-parallel > 1 are incompatible", 0, 0},
		{"bad power-loss duration", with(func(f *runFlags) { f.powerLossAt = "-3ms" }), "bad -power-loss-at", 0, 0},
		{"bad scrub duration", with(func(f *runFlags) { f.scrubEvery = "soon" }), "bad -scrub-every", 0, 0},
		{"negative rain", with(func(f *runFlags) { f.rain = -1 }), "bad -rain", 0, 0},
		{"snapshot of two devices", with(func(f *runFlags) { f.snapshot, f.devices = "img", 2 }), "single device", 0, 0},
		{"good evented", with(func(f *runFlags) { f.powerLossAt, f.scrubEvery, f.intraParallel, f.rain = "50ms", "5ms", 2, 3 }), "", 50 * sim.Millisecond, 5 * sim.Millisecond},
		{"good batch-submit", with(func(f *runFlags) { f.batchSubmit, f.intraParallel = true, 1 }), "", 0, 0},
	}
	for _, c := range cases {
		cut, scrub, err := c.flags.validate()
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.wantErr)
		case err == nil && (cut != c.cut || scrub != c.scrub):
			t.Errorf("%s: parsed durations %v, %v, want %v, %v", c.name, cut, scrub, c.cut, c.scrub)
		}
	}
}
