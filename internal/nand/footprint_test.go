package nand_test

import (
	"testing"

	"amber/internal/config"
	"amber/internal/core"
	"amber/internal/nand"
)

// TestFlashMetadataFootprint pins the bytes a flash's page and block
// metadata holds per physical page on the four reference devices and
// bench/'s bench750 (the Table I geometry with 12 blocks per plane),
// timing-only and tracked: a 16-byte OOB stamp per page (the written flag
// is one of its bits; a program's completion time lives in its die's
// journal only while a cut can still catch it, so it costs no page
// anything), a 12-byte block record per 128 pages, and an 8-byte payload
// checksum per page on a tracked flash only. On a timing-only device this
// metadata is most of the heap, so a byte per page here is a byte per page
// of every device the simulator can hold. The bench750 lines are logged for
// ci.yml.
func TestFlashMetadataFootprint(t *testing.T) {
	cases := []struct {
		device          string
		pages           int64
		timing, tracked float64 // bytes per physical page
	}{
		{"intel750", 737280, 16.09375, 24.09375},
		{"850pro", 393216, 16.09375, 24.09375},
		{"zssd", 393216, 16.09375, 24.09375},
		{"983dct", 393216, 16.09375, 24.09375},
		{"bench750", 184320, 16.09375, 24.09375},
	}
	for _, tc := range cases {
		name := tc.device
		if name == "bench750" {
			name = "intel750"
		}
		d, err := config.Device(name)
		if err != nil {
			t.Fatal(err)
		}
		if tc.device == "bench750" {
			d.Geometry.BlocksPerPlane = 12
		}
		if got := d.Geometry.TotalPages(); got != tc.pages {
			t.Fatalf("%s: %d pages, want %d", tc.device, got, tc.pages)
		}
		for _, v := range []struct {
			track bool
			want  float64
		}{{false, tc.timing}, {true, tc.tracked}} {
			f, err := nand.New(d.Geometry, d.Flash, d.FlashPower, d.Cell, nand.Options{TrackData: v.track})
			if err != nil {
				t.Fatal(err)
			}
			bytes := f.Footprint()
			perPage := float64(bytes) / float64(tc.pages)
			t.Logf("%s tracked=%v: %d B of flash metadata, %.3f B per physical page", tc.device, v.track, bytes, perPage)
			if perPage != v.want {
				t.Errorf("%s tracked=%v: %.4f B per physical page, want %.4f", tc.device, v.track, perPage, v.want)
			}
		}
	}
}

// TestJournalEmptyAfterPrecondition: Precondition ends with a Drain, which
// prunes the flash's program journal at the drained clock, so the journal
// is empty and keeps one chunk — the closing Flush's burst does not stay in
// the heap of a device that only reads afterwards.
func TestJournalEmptyAfterPrecondition(t *testing.T) {
	for _, name := range []string{"intel750", "850pro", "zssd", "983dct", "bench750"} {
		dev := name
		if name == "bench750" {
			dev = "intel750"
		}
		d, err := config.Device(dev)
		if err != nil {
			t.Fatal(err)
		}
		if name == "bench750" {
			d.Geometry.BlocksPerPlane = 12
		}
		s, err := core.NewSystem(config.PCSystem(d))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Precondition(32); err != nil {
			t.Fatal(err)
		}
		if entries, chunks := s.Flash.InFlightJournal(); entries != 0 || chunks != 1 {
			t.Errorf("%s: after Precondition the journal holds %d programs in %d chunks, want none in 1", name, entries, chunks)
		}
	}
}
