package ftl_test

import (
	"testing"

	"amber/internal/config"
	"amber/internal/ftl"
)

// TestFTLMetadataFootprint pins the bytes the FTL's forward and reverse
// maps hold on the four reference devices and bench/'s bench750 (the Table
// I geometry with 12 blocks per plane): 4 bytes per physical sub-page for
// the reverse map plus 4 per user sub-page for the forward map, the OP
// share of the physical ones. Validity has no map of its own: a physical
// sub-page is valid iff its reverse entry is set. Tracking payloads does
// not change the FTL. The bench750 line is logged for ci.yml.
func TestFTLMetadataFootprint(t *testing.T) {
	cases := []struct {
		device string
		bytes  int
	}{
		{"intel750", 5308320}, // 737280 physical, 589800 user sub-pages: 7.200 B per page
		{"850pro", 2831104},   // 393216 and 314560: 7.200 B
		{"zssd", 2831104},
		{"983dct", 2831104},
		{"bench750", 1326720}, // 184320 and 147360: 7.198 B
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
		f, err := ftl.New(ftl.Config{
			Geometry:       d.Geometry,
			OPRatio:        d.OPRatio,
			PartialUpdate:  d.PartialUpdate,
			WearLevelDelta: d.WearLevelDelta,
			SpareBlocks:    d.SpareBlocks,
			RAINWidth:      d.RAINWidth,
		})
		if err != nil {
			t.Fatal(err)
		}
		pages := d.Geometry.TotalPages()
		got := f.Footprint()
		t.Logf("%s: %d B of FTL maps, %.3f B per physical page", tc.device, got, float64(got)/float64(pages))
		if got != tc.bytes {
			t.Errorf("%s: %d B of FTL maps, want %d", tc.device, got, tc.bytes)
		}
	}
}
