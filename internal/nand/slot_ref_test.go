package nand_test

import (
	"testing"

	"amber/internal/config"
	"amber/internal/nand"
)

// TestSlotIsAPermutation: on the four reference devices, bench/'s bench750
// and the package tests' geometry, the metadata slot of each physical page
// is distinct and in range, so the slot layout stores every page's
// metadata exactly once.
func TestSlotIsAPermutation(t *testing.T) {
	geos := map[string]nand.Geometry{"testGeometry": nand.SmallGeometry()}
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
		geos[name] = d.Geometry
	}
	d, err := config.Device("intel750")
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range geos {
		f, err := nand.New(g, d.Flash, d.FlashPower, d.Cell, nand.Options{})
		if err != nil {
			t.Fatal(err)
		}
		n := g.TotalPages()
		seen := make([]bool, n)
		for idx := int64(0); idx < n; idx++ {
			s := f.SlotOfPage(idx)
			if s < 0 || s >= n || seen[s] {
				t.Fatalf("%s: page %d has slot %d, out of [0,%d) or taken twice", name, idx, s, n)
			}
			seen[s] = true
		}
	}
}
