package ftl

import (
	"math"
	"strings"
	"testing"

	"amber/internal/nand"
	"amber/internal/sim"
)

// TestThirtyTwoBitBounds: the forward and reverse maps and the flash's OOB
// tags are 32 bits wide, so a geometry with more physical pages than int32
// counts is refused by both constructors — an error, never a truncation.
// Tags at the int32 limits program and read back.
func TestThirtyTwoBitBounds(t *testing.T) {
	tim := nand.Timing{
		ReadFast: sim.FromMicroseconds(60), ReadSlow: sim.FromMicroseconds(60),
		ProgFast: sim.FromMicroseconds(800), ProgSlow: sim.FromMicroseconds(800),
		Erase: sim.FromMicroseconds(3000), BusMTps: 333,
	}
	// 1024 planes x 2048 blocks x 1024 pages: 2^31 pages, one past int32.
	huge := nand.Geometry{
		Channels: 8, PackagesPerChannel: 8, DiesPerPackage: 4, PlanesPerDie: 4,
		BlocksPerPlane: 2048, PagesPerBlock: 1024, PageSize: 4096,
	}
	flash, err := nand.New(testGeometry(), tim, nand.Power{}, nand.MLC, nand.Options{})
	if err != nil {
		t.Fatal(err)
	}
	next := nand.Address{} // the next in-order page of block 0
	program := func(tag int64) error {
		if err := flashOp(flash, OpWrite, 0, next, nil, tag); err != nil {
			return err
		}
		if got := flash.PageOOB(next).FI; got != tag {
			t.Errorf("tag %d read back as %d", tag, got)
		}
		next.Page++
		return nil
	}
	cases := []struct {
		name    string
		run     func() error
		wantErr string // "" for success
	}{
		{"nand.New at 2^31 pages", func() error {
			_, err := nand.New(huge, tim, nand.Power{}, nand.MLC, nand.Options{})
			return err
		}, "physical pages"},
		{"ftl.New at 2^31 sub-pages", func() error {
			cfg := testConfig()
			cfg.Geometry = huge
			_, err := New(cfg)
			return err
		}, "physical sub-pages"},
		{"tag MaxInt32", func() error { return program(math.MaxInt32) }, ""},
		{"tag MinInt32", func() error { return program(math.MinInt32) }, ""},
		{"parity tag", func() error { return program(ParityTag) }, ""},
	}
	for _, tc := range cases {
		err := tc.run()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: got %v, want an error about %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestCheckInvariantsBothDirections: CheckInvariants walks the reverse map
// as well as the forward one, so a reverse entry the forward map does not
// name back is caught even when the block's valid count was bumped to
// match it — the state a valid map of its own used to hide.
func TestCheckInvariantsBothDirections(t *testing.T) {
	build := func() *FTL {
		f := newTestFTL(t, nil)
		for lspn := int64(0); lspn < 3; lspn++ { // the open block keeps a free page row
			if _, err := f.Write(0, lspn, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return f
	}
	// free returns a physical sub-page of the open super-block nothing maps.
	free := func(f *FTL) int64 {
		for pi, fi := range f.rev {
			if fi < 0 && int64(pi)/int64(f.pagesPerSB*f.subCount) == int64(f.openSB) {
				return int64(pi)
			}
		}
		t.Fatal("no free physical sub-page in the open super-block")
		return -1
	}
	sbOf := func(f *FTL, pi int64) *superBlock { return &f.sbs[pi/int64(f.pagesPerSB*f.subCount)] }
	unwritten := func(f *FTL) int64 { return f.fwdIndex(f.userLSPNs-1, 0) }
	cases := []struct {
		name   string
		mutate func(f *FTL)
	}{
		{"orphan reverse entry naming a mapped sub", func(f *FTL) {
			pi := free(f)
			f.rev[pi] = 0 // forward entry 0 maps elsewhere
			sbOf(f, pi).validSubs++
		}},
		{"orphan reverse entry naming an unmapped sub", func(f *FTL) {
			pi := free(f)
			f.rev[pi] = int32(unwritten(f))
			sbOf(f, pi).validSubs++
		}},
		{"orphan reverse entry, count not bumped", func(f *FTL) {
			f.rev[free(f)] = int32(unwritten(f))
		}},
		{"forward entry without its reverse", func(f *FTL) {
			f.fwd[unwritten(f)] = int32(free(f))
		}},
		{"two forward entries, one physical sub", func(f *FTL) {
			f.fwd[unwritten(f)] = f.fwd[0]
		}},
		{"valid count off by one", func(f *FTL) {
			f.sbs[f.openSB].validSubs++
		}},
	}
	for _, tc := range cases {
		f := build()
		tc.mutate(f)
		if err := f.CheckInvariants(); err == nil {
			t.Errorf("%s: CheckInvariants passed", tc.name)
		}
	}
}
