package ftl

import (
	"testing"

	"amber/internal/sim"
)

// TestStormReservesPlanOnce holds allocOpen's reserve to its two promises on
// the bench-shaped stream (a full volume, then uniform overwrites of a few
// sub-pages each, so every write that finds the reserve low compacts the
// whole volume in one plan): the buffer Write keeps after the first storm is no
// larger than the bound's largest value — a read and a rewrite of every mapped
// sub-page, an erase per super-block, the triggering write's own super-page
// of pre-reads and rewrites — where append's ladder overshoots by up to a
// quarter; and with that buffer in hand no later storm grows it: storms 2-16
// plan into the same backing array at the same capacity.
func TestStormReservesPlanOnce(t *testing.T) {
	cfg := testConfig()
	cfg.Geometry.Channels = 4
	cfg.Geometry.BlocksPerPlane = 12
	cfg.Geometry.PagesPerBlock = 16
	cfg.OPRatio = 0.2
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	for lspn := int64(0); lspn < f.UserSuperPages(); lspn++ {
		now += sim.Microsecond
		if _, err := f.Write(now, lspn, nil); err != nil {
			t.Fatal(err)
		}
	}
	mapped := int(f.UserSuperPages()) * f.subCount
	most := 2*mapped + 2*f.subCount + f.sbCount

	// Seed 2: the first storm starts at its write's first sub-page and later
	// ones further in, the order in which a reserve sized from where the
	// first began would come up short.
	rng := sim.NewRNG(2)
	dirty := make([]bool, f.subCount)
	storms := 0
	var kept *Op // the first storm's buffer
	var keptCap int
	for i := 0; storms < 16; i++ {
		if i == 100*mapped {
			t.Fatalf("%d storms in %d overwrites", storms, i)
		}
		now += sim.Microsecond
		lspn := int64(rng.Uint64n(uint64(f.UserSuperPages())))
		// One to three sub-pages a write, so that a storm may start at the
		// write's first sub-page or after it.
		clear(dirty)
		for n := 1 + rng.Intn(3); n > 0; n-- {
			dirty[rng.Intn(f.subCount)] = true
		}
		plan, err := f.Write(now, lspn, dirty)
		if err != nil {
			t.Fatal(err)
		}
		if plan.GCRuns < 2 {
			continue
		}
		storms++
		if storms == 1 {
			if c := cap(f.scratchOps); c < len(plan.Ops) || c > most {
				t.Fatalf("first storm: %d ops, %d kept, want at most %d", len(plan.Ops), c, most)
			}
			kept, keptCap = &f.scratchOps[:1][0], cap(f.scratchOps)
			continue
		}
		if &f.scratchOps[:1][0] != kept || cap(f.scratchOps) != keptCap {
			t.Fatalf("storm %d (%d ops) replaced the first storm's buffer: capacity %d, was %d",
				storms, len(plan.Ops), cap(f.scratchOps), keptCap)
		}
	}
}
