package ftl

import (
	"fmt"
	"testing"

	"amber/internal/nand"
	"amber/internal/sim"
)

func testGeometry() nand.Geometry {
	return nand.Geometry{
		Channels:           2,
		PackagesPerChannel: 1,
		DiesPerPackage:     1,
		PlanesPerDie:       2,
		BlocksPerPlane:     8,
		PagesPerBlock:      4,
		PageSize:           4096,
	}
}

// flashOp issues one flash transaction the way fil's walked plans do: the
// structural check, then the transaction on an engine-less plan (an erase
// is committed at claim). kind is OpRead (into buf), OpWrite (buf under tag)
// or OpErase (the block holding addr).
func flashOp(flash *nand.Flash, kind OpKind, now sim.Time, addr nand.Address, buf []byte, tag int64) error {
	var err error
	switch kind {
	case OpRead:
		err = flash.CheckRead(&addr)
	case OpWrite:
		if err = flash.Geometry().CheckAddress(addr); err == nil && (flash.PageWritten(addr) || addr.Page != flash.NextProgramPage(addr)) {
			err = fmt.Errorf("program of %v out of order (next is %d)", addr, flash.NextProgramPage(addr))
		}
	default:
		err = flash.CheckErase(addr)
	}
	if err != nil {
		return err
	}
	b := flash.BeginPlan(nil, nil)
	defer b.Commit()
	switch kind {
	case OpRead:
		_, err = b.ReadAddr(now, &addr, buf)
	case OpWrite:
		_, err = b.ProgramAddr(now, &addr, buf, false, tag)
	default:
		_, err = b.Erase(now, addr)
	}
	return err
}

func testConfig() Config {
	return Config{
		Geometry:      testGeometry(),
		OPRatio:       0.25,
		PartialUpdate: true,
	}
}

// countOps counts the plan's operations of one kind.
func countOps(plan Plan, kind OpKind) (n int) {
	for _, op := range plan.Ops {
		if op.Kind == kind {
			n++
		}
	}
	return n
}

func newTestFTL(t *testing.T, mutate func(*Config)) *FTL {
	t.Helper()
	cfg := testConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestWriteErrorBurnsPlanSeq pins the certificate-chain break on failed
// plan construction: once Write may have mutated the mapping model, an
// error return must still consume a sequence number. The failed plan never
// executes, so the flash epoch cannot expose the divergence — only the
// sequence gap forces a lockstep executor off the certified fast path and
// onto the validation walk for every later plan.
func TestWriteErrorBurnsPlanSeq(t *testing.T) {
	f := newTestFTL(t, nil)
	if _, err := f.Write(0, 0, nil); err != nil {
		t.Fatal(err)
	}
	// Exhaust the device: no free reserve, every plane of the open block
	// full, so the next write fails mid-construction (allocOpen finds no
	// victim worth collecting and no free super-block).
	f.freeSB = f.freeSB[:0]
	for sb := range f.sbs {
		if !f.sbs[sb].free {
			for p := range f.sbs[sb].nextPage {
				f.sbs[sb].nextPage[p] = int32(f.pagesPerSB)
			}
		}
	}
	seq := f.PlanSeq()
	plan, err := f.Write(0, 1, nil)
	if err == nil {
		t.Fatal("write on an exhausted device succeeded")
	}
	if plan.Cert.By(f) {
		t.Fatal("failed Write returned a certified plan")
	}
	if got := f.PlanSeq(); got != seq+1 {
		t.Fatalf("failed Write left PlanSeq at %d, want %d (burned)", got, seq+1)
	}
	// Cheap validation failures happen before any model mutation and must
	// NOT burn: the chain stays intact across a caller's bad-LSPN mistake.
	seq = f.PlanSeq()
	if _, err := f.Write(0, -1, nil); err == nil {
		t.Fatal("negative LSPN accepted")
	}
	if got := f.PlanSeq(); got != seq {
		t.Fatalf("pre-mutation validation error burned a sequence number (%d -> %d)", seq, got)
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.OPRatio = 0 },
		func(c *Config) { c.OPRatio = 0.9 },
		func(c *Config) { c.Geometry.Channels = 0 },
		func(c *Config) { c.Geometry.BlocksPerPlane = 3 },
	}
	for i, m := range cases {
		c := testConfig()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestCapacityAccounting(t *testing.T) {
	f := newTestFTL(t, nil)
	// 8 SBs x 4 pages = 32 super-pages; 25% OP -> 24 user LSPNs.
	if f.UserSuperPages() != 24 {
		t.Fatalf("UserSuperPages = %d, want 24", f.UserSuperPages())
	}
	if f.SubPagesPerSuperPage() != 4 {
		t.Fatalf("SubPagesPerSuperPage = %d, want 4", f.SubPagesPerSuperPage())
	}
	if f.SuperPageBytes() != 4*4096 {
		t.Fatalf("SuperPageBytes = %d", f.SuperPageBytes())
	}
}

func TestFullWriteMapsAllSubs(t *testing.T) {
	f := newTestFTL(t, nil)
	plan, err := f.Write(0, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if countOps(plan, OpWrite) != 4 || countOps(plan, OpRead) != 0 {
		t.Fatalf("plan = %+v", plan)
	}
	locs, _, err := f.LookupCertified(nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 4 {
		t.Fatalf("Lookup returned %d locs", len(locs))
	}
	// First write: all subs land on page 0 of the same SB.
	for _, l := range locs {
		if l.Page != 0 || l.SB != locs[0].SB {
			t.Fatalf("unexpected loc %+v", l)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLookupUnmapped(t *testing.T) {
	f := newTestFTL(t, nil)
	locs, _, err := f.LookupCertified(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 0 {
		t.Fatalf("unmapped LSPN returned locs %v", locs)
	}
	if f.Mapped(3) {
		t.Fatal("Mapped should be false")
	}
	if _, _, err := f.LookupCertified(nil, 999); err == nil {
		t.Fatal("out-of-range LSPN accepted")
	}
}

func TestOverwriteInvalidatesOld(t *testing.T) {
	f := newTestFTL(t, nil)
	if _, err := f.Write(0, 1, nil); err != nil {
		t.Fatal(err)
	}
	old, _, _ := f.LookupCertified(nil, 1)
	if _, err := f.Write(1, 1, nil); err != nil {
		t.Fatal(err)
	}
	niu, _, _ := f.LookupCertified(nil, 1)
	if old[0] == niu[0] {
		t.Fatal("overwrite did not move the mapping")
	}
	// The old SB lost 4 valid subs.
	if got := f.ValidSubs(old[0].SB); got != 4 {
		// old and new are in the same SB (page 0 -> page 1): 4 valid remain.
		t.Fatalf("ValidSubs = %d", got)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPartialUpdateRemapsOnlyDirty(t *testing.T) {
	f := newTestFTL(t, nil)
	if _, err := f.Write(0, 2, nil); err != nil {
		t.Fatal(err)
	}
	before, _, _ := f.LookupCertified(nil, 2)
	dirty := []bool{true, false, false, true}
	plan, err := f.Write(1, 2, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if countOps(plan, OpWrite) != 2 {
		t.Fatalf("partial update wrote %d subs, want 2", countOps(plan, OpWrite))
	}
	if countOps(plan, OpRead) != 0 {
		t.Fatal("partial update must not pre-read")
	}
	after, _, _ := f.LookupCertified(nil, 2)
	// Sub 1 and 2 unchanged; sub 0 and 3 moved.
	for _, l := range after {
		switch l.Sub {
		case 1, 2:
			if l != before[l.Sub] {
				t.Fatalf("clean sub %d moved: %+v", l.Sub, l)
			}
		case 0, 3:
			if l == before[l.Sub] {
				t.Fatalf("dirty sub %d did not move", l.Sub)
			}
		}
	}
	if f.Stats().PartialRemaps != 2 {
		t.Fatalf("PartialRemaps = %d", f.Stats().PartialRemaps)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRMWWithoutPartialUpdate(t *testing.T) {
	f := newTestFTL(t, func(c *Config) { c.PartialUpdate = false })
	if _, err := f.Write(0, 2, nil); err != nil {
		t.Fatal(err)
	}
	dirty := []bool{true, false, false, false}
	plan, err := f.Write(1, 2, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if countOps(plan, OpRead) != 3 {
		t.Fatalf("RMW pre-reads = %d, want 3", countOps(plan, OpRead))
	}
	if countOps(plan, OpWrite) != 4 {
		t.Fatalf("RMW writes = %d, want 4", countOps(plan, OpWrite))
	}
	s := f.Stats()
	if s.RMWReads != 3 {
		t.Fatalf("RMWReads = %d", s.RMWReads)
	}
	// WAF: host wrote 4+1 subs, flash wrote 4+4.
	if got := s.WAF(); got <= 1 {
		t.Fatalf("WAF = %v, want > 1", got)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyDirtyMaskIsNoop(t *testing.T) {
	f := newTestFTL(t, nil)
	plan, err := f.Write(0, 1, []bool{false, false, false, false})
	if err != nil {
		t.Fatal(err)
	}
	if countOps(plan, OpWrite) != 0 {
		t.Fatal("all-clean mask should write nothing")
	}
}

func TestBadDirtyMaskLength(t *testing.T) {
	f := newTestFTL(t, nil)
	if _, err := f.Write(0, 1, []bool{true}); err == nil {
		t.Fatal("wrong-length dirty mask accepted")
	}
}

func TestGCTriggersAndPreservesMappings(t *testing.T) {
	f := newTestFTL(t, nil)
	now := sim.Time(0)
	// Fill the device twice over to force GC.
	for round := 0; round < 3; round++ {
		for lspn := int64(0); lspn < f.UserSuperPages(); lspn++ {
			now += sim.Microsecond
			if _, err := f.Write(now, lspn, nil); err != nil {
				t.Fatalf("round %d lspn %d: %v", round, lspn, err)
			}
		}
	}
	if f.Stats().GCRuns == 0 {
		t.Fatal("GC never ran despite 3x overwrite")
	}
	// Every LSPN still resolves to exactly 4 valid sub-pages.
	for lspn := int64(0); lspn < f.UserSuperPages(); lspn++ {
		locs, _, err := f.LookupCertified(nil, lspn)
		if err != nil {
			t.Fatal(err)
		}
		if len(locs) != 4 {
			t.Fatalf("LSPN %d has %d locs after GC", lspn, len(locs))
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if f.Stats().WAF() < 1 {
		t.Fatalf("WAF = %v < 1", f.Stats().WAF())
	}
}

func TestGCPlanOrdering(t *testing.T) {
	f := newTestFTL(t, nil)
	now := sim.Time(0)
	var gcPlan *Plan
	for round := 0; round < 4 && gcPlan == nil; round++ {
		for lspn := int64(0); lspn < f.UserSuperPages(); lspn++ {
			now += sim.Microsecond
			plan, err := f.Write(now, lspn, nil)
			if err != nil {
				t.Fatal(err)
			}
			if plan.GCRuns > 0 {
				gcPlan = &plan
				break
			}
		}
	}
	if gcPlan == nil {
		t.Fatal("no GC plan observed")
	}
	if countOps(*gcPlan, OpErase) == 0 {
		t.Fatal("GC plan has no erase")
	}
	if gcPlan.Migrated != countOps(*gcPlan, OpRead) {
		t.Fatalf("migrated %d but %d reads", gcPlan.Migrated, countOps(*gcPlan, OpRead))
	}
}

func TestLowerOPMeansMoreGC(t *testing.T) {
	run := func(op float64) uint64 {
		cfg := testConfig()
		cfg.Geometry.BlocksPerPlane = 16
		cfg.OPRatio = op
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(3)
		now := sim.Time(0)
		// Precondition: fill once sequentially.
		for lspn := int64(0); lspn < f.UserSuperPages(); lspn++ {
			now += sim.Microsecond
			if _, err := f.Write(now, lspn, nil); err != nil {
				t.Fatal(err)
			}
		}
		// Random overwrites of 2x the volume.
		for i := int64(0); i < 2*f.UserSuperPages(); i++ {
			now += sim.Microsecond
			lspn := int64(rng.Uint64n(uint64(f.UserSuperPages())))
			if _, err := f.Write(now, lspn, nil); err != nil {
				t.Fatal(err)
			}
		}
		return f.Stats().GCMigrated
	}
	high := run(0.25)
	low := run(0.06)
	if low <= high {
		t.Fatalf("5%%-ish OP migrated %d pages, 25%% OP migrated %d; want low OP >> high OP", low, high)
	}
}

func TestWearLevelingBoundsSpread(t *testing.T) {
	cfg := testConfig()
	cfg.Geometry.BlocksPerPlane = 12
	cfg.WearLevelDelta = 4
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	// Static data in low LSPNs, hot overwrites in one LSPN: without static
	// wear-leveling the cold blocks would never be erased.
	for lspn := int64(0); lspn < f.UserSuperPages(); lspn++ {
		now += sim.Microsecond
		if _, err := f.Write(now, lspn, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 600; i++ {
		now += sim.Microsecond
		if _, err := f.Write(now, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if f.Stats().WearLevelMoves == 0 {
		t.Fatal("static wear-leveling never ran")
	}
	if spread := f.MaxEraseSpread(); spread > 3*cfg.WearLevelDelta {
		t.Fatalf("erase spread %d far exceeds delta %d", spread, cfg.WearLevelDelta)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAddressConversion(t *testing.T) {
	f := newTestFTL(t, nil)
	g := testGeometry()
	seen := map[string]bool{}
	for sub := 0; sub < f.SubPagesPerSuperPage(); sub++ {
		a := f.Address(PageLoc{SB: 3, Page: 2, Plane: sub, Sub: sub})
		if err := g.CheckAddress(a); err != nil {
			t.Fatalf("sub %d: %v", sub, err)
		}
		if a.Block != 3 || a.Page != 2 {
			t.Fatalf("sub %d mapped to wrong block/page: %+v", sub, a)
		}
		key := a.String()
		if seen[key] {
			t.Fatalf("sub collision at %v", a)
		}
		seen[key] = true
	}
	// Consecutive subs hit different channels first (stripe for bus overlap).
	a0 := f.Address(PageLoc{SB: 0, Page: 0, Plane: 0, Sub: 0})
	a1 := f.Address(PageLoc{SB: 0, Page: 0, Plane: 1, Sub: 1})
	if a0.Channel == a1.Channel {
		t.Fatal("subs 0 and 1 should differ in channel")
	}
}

// Property-style stress: random full/partial writes with invariants
// checked throughout; the mapping must stay injective and resolvable.
func TestRandomWorkloadInvariants(t *testing.T) {
	for _, partial := range []bool{true, false} {
		f := newTestFTL(t, func(c *Config) {
			c.PartialUpdate = partial
			c.Geometry.BlocksPerPlane = 10
		})
		rng := sim.NewRNG(99)
		now := sim.Time(0)
		for i := 0; i < 800; i++ {
			now += sim.Microsecond
			lspn := int64(rng.Uint64n(uint64(f.UserSuperPages())))
			switch rng.Intn(10) {
			case 1, 2, 3:
				dirty := make([]bool, f.SubPagesPerSuperPage())
				dirty[rng.Intn(len(dirty))] = true
				if _, err := f.Write(now, lspn, dirty); err != nil {
					t.Fatal(err)
				}
			default:
				if _, err := f.Write(now, lspn, nil); err != nil {
					t.Fatal(err)
				}
			}
			if i%100 == 0 {
				if err := f.CheckInvariants(); err != nil {
					t.Fatalf("iter %d (partial=%v): %v", i, partial, err)
				}
			}
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatalf("final (partial=%v): %v", partial, err)
		}
	}
}

func BenchmarkSequentialWrite(b *testing.B) {
	cfg := testConfig()
	cfg.Geometry.BlocksPerPlane = 64
	cfg.Geometry.PagesPerBlock = 64
	f, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	now := sim.Time(0)
	for i := 0; i < b.N; i++ {
		now += sim.Microsecond
		lspn := int64(i) % f.UserSuperPages()
		if _, err := f.Write(now, lspn, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomOverwriteWithGC(b *testing.B) {
	cfg := testConfig()
	cfg.Geometry.BlocksPerPlane = 64
	cfg.Geometry.PagesPerBlock = 64
	cfg.OPRatio = 0.1
	f, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(1)
	now := sim.Time(0)
	for lspn := int64(0); lspn < f.UserSuperPages(); lspn++ {
		now += sim.Microsecond
		if _, err := f.Write(now, lspn, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now += sim.Microsecond
		lspn := int64(rng.Uint64n(uint64(f.UserSuperPages())))
		if _, err := f.Write(now, lspn, nil); err != nil {
			b.Fatal(err)
		}
	}
}
