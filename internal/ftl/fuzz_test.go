package ftl

import (
	"testing"

	"amber/internal/nand"
	"amber/internal/sim"
)

// fuzzImage drives a fresh RAIN-striped FTL through a fill-plus-overwrite
// trajectory and executes every plan against a data-tracked flash the way
// fil does — programs stamp the same OOB tag and stripe mask, erases wipe
// every plane — so the durable image Mount scans is exactly what a powered
// run leaves behind: current and stale claimants, migrated chains, parity
// rows, erased blocks.
func fuzzImage(tb testing.TB) (Config, *nand.Flash) {
	tb.Helper()
	cfg := testConfig()
	cfg.RAINWidth = 3 // 4 planes: one group of 3 data + 1 parity
	f, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	flash, err := nand.New(cfg.Geometry, nand.Timing{
		ReadFast:  sim.FromMicroseconds(60),
		ReadSlow:  sim.FromMicroseconds(105),
		ProgFast:  sim.FromMicroseconds(820),
		ProgSlow:  sim.FromMicroseconds(2250),
		Erase:     sim.FromMicroseconds(3000),
		BusMTps:   333,
		CmdCycles: sim.FromNanoseconds(100),
	}, nand.Power{}, nand.MLC, nand.Options{TrackData: true, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}

	now := sim.FromMicroseconds(1)
	ps := cfg.Geometry.PageSize
	planes := cfg.Geometry.TotalPlanes()
	version := byte(0)
	type subKey struct {
		lspn int64
		sub  int
	}
	exec := func(plan Plan) {
		reads := make(map[subKey][]byte)
		for _, op := range plan.Ops {
			switch op.Kind {
			case OpRead:
				buf := make([]byte, ps)
				if _, err := flash.Read(now, f.Address(op.Loc), buf); err != nil {
					tb.Fatalf("plan read %v: %v", op.Loc, err)
				}
				reads[subKey{op.LSPN, op.Loc.Sub}] = buf
			case OpWrite:
				addr := f.Address(op.Loc)
				if op.Parity {
					if _, err := flash.ProgramTagged(now, addr, make([]byte, ps), ParityTag); err != nil {
						tb.Fatalf("parity program %v: %v", op.Loc, err)
					}
					flash.SetPageStripe(addr, op.Mask)
					continue
				}
				data := reads[subKey{op.LSPN, op.Loc.Sub}]
				if data == nil {
					data = make([]byte, ps)
					for i := range data {
						data[i] = byte(int(version) + int(op.LSPN)*31 + op.Loc.Sub*7 + i)
					}
				}
				tag := op.LSPN*int64(planes) + int64(op.Loc.Sub)
				if _, err := flash.ProgramTagged(now, addr, data, tag); err != nil {
					tb.Fatalf("plan program %v: %v", op.Loc, err)
				}
			case OpErase:
				for p := 0; p < planes; p++ {
					addr := f.Address(PageLoc{SB: op.SB, Page: 0, Plane: p, Sub: p})
					if _, err := flash.Erase(now, addr); err != nil {
						tb.Fatalf("plan erase SB %d plane %d: %v", op.SB, p, err)
					}
				}
			}
		}
	}
	write := func(lspn int64) {
		version++
		plan, err := f.Write(now, lspn, nil)
		if err != nil {
			tb.Fatalf("write LSPN %d: %v", lspn, err)
		}
		exec(plan)
	}
	n := f.UserSuperPages()
	for lspn := int64(0); lspn < n; lspn++ {
		write(lspn)
	}
	// Overwrite a hot prefix: stale claimants, GC migrations, erased and
	// re-filled blocks, parity catch-up rows mid-stripe.
	hot := n/2 + 1
	for i := int64(0); i < 2*n; i++ {
		write(i % hot)
	}
	return cfg, flash
}

// FuzzMount fuzzes mount-time recovery against silent OOB corruption:
// arbitrary tamper scripts (page index + field selector triples, applied
// via nand.TamperOOB as torn-verdict flips and bit-rot in the tag,
// sequence, checksum and stripe mask) must leave Mount returning a
// structurally consistent FTL — never a panic, never a mapping onto a
// page whose checksum fails or whose tag disagrees with the map — and the
// post-mount cleanup and parity catch-up passes must execute cleanly on
// the surviving image.
func FuzzMount(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})                      // flip page 0's torn verdict
	f.Add([]byte{0, 17, 1, 0, 33, 2, 0, 49, 3}) // tag/seq/sum rot on a spread
	f.Add([]byte{0, 3, 4, 0, 7, 4})             // stripe-mask rot on parity planes
	f.Add([]byte{255, 255, 255, 128, 0, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		cfg, flash := fuzzImage(t)
		total := cfg.Geometry.TotalPages()
		// Cap the tamper count: each triple corrupts one OOB field, and a
		// bounded gauntlet keeps iterations fast without narrowing the
		// reachable corruption space (any subset of fields is expressible).
		for i := 0; i+2 < len(script) && i < 3*64; i += 3 {
			pageIdx := (int64(script[i])<<8 | int64(script[i+1])) % total
			flash.TamperOOB(pageIdx, script[i+2])
		}

		mounted, _, err := Mount(cfg, flash)
		if err != nil {
			// Mount of a matching geometry reads durable state only; any
			// corruption must degrade to discarded pages, not an error.
			t.Fatalf("mount failed: %v", err)
		}
		checkMountedMappings(t, mounted, flash)

		// The post-mount passes run on whatever survived: cleanup erases
		// fully-stale blocks, parity catch-up re-emits missing parity.
		// Both mutate the model in lockstep with the plan they emit, so
		// executing the plans and re-checking closes the loop.
		execMountPlan(t, mounted, flash, func() Plan { p, _ := mounted.MountCleanup(); return p })
		execMountPlan(t, mounted, flash, func() Plan { p, _ := mounted.ParityCatchup(); return p })
		checkMountedMappings(t, mounted, flash)
	})
}

// checkMountedMappings asserts the never-serve-torn-data invariant on a
// mounted FTL: structural consistency (CheckInvariants) plus, for every
// forward-map entry, a written page whose OOB verdict and payload checksum
// hold and whose stamped tag is the mapping's own index.
func checkMountedMappings(t *testing.T, f *FTL, flash *nand.Flash) {
	t.Helper()
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for lspn := int64(0); lspn < f.userLSPNs; lspn++ {
		for sub := 0; sub < f.subCount; sub++ {
			fi := f.fwdIndex(lspn, sub)
			packed := f.fwd[fi]
			if packed < 0 {
				continue
			}
			loc := f.unpackLoc(int64(packed), sub)
			addr := f.Address(loc)
			if !flash.PageWritten(addr) {
				t.Fatalf("LSPN %d sub %d mapped to unwritten page %v", lspn, sub, loc)
			}
			oob := flash.PageOOB(addr)
			if !oob.Good || !flash.VerifyPage(addr) {
				t.Fatalf("LSPN %d sub %d mapped to torn page %v (oob %+v)", lspn, sub, loc, oob)
			}
			if oob.FI != fi {
				t.Fatalf("LSPN %d sub %d mapped to page %v tagged %d, want %d", lspn, sub, loc, oob.FI, fi)
			}
		}
	}
}

// execMountPlan runs one post-mount maintenance plan against the flash
// (erases and zero-payload parity programs only — mount plans move no host
// data through this path) so model and flash stay in lockstep for the
// invariant re-check.
func execMountPlan(t *testing.T, f *FTL, flash *nand.Flash, build func() Plan) {
	t.Helper()
	now := sim.FromMicroseconds(1)
	ps := f.cfg.Geometry.PageSize
	planes := f.cfg.Geometry.TotalPlanes()
	for _, op := range build().Ops {
		switch op.Kind {
		case OpRead:
			buf := make([]byte, ps)
			if _, err := flash.Read(now, f.Address(op.Loc), buf); err != nil {
				t.Fatalf("mount-plan read %v: %v", op.Loc, err)
			}
		case OpWrite:
			addr := f.Address(op.Loc)
			tag := op.LSPN*int64(planes) + int64(op.Loc.Sub)
			if op.Parity {
				tag = ParityTag
			}
			if _, err := flash.ProgramTagged(now, addr, make([]byte, ps), tag); err != nil {
				t.Fatalf("mount-plan program %v: %v", op.Loc, err)
			}
			if op.Parity {
				flash.SetPageStripe(addr, op.Mask)
			}
		case OpErase:
			for p := 0; p < planes; p++ {
				addr := f.Address(PageLoc{SB: op.SB, Page: 0, Plane: p, Sub: p})
				if _, err := flash.Erase(now, addr); err != nil {
					t.Fatalf("mount-plan erase SB %d plane %d: %v", op.SB, p, err)
				}
			}
		}
	}
}
