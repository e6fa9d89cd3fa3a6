package examples_test

import (
	"errors"
	"fmt"

	"amber/internal/config"
	"amber/internal/core"
	"amber/internal/ftl"
	"amber/internal/nand"
	"amber/internal/sim"
	"amber/internal/workload"
)

// Example_faults runs a small SSD to wear-out under deterministic fault
// injection and prints the degradation timeline — injected failures, grown-bad-block
// retirements, recovery replans, shrinking spare headroom — until the
// spare reserve runs out and the device latches read-only (writes then
// fail with ftl.ErrReadOnly; reads keep serving).
//
// The schedule is a pure function of the fault seed and the request
// stream: rerunning this example reproduces the same faults at the same
// operations.
func Example_faults() {
	// A tiny device under the end-of-life fault profile: blocks wear out
	// after ~50 erases, and program/erase/read failure rates climb with
	// each block's erase count.
	d := config.SmallTestDevice()
	d.TrackData = false
	// Generous over-provisioning gives the grown-bad-block machinery room
	// to absorb several retirements before capacity, not the spare budget,
	// would end the device.
	d.OPRatio = 0.4
	faults, err := config.FaultProfile("wearout", 7)
	if err != nil {
		panic(err)
	}
	d.Faults = faults
	d.SpareBlocks = 4

	sys, err := core.NewSystem(config.PCSystem(d))
	if err != nil {
		panic(err)
	}
	fmt.Printf("device: %s, %d MB volume, %d super-blocks, %d spares, fault profile wearout (seed %d)\n",
		sys.Config().Device.Name, sys.VolumeBytes()>>20,
		sys.FTL.UserSuperPages()/16, d.SpareBlocks, faults.Seed)
	if err := sys.Precondition(16); err != nil {
		panic(err)
	}

	// Hammer the volume with 4K random overwrites in chunks, printing the
	// degradation after each: GC erases age the blocks, wear raises the
	// injected failure rates, failures retire blocks out of the spare
	// reserve, and eventually the reserve runs dry.
	gen, err := workload.NewFIO(workload.RandWrite, 4096, sys.VolumeBytes(), 3)
	if err != nil {
		panic(err)
	}
	const chunk = 400
	for round := 1; ; round++ {
		res, err := sys.Run(gen, core.RunConfig{Requests: chunk, IODepth: 16})
		if err != nil {
			// A non-degradation error would abort the run; spare
			// exhaustion never does — it surfaces through the result.
			if errors.Is(err, ftl.ErrReadOnly) {
				panic("unexpected: ErrReadOnly aborted the run instead of degrading it")
			}
			panic(err)
		}
		fst := sys.Flash.FaultStats()
		fs := sys.FTL.Stats()
		fmt.Printf("round %2d: %5d writes (%4d refused)  faults %3dp/%3de/%3du  retries %4d  retired %2d  replans %3d  spare headroom %d\n",
			round, chunk*round, res.FailedWrites,
			fst.ProgramFails, fst.EraseFails, fst.Uncorrectable, fst.ReadRetries,
			fs.Retirements, fs.Replans, sys.FTL.SpareHeadroom())
		if res.ReadOnly {
			fmt.Printf("\nwear-out: spare reserve exhausted after %d retirements (order %v)\n",
				fs.Retirements, sys.FTL.RetiredSuperBlocks())
			break
		}
		if round > 200 {
			panic("device refused to die; raise the fault rates")
		}
	}

	// The device is read-only, not dead: writes fail fast with a sentinel
	// the host can test for, reads still serve every mapped page.
	_, err = sys.Submit(sys.Now(), workload.Request{Write: true, Offset: 0, Length: 4096}, nil)
	fmt.Printf("write after wear-out: %v (errors.Is(ftl.ErrReadOnly) = %v)\n", err, errors.Is(err, ftl.ErrReadOnly))
	if _, err := sys.Submit(sys.Now(), workload.Request{Offset: 0, Length: 4096}, nil); err != nil {
		fmt.Printf("read after wear-out: %v\n", err)
	} else {
		fmt.Println("read after wear-out: still served")
	}

	rainTimeline()

	// Output:
	// device: test-small, 2 MB volume, 9 super-blocks, 4 spares, fault profile wearout (seed 7)
	// round  1:   400 writes (   0 refused)  faults   0p/  0e/  0u  retries    0  retired  0  replans   0  spare headroom 4
	// round  2:   800 writes (   0 refused)  faults   0p/  0e/  0u  retries    0  retired  0  replans   0  spare headroom 4
	// round  3:  1200 writes (   0 refused)  faults   1p/  0e/  0u  retries    0  retired  1  replans   1  spare headroom 3
	// round  4:  1600 writes (   7 refused)  faults   3p/  2e/  0u  retries    1  retired  5  replans   5  spare headroom 0
	//
	// wear-out: spare reserve exhausted after 5 retirements (order [5 7 13 2 9])
	// write after wear-out: core: write of [0,+4096) refused: ftl: device is read-only (grown bad blocks exhausted spare reserve) (errors.Is(ftl.ErrReadOnly) = true)
	// read after wear-out: still served
	//
	// === RAIN vs no-RAIN under read faults ===
	//
	// bare:
	//   round  1:  250 reads (  9 failed)  uncorrectable  14  recon   0  retired 0  scrubs    0  headroom 1
	//   round  2:  500 reads ( 14 failed)  uncorrectable  18  recon   0  retired 0  scrubs    0  headroom 1
	//   round  3:  750 reads ( 19 failed)  uncorrectable  23  recon   0  retired 0  scrubs    0  headroom 1
	//   round  4: 1000 reads ( 28 failed)  uncorrectable  27  recon   0  retired 0  scrubs    0  headroom 1
	//   round  5: 1250 reads ( 39 failed)  uncorrectable  37  recon   0  retired 0  scrubs    0  headroom 1
	//   round  6: 1500 reads ( 53 failed)  uncorrectable  49  recon   0  retired 0  scrubs    0  headroom 1
	//   round  7: 1750 reads ( 55 failed)  uncorrectable  51  recon   0  retired 0  scrubs    0  headroom 1
	//   round  8: 2000 reads ( 64 failed)  uncorrectable  59  recon   0  retired 0  scrubs    0  headroom 1
	//   round  9: 2250 reads ( 78 failed)  uncorrectable  70  recon   0  retired 0  scrubs    0  headroom 1
	//   round 10: 2500 reads ( 89 failed)  uncorrectable  78  recon   0  retired 0  scrubs    0  headroom 1
	//   round 11: 2750 reads ( 99 failed)  uncorrectable  83  recon   0  retired 0  scrubs    0  headroom 1
	//   round 12: 3000 reads (107 failed)  uncorrectable  88  recon   0  retired 0  scrubs    0  headroom 1
	//   => 107 failed reads, 0 reconstructions (0 double faults), 0 retirements, read-only false
	//
	// rain, no scrub:
	//   round  1:  250 reads (  0 failed)  uncorrectable  12  recon  11  retired 2  scrubs    0  headroom 0  READ-ONLY
	//   => 0 failed reads, 11 reconstructions (0 double faults), 2 retirements, read-only true
	//
	// rain+scrub:
	//   round  1:  250 reads (  0 failed)  uncorrectable  12  recon  12  retired 0  scrubs    2  headroom 1
	//   round  2:  500 reads (  0 failed)  uncorrectable  14  recon  14  retired 0  scrubs    2  headroom 1
	//   round  3:  750 reads (  0 failed)  uncorrectable  17  recon  17  retired 0  scrubs    3  headroom 1
	//   round  4: 1000 reads (  0 failed)  uncorrectable  17  recon  17  retired 0  scrubs    3  headroom 1
	//   round  5: 1250 reads (  0 failed)  uncorrectable  17  recon  17  retired 0  scrubs    3  headroom 1
	//   round  6: 1500 reads (  0 failed)  uncorrectable  17  recon  17  retired 0  scrubs    3  headroom 1
	//   round  7: 1750 reads (  0 failed)  uncorrectable  17  recon  17  retired 0  scrubs    3  headroom 1
	//   round  8: 2000 reads (  0 failed)  uncorrectable  17  recon  17  retired 0  scrubs    3  headroom 1
	//   round  9: 2250 reads (  0 failed)  uncorrectable  17  recon  17  retired 0  scrubs    3  headroom 1
	//   round 10: 2500 reads (  0 failed)  uncorrectable  17  recon  17  retired 0  scrubs    3  headroom 1
	//   round 11: 2750 reads (  0 failed)  uncorrectable  17  recon  17  retired 0  scrubs    3  headroom 1
	//   round 12: 3000 reads (  0 failed)  uncorrectable  17  recon  17  retired 0  scrubs    3  headroom 1
	//   => 0 failed reads, 17 reconstructions (0 double faults), 0 retirements, read-only false
}

// rainTimeline contrasts read-fault wear-out across the RAIN policy
// space. Read faults — not program wear — do the damage here: a page whose
// every retry rung fails is uncorrectable until its block is erased. The
// bare device surfaces them as failed reads (permanent data loss). RAIN
// reconstructs them from their stripes, but without a patrol blocks that
// keep sourcing reconstructions are retired conservatively and the spare
// reserve drains toward the read-only latch. Arming the patrol scrub
// replaces those retirements with refreshes (migrate, erase — the erase
// gives the block's pages fresh draws), deferring the latch.
func rainTimeline() {
	leg := func(rain, scrub bool) {
		d := config.SmallTestDevice()
		d.OPRatio = 0.4
		d.SpareBlocks = 1
		d.Faults = nand.FaultConfig{
			Seed:           21,
			ReadFailProb:   0.15,
			MaxReadRetries: 1,
		}
		var scrubEvery sim.Duration
		if rain {
			d.RAINWidth = 3 // 4 planes: 3 data + 1 parity
		}
		if scrub {
			scrubEvery = 2 * sim.Millisecond
		}
		sys, err := core.NewSystem(config.PCSystem(d))
		if err != nil {
			panic(err)
		}
		if err := sys.Precondition(16); err != nil {
			panic(err)
		}
		wgen, err := workload.NewFIO(workload.RandWrite, 4096, sys.VolumeBytes(), 5)
		if err != nil {
			panic(err)
		}
		if _, err := sys.Run(wgen, core.RunConfig{Requests: 300, IODepth: 8, WithData: true}); err != nil {
			panic(err)
		}
		rgen, err := workload.NewFIO(workload.RandRead, 4096, sys.VolumeBytes(), 13)
		if err != nil {
			panic(err)
		}
		name := "bare"
		switch {
		case rain && scrub:
			name = "rain+scrub"
		case rain:
			name = "rain, no scrub"
		}
		fmt.Printf("\n%s:\n", name)
		failed := 0
		for round := 1; round <= 12; round++ {
			res, err := sys.Run(rgen, core.RunConfig{Requests: 250, IODepth: 8, ScrubEvery: scrubEvery})
			if err != nil {
				panic(err)
			}
			failed += res.FailedReads
			fst := sys.Flash.FaultStats()
			fs := sys.FTL.Stats()
			fmt.Printf("  round %2d: %4d reads (%3d failed)  uncorrectable %3d  recon %3d  retired %d  scrubs %4d  headroom %d%s\n",
				round, 250*round, failed, fst.Uncorrectable,
				fs.Reconstructions, fs.Retirements, fs.ScrubRuns, sys.FTL.SpareHeadroom(),
				map[bool]string{true: "  READ-ONLY", false: ""}[sys.FTL.ReadOnly()])
			if sys.FTL.ReadOnly() {
				break
			}
		}
		fs := sys.FTL.Stats()
		fmt.Printf("  => %d failed reads, %d reconstructions (%d double faults), %d retirements, read-only %v\n",
			failed, fs.Reconstructions, fs.DoubleFaults, fs.Retirements, sys.FTL.ReadOnly())
	}

	fmt.Println("\n=== RAIN vs no-RAIN under read faults ===")
	leg(false, false)
	leg(true, false)
	leg(true, true)
}
