// Faults: run a small SSD to wear-out under deterministic fault injection
// and print the degradation timeline — injected failures, grown-bad-block
// retirements, recovery replans, shrinking spare headroom — until the
// spare reserve runs out and the device latches read-only (writes then
// fail with ftl.ErrReadOnly; reads keep serving).
//
// The schedule is a pure function of the fault seed and the request
// stream: rerunning this program reproduces the same faults at the same
// operations.
package main

import (
	"errors"
	"fmt"
	"log"

	"amber/internal/config"
	"amber/internal/core"
	"amber/internal/ftl"
	"amber/internal/nand"
	"amber/internal/sim"
	"amber/internal/workload"
)

func main() {
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
		log.Fatal(err)
	}
	d.Faults = faults
	d.SpareBlocks = 4

	sys, err := core.NewSystem(config.PCSystem(d))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device: %s, %d MB volume, %d super-blocks, %d spares, fault profile wearout (seed %d)\n",
		sys.Config().Device.Name, sys.VolumeBytes()>>20,
		sys.FTL.UserSuperPages()/16, d.SpareBlocks, faults.Seed)
	if err := sys.Precondition(16); err != nil {
		log.Fatal(err)
	}

	// Hammer the volume with 4K random overwrites in chunks, printing the
	// degradation after each: GC erases age the blocks, wear raises the
	// injected failure rates, failures retire blocks out of the spare
	// reserve, and eventually the reserve runs dry.
	gen, err := workload.NewFIO(workload.RandWrite, 4096, sys.VolumeBytes(), 3)
	if err != nil {
		log.Fatal(err)
	}
	const chunk = 400
	for round := 1; ; round++ {
		res, err := sys.Run(gen, core.RunConfig{Requests: chunk, IODepth: 16})
		if err != nil {
			// A non-degradation error would abort the run; spare
			// exhaustion never does — it surfaces through the result.
			if errors.Is(err, ftl.ErrReadOnly) {
				log.Fatal("unexpected: ErrReadOnly aborted the run instead of degrading it")
			}
			log.Fatal(err)
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
			log.Fatal("device refused to die; raise the fault rates")
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
}

// rainTimeline contrasts read-disturb wear-out across the RAIN policy
// space. Read stress — not program wear — does the damage here: repeat
// reads push blocks past their disturb limit and draws go uncorrectable.
// The bare device surfaces them as failed reads (permanent data loss).
// RAIN reconstructs every one from its stripe — zero failed reads — but
// without a patrol the firmware cannot tell stress from damage, so blocks
// that keep sourcing reconstructions are retired conservatively and the
// spare reserve drains toward the read-only latch. Arming the patrol
// scrub replaces those retirements with refreshes (migrate, erase — the
// erase clears the accumulated stress), deferring the latch.
func rainTimeline() {
	leg := func(rain, scrub bool) {
		d := config.SmallTestDevice()
		d.OPRatio = 0.4
		d.SpareBlocks = 1
		d.Faults = nand.FaultConfig{
			Seed:             21,
			ReadFailProb:     0.04,
			MaxReadRetries:   1,
			ReadDisturbLimit: 512,
			RetentionLimit:   500 * sim.Millisecond,
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
			log.Fatal(err)
		}
		if err := sys.Precondition(16); err != nil {
			log.Fatal(err)
		}
		wgen, err := workload.NewFIO(workload.RandWrite, 4096, sys.VolumeBytes(), 5)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := sys.Run(wgen, core.RunConfig{Requests: 300, IODepth: 8, WithData: true}); err != nil {
			log.Fatal(err)
		}
		rgen, err := workload.NewFIO(workload.RandRead, 4096, sys.VolumeBytes(), 13)
		if err != nil {
			log.Fatal(err)
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
				log.Fatal(err)
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

	fmt.Println("\n=== RAIN vs no-RAIN under read-disturb stress ===")
	leg(false, false)
	leg(true, false)
	leg(true, true)
}
