package core_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"amber/internal/config"
	"amber/internal/core"
	"amber/internal/nand"
	"amber/internal/sim"
	"amber/internal/workload"
)

// rainSystem builds the faultSystem shape with die-level RAIN armed:
// stripe width 3 over the 16-plane device (each group of 3 data planes
// shares one parity plane), read-disturb and retention accumulation on,
// and probabilities high enough that a read storm draws uncorrectables
// which the stripe reconstructs.
func rainSystem(t *testing.T) *core.System {
	t.Helper()
	d := config.SmallTestDevice()
	d.Geometry = nand.Geometry{
		Channels:           8,
		PackagesPerChannel: 1,
		DiesPerPackage:     1,
		PlanesPerDie:       2,
		BlocksPerPlane:     10,
		PagesPerBlock:      16,
		PageSize:           4096,
	}
	d.OPRatio = 0.4
	d.RAINWidth = 3
	// Read-fault pressure only: program/erase faults retire blocks, and on
	// this RAIN-shrunk geometry the recovery migrations cascade into spare
	// exhaustion before the read storm reconstructs anything (their
	// schedule is TestFaultScheduleGoldenEquivalence's job). Reads draw
	// hard — disturb and retention growth push repeat reads over the
	// uncorrectable threshold mid-storm.
	d.Faults = nand.FaultConfig{
		Seed:             99,
		ReadFailProb:     0.05,
		MaxReadRetries:   1,
		ReadDisturbLimit: 1024,
		RetentionLimit:   500 * sim.Millisecond,
	}
	d.SpareBlocks = 6
	s, err := core.NewSystem(config.PCSystem(d))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// rainTrajectory drives one RAIN-armed faulty system through a GC-heavy
// overwrite storm plus a read storm and renders every observable — run
// rows with failure and reconstruction counters, fault sites, component
// stats, payload fingerprints — into one golden string.
func rainTrajectory(t *testing.T, s *core.System) string {
	t.Helper()
	if err := s.Precondition(16); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer

	// Phase 1: 4K random overwrites — parity rides along every allocation,
	// GC churn draws program and erase faults among parity-striped blocks.
	wgen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(wgen, core.RunConfig{Requests: 600, IODepth: 16, WithData: true})
	if err != nil {
		t.Fatal(err)
	}
	renderFaultRow(&out, "rain-rand-write", res)
	fmt.Fprintf(&out, "  recon %d double %d parity %d\n", res.Reconstructions, res.DoubleFaults, res.ParityWrites)
	if s.FTL.Stats().GCRuns == 0 {
		t.Fatal("write phase did not trigger GC; the RAIN equivalence must cover parity under GC")
	}

	// Phase 2: random reads against the striped volume — uncorrectables
	// draw, each reconstructs deterministically from its stripe peers.
	rgen, err := workload.NewFIO(workload.RandRead, 4096, s.VolumeBytes(), 17)
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.Run(rgen, core.RunConfig{Requests: 400, IODepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	renderFaultRow(&out, "rain-rand-read", res)
	fmt.Fprintf(&out, "  recon %d double %d parity %d\n", res.Reconstructions, res.DoubleFaults, res.ParityWrites)

	renderFaults(&out, s)
	renderState(&out, s)
	renderFaultData(&out, s)
	return out.String()
}

// TestRAINReconstructGoldenEquivalence pins die-level RAIN: a fault-armed
// striped trajectory — parity writes, uncorrectable draws, stripe
// reconstructions, remaps — renders to the committed digest. Reconstruction
// plans are built from the same certified lookups host reads see, so the
// repaired payloads and the post-repair mapping are a property of the op
// sequence alone.
func TestRAINReconstructGoldenEquivalence(t *testing.T) {
	got := rainTrajectory(t, rainSystem(t))

	// The pin is vacuous unless parity was written and stripes actually
	// reconstructed somewhere on the trajectory.
	var totRecon, totParity uint64
	for _, line := range strings.Split(got, "\n") {
		var recon, double, parity uint64
		if _, err := fmt.Sscanf(line, "  recon %d double %d parity %d", &recon, &double, &parity); err == nil {
			totRecon += recon
			totParity += parity
		}
	}
	if totParity == 0 {
		t.Fatalf("trajectory wrote no parity:\n%s", got)
	}
	if totRecon == 0 {
		t.Fatalf("trajectory reconstructed nothing; raise the read-fault pressure:\n%s", got)
	}
	checkPin(t, "rain", got)
}

// TestRAINReconstructFaultPayload proves reconstruction returns the
// originally acknowledged bytes, not plausible garbage: every logical
// block gets a distinct tracked payload, a read storm forces stripe
// reconstructions, and every successful read-back — including the ones
// that went through reconstruction — must match the acknowledged write
// byte-for-byte. Reads lost to double faults surface as errors, never as
// wrong data.
func TestRAINReconstructFaultPayload(t *testing.T) {
	// Read-fault-only error model: program and erase faults off so the
	// whole-volume fill stays clean, a generous spare reserve so the read
	// storm's retirement pressure cannot latch read-only mid-test.
	d := config.SmallTestDevice()
	d.Geometry = nand.Geometry{
		Channels:           8,
		PackagesPerChannel: 1,
		DiesPerPackage:     1,
		PlanesPerDie:       2,
		BlocksPerPlane:     10,
		PagesPerBlock:      16,
		PageSize:           4096,
	}
	d.OPRatio = 0.4
	d.RAINWidth = 3
	d.Faults = nand.FaultConfig{
		Seed:             99,
		ReadFailProb:     0.03,
		MaxReadRetries:   1,
		ReadDisturbLimit: 4096,
	}
	d.SpareBlocks = 6
	s, err := core.NewSystem(config.PCSystem(d))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Precondition(16); err != nil {
		t.Fatal(err)
	}
	bs := 4096
	n := int(s.VolumeBytes() / int64(bs))
	want := make(map[int64][]byte, n)
	for i := 0; i < n; i++ {
		off := int64(i) * int64(bs)
		buf := make([]byte, bs)
		for k := range buf {
			buf[k] = byte(int(off) + k + 7*i)
		}
		if _, err := s.Submit(s.Now(), workload.Request{Write: true, Offset: off, Length: bs}, buf); err != nil {
			t.Fatal(err)
		}
		want[off] = buf
	}
	if _, err := s.Flush(s.Now()); err != nil {
		t.Fatal(err)
	}
	s.Drain()

	// Read the whole volume back several times: repeated reads accumulate
	// disturb, pushing the draw over the uncorrectable line on some pages.
	recon0 := s.FTL.Stats().Reconstructions
	var lost, checked int
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < n; i++ {
			off := int64(i) * int64(bs)
			buf := make([]byte, bs)
			if _, err := s.Submit(s.Now(), workload.Request{Offset: off, Length: bs}, buf); err != nil {
				lost++
				continue
			}
			checked++
			if !bytes.Equal(buf, want[off]) {
				t.Fatalf("pass %d off %d: read-back differs from acknowledged write", pass, off)
			}
		}
	}
	recon := s.FTL.Stats().Reconstructions - recon0
	if recon == 0 {
		t.Fatalf("read storm reconstructed nothing (lost %d, checked %d); raise the fault pressure", lost, checked)
	}
	t.Logf("reconstructions %d, double-fault losses %d, verified reads %d", recon, lost, checked)
}

// TestScrubExtendsReadOnlyHorizon is the patrol scrubber's acceptance
// bar: under identical seeds and identical read-storm pressure, the
// scrubbed device must latch read-only strictly later than the unscrubbed
// one — or not at all. Without a scrubber, blocks under repeated
// reconstruction pressure are retired (each spending a spare) until the
// spare reserve exhausts; the scrubber instead migrates and erases them,
// clearing their disturb and retention stress without burning spares.
func TestScrubExtendsReadOnlyHorizon(t *testing.T) {
	horizon := func(scrub sim.Duration) (segments int, readOnly bool, scrubRuns uint64) {
		d := config.SmallTestDevice()
		d.Geometry = nand.Geometry{
			Channels:           8,
			PackagesPerChannel: 1,
			DiesPerPackage:     1,
			PlanesPerDie:       2,
			BlocksPerPlane:     10,
			PagesPerBlock:      16,
			PageSize:           4096,
		}
		d.OPRatio = 0.4
		d.RAINWidth = 3
		// Pure read-stress wear-out: no program/erase faults, a tight
		// disturb limit, and a tiny spare reserve so retirement pressure
		// latches quickly when nothing relieves the stress.
		d.Faults = nand.FaultConfig{
			Seed:             99,
			ReadFailProb:     0.04,
			MaxReadRetries:   1,
			ReadDisturbLimit: 512,
		}
		d.SpareBlocks = 1
		s, err := core.NewSystem(config.PCSystem(d))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Precondition(16); err != nil {
			t.Fatal(err)
		}
		gen, err := workload.NewFIO(workload.RandRead, 4096, s.VolumeBytes(), 17)
		if err != nil {
			t.Fatal(err)
		}
		const maxSegments = 40
		for segments = 0; segments < maxSegments; segments++ {
			if s.FTL.ReadOnly() {
				break
			}
			if _, err := s.Run(gen, core.RunConfig{Requests: 200, IODepth: 16, ScrubEvery: scrub}); err != nil {
				t.Fatal(err)
			}
		}
		return segments, s.FTL.ReadOnly(), s.FTL.Stats().ScrubRuns
	}

	plainSegs, plainRO, _ := horizon(0)
	if !plainRO {
		t.Fatalf("unscrubbed device never latched read-only in %d segments; raise the read pressure", plainSegs)
	}
	scrubSegs, scrubRO, scrubRuns := horizon(2 * sim.Millisecond)
	if scrubRuns == 0 {
		t.Fatal("scrubber never ran; shorten the cadence")
	}
	if scrubRO && scrubSegs <= plainSegs {
		t.Fatalf("scrub did not extend the read-only horizon: scrubbed latched at segment %d, unscrubbed at %d", scrubSegs, plainSegs)
	}
	t.Logf("unscrubbed read-only after %d segments; scrubbed after %d (read-only %v, %d scrub runs)", plainSegs, scrubSegs, scrubRO, scrubRuns)
}

// TestRAINParityPowerLossFaultRecovery cuts power mid-storm on a striped
// device and proves the parity invariant survives the cut: the mount
// re-emits parity for rows completed right before the cut, and a
// post-mount read storm still reconstructs uncorrectable pages from their
// stripes — durably acknowledged data stays recoverable across the cut.
func TestRAINParityPowerLossFaultRecovery(t *testing.T) {
	s := rainSystem(t)
	if err := s.Precondition(16); err != nil {
		t.Fatal(err)
	}
	wgen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(wgen, core.RunConfig{Requests: 300, IODepth: 16, WithData: true})
	if err != nil {
		t.Fatal(err)
	}

	// Cut a third of the reference span into a second identical storm.
	cut := s.Now() + sim.Time((res.End-res.Start)/3)
	w2gen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 13)
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.Run(w2gen, core.RunConfig{Requests: 600, IODepth: 16, WithData: true, PowerLossAt: cut})
	if err != nil {
		t.Fatal(err)
	}
	if !res.PowerLost {
		t.Fatalf("cut at %v did not fire (run ended %v)", cut, res.End)
	}
	if res.PowerLoss.Flash.InFlight == 0 {
		t.Fatal("cut caught no in-flight programs; move it deeper into the storm")
	}
	t.Logf("mount: %d mappings recovered, %d parity pages seen, %d parity re-emitted",
		res.Mount.RecoveredSubs, res.Mount.ParityPages, res.Mount.ParityReemitted)
	if res.Mount.ParityPages == 0 {
		t.Fatal("mount scan saw no parity pages on a striped device")
	}

	// The remounted device still reconstructs: a read storm against the
	// recovered mapping must turn its uncorrectable draws into stripe
	// repairs, not data loss.
	recon0 := s.FTL.Stats().Reconstructions
	rgen, err := workload.NewFIO(workload.RandRead, 4096, s.VolumeBytes(), 17)
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.Run(rgen, core.RunConfig{Requests: 400, IODepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.FTL.Stats().Reconstructions - recon0; got == 0 {
		t.Fatalf("post-mount read storm reconstructed nothing (failed reads %d); parity did not survive the cut", res.FailedReads)
	}
}
