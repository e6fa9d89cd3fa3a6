package core_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"amber/internal/config"
	"amber/internal/core"
	"amber/internal/fil"
	"amber/internal/nand"
	"amber/internal/workload"
)

// trajectoryPins holds the FNV-64a of each rendered golden trajectory below
// and in the fault, power-loss, RAIN and snapshot tests. No bench workload
// injects a fault, cuts power, stripes RAIN or restores an image, so these
// are what notices when one of those models moves: a PR that moves one on
// purpose updates its line from the failure message, which prints the
// trajectory and its digest.
var trajectoryPins = map[string]uint64{
	"write-deferred":  0x5d5ae893c093d530,
	"two-stage-fill":  0xa291005f2b65cdaa,
	"fault":           0xee1a8e10a85850aa,
	"power-loss":      0xefbf0b89026ac2e7,
	"power-cut-sweep": 0x3476cd5c1f2cfb13,
	"rain":            0xf6d95daa9cff1978,
	"snapshot-tail":   0xcf1ddc489eb6cfc3,
}

// checkPin fails unless rendered hashes to the digest committed under name.
func checkPin(t *testing.T, name, rendered string) {
	t.Helper()
	h := fnv.New64a()
	h.Write([]byte(rendered))
	if got, want := h.Sum64(), trajectoryPins[name]; got != want {
		t.Fatalf("%s trajectory digest %#x, pinned %#x:\n%s", name, got, want, rendered)
	}
}

// wideSystem builds a TrackData system whose device has many NAND channels.
func wideSystem(t *testing.T) *core.System {
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
	s, err := core.NewSystem(config.PCSystem(d))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// renderRow writes one run's experiment-table row (no per-domain lines)
// into the golden buffer. Its p50 and p95 are histogram percentiles, within
// stats.PercentileBound of the exact samples.
func renderRow(out *bytes.Buffer, name string, res *core.RunResult) {
	fmt.Fprintf(out, "%s | reqs %d depth %d | %d..%d | rd %d wr %d | lat mean %.6f p50 %.6f p95 %.6f max %.6f | events %d\n",
		name, res.Requests, res.Depth, res.Start, res.End, res.BytesRead, res.BytesWritten,
		res.Latency.Mean(), res.Latency.Percentile(50), res.Latency.Percentile(95), res.Latency.Max(),
		res.Events)
}

// renderRun writes one run's experiment-table row and per-domain dispatch
// counts into the golden buffer.
func renderRun(out *bytes.Buffer, name string, res *core.RunResult) {
	renderRow(out, name, res)
	for _, d := range res.DomainEvents {
		if d.Dispatched > 0 {
			fmt.Fprintf(out, "  dom %s dispatched %d pending %d\n", d.Name, d.Dispatched, d.Pending)
		}
	}
}

// flashMatchesFIL checks a stack invariant: the flash counted exactly the
// reads, programs and erases the FIL issued — every transaction is counted
// at issue, on every path, power cuts included.
func flashMatchesFIL(s *core.System) error {
	fl, fs := s.Flash.Stats(), s.FIL.Stats()
	if fl.Reads != fs.Reads || fl.Programs != fs.Programs || fl.Erases != fs.Erases {
		return fmt.Errorf("flash counted %d reads, %d programs, %d erases; the FIL issued %d, %d, %d",
			fl.Reads, fl.Programs, fl.Erases, fs.Reads, fs.Programs, fs.Erases)
	}
	return nil
}

// renderState writes the component statistics — flash counters and energy
// (total and per channel), FTL, ICL, FIL, clock — into the golden buffer,
// after checking flashMatchesFIL. It has no *testing.T to fail (the batch
// golden reaches it through a helper that does not pass one), so a broken
// invariant panics.
func renderState(out *bytes.Buffer, s *core.System) {
	if err := flashMatchesFIL(s); err != nil {
		panic("stack invariant: " + err.Error())
	}
	fs := s.Flash.Stats()
	fmt.Fprintf(out, "flash %+v energy %.18g\n", fs, s.Flash.EnergyJoules())
	for ch := 0; ch < s.Config().Device.Geometry.Channels; ch++ {
		fmt.Fprintf(out, "  ch%d %+v\n", ch, s.Flash.ChannelStats(ch))
	}
	fmt.Fprintf(out, "ftl %+v\n", s.FTL.Stats())
	fmt.Fprintf(out, "icl %+v\n", s.ICL.Stats())
	// CertifiedReads is rendered as zero: the pinned digests were taken that
	// way (the field once differed between two fill modes being compared).
	fst := s.FIL.Stats()
	fst.CertifiedReads = 0
	fmt.Fprintf(out, "fil %+v\n", fst)
	fmt.Fprintf(out, "now %v\n", s.Now())
}

// renderData reads a deterministic sample of payloads back synchronously
// and fingerprints the bytes: the data path must be identical too.
func renderData(t *testing.T, out *bytes.Buffer, s *core.System) {
	t.Helper()
	bs := 4096
	for i := 0; i < 16; i++ {
		off := (int64(i) * 977 * int64(bs)) % (s.VolumeBytes() - int64(bs))
		off -= off % int64(bs)
		buf := make([]byte, bs)
		if _, err := s.Submit(s.Now(), workload.Request{Offset: off, Length: bs}, buf); err != nil {
			t.Fatal(err)
		}
		sum := uint64(0)
		for j, b := range buf {
			sum += uint64(b) * uint64(j+1)
		}
		fmt.Fprintf(out, "data@%d sum %d\n", off, sum)
	}
}

// writeTrajectory is the write-heavy golden trajectory for the program and
// erase path on an engine: GC-triggering random overwrites carrying real
// payload bytes, a second GC wave at a larger block size (multi-sub lines,
// more migrations), then a mixed-read phase that checks the written bytes
// came back, all on one preconditioned system.
func writeTrajectory(t *testing.T, s *core.System) string {
	t.Helper()
	if err := s.Precondition(16); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer

	// Phase 1: 4K random overwrites with payload buffers on the fully
	// mapped volume — programs under GC.
	wgen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(wgen, core.RunConfig{Requests: 500, IODepth: 16, WithData: true})
	if err != nil {
		t.Fatal(err)
	}
	renderRun(&out, "rand-write-4k", res)
	if s.FTL.Stats().GCRuns == 0 {
		t.Fatal("write phase did not trigger GC; the write trajectory must cover GC")
	}

	// Phase 2: larger random writes — whole-line programs plus erase waves.
	w2gen, err := workload.NewFIO(workload.RandWrite, 16384, s.VolumeBytes(), 13)
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.Run(w2gen, core.RunConfig{Requests: 200, IODepth: 16, WithData: true})
	if err != nil {
		t.Fatal(err)
	}
	renderRun(&out, "rand-write-16k", res)
	s.Drain()

	// Phase 3: mixed reads — sequential with payload verification traffic,
	// then random at depth against the rewritten volume.
	rgen, err := workload.NewFIO(workload.SeqRead, 16384, s.VolumeBytes(), 15)
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.Run(rgen, core.RunConfig{Requests: 150, IODepth: 16, WithData: true})
	if err != nil {
		t.Fatal(err)
	}
	renderRun(&out, "seq-read", res)
	rrgen, err := workload.NewFIO(workload.RandRead, 4096, s.VolumeBytes(), 17)
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.Run(rrgen, core.RunConfig{Requests: 200, IODepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	renderRun(&out, "rand-read", res)

	renderState(&out, s)
	renderData(t, &out, s)
	return out.String()
}

// TestWriteDeferredGoldenEquivalence pins the program/erase path on an
// engine: a GC-triggering random-write trajectory with real payloads
// plus a mixed-read phase renders its experiment tables, per-domain dispatch
// counts, component statistics, per-channel counters/energy and payload
// bytes to the committed digest.
func TestWriteDeferredGoldenEquivalence(t *testing.T) {
	checkPin(t, "write-deferred", writeTrajectory(t, wideSystem(t)))
}

// twoStageTrajectory drives a miss-heavy read phase (the fill class staged
// installs target), a GC-triggering write phase with payloads (dirty
// evictions flushing from publish and write-ops events) and a sequential
// read phase (readahead prefetch fills), rendering every observable.
func twoStageTrajectory(t *testing.T, s *core.System) string {
	t.Helper()
	if err := s.Precondition(16); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer

	rrgen, err := workload.NewFIO(workload.RandRead, 4096, s.VolumeBytes(), 31)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(rrgen, core.RunConfig{Requests: 400, IODepth: 16, WithData: true})
	if err != nil {
		t.Fatal(err)
	}
	renderRow(&out, "rand-read-4k", res)

	wgen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 33)
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.Run(wgen, core.RunConfig{Requests: 400, IODepth: 16, WithData: true})
	if err != nil {
		t.Fatal(err)
	}
	renderRow(&out, "rand-write-4k", res)
	if s.FTL.Stats().GCRuns == 0 {
		t.Fatal("write phase did not trigger GC")
	}
	s.Drain()

	sgen, err := workload.NewFIO(workload.SeqRead, 16384, s.VolumeBytes(), 35)
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.Run(sgen, core.RunConfig{Requests: 200, IODepth: 16, WithData: true})
	if err != nil {
		t.Fatal(err)
	}
	renderRow(&out, "seq-read", res)

	renderState(&out, s)
	renderData(t, &out, s)
	return out.String()
}

// TestTwoStageFillGoldenEquivalence pins staged fill installs: a miss-heavy
// read + GC write trajectory renders its component statistics, per-channel
// counters/energy, latencies and payload bytes to the committed digest.
func TestTwoStageFillGoldenEquivalence(t *testing.T) {
	checkPin(t, "two-stage-fill", twoStageTrajectory(t, wideSystem(t)))
}

// TestTwoStageFillBatching verifies the staged structure on a 4K random-read
// miss-heavy workload: flash-backed fills ride the fil.publish domain, and
// the staged reads raise no channel event.
func TestTwoStageFillBatching(t *testing.T) {
	s := wideSystem(t)
	if err := s.Precondition(16); err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewFIO(workload.RandRead, 4096, s.VolumeBytes(), 41)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(gen, core.RunConfig{Requests: 400, IODepth: 16, WithData: true})
	if err != nil {
		t.Fatal(err)
	}
	var published, channels uint64
	for _, d := range res.DomainEvents {
		switch {
		case d.Name == fil.PublishDomain:
			published = d.Dispatched
		case strings.HasPrefix(d.Name, "nand.ch"):
			channels += d.Dispatched
		}
	}
	if published == 0 || channels != 0 {
		t.Fatalf("fills published through %s: %d; channel events: %d", fil.PublishDomain, published, channels)
	}
	// The certified fast path served the trajectory too: every plan executed
	// on an engine skipped the walk (PlanCount also counts Flush's
	// engine-less plans, which CertifiedPlans never counts).
	if fs := s.FIL.Stats(); fs.CertifiedPlans == 0 {
		t.Fatalf("no plan took the certified fast path: %+v", fs)
	}
}

// TestEngineDomainTableStable pins the names and ids of the scheduling
// domains a System registers on a fresh engine. sim.Engine.DomainStats is
// part of every recorded run digest, so a domain added, dropped or reordered
// here moves every digest; this fails first, in milliseconds.
func TestEngineDomainTableStable(t *testing.T) {
	s := wideSystem(t)
	if _, err := s.Submit(0, workload.Request{Write: true, Offset: 0, Length: 4096}, nil); err != nil {
		t.Fatal(err)
	}
	want := []string{"default", "host", "cpu", "icl.dram", "dma", "fil.publish"}
	for ch := 0; ch < s.Config().Device.Geometry.Channels; ch++ {
		want = append(want, nand.ChannelDomain(ch))
	}
	got := s.SubmitEngineDomainStats()
	if len(got) != len(want) {
		t.Fatalf("%d domains registered, want %d: %+v", len(got), len(want), got)
	}
	for i, d := range got {
		if int(d.ID) != i || d.Name != want[i] {
			t.Fatalf("domain %d is {%d %q}, want {%d %q}", i, d.ID, d.Name, i, want[i])
		}
	}
}
