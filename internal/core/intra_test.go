package core_test

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"amber/internal/config"
	"amber/internal/core"
	"amber/internal/fil"
	"amber/internal/nand"
	"amber/internal/workload"
)

// intraWorkerMatrix returns the worker counts the golden equivalence tests
// compare against the serial reference. CI's race matrix pins one count per
// job via AMBERSIM_INTRA_WORKERS; without the variable, the full {1, 2, 4}
// set runs.
func intraWorkerMatrix(t *testing.T) []int {
	t.Helper()
	if v := os.Getenv("AMBERSIM_INTRA_WORKERS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad AMBERSIM_INTRA_WORKERS %q", v)
		}
		return []int{n}
	}
	return []int{1, 2, 4}
}

// wideSystem builds a TrackData system whose device has many NAND channels,
// the shape intra-device parallelism targets.
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
// into the golden buffer.
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

// renderState writes the component statistics — flash counters and energy
// (total and per channel), FTL, ICL, FIL, clock — into the golden buffer.
func renderState(out *bytes.Buffer, s *core.System) {
	fs := s.Flash.Stats()
	fmt.Fprintf(out, "flash %+v energy %.18g\n", fs, s.Flash.EnergyJoules())
	for ch := 0; ch < s.Config().Device.Geometry.Channels; ch++ {
		fmt.Fprintf(out, "  ch%d %+v\n", ch, s.Flash.ChannelStats(ch))
	}
	fmt.Fprintf(out, "ftl %+v\n", s.FTL.Stats())
	fmt.Fprintf(out, "icl %+v\n", s.ICL.Stats())
	// CertifiedReads counts read fast-path hits — exactly what the fill-mode
	// comparison toggles (legacy installs walk by design), and the one
	// non-semantic fil-counter difference between the modes. Normalize it
	// like the shard-name difference so the trajectory stays comparable.
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

// intraTrajectory drives one system through the GC-triggering write +
// mixed-read trajectory the equivalence test compares, and renders every
// observable — experiment-table rows, per-domain dispatch counts, component
// stats, read-back payloads — into one golden string.
func intraTrajectory(t *testing.T, s *core.System, workers int) string {
	t.Helper()
	if err := s.Precondition(16); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	table := func(name string, res *core.RunResult) {
		renderRun(&out, name, res)
	}

	// Phase 1: random overwrites on the preconditioned (fully mapped)
	// volume — the GC-triggering write workload.
	wgen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(wgen, core.RunConfig{Requests: 400, IODepth: 16, IntraWorkers: workers})
	if err != nil {
		t.Fatal(err)
	}
	table("rand-write", res)
	if s.FTL.Stats().GCRuns == 0 {
		t.Fatal("write phase did not trigger GC; the equivalence must cover a GC-triggering workload")
	}
	s.Drain()

	// Phase 2: sequential reads with payload buffers, so the channels'
	// deferred tracked-data copies are exercised and checked byte-for-byte.
	rgen, err := workload.NewFIO(workload.SeqRead, 16384, s.VolumeBytes(), 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.Run(rgen, core.RunConfig{Requests: 200, IODepth: 16, IntraWorkers: workers, WithData: true})
	if err != nil {
		t.Fatal(err)
	}
	table("seq-read", res)

	// Phase 3: random reads at depth (coalescing, readahead churn).
	rrgen, err := workload.NewFIO(workload.RandRead, 4096, s.VolumeBytes(), 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.Run(rrgen, core.RunConfig{Requests: 300, IODepth: 16, IntraWorkers: workers})
	if err != nil {
		t.Fatal(err)
	}
	table("rand-read", res)

	renderState(&out, s)
	renderData(t, &out, s)
	return out.String()
}

// writeTrajectory is the write-heavy golden trajectory for the deferred
// program/erase path: GC-triggering random overwrites carrying real payload
// bytes, a second GC wave at a larger block size (multi-sub lines, more
// migrations), then a mixed-read phase that checks the written bytes came
// back through the deferred installs, all on one preconditioned system.
func writeTrajectory(t *testing.T, s *core.System, workers int) string {
	t.Helper()
	if err := s.Precondition(16); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer

	// Phase 1: 4K random overwrites with payload buffers on the fully
	// mapped volume — deferred program installs under GC.
	wgen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(wgen, core.RunConfig{Requests: 500, IODepth: 16, IntraWorkers: workers, WithData: true})
	if err != nil {
		t.Fatal(err)
	}
	renderRun(&out, "rand-write-4k", res)
	if s.FTL.Stats().GCRuns == 0 {
		t.Fatal("write phase did not trigger GC; the deferred-write equivalence must cover GC")
	}

	// Phase 2: larger random writes — whole-line programs plus erase waves.
	w2gen, err := workload.NewFIO(workload.RandWrite, 16384, s.VolumeBytes(), 13)
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.Run(w2gen, core.RunConfig{Requests: 200, IODepth: 16, IntraWorkers: workers, WithData: true})
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
	res, err = s.Run(rgen, core.RunConfig{Requests: 150, IODepth: 16, IntraWorkers: workers, WithData: true})
	if err != nil {
		t.Fatal(err)
	}
	renderRun(&out, "seq-read", res)
	rrgen, err := workload.NewFIO(workload.RandRead, 4096, s.VolumeBytes(), 17)
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.Run(rrgen, core.RunConfig{Requests: 200, IODepth: 16, IntraWorkers: workers})
	if err != nil {
		t.Fatal(err)
	}
	renderRun(&out, "rand-read", res)

	renderState(&out, s)
	renderData(t, &out, s)
	return out.String()
}

// TestWriteDeferredGoldenEquivalence is the acceptance bar for deferred
// program/erase bookkeeping and horizon batching: a GC-triggering
// random-write trajectory with real payloads plus a mixed-read phase must
// produce byte-identical experiment tables, per-domain dispatch counts,
// component statistics, per-channel counters/energy and payload bytes at
// every worker count versus the plain serial dispatch. Run under -race
// (with the AMBERSIM_INTRA_WORKERS CI matrix) it also proves the deferred
// installs and clears share nothing across channel shards.
func TestWriteDeferredGoldenEquivalence(t *testing.T) {
	serial := writeTrajectory(t, wideSystem(t), 0)
	if len(serial) == 0 {
		t.Fatal("empty trajectory")
	}
	for _, workers := range intraWorkerMatrix(t) {
		got := writeTrajectory(t, wideSystem(t), workers)
		if got != serial {
			t.Fatalf("workers=%d diverged from serial:\n--- serial ---\n%s--- workers=%d ---\n%s",
				workers, serial, workers, got)
		}
	}
}

// TestIntraParallelGoldenEquivalence is the acceptance bar of the
// horizon-synchronized execution model: a run with IntraWorkers > 1 must
// produce byte-identical experiment tables, per-domain dispatch counts,
// component statistics and payload bytes versus the plain serial dispatch,
// on a multi-channel device and through a GC-triggering write phase. Run
// under -race it also proves the channel shards share nothing.
func TestIntraParallelGoldenEquivalence(t *testing.T) {
	serial := intraTrajectory(t, wideSystem(t), 0)
	parallel := intraTrajectory(t, wideSystem(t), 4)
	if serial != parallel {
		t.Fatalf("intra-parallel run diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
	}
	if len(serial) == 0 {
		t.Fatal("empty trajectory")
	}
}

// twoStageTrajectory drives a miss-heavy read phase (the fill class staged
// installs target), a GC-triggering write phase with payloads (dirty
// evictions flushing from publish and write-ops events) and a sequential
// read phase (readahead prefetch fills), rendering every observable.
func twoStageTrajectory(t *testing.T, s *core.System, workers int) string {
	t.Helper()
	if err := s.Precondition(16); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer

	rrgen, err := workload.NewFIO(workload.RandRead, 4096, s.VolumeBytes(), 31)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(rrgen, core.RunConfig{Requests: 400, IODepth: 16, IntraWorkers: workers, WithData: true})
	if err != nil {
		t.Fatal(err)
	}
	renderRow(&out, "rand-read-4k", res)

	wgen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 33)
	if err != nil {
		t.Fatal(err)
	}
	res, err = s.Run(wgen, core.RunConfig{Requests: 400, IODepth: 16, IntraWorkers: workers, WithData: true})
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
	res, err = s.Run(sgen, core.RunConfig{Requests: 200, IODepth: 16, IntraWorkers: workers, WithData: true})
	if err != nil {
		t.Fatal(err)
	}
	renderRow(&out, "seq-read", res)

	renderState(&out, s)
	renderData(t, &out, s)
	return out.String()
}

// TestTwoStageFillGoldenEquivalence is the acceptance bar for staged fill
// installs and the neutral publish and icl shards: a miss-heavy read + GC
// write trajectory must produce identical component statistics, per-channel
// counters/energy, latencies and payload bytes at every worker count versus
// the serial dispatch. Run under -race (AMBERSIM_INTRA_WORKERS matrix) it
// also proves the batched publish/icl events share nothing with the channel
// shards they batch past.
func TestTwoStageFillGoldenEquivalence(t *testing.T) {
	serial := twoStageTrajectory(t, wideSystem(t), 0)
	if len(serial) == 0 {
		t.Fatal("empty trajectory")
	}
	for _, workers := range intraWorkerMatrix(t) {
		if got := twoStageTrajectory(t, wideSystem(t), workers); got != serial {
			t.Fatalf("workers=%d diverged from serial:\n--- serial ---\n%s--- workers=%d ---\n%s",
				workers, serial, workers, got)
		}
	}
}

// TestTwoStageFillBatching verifies the point of the staged structure: on a
// 4K random-read miss-heavy workload, fill publishes batch past pending
// channel work — every flash-backed fill rides the channel-neutral
// fil.publish shard, none the reserved fil shard, and the drain pays fewer
// barriers than it published fills (a barrier-forcing continuation, the
// structure this replaced, pays at least one each).
func TestTwoStageFillBatching(t *testing.T) {
	s := wideSystem(t)
	if err := s.Precondition(16); err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewFIO(workload.RandRead, 4096, s.VolumeBytes(), 41)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(gen, core.RunConfig{Requests: 400, IODepth: 16, IntraWorkers: 2, WithData: true})
	if err != nil {
		t.Fatal(err)
	}
	var published, reserved uint64
	for _, d := range res.DomainEvents {
		switch d.Name {
		case fil.PublishDomain:
			published = d.Dispatched
		case fil.Domain:
			reserved = d.Dispatched
		}
	}
	if published == 0 || reserved != 0 {
		t.Fatalf("fills published through %s: %d, through %s: %d", fil.PublishDomain, published, fil.Domain, reserved)
	}
	st := res.Intra
	if st.BatchedCross == 0 || st.Barriers() >= published {
		t.Fatalf("publishes did not batch past channel work: %d barriers for %d fills, %+v", st.Barriers(), published, st)
	}
	// The certified fast path served the trajectory too: every deferred
	// plan execution skipped the walk (PlanCount also counts Flush's
	// synchronous Execute plans, which have no walk to skip).
	if fs := s.FIL.Stats(); fs.CertifiedPlans == 0 {
		t.Fatalf("no plan took the certified fast path: %+v", fs)
	}
}

// TestIntraParallelHorizonStats sanity-checks the reported horizon
// structure: windows exist, local events flow through them, and the mean
// local events per horizon is positive.
func TestIntraParallelHorizonStats(t *testing.T) {
	s := wideSystem(t)
	if err := s.Precondition(16); err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewFIO(workload.RandRead, 16384, s.VolumeBytes(), 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(gen, core.RunConfig{Requests: 300, IODepth: 16, IntraWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Intra
	if st.Horizons == 0 || st.LocalEvents == 0 || st.CrossEvents == 0 {
		t.Fatalf("degenerate horizon stats: %+v", st)
	}
	if st.MeanLocalPerHorizon() <= 0 {
		t.Fatalf("MeanLocalPerHorizon = %v", st.MeanLocalPerHorizon())
	}
	// Every window-dispatched event is a nand-channel event and vice versa:
	// the per-domain counters must reconcile with the horizon stats.
	var local uint64
	for _, d := range res.DomainEvents {
		if strings.HasPrefix(d.Name, "nand.ch") {
			local += d.Dispatched
		}
	}
	if local != st.LocalEvents {
		t.Fatalf("per-domain nand dispatches %d != window local events %d", local, st.LocalEvents)
	}
}

// TestEngineDomainTableStable pins the names and ids of the scheduling
// domains a System registers on a fresh engine. sim.Engine.DomainStats is
// part of every recorded run digest, so a domain added, dropped or reordered
// here — the event-less fil shard in particular, which exists only to hold
// its id — moves every digest; this fails first, in milliseconds.
func TestEngineDomainTableStable(t *testing.T) {
	s := wideSystem(t)
	if _, err := s.Submit(0, workload.Request{Write: true, Offset: 0, Length: 4096}, nil); err != nil {
		t.Fatal(err)
	}
	want := []string{"default", "host", "cpu", "icl.dram", "dma", "fil", "fil.publish"}
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
