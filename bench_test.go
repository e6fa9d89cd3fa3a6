// Package amber's root bench suite regenerates every table and figure of
// the paper's evaluation (one benchmark per table/figure of §V)
// plus ablation benches for the §IV-C design choices, and holds the
// microbenchmarks with no end-to-end workload of their own yet: the engine
// hot loop (on the synthetic loop defined and tested at the end of this
// file), the submit paths, the read-miss path through Run, and snapshot +
// restore against preconditioning. Run with:
//
//	go test -bench=. -benchmem
//
// Each figure benchmark executes its experiment at full resolution, the
// only configuration, serially, and reports the simulator's wall-clock cost;
// the printed tables themselves come from cmd/amberbench, and end-to-end
// host speed from bench/.
package amber_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"amber/internal/config"
	"amber/internal/core"
	"amber/internal/exp"
	"amber/internal/fil"
	"amber/internal/ftl"
	"amber/internal/refdata"
	"amber/internal/sim"
	"amber/internal/workload"
)

// benchExperiment runs the experiment exp.All lists under id, as
// amberbench -only does. Each iteration takes a fresh All, so the figures
// that read the shared microbenchmark sweep compute their own points.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var t *exp.Table
		var err error
		for _, e := range exp.All() {
			if e.ID == id {
				t, err = e.Run(exp.Options{})
			}
		}
		if err != nil {
			b.Fatal(err)
		}
		if t == nil || len(t.Rows) == 0 {
			b.Fatalf("experiment %s produced no rows", id)
		}
	}
}

func BenchmarkTableI_Config(b *testing.B)                    { benchExperiment(b, "table1") }
func BenchmarkFigure3_BaselineBandwidth(b *testing.B)        { benchExperiment(b, "fig3") }
func BenchmarkFigure4_BaselineLatency(b *testing.B)          { benchExperiment(b, "fig4") }
func BenchmarkFigure8_ValidationBandwidth(b *testing.B)      { benchExperiment(b, "fig8") }
func BenchmarkFigure9_ValidationLatency(b *testing.B)        { benchExperiment(b, "fig9") }
func BenchmarkFigure10_BlockSize(b *testing.B)               { benchExperiment(b, "fig10") }
func BenchmarkFigure11_OverProvisioning(b *testing.B)        { benchExperiment(b, "fig11") }
func BenchmarkFigure12_OSImpact(b *testing.B)                { benchExperiment(b, "fig12") }
func BenchmarkFigure13a_MobileVsPC(b *testing.B)             { benchExperiment(b, "fig13a") }
func BenchmarkFigure13b_PowerBreakdown(b *testing.B)         { benchExperiment(b, "fig13b") }
func BenchmarkFigure13c_InstructionBreakdown(b *testing.B)   { benchExperiment(b, "fig13c") }
func BenchmarkFigure14_CPUFrequency(b *testing.B)            { benchExperiment(b, "fig14") }
func BenchmarkFigure15a_ActivePassiveBandwidth(b *testing.B) { benchExperiment(b, "fig15a") }
func BenchmarkFigure15b_KernelCPU(b *testing.B)              { benchExperiment(b, "fig15b") }
func BenchmarkFigure15c_DRAMUsage(b *testing.B)              { benchExperiment(b, "fig15c") }
func BenchmarkFigure16_SimSpeed(b *testing.B)                { benchExperiment(b, "fig16") }
func BenchmarkTableIV_Features(b *testing.B)                 { benchExperiment(b, "table4") }

// ablationBandwidth measures 4K random-read or write bandwidth for a
// mutated device configuration — the harness for the §IV-C design-choice
// ablations.
func ablationBandwidth(b *testing.B, pattern workload.Pattern, mutate func(*core.DeviceConfig)) float64 {
	b.Helper()
	d, err := config.Device("intel750")
	if err != nil {
		b.Fatal(err)
	}
	if mutate != nil {
		mutate(&d)
	}
	s, err := core.NewSystem(config.PCSystem(d))
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Precondition(32); err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewFIO(pattern, 4096, s.VolumeBytes(), 5)
	if err != nil {
		b.Fatal(err)
	}
	res, err := s.Run(gen, core.RunConfig{Requests: 1500, IODepth: 32})
	if err != nil {
		b.Fatal(err)
	}
	return res.BandwidthMBps()
}

// BenchmarkAblation_NoReadahead quantifies §IV-C's parallelism-aware
// readahead: sequential-read bandwidth with and without it.
func BenchmarkAblation_NoReadahead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := ablationBandwidth(b, workload.SeqRead, nil)
		without := ablationBandwidth(b, workload.SeqRead, func(d *core.DeviceConfig) {
			d.ReadaheadThreshold = 0
			d.ReadaheadLines = 0
		})
		b.ReportMetric(with/without, "readahead-speedup")
	}
}

// BenchmarkAblation_NoPartialUpdate quantifies §IV-C's super-page hashmap:
// random-write bandwidth with partial updates vs read-modify-write.
func BenchmarkAblation_NoPartialUpdate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := ablationBandwidth(b, workload.RandWrite, nil)
		without := ablationBandwidth(b, workload.RandWrite, func(d *core.DeviceConfig) {
			d.PartialUpdate = false
		})
		b.ReportMetric(with/without, "partial-update-speedup")
	}
}

// BenchmarkAblation_NoComputationComplex shows what omitting the embedded
// cores does to the curve: with a near-infinite-speed computation complex
// the firmware becomes free, reproducing the baseline-simulator optimism
// the paper criticizes.
func BenchmarkAblation_NoComputationComplex(b *testing.B) {
	for i := 0; i < b.N; i++ {
		real := ablationBandwidth(b, workload.RandRead, nil)
		ideal := ablationBandwidth(b, workload.RandRead, func(d *core.DeviceConfig) {
			d.CPU.FrequencyMHz = 1e6 // effectively free firmware
		})
		b.ReportMetric(ideal/real, "firmware-cost-factor")
	}
}

// BenchmarkEngineHotLoop measures raw engine throughput under
// schedule/step churn at a pending-event population of the size the
// bench-shaped runs hold (hotLoop below), the events labelled across the
// Intel 750 preset's scheduling domains.
func BenchmarkEngineHotLoop(b *testing.B) {
	h := newHotLoop(hotLoopDomains)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.op()
	}
	b.StopTimer()
	h.e.Run()
}

// BenchmarkSubmitPath measures the raw simulator throughput of the full
// I/O path (requests simulated per second of wall clock).
func BenchmarkSubmitPath(b *testing.B) {
	d := config.SmallTestDevice()
	d.TrackData = false
	s, err := core.NewSystem(config.PCSystem(d))
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := gen.Next(i)
		if _, err := s.Submit(s.Now(), req, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// bench750 builds bench/'s device of that name — the Table I geometry with 12
// blocks per plane, no payload bytes — on the PC platform and preconditions it
// at queue depth 32, as every workload there does.
func bench750(tb testing.TB) *core.System {
	tb.Helper()
	d := config.Intel750()
	d.Geometry.BlocksPerPlane = 12
	d.TrackData = false
	s, err := core.NewSystem(config.PCSystem(d))
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Precondition(32); err != nil {
		tb.Fatal(err)
	}
	return s
}

// BenchmarkRunReadMiss is bench/'s randread4k_miss as a microbenchmark: 4 KiB
// random reads over the whole volume of the Table I geometry with 12 blocks
// per plane (bench750), preconditioned and warmed, through one closed-loop
// Run at queue depth 32. Nearly every read misses the ICL, so ns/op is the
// miss path end to end — FTL lookup, staged flash read, fill, DMA — and
// allocs/op is Run's per-request cost, which rounds to zero.
func BenchmarkRunReadMiss(b *testing.B) {
	s := bench750(b)
	gen, err := workload.NewFIO(workload.RandRead, 4096, s.VolumeBytes(), 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Run(gen, core.RunConfig{Requests: 20000, IODepth: 32}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	res, err := s.Run(gen, core.RunConfig{Requests: b.N, IODepth: 32})
	if err != nil {
		b.Fatal(err)
	}
	if res.FailedReads > 0 {
		b.Fatalf("%d of %d reads failed", res.FailedReads, b.N)
	}
}

// BenchmarkRunRandWriteGC is bench/'s randwrite4k_gc as a microbenchmark:
// 4 KiB random overwrites of bench750, preconditioned and warmed by 20 000
// writes so that the FTL runs at its steady-state GC, through one
// closed-loop Run at queue depth 32. ns/op is the write path end to end —
// ICL eviction, FTL planning, FIL execution, flash programs and erases —
// with the GC storms that compact the volume in one plan included.
func BenchmarkRunRandWriteGC(b *testing.B) {
	s := bench750(b)
	gen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Run(gen, core.RunConfig{Requests: 20000, IODepth: 32}); err != nil {
		b.Fatal(err)
	}
	s.Drain()
	b.ReportAllocs()
	b.ResetTimer()
	res, err := s.Run(gen, core.RunConfig{Requests: b.N, IODepth: 32})
	if err != nil {
		b.Fatal(err)
	}
	if res.FailedWrites > 0 {
		b.Fatalf("%d of %d writes failed", res.FailedWrites, b.N)
	}
}

// cachedRead750 is bench/'s hotread4k_cached up to its timed section: bench750,
// then the leading 256 MiB of the volume read once line by line at queue
// depth 32, so that every 4 KiB random read of the returned stream hits the
// ICL and the flash stays idle.
func cachedRead750(tb testing.TB, seed uint64) (*core.System, workload.Generator) {
	tb.Helper()
	s := bench750(tb)
	line := int64(s.Split.LineBytes())
	span := int64(256<<20) / line * line
	pre, err := workload.NewFIO(workload.SeqRead, int(line), span, seed)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Run(pre, core.RunConfig{Requests: int(span / line), IODepth: 32}); err != nil {
		tb.Fatal(err)
	}
	s.Drain()
	gen, err := workload.NewFIO(workload.RandRead, 4096, span, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return s, gen
}

// BenchmarkRunCachedRead is bench/'s hotread4k_cached as a microbenchmark:
// what a request costs when nothing below the cache runs — kernel submit and
// ISR, HIL parse and completion, the ICL probe, one DRAM access, the payload
// DMA and four engine events. allocs/op is Run's per-request cost, zero.
func BenchmarkRunCachedRead(b *testing.B) {
	s, gen := cachedRead750(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	res, err := s.Run(gen, core.RunConfig{Requests: b.N, IODepth: 32})
	if err != nil {
		b.Fatal(err)
	}
	if res.FailedReads > 0 {
		b.Fatalf("%d of %d reads failed", res.FailedReads, b.N)
	}
}

// BenchmarkPrecondition is the set-up every figure of the suite pays before it
// measures anything, and validate_sweep's setup_s as a microbenchmark: build
// each of the four reference devices and fill its whole volume at queue
// depth 32. One op is all four, construction included.
func BenchmarkPrecondition(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, name := range refdata.DeviceNames() {
			d, err := config.Device(name)
			if err != nil {
				b.Fatal(err)
			}
			s, err := core.NewSystem(config.PCSystem(d))
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Precondition(32); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSubmitPathData is BenchmarkSubmitPath with real payload bytes:
// 8 KiB (one sub-page) random writes on the Table I Intel 750 geometry —
// 120 sub-pages per 960 KiB cache line — behind a 16-line cache, so nearly
// every write evicts. B/op is the figure to watch: the payload datapath
// must not allocate, zero or copy by the line.
func BenchmarkSubmitPathData(b *testing.B) {
	const bs = 8192
	d := config.Intel750()
	d.Geometry.BlocksPerPlane = 4
	d.Geometry.PagesPerBlock = 32
	d.CacheLines = 16
	d.TrackData = true
	s, err := core.NewSystem(config.PCSystem(d))
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Precondition(32); err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewFIO(workload.RandWrite, bs, s.VolumeBytes(), 1)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, bs)
	for i := range buf {
		buf[i] = byte(i*7 + 1)
	}
	b.SetBytes(bs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Submit(s.Now(), gen.Next(i), buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubmitBatch measures the same stream through the vectored
// SubmitBatch API: identical simulated results to the Submit loop above
// (core's golden equivalence test), with per-request constants amortized
// across queue-depth windows.
func BenchmarkSubmitBatch(b *testing.B) {
	d := config.SmallTestDevice()
	d.TrackData = false
	s, err := core.NewSystem(config.PCSystem(d))
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 1)
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]workload.Request, b.N)
	for i := range reqs {
		reqs[i] = gen.Next(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := s.SubmitBatch(s.Now(), reqs, nil, nil); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSnapshotRestore times imaging a steady-state device and restoring
// the image into a fresh system (continuing byte-identically is core's
// TestSnapshotRestoreGoldenEquivalence); precondition-ns is the one-off wall
// time of the preconditioning a restore replaces.
func BenchmarkSnapshotRestore(b *testing.B) {
	cfg := config.PCSystem(config.SmallTestDevice())
	s, err := core.NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	start := time.Now()
	if err := s.Precondition(16); err != nil {
		b.Fatal(err)
	}
	precondition := time.Since(start)
	gen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Run(gen, core.RunConfig{Requests: 500, IODepth: 16, WithData: true}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, err := s.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		r, err := core.NewSystem(cfg)
		if err == nil {
			err = r.Restore(img)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(precondition.Nanoseconds()), "precondition-ns")
}

// hotLoopDepth is the steady event population the hot loop churns at, set
// from what bench/'s workloads keep queued on bench750 at depth 32 (counted
// at every dispatch, PR 24): 32 on hotread4k_cached, a mean of 156 on
// randwrite4k_gc, 167 on randread4k_miss and 322 on mixed_msnfs, whose peak
// is 1 396. Since flash transactions are counted at issue those three keep
// far fewer queued — means of 32, 33 and 35, peaks of 32, 41 and 48 — so the
// depth is now a stress size above every bench workload rather than their
// level. hotLoopDomains is how many labels the population is spread over:
// the Intel 750 preset's 12 NAND channels plus host, cpu, icl.dram and dma
// (16 with the default domain). Labels do not change what the queue does;
// the tests below hold the loop to that.
const (
	hotLoopDepth   = 256
	hotLoopDomains = 16
)

// hotLoop is one prepared schedule/step churn run over a fresh engine, its
// event population labelled across a configurable number of scheduling
// domains.
type hotLoop struct {
	e    *sim.Engine
	doms []sim.DomainID
	fn   func()
	i    int
}

// newHotLoop builds an engine with the given number of domains and fills it
// to hotLoopDepth pending events.
func newHotLoop(domains int) *hotLoop {
	h := &hotLoop{e: sim.NewEngine(), fn: func() {}}
	h.doms = make([]sim.DomainID, domains)
	h.doms[0] = sim.DefaultDomain
	for i := 1; i < domains; i++ {
		h.doms[i] = h.e.Domain(fmt.Sprintf("dom%d", i))
	}
	for i := 0; i < hotLoopDepth; i++ {
		h.e.ScheduleIn(h.doms[i%domains], sim.Duration(i%977), h.fn)
	}
	return h
}

// op runs one churn iteration: a schedule and one dispatch — queue depth
// stays at hotLoopDepth.
func (h *hotLoop) op() {
	h.e.ScheduleIn(h.doms[h.i%len(h.doms)], sim.Duration(500+h.i%977), h.fn)
	h.e.Step()
	h.i++
}

// TestHotLoopAllocFree asserts the harness's core property: after warmup
// the schedule/step churn performs zero allocations per op, however many
// domains label the events.
func TestHotLoopAllocFree(t *testing.T) {
	for _, domains := range []int{1, 4, hotLoopDomains} {
		h := newHotLoop(domains)
		for i := 0; i < 5000; i++ { // reach the steady heap size
			h.op()
		}
		if allocs := testing.AllocsPerRun(200, h.op); allocs != 0 {
			t.Errorf("domains=%d: %v allocs/op, want 0", domains, allocs)
		}
		h.e.Run()
	}
}

// TestHotLoopStableEventCounts asserts the churn schedule is domain-count
// invariant: the same op sequence dispatches exactly the same number of
// events whether the population carries one label or the device's sixteen,
// and drains to an empty engine either way.
func TestHotLoopStableEventCounts(t *testing.T) {
	const ops = 20000
	var want uint64
	for i, domains := range []int{1, 2, 4, hotLoopDomains} {
		h := newHotLoop(domains)
		for j := 0; j < ops; j++ {
			h.op()
		}
		h.e.Run()
		if h.e.Pending() != 0 {
			t.Fatalf("domains=%d: %d events left after drain", domains, h.e.Pending())
		}
		got := h.e.Dispatched()
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("domains=%d dispatched %d events, want %d (domain count must not change semantics)", domains, got, want)
		}
	}
	if want == 0 {
		t.Fatal("degenerate run: nothing dispatched")
	}
}

// gcProbe reads the FTL's collection counters every time the closed loop asks
// for its next request and records each step they took: the request it was
// seen at, the collects and the sub-pages migrated. A collection storm runs
// inside one FTL.Write, so it shows up whole between two requests.
type gcProbe struct {
	workload.Generator
	ftl    *ftl.FTL
	seen   ftl.Stats
	storms []gcStorm
}

type gcStorm struct{ request, collects, migrated int }

func (g *gcProbe) Next(i int) workload.Request {
	if st := g.ftl.Stats(); st.GCRuns != g.seen.GCRuns {
		g.storms = append(g.storms, gcStorm{i, int(st.GCRuns - g.seen.GCRuns), int(st.GCMigrated - g.seen.GCMigrated)})
		g.seen = st
	}
	return g.Generator.Next(i)
}

// checkFlashMatchesFIL holds every work gate to a stack invariant: the flash
// counted exactly the reads, programs and erases the FIL issued. Every flash
// transaction is counted when it is issued, on every path.
func checkFlashMatchesFIL(t *testing.T, s *core.System) {
	t.Helper()
	fl, fs := s.Flash.Stats(), s.FIL.Stats()
	if fl.Reads != fs.Reads || fl.Programs != fs.Programs || fl.Erases != fs.Erases {
		t.Errorf("flash counted %d reads, %d programs, %d erases; the FIL issued %d, %d, %d",
			fl.Reads, fl.Programs, fl.Erases, fs.Reads, fs.Programs, fs.Erases)
	}
}

// TestWorkGateGCStorm pins the work behind bench/'s randwrite4k_gc — its
// device, stream, seed and depth — in counts that repeat exactly, so a change
// in how much garbage collection the workload does fails here whatever the
// wall clock says.
//
// What it pins is a MODEL finding, not a goal: collection arrives as a storm.
// The volume is 147 360 sub-pages, 9.6 of the device's 12 super-blocks. The
// collection loop starts when two or fewer super-blocks are free and goes on
// until three are, which 9.6 super-blocks of valid data beside an open one
// never allow, so it stops only when every super-block left is fully valid:
// ONE write migrates the whole volume, in one ~295 000-op plan, every time
// the open super-block fills (about 15 600 requests). That is where the
// workload's write amplification of 11 and its multi-second p99.9 come from.
// ROADMAP item 3(vi) is to flip these numbers on purpose.
func TestWorkGateGCStorm(t *testing.T) {
	s := bench750(t)
	gen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 11)
	if err != nil {
		t.Fatal(err)
	}
	volume := int(s.FTL.UserSuperPages()) * s.FTL.SubPagesPerSuperPage()
	if volume != 147360 {
		t.Fatalf("volume is %d sub-pages, want 147360", volume)
	}
	probe := &gcProbe{Generator: gen, ftl: s.FTL, seen: s.FTL.Stats()}
	if _, err := s.Run(probe, core.RunConfig{Requests: 40000, IODepth: 32}); err != nil {
		t.Fatal(err)
	}
	want := []gcStorm{
		{request: 8360, collects: 10, migrated: volume},
		{request: 8360 + 15487, collects: 11, migrated: volume},
		{request: 8360 + 15487 + 15637, collects: 11, migrated: volume},
	}
	if !slices.Equal(probe.storms, want) {
		t.Fatalf("collection steps (request seen at, collects, sub-pages migrated)\n got %v\nwant %v", probe.storms, want)
	}
	checkFlashMatchesFIL(t, s)
}

// TestWorkGateCachedRead pins the work behind bench/'s hotread4k_cached — its
// device, pre-read span, stream, seed and depth — in counts that repeat
// exactly per seed: what the cost model charges a request that hits the
// cache, module by module, and how many events, DRAM accesses and DMA
// descriptors carry it. The wall clock on a shared box cannot resolve a few
// per cent; these move by one instruction.
func TestWorkGateCachedRead(t *testing.T) {
	s, gen := cachedRead750(t, 11)
	const n = 20000
	type counts struct {
		dev, hil, icl, hilComplete, host uint64
		dram, descriptors, hits, misses  uint64
	}
	read := func() counts {
		dr, ic := s.DevDRAM.Stats(), s.ICL.Stats()
		return counts{
			dev:         s.DevCPU.Instructions().Total(),
			hil:         s.DevCPU.ModuleInstructions("hil").Total(),
			icl:         s.DevCPU.ModuleInstructions("icl").Total(),
			hilComplete: s.DevCPU.ModuleInstructions("hil.complete").Total(),
			host:        s.Host.CPU.Instructions().Total(),
			dram:        dr.Reads + dr.Writes,
			descriptors: s.DMA.Stats().Descriptors,
			hits:        ic.ReadSubHits,
			misses:      ic.ReadSubMisses,
		}
	}
	before := read()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, err := s.Run(gen, core.RunConfig{Requests: n, IODepth: 32})
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	after := read()
	got := counts{
		dev: after.dev - before.dev, hil: after.hil - before.hil, icl: after.icl - before.icl,
		hilComplete: after.hilComplete - before.hilComplete, host: after.host - before.host,
		dram: after.dram - before.dram, descriptors: after.descriptors - before.descriptors,
		hits: after.hits - before.hits, misses: after.misses - before.misses,
	}
	// Per request: hil = doorbell 520 + NVMe parse 420, icl = one lookup 160,
	// hil.complete 300 — 1 400 device instructions and nothing under ftl or
	// fil; host = submit 9 000 + BFQ 17 000 (a random stream never merges)
	// + ISR 7 000; one DRAM read of the sub-page and one DMA descriptor.
	want := counts{
		dev: 1400 * n, hil: 940 * n, icl: 160 * n, hilComplete: 300 * n, host: 33000 * n,
		dram: n, descriptors: n, hits: n, misses: 0,
	}
	if got != want {
		t.Errorf("work of %d cached reads\n got %+v\nwant %+v", n, got, want)
	}
	// Four events a request (issue, parse done, payload DMA, completion) and
	// one to start each of the 32 jobs.
	if wantEvents := uint64(4*n + 32); res.Events != wantEvents {
		t.Errorf("engine events %d, want %d", res.Events, wantEvents)
	}
	if res.FailedReads != 0 {
		t.Errorf("%d reads failed", res.FailedReads)
	}
	// Run allocates per run (its jobs, the latency samples' growth), not per
	// request.
	if allocs := m1.Mallocs - m0.Mallocs; allocs > n/100 {
		t.Errorf("%d allocations over %d requests, want none per request", allocs, n)
	}
	checkFlashMatchesFIL(t, s)
}

// TestWorkGateReadMiss pins the work behind bench/'s randread4k_miss — its
// device, stream, seed, warm-up and depth — in counts that repeat exactly per
// seed: the events that carry a 4 KiB read the cache misses, by scheduling
// domain, and the flash reads, DRAM accesses and DMA descriptors behind it.
// The dispatch loop under these counts is the only one there is; a change to
// it that dispatches one event more or fewer fails here.
func TestWorkGateReadMiss(t *testing.T) {
	s := bench750(t)
	gen, err := workload.NewFIO(workload.RandRead, 4096, s.VolumeBytes(), 11)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	if _, err := s.Run(gen, core.RunConfig{Requests: n, IODepth: 32}); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	type counts struct {
		events, host, cpu, dma, publish, nand uint64
		flashReads, dram, descriptors         uint64
		hits, misses                          uint64
	}
	read := func() counts {
		dr, ic := s.DevDRAM.Stats(), s.ICL.Stats()
		return counts{
			flashReads:  s.Flash.Stats().Reads,
			dram:        dr.Reads + dr.Writes,
			descriptors: s.DMA.Stats().Descriptors,
			hits:        ic.ReadSubHits,
			misses:      ic.ReadSubMisses,
		}
	}
	before := read()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, err := s.Run(gen, core.RunConfig{Requests: n, IODepth: 32})
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	after := read()
	got := counts{
		events:     res.Events,
		flashReads: after.flashReads - before.flashReads, dram: after.dram - before.dram,
		descriptors: after.descriptors - before.descriptors,
		hits:        after.hits - before.hits, misses: after.misses - before.misses,
	}
	var other uint64
	for _, d := range res.DomainEvents {
		switch {
		case d.Name == "host":
			got.host = d.Dispatched
		case d.Name == "cpu":
			got.cpu = d.Dispatched
		case d.Name == "dma":
			got.dma = d.Dispatched
		case d.Name == fil.PublishDomain:
			got.publish = d.Dispatched
		case strings.HasPrefix(d.Name, "nand.ch"):
			got.nand += d.Dispatched
		default:
			other += d.Dispatched
		}
	}
	// Per request: issue and completion on host (plus one event to start each
	// of the 32 jobs), one parse on cpu, one payload DMA; a fill publish for
	// every request that did not coalesce onto a fill in flight; and a flash
	// read for every sub-page fetched, the missed ones and their read-ahead —
	// counted at issue, with no channel event.
	want := counts{
		events: 99571, host: 2*n + 32, cpu: n, dma: n, publish: 19539, nand: 0,
		flashReads: 64283, dram: 20376, descriptors: n, hits: 837, misses: 19182,
	}
	if got != want {
		t.Errorf("work of %d missed reads\n got %+v\nwant %+v", n, got, want)
	}
	if other != 0 {
		t.Errorf("%d events outside host, cpu, dma, %s and the channels", other, fil.PublishDomain)
	}
	if res.FailedReads != 0 {
		t.Errorf("%d reads failed", res.FailedReads)
	}
	// Run allocates per run (its jobs and engine, the latency samples'
	// growth: a few hundred here), not per request.
	if allocs := m1.Mallocs - m0.Mallocs; allocs > n/10 {
		t.Errorf("%d allocations over %d requests, want none per request", allocs, n)
	}
	checkFlashMatchesFIL(t, s)
}

// TestWorkGateMixedMSNFS pins the work behind bench/'s mixed_msnfs — its
// device, trace, seed, warm-up and depth — in counts that repeat exactly per
// seed: the only bench-shaped workload where reads that miss, multi-line
// requests, write-backs and collection share one queue, so every scheduling
// domain that carries events carries some here. The counts by domain are the
// in-tree proof that the engine's queue fires the same events from the same
// domains whatever holds them.
func TestWorkGateMixedMSNFS(t *testing.T) {
	s := bench750(t)
	gen, err := workload.NewTrace(workload.TraceMSNFS, s.VolumeBytes(), 11)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	if _, err := s.Run(gen, core.RunConfig{Requests: 20032, IODepth: 32}); err != nil { // bench's warm-up: 20 000 rounded up to 64
		t.Fatal(err)
	}
	s.Drain()
	type counts struct {
		events, host, cpu, iclDRAM, dma, publish, nand uint64
		flashReads, flashPrograms, collects, migrated  uint64
		dram, descriptors, hits, misses                uint64
	}
	read := func() counts {
		fl, ft, dr, ic := s.Flash.Stats(), s.FTL.Stats(), s.DevDRAM.Stats(), s.ICL.Stats()
		return counts{
			flashReads: fl.Reads, flashPrograms: fl.Programs,
			collects: ft.GCRuns, migrated: ft.GCMigrated,
			dram:        dr.Reads + dr.Writes,
			descriptors: s.DMA.Stats().Descriptors,
			hits:        ic.ReadSubHits,
			misses:      ic.ReadSubMisses,
		}
	}
	before := read()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, err := s.Run(gen, core.RunConfig{Requests: n, IODepth: 32})
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	after := read()
	got := counts{
		events:     res.Events,
		flashReads: after.flashReads - before.flashReads, flashPrograms: after.flashPrograms - before.flashPrograms,
		collects: after.collects - before.collects, migrated: after.migrated - before.migrated,
		dram: after.dram - before.dram, descriptors: after.descriptors - before.descriptors,
		hits: after.hits - before.hits, misses: after.misses - before.misses,
	}
	var other uint64
	for _, d := range res.DomainEvents {
		switch {
		case d.Name == "host":
			got.host = d.Dispatched
		case d.Name == "cpu":
			got.cpu = d.Dispatched
		case d.Name == "icl.dram":
			got.iclDRAM = d.Dispatched
		case d.Name == "dma":
			got.dma = d.Dispatched
		case d.Name == fil.PublishDomain:
			got.publish = d.Dispatched
		case strings.HasPrefix(d.Name, "nand.ch"):
			got.nand += d.Dispatched
		default:
			other += d.Dispatched
		}
	}
	// Per request: issue and completion on host (plus one event to start each
	// of the 32 jobs) and one parse on cpu. A read's payload leaves by one dma
	// event (13 432 reads), a write's lands in the cache by one icl.dram event
	// (6 568 writes); a fill publish for every read that did not coalesce onto
	// a fill in flight. Flash reads, programs and erases are counted at issue
	// and raise no channel event on this timing-only device. One collection
	// storm falls inside the window: 11
	// collects that migrate the whole 147 360 sub-page volume (see
	// TestWorkGateGCStorm), which is most of the flash reads and programs.
	want := counts{
		events: 93268, host: 2*n + 32, cpu: n, iclDRAM: 6568, dma: 13432, publish: 13236, nand: 0,
		flashReads: 269909, flashPrograms: 159881, collects: 11, migrated: 147360,
		dram: 21192, descriptors: 54696, hits: 2241, misses: 22678,
	}
	if got != want {
		t.Errorf("work of %d trace requests\n got %+v\nwant %+v", n, got, want)
	}
	if other != 0 {
		t.Errorf("%d events outside host, cpu, icl.dram, dma, %s and the channels", other, fil.PublishDomain)
	}
	if res.FailedReads != 0 || res.FailedWrites != 0 {
		t.Errorf("%d reads and %d writes failed", res.FailedReads, res.FailedWrites)
	}
	// Run allocates per run (its jobs and engine, the storm's plan, pool
	// growth: about 1 400 here), not per request.
	if allocs := m1.Mallocs - m0.Mallocs; allocs > n/10 {
		t.Errorf("%d allocations over %d requests, want none per request", allocs, n)
	}
	checkFlashMatchesFIL(t, s)
}

// eventsByDomain sums engine events by the domain groups the work gates pin:
// host, cpu, icl.dram, dma, fil.publish and the channels (nand.ch*); anything
// else lands in other.
type eventsByDomain struct{ host, cpu, iclDRAM, dma, publish, nand, other uint64 }

func groupEvents(ds []sim.DomainStat) eventsByDomain {
	var g eventsByDomain
	for _, d := range ds {
		switch {
		case d.Name == "host":
			g.host += d.Dispatched
		case d.Name == "cpu":
			g.cpu += d.Dispatched
		case d.Name == "icl.dram":
			g.iclDRAM += d.Dispatched
		case d.Name == "dma":
			g.dma += d.Dispatched
		case d.Name == fil.PublishDomain:
			g.publish += d.Dispatched
		case strings.HasPrefix(d.Name, "nand.ch"):
			g.nand += d.Dispatched
		default:
			g.other += d.Dispatched
		}
	}
	return g
}

// setupWork is what building and preconditioning one device did: the fill
// Run's engine events, the DRAM, flash, FIL and FTL counters after the
// closing Flush.
type setupWork struct {
	events                        uint64
	byDomain                      eventsByDomain
	dramWrites, dramBytes         uint64
	dramReads                     uint64
	rowHits, rowMisses, activates uint64
	programs, erases              uint64
	plans, certified              uint64
	gcRuns                        uint64
}

// TestWorkGatePrecondition pins the set-up every figure of the suite and
// validate_sweep pay — each reference device built and its volume filled at
// queue depth 32 — in counts that repeat exactly: the fill Run's engine events
// in total and by domain, what the DRAM did (full-line writes, row hits,
// misses and activates), the flash programs and erases, the FIL's plans and
// how many of them were certified, and the FTL's collections. The fill is
// Precondition's own steps (one sequential write of the volume, the closing
// Flush, Drain) run by hand so that the Run's events are visible, and a twin
// device preconditioned through Precondition must end with the same counters
// at the same simulated time. Set-up speed work must leave every number here
// alone.
func TestWorkGatePrecondition(t *testing.T) {
	// Every device fills its volume in 4 915 cache lines: one host issue and
	// completion each (and 32 job starts), one firmware parse and one
	// full-line DRAM write landing in icl.dram. The write-back plans' programs
	// are counted at issue and raise no channel event. The full-line writes
	// are the DRAM's only traffic: 480 rows of 64 bursts per line on intel750
	// (960 KiB), 256 on the others (512 KiB), one miss and 63 hits a row over
	// 8 banks. Each line is one plan of sub-page programs. Certified plans are
	// counted on the engine path only, so the difference is the lines the
	// closing Flush writes back outside the engine (the ICL's 764 or 716 or
	// 1 433 lines). No fill collects.
	want := map[string]setupWork{
		"intel750": {events: 19692, byDomain: eventsByDomain{host: 9862, cpu: 4915, iclDRAM: 4915},
			dramWrites: 4915, dramBytes: 4831641600, rowHits: 148629600, rowMisses: 2359200, activates: 2359200,
			programs: 589800, plans: 4915, certified: 4151},
		"850pro": {events: 19692, byDomain: eventsByDomain{host: 9862, cpu: 4915, iclDRAM: 4915},
			dramWrites: 4915, dramBytes: 2576875520, rowHits: 79269120, rowMisses: 1258240, activates: 1258240,
			programs: 314560, plans: 4915, certified: 4199},
		"zssd": {events: 19692, byDomain: eventsByDomain{host: 9862, cpu: 4915, iclDRAM: 4915},
			dramWrites: 4915, dramBytes: 2576875520, rowHits: 79269120, rowMisses: 1258240, activates: 1258240,
			programs: 314560, plans: 4915, certified: 3482},
		"983dct": {events: 19692, byDomain: eventsByDomain{host: 9862, cpu: 4915, iclDRAM: 4915},
			dramWrites: 4915, dramBytes: 2576875520, rowHits: 79269120, rowMisses: 1258240, activates: 1258240,
			programs: 314560, plans: 4915, certified: 3482},
	}
	for _, name := range refdata.DeviceNames() {
		t.Run(name, func(t *testing.T) {
			d, err := config.Device(name)
			if err != nil {
				t.Fatal(err)
			}
			build := func() *core.System {
				s, err := core.NewSystem(config.PCSystem(d))
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			s := build()
			gen, err := workload.NewFIO(workload.SeqWrite, s.Split.LineBytes(), s.VolumeBytes(), d.Seed)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run(gen, core.RunConfig{Requests: int(s.VolumeBytes() / int64(s.Split.LineBytes())), IODepth: 32, StopOnReadOnly: true})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Flush(s.Now()); err != nil {
				t.Fatal(err)
			}
			s.Drain()
			read := func(s *core.System) setupWork {
				dr, fl, fs, ft := s.DevDRAM.Stats(), s.Flash.Stats(), s.FIL.Stats(), s.FTL.Stats()
				return setupWork{
					dramWrites: dr.Writes, dramBytes: dr.BytesWritten, dramReads: dr.Reads,
					rowHits: dr.RowHits, rowMisses: dr.RowMisses, activates: dr.Activates,
					programs: fl.Programs, erases: fl.Erases,
					plans: fs.PlanCount, certified: fs.CertifiedPlans,
					gcRuns: ft.GCRuns,
				}
			}
			got := read(s)
			twin := build()
			if err := twin.Precondition(32); err != nil {
				t.Fatal(err)
			}
			if tw := read(twin); tw != got || twin.Now() != s.Now() {
				t.Fatalf("the hand-run fill is not Precondition: %+v at %v, Precondition %+v at %v", got, s.Now(), tw, twin.Now())
			}
			got.events, got.byDomain = res.Events, groupEvents(res.DomainEvents)
			if res.FailedWrites != 0 || res.StoppedEarly {
				t.Errorf("fill failed %d writes (stopped early: %v)", res.FailedWrites, res.StoppedEarly)
			}
			if got != want[name] {
				t.Errorf("set-up work of %s\n got %+v\nwant %+v", name, got, want[name])
			}
			checkFlashMatchesFIL(t, s)
			checkFlashMatchesFIL(t, twin)
		})
	}
}

// TestWorkGateBatchRandWrite pins the work behind bench/'s batch_randwrite4k —
// randwrite4k_gc's device, stream and seed through SubmitBatch in 64-request
// windows, after bench's warm-up (20 000 requests rounded up to a window) — in
// counts that repeat exactly per seed: the windows, the Submit engine's events
// by domain, the FIL's plan ops, the flash reads, programs and erases, the
// collections and the sub-pages they migrated, DRAM accesses, DMA descriptors
// and allocations.
func TestWorkGateBatchRandWrite(t *testing.T) {
	const window, warm, n = 64, 20032, 20032
	s := bench750(t)
	gen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 11)
	if err != nil {
		t.Fatal(err)
	}
	reqs, times := make([]workload.Request, window), make([]sim.Time, window)
	pos := 0
	windows := func(count int) {
		for done := 0; done < count; done += window {
			for k := range reqs {
				reqs[k] = gen.Next(pos)
				pos++
			}
			if _, err := s.SubmitBatch(s.Now(), reqs, nil, times); err != nil {
				t.Fatal(err)
			}
		}
	}
	windows(warm)
	s.Drain()
	type counts struct {
		windows                         uint64
		events                          eventsByDomain
		planReads, planProgs, planErase uint64
		flashReads, flashPrograms       uint64
		flashErases                     uint64
		collects, migrated              uint64
		dram, descriptors               uint64
	}
	read := func() counts {
		wins, _ := s.BatchStats()
		fl, fs, ft, dr := s.Flash.Stats(), s.FIL.Stats(), s.FTL.Stats(), s.DevDRAM.Stats()
		return counts{
			windows: wins, events: groupEvents(s.SubmitEngineDomainStats()),
			planReads: fs.Reads, planProgs: fs.Programs, planErase: fs.Erases,
			flashReads: fl.Reads, flashPrograms: fl.Programs, flashErases: fl.Erases,
			collects: ft.GCRuns, migrated: ft.GCMigrated,
			dram: dr.Reads + dr.Writes, descriptors: s.DMA.Stats().Descriptors,
		}
	}
	before := read()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	windows(n)
	runtime.ReadMemStats(&m1)
	after := read()
	e0, e1 := before.events, after.events
	got := counts{
		windows: after.windows - before.windows,
		events: eventsByDomain{host: e1.host - e0.host, cpu: e1.cpu - e0.cpu, iclDRAM: e1.iclDRAM - e0.iclDRAM,
			dma: e1.dma - e0.dma, publish: e1.publish - e0.publish, nand: e1.nand - e0.nand, other: e1.other - e0.other},
		planReads: after.planReads - before.planReads, planProgs: after.planProgs - before.planProgs,
		planErase:  after.planErase - before.planErase,
		flashReads: after.flashReads - before.flashReads, flashPrograms: after.flashPrograms - before.flashPrograms,
		flashErases: after.flashErases - before.flashErases,
		collects:    after.collects - before.collects, migrated: after.migrated - before.migrated,
		dram: after.dram - before.dram, descriptors: after.descriptors - before.descriptors,
	}
	// 313 windows of 64. A vector's requests raise no host, cpu or dma events
	// (SubmitBatch settles them in line), and on this timing-only device a
	// plan's flash ops raise no channel event either: nothing reaches the
	// engine. Each request's payload lands in the cache by one DMA descriptor
	// and one DRAM access, and two collection storms fall inside the window —
	// 22 collects migrating the 147 360 sub-page volume twice
	// (TestWorkGateGCStorm), which is nearly every flash read and program.
	want := counts{
		windows: 313, events: eventsByDomain{},
		planReads: 294720, planProgs: 314397, planErase: 2640,
		flashReads: 294720, flashPrograms: 314397, flashErases: 2640,
		collects: 22, migrated: 294720, dram: n, descriptors: n,
	}
	if got != want {
		t.Errorf("work of %d batched writes\n got %+v\nwant %+v", n, got, want)
	}
	if allocs := m1.Mallocs - m0.Mallocs; allocs > n/10 {
		t.Errorf("%d allocations over %d requests, want none per request", allocs, n)
	}
	checkFlashMatchesFIL(t, s)
}

// bench750d builds bench/'s device of that name — bench750's geometry shrunk
// to 4 blocks per plane of 32 pages behind a 16-line cache, with real payload
// bytes — and preconditions it at queue depth 32.
func bench750d(tb testing.TB) *core.System {
	tb.Helper()
	d := config.Intel750()
	d.Geometry.BlocksPerPlane = 4
	d.Geometry.PagesPerBlock = 32
	d.CacheLines = 16
	d.TrackData = true
	s, err := core.NewSystem(config.PCSystem(d))
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Precondition(32); err != nil {
		tb.Fatal(err)
	}
	return s
}

// rw8k is bench/'s batch_rw8k_data stream: 8 KiB requests in 64-request
// windows, three of random writes whose payload is a xorshift stream keyed by
// (block, version), then one of reads of blocks already written, whose bytes
// are checked against the version each block last took.
type rw8k struct {
	offsets workload.Generator
	pick    *sim.RNG
	version []uint32
	written []int64
	window  int
}

const rw8kIO = 8192

func newRW8k(tb testing.TB, vol int64, seed uint64) *rw8k {
	tb.Helper()
	g, err := workload.NewFIO(workload.RandWrite, rw8kIO, vol, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return &rw8k{offsets: g, pick: sim.NewRNG(seed ^ 0xda7a), version: make([]uint32, vol/rw8kIO)}
}

func rw8kPayload(buf []byte, block int64, version uint32) {
	x := uint64(block)*0x9e3779b97f4a7c15 ^ uint64(version)<<32 ^ 0xa5a5a5a5
	for i := 0; i+8 <= len(buf); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
}

// next fills the next window and reports whether it reads.
func (d *rw8k) next(reqs []workload.Request, bufs [][]byte) (read bool) {
	read = d.window%4 == 3
	d.window++
	for k := range reqs {
		if read {
			block := d.written[d.pick.Intn(len(d.written))]
			reqs[k] = workload.Request{Offset: block * rw8kIO, Length: rw8kIO}
			continue
		}
		r := d.offsets.Next(0)
		block := r.Offset / rw8kIO
		if d.version[block] == 0 {
			d.written = append(d.written, block)
		}
		d.version[block]++
		rw8kPayload(bufs[k], block, d.version[block])
		reqs[k] = r
	}
	return read
}

// mismatches counts the read-backs in bufs that are not what was written.
func (d *rw8k) mismatches(reqs []workload.Request, bufs [][]byte, want []byte) int {
	bad := 0
	for k, r := range reqs {
		block := r.Offset / rw8kIO
		rw8kPayload(want, block, d.version[block])
		if !bytes.Equal(bufs[k], want) {
			bad++
		}
	}
	return bad
}

// TestWorkGateBatchRW8kData pins the work behind bench/'s batch_rw8k_data —
// its device, stream, seed and warm-up — in counts that repeat exactly per
// seed: the windows, the Submit engine's events by domain, the flash reads,
// programs and erases, the collections, DRAM accesses, DMA descriptors, the
// payload bytes the cache, the flash and core copy and zero, read-back
// mismatches and allocations. It is the one bench workload whose plans carry
// tracked bytes.
func TestWorkGateBatchRW8kData(t *testing.T) {
	const window, warm, n = 64, 1024, 8192
	s := bench750d(t)
	stream := newRW8k(t, s.VolumeBytes(), 11)
	reqs, times := make([]workload.Request, window), make([]sim.Time, window)
	bufs := make([][]byte, window)
	for k := range bufs {
		bufs[k] = make([]byte, rw8kIO)
	}
	want := make([]byte, rw8kIO)
	mismatches := 0
	windows := func(count int) {
		for done := 0; done < count; done += window {
			read := stream.next(reqs, bufs)
			if _, err := s.SubmitBatch(s.Now(), reqs, bufs, times); err != nil {
				t.Fatal(err)
			}
			if read {
				mismatches += stream.mismatches(reqs, bufs, want)
			}
		}
	}
	windows(warm)
	s.Drain()
	type counts struct {
		windows                   uint64
		events                    eventsByDomain
		flashReads, flashPrograms uint64
		flashErases, collects     uint64
		dram, descriptors         uint64
		// Payload bytes copied and zeroed by the cache, the flash and core's
		// line staging, and the flash pages prefetches pinned.
		iclCopied, iclZeroed   uint64
		nandCopied, nandZeroed uint64
		coreCopied, coreZeroed uint64
		nandPinned             uint64
	}
	read := func() counts {
		wins, _ := s.BatchStats()
		fl, ft, dr := s.Flash.Stats(), s.FTL.Stats(), s.DevDRAM.Stats()
		c := counts{
			windows: wins, events: groupEvents(s.SubmitEngineDomainStats()),
			flashReads: fl.Reads, flashPrograms: fl.Programs, flashErases: fl.Erases,
			collects: ft.GCRuns, dram: dr.Reads + dr.Writes, descriptors: s.DMA.Stats().Descriptors,
		}
		c.iclCopied, c.iclZeroed = s.ICL.PayloadBytes()
		c.nandCopied, c.nandZeroed = s.Flash.PayloadBytes()
		c.coreCopied, c.coreZeroed = s.PayloadBytes()
		c.nandPinned = s.Flash.PinsTaken()
		return c
	}
	before := read()
	mismatches = 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	windows(n)
	runtime.ReadMemStats(&m1)
	after := read()
	e0, e1 := before.events, after.events
	got := counts{
		windows: after.windows - before.windows,
		events: eventsByDomain{host: e1.host - e0.host, cpu: e1.cpu - e0.cpu, iclDRAM: e1.iclDRAM - e0.iclDRAM,
			dma: e1.dma - e0.dma, publish: e1.publish - e0.publish, nand: e1.nand - e0.nand, other: e1.other - e0.other},
		flashReads: after.flashReads - before.flashReads, flashPrograms: after.flashPrograms - before.flashPrograms,
		flashErases: after.flashErases - before.flashErases, collects: after.collects - before.collects,
		dram: after.dram - before.dram, descriptors: after.descriptors - before.descriptors,
		iclCopied: after.iclCopied - before.iclCopied, iclZeroed: after.iclZeroed - before.iclZeroed,
		nandCopied: after.nandCopied - before.nandCopied, nandZeroed: after.nandZeroed - before.nandZeroed,
		coreCopied: after.coreCopied - before.coreCopied, coreZeroed: after.coreZeroed - before.coreZeroed,
		nandPinned: after.nandPinned - before.nandPinned,
	}
	// 128 vectors of 64: the 96 write vectors settle in line, one batch
	// window each, and the 32 read vectors take the evented path — issue and
	// completion on host, a parse on cpu and a payload DMA per read, and a
	// fill publish per read that did not coalesce. A plan's flash
	// transactions, payload bytes included, land at issue and raise no
	// channel event. Three collections fall inside the window. Payload bytes:
	// core copies each read's 8 KiB out of its line buffer and zeroes nothing
	// (the writes are sub-page aligned, every fill is mapped). The flash
	// copies whole 8 KiB pages, padding none, into demand fills' line
	// buffers and programs' staging buffers; readahead copies nothing: each
	// prefetch pins the 8 KiB pages of its super-page, 18 240 of them, whose
	// bytes the cache reads in place. The cache moves each request's 8 KiB
	// once — a write or a demand fill into its frame, a hit out to the line
	// buffer, from a pin or the frame — and zeroes nothing: eviction clears
	// masks only, every sub becomes valid with bytes, and a write over a
	// pinned sub covers all of it, so no pinned byte is merged in.
	wantCounts := counts{
		windows: 96, events: eventsByDomain{host: 4096, cpu: 2048, dma: 2048, publish: 2157},
		flashReads: 27925, flashPrograms: 13801, flashErases: 360, collects: 3,
		dram: 8344, descriptors: 16384,
		iclCopied: 67108864, iclZeroed: 0,
		nandCopied: 129499136, nandZeroed: 0,
		coreCopied: 2048 * rw8kIO, coreZeroed: 0,
		nandPinned: 18240,
	}
	if got != wantCounts {
		t.Errorf("work of %d batched 8 KiB requests\n got %+v\nwant %+v", n, got, wantCounts)
	}
	perReq := func(b uint64) float64 { return float64(b) / n }
	t.Logf("batch_rw8k_data payload bytes per request: icl %.0f copied %.0f zeroed, nand %.0f copied %.0f zeroed, core %.0f copied %.0f zeroed; prefetch pages pinned per request: %.2f",
		perReq(got.iclCopied), perReq(got.iclZeroed), perReq(got.nandCopied), perReq(got.nandZeroed), perReq(got.coreCopied), perReq(got.coreZeroed), perReq(got.nandPinned))
	if mismatches != 0 {
		t.Errorf("%d of %d read-backs differ from what was written", mismatches, n/4)
	}
	// Core's line buffers and the staging pool still grow over this window
	// (an erase's undo record holds its block's buffers until it is pruned),
	// so the bound is under one allocation a request rather than none.
	if allocs := m1.Mallocs - m0.Mallocs; allocs > n {
		t.Errorf("%d allocations over %d requests, want fewer than one per request", allocs, n)
	}
	checkFlashMatchesFIL(t, s)
}
