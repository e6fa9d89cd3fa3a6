// Package amber's root bench suite regenerates every table and figure of
// the paper's evaluation (one benchmark per table/figure, DESIGN.md §4)
// plus ablation benches for the §IV-C design choices. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes its experiment in quick mode and reports the
// simulator's wall-clock cost; the printed tables themselves come from
// cmd/amberbench.
package amber_test

import (
	"testing"

	"amber/internal/config"
	"amber/internal/core"
	"amber/internal/exp"
	"amber/internal/simbench"
	"amber/internal/workload"
)

var quick = exp.Options{Quick: true}

func benchExperiment(b *testing.B, run func(exp.Options) (*exp.Table, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := run(quick)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkTableI_Config(b *testing.B)                    { benchExperiment(b, exp.TableI) }
func BenchmarkFigure3_BaselineBandwidth(b *testing.B)        { benchExperiment(b, exp.Figure3) }
func BenchmarkFigure4_BaselineLatency(b *testing.B)          { benchExperiment(b, exp.Figure4) }
func BenchmarkFigure8_ValidationBandwidth(b *testing.B)      { benchExperiment(b, exp.Figure8) }
func BenchmarkFigure9_ValidationLatency(b *testing.B)        { benchExperiment(b, exp.Figure9) }
func BenchmarkFigure10_BlockSize(b *testing.B)               { benchExperiment(b, exp.Figure10) }
func BenchmarkFigure11_OverProvisioning(b *testing.B)        { benchExperiment(b, exp.Figure11) }
func BenchmarkFigure12_OSImpact(b *testing.B)                { benchExperiment(b, exp.Figure12) }
func BenchmarkFigure13a_MobileVsPC(b *testing.B)             { benchExperiment(b, exp.Figure13a) }
func BenchmarkFigure13b_PowerBreakdown(b *testing.B)         { benchExperiment(b, exp.Figure13b) }
func BenchmarkFigure13c_InstructionBreakdown(b *testing.B)   { benchExperiment(b, exp.Figure13c) }
func BenchmarkFigure14_CPUFrequency(b *testing.B)            { benchExperiment(b, exp.Figure14) }
func BenchmarkFigure15a_ActivePassiveBandwidth(b *testing.B) { benchExperiment(b, exp.Figure15a) }
func BenchmarkFigure15b_KernelCPU(b *testing.B)              { benchExperiment(b, exp.Figure15b) }
func BenchmarkFigure15c_DRAMUsage(b *testing.B)              { benchExperiment(b, exp.Figure15c) }
func BenchmarkFigure16_SimSpeed(b *testing.B)                { benchExperiment(b, exp.Figure16) }
func BenchmarkTableIV_Features(b *testing.B)                 { benchExperiment(b, exp.TableIV) }

// ablationSystem measures 4K random-read or write bandwidth for a mutated
// device configuration — the harness for the §IV-C design-choice ablations
// DESIGN.md calls out.
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

// BenchmarkAblation_GCPolicy compares Greedy and Cost-Benefit victim
// selection under steady-state random writes.
func BenchmarkAblation_GCPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		greedy := ablationBandwidth(b, workload.RandWrite, nil)
		cb := ablationBandwidth(b, workload.RandWrite, func(d *core.DeviceConfig) {
			d.GCPolicy = 1 // ftl.CostBenefit
		})
		b.ReportMetric(cb/greedy, "costbenefit-vs-greedy")
	}
}

// BenchmarkEngineHotLoop measures raw engine throughput under
// schedule/cancel/step churn at a realistic total queue depth (the shared
// simbench harness, also run by amberbench -json). The "global" case puts
// every event in the default domain — the single global heap the engine
// used before sharding — while "sharded" spreads the same population
// across the Intel 750 preset's scheduling domains (12 NAND channels +
// host + cpu + icl.dram + dma), so each dispatch sifts a heap 1/16th the
// size plus an O(log S) tournament repair.
func BenchmarkEngineHotLoop(b *testing.B) {
	run := func(b *testing.B, domains int) {
		h := simbench.NewHotLoop(domains)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Op()
		}
		b.StopTimer()
		h.Drain()
	}
	b.Run("global", func(b *testing.B) { run(b, 1) })
	b.Run("sharded16", func(b *testing.B) { run(b, simbench.HotLoopDomains) })
}

// BenchmarkIntraParallel measures horizon-synchronized parallel intra-device
// dispatch on the shared simbench harness: 16 channel shards each receiving
// page-copy events between horizons (the shape of deferred flash bookkeeping
// on a data-tracking device). "serial" is the plain single-goroutine
// dispatcher; the worker variants fan the channel shards out between
// synchronization horizons. Wall-clock speedup requires multiple cores
// (GOMAXPROCS); on a single-core machine the variants measure the barrier
// overhead instead.
func BenchmarkIntraParallel(b *testing.B) {
	const channels, perChannel, rounds = 16, 64, 25
	run := func(b *testing.B, workers int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l := simbench.NewIntraLoop(channels, perChannel, rounds)
			l.Run(workers)
			if got, want := l.Dispatched(), uint64(channels*perChannel*rounds+rounds+1); got != want {
				b.Fatalf("dispatched %d events, want %d", got, want)
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 0) })
	b.Run("workers2", func(b *testing.B) { run(b, 2) })
	b.Run("workers4", func(b *testing.B) { run(b, 4) })

	// The batched variant interleaves channel-neutral cross events between
	// the local bursts (half of perChannel per horizon): with horizon
	// batching they dispatch without draining the channel shards, so the
	// barrier count stays one per horizon instead of growing with the
	// neutral traffic.
	runNeutral := func(b *testing.B, workers int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l := simbench.NewIntraLoopNeutral(channels, perChannel, perChannel/2, rounds)
			st := l.Run(workers)
			if workers > 0 && st.BatchedCross == 0 {
				b.Fatal("no cross events batched")
			}
		}
	}
	b.Run("neutral-serial", func(b *testing.B) { runNeutral(b, 0) })
	b.Run("neutral-workers4", func(b *testing.B) { runNeutral(b, 4) })
}

// BenchmarkIntraParallelSystem measures the full-system effect on a wide
// (8-channel) data-tracking device: serial dispatch vs horizon-synchronized
// dispatch at 4 workers, under sequential reads (PR 3's original fast
// path), GC-triggering 4K random writes (deferred program/erase
// bookkeeping), and 4K random reads (the small-window class horizon
// batching targets). The modes are byte-identical in results (locked by
// the core golden equivalence tests); this benchmark records their
// wall-clock cost.
func BenchmarkIntraParallelSystem(b *testing.B) {
	build := func() *core.System {
		d := config.SmallTestDevice()
		d.Geometry.Channels = 8
		d.Geometry.PackagesPerChannel = 1
		d.Geometry.BlocksPerPlane = 10
		s, err := core.NewSystem(config.PCSystem(d))
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Precondition(16); err != nil {
			b.Fatal(err)
		}
		return s
	}
	run := func(b *testing.B, pattern workload.Pattern, bs, workers int) {
		s := build()
		gen, err := workload.NewFIO(pattern, bs, s.VolumeBytes(), 5)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Run(gen, core.RunConfig{Requests: 300, IODepth: 16, IntraWorkers: workers, WithData: true}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("seq-read-serial", func(b *testing.B) { run(b, workload.SeqRead, 16384, 0) })
	b.Run("seq-read-workers4", func(b *testing.B) { run(b, workload.SeqRead, 16384, 4) })
	b.Run("rand-write-serial", func(b *testing.B) { run(b, workload.RandWrite, 4096, 0) })
	b.Run("rand-write-workers4", func(b *testing.B) { run(b, workload.RandWrite, 4096, 4) })
	b.Run("rand-read-serial", func(b *testing.B) { run(b, workload.RandRead, 4096, 0) })
	b.Run("rand-read-workers4", func(b *testing.B) { run(b, workload.RandRead, 4096, 4) })
}

// BenchmarkSubmitPathIntra measures the synchronous Submit wrapper with the
// pooled intra mode (System.SetIntraWorkers) on a data-tracking device —
// the trace-replay shape the submit-path intra mode exists for — against
// the plain serial drain.
func BenchmarkSubmitPathIntra(b *testing.B) {
	run := func(b *testing.B, workers int) {
		d := config.SmallTestDevice()
		d.Geometry.Channels = 8
		d.Geometry.PackagesPerChannel = 1
		d.Geometry.BlocksPerPlane = 10
		s, err := core.NewSystem(config.PCSystem(d))
		if err != nil {
			b.Fatal(err)
		}
		s.SetIntraWorkers(workers)
		defer s.SetIntraWorkers(0)
		gen, err := workload.NewFIO(workload.SeqRead, 16384, s.VolumeBytes(), 3)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Precondition(16); err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 16384)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Submit(s.Now(), gen.Next(i), buf); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 0) })
	b.Run("workers4", func(b *testing.B) { run(b, 4) })
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
