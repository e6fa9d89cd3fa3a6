package core_test

import (
	"bytes"
	"testing"

	"amber/internal/config"
	"amber/internal/core"
	"amber/internal/host"
	"amber/internal/proto"
	"amber/internal/sim"
	"amber/internal/workload"
)

func smallSystem(t *testing.T, mutate func(*core.SystemConfig)) *core.System {
	t.Helper()
	cfg := config.PCSystem(config.SmallTestDevice())
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSystemPresets(t *testing.T) {
	for name := range config.Devices() {
		d, err := config.Device(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.NewSystem(config.PCSystem(d)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := config.Device("nope"); err == nil {
		t.Fatal("unknown device accepted")
	}
}

func TestWriteReadDataIntegrity(t *testing.T) {
	s := smallSystem(t, nil)
	bs := 8192
	payload := make([]byte, bs)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	req := workload.Request{Write: true, Offset: int64(bs) * 3, Length: bs}
	done, err := s.Submit(0, req, payload)
	if err != nil {
		t.Fatal(err)
	}
	if done == 0 {
		t.Fatal("write completed at time zero")
	}
	got := make([]byte, bs)
	req.Write = false
	if _, err := s.Submit(done, req, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read-back differs from written payload")
	}
}

func TestDataSurvivesCacheEvictionAndFlush(t *testing.T) {
	s := smallSystem(t, nil)
	bs := s.Split.LineBytes()
	written := map[int64][]byte{}
	now := sim.Time(0)
	// Write far more lines than the 8-line cache holds.
	for i := int64(0); i < 32; i++ {
		payload := make([]byte, bs)
		for j := range payload {
			payload[j] = byte(int64(j)*7 + i)
		}
		var err error
		now, err = s.Submit(now, workload.Request{Write: true, Offset: i * int64(bs), Length: bs}, payload)
		if err != nil {
			t.Fatal(err)
		}
		written[i] = payload
	}
	if _, err := s.Flush(now); err != nil {
		t.Fatal(err)
	}
	for i, want := range written {
		got := make([]byte, bs)
		var err error
		now, err = s.Submit(now, workload.Request{Offset: i * int64(bs), Length: bs}, got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("line %d corrupted after eviction", i)
		}
	}
}

func TestUnwrittenReadReturnsZeroes(t *testing.T) {
	s := smallSystem(t, nil)
	got := make([]byte, 4096)
	got[0] = 0xFF
	if _, err := s.Submit(0, workload.Request{Offset: 0, Length: 4096}, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

func TestRequestValidation(t *testing.T) {
	s := smallSystem(t, nil)
	if _, err := s.Submit(0, workload.Request{Offset: -1, Length: 4096}, nil); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := s.Submit(0, workload.Request{Offset: 0, Length: 0}, nil); err == nil {
		t.Fatal("zero length accepted")
	}
	if _, err := s.Submit(0, workload.Request{Offset: s.VolumeBytes(), Length: 4096}, nil); err == nil {
		t.Fatal("out-of-volume request accepted")
	}
	if _, err := s.Submit(0, workload.Request{Offset: 0, Length: 4096}, make([]byte, 10)); err == nil {
		t.Fatal("short buffer accepted")
	}
}

func TestCompletionTimesAdvance(t *testing.T) {
	s := smallSystem(t, nil)
	var prev sim.Time
	for i := 0; i < 10; i++ {
		done, err := s.Submit(prev, workload.Request{Write: true, Offset: int64(i) * 4096, Length: 4096}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if done <= prev {
			t.Fatalf("request %d completed at %v, not after %v", i, done, prev)
		}
		prev = done
	}
	if s.Now() != prev {
		t.Fatalf("system clock %v, want %v", s.Now(), prev)
	}
}

func TestRunClosedLoop(t *testing.T) {
	s := smallSystem(t, nil)
	gen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(gen, core.RunConfig{Requests: 200, IODepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 200 || res.Depth != 8 {
		t.Fatalf("result = %+v", res)
	}
	if res.BytesWritten != 200*4096 {
		t.Fatalf("BytesWritten = %d", res.BytesWritten)
	}
	if res.BandwidthMBps() <= 0 || res.AvgLatencyUs() <= 0 {
		t.Fatal("degenerate bandwidth/latency")
	}
	if res.Latency.Count() != 200 {
		t.Fatalf("latency samples = %d", res.Latency.Count())
	}
}

func TestDeeperQueueRaisesBandwidth(t *testing.T) {
	bw := func(depth int) float64 {
		s := smallSystem(t, func(c *core.SystemConfig) { c.Device.TrackData = false })
		gen, err := workload.NewFIO(workload.RandRead, 4096, s.VolumeBytes(), 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Precondition(16); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Flush(s.Now()); err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(gen, core.RunConfig{Requests: 400, IODepth: depth})
		if err != nil {
			t.Fatal(err)
		}
		return res.BandwidthMBps()
	}
	b1, b8 := bw(1), bw(8)
	if b8 <= b1*1.5 {
		t.Fatalf("depth 8 (%v MB/s) should be well above depth 1 (%v MB/s)", b8, b1)
	}
}

func TestHTypeQueueClamp(t *testing.T) {
	s := smallSystem(t, func(c *core.SystemConfig) {
		c.Device.Protocol = proto.SATA30()
	})
	gen, _ := workload.NewFIO(workload.RandRead, 4096, s.VolumeBytes(), 3)
	res, err := s.Run(gen, core.RunConfig{Requests: 50, IODepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Depth != 32 {
		t.Fatalf("SATA depth = %d, want clamp to 32", res.Depth)
	}
}

func TestCFQDepthCap(t *testing.T) {
	s := smallSystem(t, func(c *core.SystemConfig) {
		c.Host.Scheduler = host.CFQ
	})
	gen, _ := workload.NewFIO(workload.RandRead, 4096, s.VolumeBytes(), 3)
	res, err := s.Run(gen, core.RunConfig{Requests: 50, IODepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Depth != 8 {
		t.Fatalf("CFQ depth = %d, want cap at 8", res.Depth)
	}
}

func TestSequentialReadBeatsRandomRead(t *testing.T) {
	run := func(p workload.Pattern) float64 {
		s := smallSystem(t, func(c *core.SystemConfig) {
			c.Device.TrackData = false
			// Cache sized big enough for the prefetch window but small
			// relative to the volume, as on a real device (a cache covering
			// a third of the volume would hand random reads free hits).
			c.Device.CacheLines = 16
			c.Device.Geometry.BlocksPerPlane = 32
		})
		if err := s.Precondition(16); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Flush(s.Now()); err != nil {
			t.Fatal(err)
		}
		gen, err := workload.NewFIO(p, 4096, s.VolumeBytes(), 4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(gen, core.RunConfig{Requests: 600, IODepth: 16})
		if err != nil {
			t.Fatal(err)
		}
		return res.BandwidthMBps()
	}
	seq, rnd := run(workload.SeqRead), run(workload.RandRead)
	if seq <= rnd {
		t.Fatalf("sequential read (%v) should beat random read (%v): readahead + locality", seq, rnd)
	}
}

func TestPassiveModeUsesHostResources(t *testing.T) {
	active := smallSystem(t, nil)
	passive := smallSystem(t, func(c *core.SystemConfig) {
		c.Device.Passive = true
		c.Device.Protocol = proto.OCSSD20()
	})
	// pblk allocates host memory at init (64 MB + tables).
	if passive.Host.MemUsed() <= active.Host.MemUsed() {
		t.Fatal("pblk should hold more host memory than the NVMe driver")
	}
	gen, _ := workload.NewFIO(workload.RandWrite, 4096, passive.VolumeBytes(), 5)
	if _, err := passive.Run(gen, core.RunConfig{Requests: 300, IODepth: 8}); err != nil {
		t.Fatal(err)
	}
	gen2, _ := workload.NewFIO(workload.RandWrite, 4096, active.VolumeBytes(), 5)
	if _, err := active.Run(gen2, core.RunConfig{Requests: 300, IODepth: 8}); err != nil {
		t.Fatal(err)
	}
	// The passive architecture consumes far more host CPU (Fig. 15b).
	pu := passive.Host.CPU.BusyTime()
	au := active.Host.CPU.BusyTime()
	if float64(pu) < 1.5*float64(au) {
		t.Fatalf("pblk host CPU busy (%v) should far exceed NVMe (%v)", pu, au)
	}
}

func TestRunSampling(t *testing.T) {
	s := smallSystem(t, nil)
	gen, _ := workload.NewFIO(workload.SeqWrite, 4096, s.VolumeBytes(), 6)
	res, err := s.Run(gen, core.RunConfig{
		Requests: 300, IODepth: 4,
		SampleEvery: sim.Millisecond,
		RunMemBytes: 280 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.HostCPUUtil.Points) == 0 || len(res.HostMemMB.Points) == 0 {
		t.Fatal("sampling produced no points")
	}
	// Memory series reflects the run allocation.
	if res.HostMemMB.Max() < 280 {
		t.Fatalf("memory series max = %v MB", res.HostMemMB.Max())
	}
	// The allocation is released after the run.
	if s.Host.MemUsed() >= 280<<20 {
		t.Fatal("run memory not released")
	}
}

func TestPreconditionReachesSteadyState(t *testing.T) {
	s := smallSystem(t, func(c *core.SystemConfig) { c.Device.TrackData = false })
	if err := s.Precondition(16); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Flush(s.Now()); err != nil {
		t.Fatal(err)
	}
	// After preconditioning and a flush every LSPN is mapped.
	for lspn := int64(0); lspn < s.FTL.UserSuperPages(); lspn++ {
		if !s.FTL.Mapped(lspn) {
			t.Fatalf("LSPN %d unmapped after precondition", lspn)
		}
	}
	// Random overwrites of half the volume force GC.
	gen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), s.Config().Device.Seed^0x5f)
	if err != nil {
		t.Fatal(err)
	}
	n := int(s.VolumeBytes() / 2 / 4096)
	if _, err := s.Run(gen, core.RunConfig{Requests: n, IODepth: 32}); err != nil {
		t.Fatal(err)
	}
	if s.FTL.Stats().GCRuns == 0 {
		t.Fatal("no GC during random overwrites")
	}
}

func TestFirmwareInstructionAccounting(t *testing.T) {
	s := smallSystem(t, nil)
	gen, _ := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 8)
	if _, err := s.Run(gen, core.RunConfig{Requests: 100, IODepth: 4}); err != nil {
		t.Fatal(err)
	}
	total := s.DevCPU.Instructions().Total()
	if total == 0 {
		t.Fatal("no firmware instructions recorded")
	}
	// Load/store should dominate per Fig. 13c.
	if f := s.DevCPU.Instructions().LoadStoreFraction(); f < 0.5 || f > 0.7 {
		t.Fatalf("load/store fraction = %v", f)
	}
	mods := s.DevCPU.Modules()
	if len(mods) < 2 {
		t.Fatalf("modules = %v", mods)
	}
}

func TestEnergyPositiveAfterRun(t *testing.T) {
	s := smallSystem(t, nil)
	gen, _ := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 9)
	res, err := s.Run(gen, core.RunConfig{Requests: 200, IODepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	el := res.Elapsed()
	if s.Flash.TotalEnergyJoules(el) <= 0 {
		t.Fatal("flash energy not accounted")
	}
	if s.DevDRAM.TotalEnergyJoules(el) <= 0 {
		t.Fatal("DRAM energy not accounted")
	}
	if s.DevCPU.TotalEnergyJoules(el) <= 0 {
		t.Fatal("CPU energy not accounted")
	}
}

func TestNVMeVsSATALatency(t *testing.T) {
	lat := func(p proto.Params) float64 {
		s := smallSystem(t, func(c *core.SystemConfig) {
			c.Device.Protocol = p
			c.Device.TrackData = false
		})
		if err := s.Precondition(16); err != nil {
			t.Fatal(err)
		}
		gen, _ := workload.NewFIO(workload.RandRead, 4096, s.VolumeBytes(), 10)
		res, err := s.Run(gen, core.RunConfig{Requests: 300, IODepth: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgLatencyUs()
	}
	nvme, sata := lat(proto.NVMe121()), lat(proto.SATA30())
	if nvme >= sata {
		t.Fatalf("NVMe QD1 latency (%v us) should beat SATA (%v us)", nvme, sata)
	}
}

// TestSubmitAllocLean locks in the tentpole guarantee: with TrackData off,
// a steady-state Submit performs (almost) no heap allocations — the event
// records, op structs, line buffers and plan storage are all pooled.
func TestSubmitAllocLean(t *testing.T) {
	d := config.SmallTestDevice()
	d.TrackData = false
	s, err := core.NewSystem(config.PCSystem(d))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Warm every pool (ops, fills, engine records, FTL plan, FIL scratch)
	// through cache-eviction and GC territory.
	i := 0
	for ; i < 2000; i++ {
		if _, err := s.Submit(s.Now(), gen.Next(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := s.Submit(s.Now(), gen.Next(i), nil); err != nil {
			t.Fatal(err)
		}
		i++
	})
	// The seed implementation spent ~25 allocs per request; the pooled
	// pipeline's budget is under one (occasional map/slice growth inside
	// rare GC plans is tolerated, steady state is zero).
	if allocs > 1 {
		t.Fatalf("Submit allocated %.2f objects/op in steady state, want <= 1", allocs)
	}
}

// TestPassiveSubmitAllocsLikeActive: a passive (OCSSD/pblk) request rides
// the same pooled op as an active one, so a steady-state 4 KiB timing-only
// Submit allocates no more on the passive architecture than on the active
// one, reads and writes alike.
func TestPassiveSubmitAllocsLikeActive(t *testing.T) {
	steady := func(pattern workload.Pattern, passive bool) float64 {
		d := config.SmallTestDevice()
		d.TrackData = false
		if passive {
			d.Passive = true
			d.Protocol = proto.OCSSD20()
		}
		s, err := core.NewSystem(config.PCSystem(d))
		if err != nil {
			t.Fatal(err)
		}
		gen, err := workload.NewFIO(pattern, 4096, s.VolumeBytes(), 1)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		submit := func() {
			if _, err := s.Submit(s.Now(), gen.Next(i), nil); err != nil {
				t.Fatal(err)
			}
			i++
		}
		for i < 2000 { // warm every pool through eviction and GC territory
			submit()
		}
		return testing.AllocsPerRun(500, submit)
	}
	for _, pattern := range []workload.Pattern{workload.RandWrite, workload.RandRead} {
		active, passive := steady(pattern, false), steady(pattern, true)
		if passive > active {
			t.Errorf("%v: passive Submit allocated %.2f objects/op, active %.2f", pattern, passive, active)
		}
	}
}

// TestSubmitDeterministicAcrossRuns guards the scratch-and-pool refactor
// against order dependence: completion times must not depend on map
// iteration order or on which recycled op/fill struct a request happens
// to draw (stale fields leaking through reuse). The workload interleaves
// shapes — single-line and multi-line, reads and writes, hits and misses
// — so recycled ops cross shapes, then the identical sequence is replayed
// on a second system and every completion time compared.
func TestSubmitDeterministicAcrossRuns(t *testing.T) {
	run := func() []sim.Time {
		s := smallSystem(t, nil)
		bs := s.Split.LineBytes()
		var times []sim.Time
		submit := func(req workload.Request) {
			done, err := s.Submit(s.Now(), req, nil)
			if err != nil {
				t.Fatal(err)
			}
			times = append(times, done)
		}
		gen, err := workload.NewFIO(workload.RandWrite, 4096, s.VolumeBytes(), 7)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			submit(gen.Next(i))
			switch i % 4 {
			case 0: // multi-line write lands in pooled ops sized by 4K ones
				submit(workload.Request{Write: true, Offset: int64(i%8) * int64(bs), Length: 3 * bs})
			case 2: // read mixes hit/miss fills through the same pools
				submit(workload.Request{Offset: int64(i%16) * int64(bs), Length: bs})
			}
		}
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d completed at %v vs %v across identical runs", i, a[i], b[i])
		}
	}
}
