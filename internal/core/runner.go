package core

import (
	"errors"
	"fmt"

	"amber/internal/ftl"
	"amber/internal/nand"
	"amber/internal/sim"
	"amber/internal/stats"
	"amber/internal/workload"
)

// RunConfig parameterizes a closed-loop benchmark run.
type RunConfig struct {
	// Requests is the number of I/Os to complete.
	Requests int
	// IODepth is the requested queue depth; the protocol's hardware queue
	// limit and the scheduler's dispatch window may clamp it.
	IODepth int
	// SampleEvery enables time-series sampling of host CPU utilization and
	// memory usage at this period (zero disables).
	SampleEvery sim.Duration
	// RunMemBytes models the benchmark process's resident memory (FIO
	// buffers + driver pools), allocated for the duration of the run
	// (Fig. 15c). Zero allocates nothing.
	RunMemBytes int64
	// WithData attaches payload buffers to every request so real bytes
	// move end to end (requires a TrackData system for integrity checks).
	WithData bool
	// PowerLossAt cuts device power at this absolute simulated time (zero
	// disables; a time before the system clock is an error, because the
	// flash's in-flight journals are pruned up to it): the run's engine
	// halts at the cut — one event in the engine's (time, sequence) order,
	// so the dispatched prefix is a property of the event sequence — all
	// volatile firmware state is discarded with in-flight programs resolved
	// torn-or-committed by the seeded fault draw, and mount-time recovery
	// rebuilds the FTL from OOB stamps before the run returns. Requests in
	// flight at the cut never complete and are not counted.
	PowerLossAt sim.Time
	// StopOnReadOnly stops issuing new requests after the first write the
	// device refuses with ftl.ErrReadOnly, instead of grinding through the
	// remaining budget against a read-only device. Outstanding requests
	// still drain; RunResult.StoppedEarly reports the truncation.
	StopOnReadOnly bool
	// ScrubEvery arms the background patrol scrubber at this period (zero
	// disables): each tick refreshes at most one super-block, the next one
	// RAIN reconstruction pressure queued. The tick rides its own
	// scheduling domain, like the power cut, so where it lands in the
	// request stream is decided by the engine's (time, sequence) order
	// alone. Arming a scrubber also flips the scrub-or-retire policy:
	// blocks under reconstruction pressure are refreshed instead of
	// retired, deferring the read-only latch.
	ScrubEvery sim.Duration
}

// RunResult reports a completed run.
type RunResult struct {
	Workload string
	// Requests is the configured budget, unless the run was cut short: the
	// count issued when StopOnReadOnly stopped it (StoppedEarly), the count
	// completed before the cut when PowerLossAt halted it (PowerLost).
	Requests     int
	Depth        int // effective depth after protocol/scheduler clamping
	BytesRead    int64
	BytesWritten int64
	Start        sim.Time
	End          sim.Time

	Latency stats.Latency

	// Time series (populated when sampling was enabled).
	HostCPUUtil stats.Series // fraction of all host cores busy
	HostMemMB   stats.Series // resident host memory in MB

	// Engine activity of this run's event loop: total dispatched events
	// and how they spread across the scheduling domains.
	Events       uint64
	DomainEvents []sim.DomainStat

	// Degradation under injected faults: writes refused because the device
	// latched read-only, reads lost to uncorrectable errors, and whether
	// the run ended with the device read-only. These requests complete with
	// an error instead of aborting the run — real hosts retry or fail the
	// I/O, they don't stop the machine.
	FailedWrites int
	FailedReads  int
	ReadOnly     bool
	// StoppedEarly reports that RunConfig.StopOnReadOnly truncated the run.
	StoppedEarly bool

	// Power-loss outcome (RunConfig.PowerLossAt): whether the cut fired,
	// how the flash resolved in-flight programs, and what mount-time
	// recovery rebuilt. End excludes the mount scan; the system clock
	// advances past it.
	PowerLost bool
	PowerLoss PowerLossReport
	Mount     ftl.MountReport
}

// Elapsed returns the wall-clock span of the run in simulated time.
func (r *RunResult) Elapsed() sim.Duration {
	if r.End <= r.Start {
		return 0
	}
	return r.End - r.Start
}

// BandwidthMBps returns total data moved over elapsed time.
func (r *RunResult) BandwidthMBps() float64 {
	return stats.BandwidthMBps(r.BytesRead+r.BytesWritten, r.Elapsed())
}

// IOPS returns completed requests per second.
func (r *RunResult) IOPS() float64 {
	return stats.IOPS(int64(r.Requests), r.Elapsed())
}

// AvgLatencyUs returns mean request latency in microseconds.
func (r *RunResult) AvgLatencyUs() float64 { return r.Latency.Mean() }

// Run drives the generator through the system closed-loop: `depth` slots
// each keep one request in flight, issuing the next the moment the
// previous completes — the FIO/libaio behavior the paper benchmarks with.
func (s *System) Run(gen workload.Generator, rc RunConfig) (*RunResult, error) {
	if rc.Requests <= 0 {
		return nil, fmt.Errorf("core: run needs a positive request count")
	}
	if rc.PowerLossAt > 0 && rc.PowerLossAt < s.now {
		// The flash's in-flight journals were pruned at the system clock: a
		// cut before it would find programs and erases it caught already
		// committed.
		return nil, fmt.Errorf("core: power cut at %v before the system clock %v", rc.PowerLossAt, s.now)
	}
	depth := s.params.EffectiveQueueDepth(rc.IODepth)
	if cap := s.Host.DepthCap(); depth > cap {
		depth = cap
	}
	if depth > rc.Requests {
		depth = rc.Requests
	}

	if rc.RunMemBytes > 0 {
		if err := s.Host.Alloc(rc.RunMemBytes); err != nil {
			return nil, err
		}
		defer s.Host.Free(rc.RunMemBytes)
	}

	res := &RunResult{
		Workload: gen.Name(),
		Requests: rc.Requests,
		Depth:    depth,
		Start:    s.now,
	}
	res.HostCPUUtil.Name = "host-cpu-util"
	res.HostMemMB.Name = "host-mem-mb"

	bytesRead0, bytesWritten0 := s.bytesRead, s.bytesWritten
	res.End = res.Start

	// Event-driven closed loop: each of the `depth` jobs keeps one request
	// in flight, issuing its next the moment the previous completes. The
	// shared engine makes concurrent requests claim resources in global
	// time order.
	e := sim.NewEngine()
	l := &runLoop{s: s, e: e, host: s.domainsFor(e).host, gen: gen, rc: rc, res: res, nextSample: res.Start}
	if rc.SampleEvery > 0 {
		l.cpuCounter.Delta(res.Start+1, s.Host.CPU.BusyTime().Seconds())
		l.nextSample = res.Start + rc.SampleEvery
	}
	// The power cut rides an event in its own domain, scheduled before any
	// workload event so its sequence number orders it ahead of same-time
	// traffic.
	if rc.PowerLossAt > 0 {
		pwr := e.Domain("pwr")
		e.AtIn(pwr, rc.PowerLossAt, func() { e.Halt() })
	}
	for i := 0; i < depth; i++ {
		j := &runJob{l: l}
		j.issueFn, j.doneFn = j.issue, j.done
		e.AtIn(l.host, res.Start, j.issueFn)
	}
	if rc.ScrubEvery > 0 {
		// The patrol tick self-reschedules only while the workload still
		// has requests outstanding, so the engine drains when the run does.
		// Arming it also flips the scrub-or-retire policy (see noteRecon).
		s.scrubArmed = true
		defer func() { s.scrubArmed = false }()
		scrubDom := e.Domain("scrub")
		var tick func()
		tick = func() {
			if l.err != nil {
				return
			}
			s.scrubTick(e, e.Now())
			if l.issued < rc.Requests && !l.stopped || l.completed < l.issued {
				e.AtIn(scrubDom, e.Now()+rc.ScrubEvery, tick)
			}
		}
		e.AtIn(scrubDom, res.Start+rc.ScrubEvery, tick)
	}
	e.Run()
	res.Events = e.Dispatched()
	res.DomainEvents = e.DomainStats()
	if l.stopped {
		res.StoppedEarly = true
		res.Requests = l.issued
	}
	if l.err != nil {
		return nil, l.err
	}
	if l.completed != l.issued && !e.Halted() && !l.stopped {
		// Every issued request owes one completion; one that never came is a
		// callback lost inside the simulator, not a result to report short.
		return nil, fmt.Errorf("core: run drained with %d of %d issued requests completed", l.completed, l.issued)
	}
	if res.End > s.now {
		s.now = res.End
	}
	if e.Halted() {
		// The cut fired: requests still in flight die with the firmware
		// RAM (their completions never ran, so they were never counted),
		// the device loses all volatile state, and mount-time recovery
		// rebuilds the FTL from the flash's OOB stamps.
		res.PowerLost = true
		res.Requests = l.completed
		res.PowerLoss = s.PowerLoss(rc.PowerLossAt)
		mrep, err := s.Mount()
		if err != nil {
			return nil, fmt.Errorf("core: mount after power loss: %w", err)
		}
		res.Mount = mrep
	}
	// No later cut lands before the system clock: what the flash completed
	// by then leaves its in-flight journals.
	s.Flash.PruneEraseUndo(s.now)
	res.ReadOnly = s.FTL.ReadOnly()
	res.BytesRead = int64(s.bytesRead - bytesRead0)
	res.BytesWritten = int64(s.bytesWritten - bytesWritten0)
	return res, nil
}

// runLoop is the state Run's jobs share: the budget, the counts and what a
// completion records.
type runLoop struct {
	s    *System
	e    *sim.Engine
	host sim.DomainID
	gen  workload.Generator
	rc   RunConfig
	res  *RunResult

	issued, completed int
	stopped           bool
	err               error

	cpuCounter stats.Counter
	nextSample sim.Time
}

// runJob is one slot of the closed loop. It carries its request in flight
// and is reused for the next, with both callbacks bound once, so a request
// costs no closure.
type runJob struct {
	l       *runLoop
	i       int
	req     workload.Request
	issued  sim.Time
	issueFn func()
	doneFn  func(sim.Time, error)
}

func (j *runJob) issue() {
	l := j.l
	if l.err != nil || l.stopped || l.issued >= l.rc.Requests {
		return
	}
	j.i = l.issued
	l.issued++
	j.req = l.gen.Next(j.i)
	var data []byte
	if l.rc.WithData {
		data = make([]byte, j.req.Length)
		if j.req.Write {
			for k := range data {
				data[k] = byte(int(j.req.Offset) + k + j.i)
			}
		}
	}
	j.issued = l.e.Now()
	l.s.SubmitAsync(l.e, j.req, data, j.doneFn)
}

func (j *runJob) done(done sim.Time, err error) {
	l := j.l
	res, e := l.res, l.e
	l.completed++
	if err != nil {
		// Degradation errors are per-request outcomes, not run
		// failures: a read-only device refuses writes and an
		// uncorrectable page fails its read, but the host keeps
		// issuing. Anything else is a simulator fault and aborts.
		if errors.Is(err, ftl.ErrReadOnly) || errors.Is(err, nand.ErrUncorrectable) {
			if j.req.Write {
				res.FailedWrites++
			} else {
				res.FailedReads++
			}
			if l.rc.StopOnReadOnly && errors.Is(err, ftl.ErrReadOnly) {
				l.stopped = true
				return
			}
			e.AtIn(l.host, e.Now(), j.issueFn)
			return
		}
		if l.err == nil {
			l.err = fmt.Errorf("core: request %d (%+v): %w", j.i, j.req, err)
		}
		return
	}
	res.Latency.Add(done - j.issued)
	if done > res.End {
		res.End = done
	}
	if l.rc.SampleEvery > 0 {
		for done >= l.nextSample {
			// Host CPU utilization over the window: busy-seconds
			// rate divided by core count.
			rate := l.cpuCounter.Delta(l.nextSample, l.s.Host.CPU.BusyTime().Seconds())
			res.HostCPUUtil.Add(l.nextSample, rate/float64(l.s.cfg.Host.CPUs))
			res.HostMemMB.Add(l.nextSample, float64(l.s.Host.MemUsed())/1e6)
			l.nextSample += l.rc.SampleEvery
		}
	}
	e.AtIn(l.host, sim.MaxOf(done, e.Now()), j.issueFn)
}

// Drain advances the system clock past all outstanding backend work
// (flash programs, GC migrations, erases), so a following measurement is
// not polluted by the tail of earlier writes. Benchmarks call it between
// preconditioning and the measured run, mirroring the idle settle time
// real SSD test methodology inserts. The flash's in-flight journals empty
// with it: no later cut lands before the new clock.
func (s *System) Drain() {
	if t := s.Flash.FreeAt(); t > s.now {
		s.now = t
	}
	s.Flash.PruneEraseUndo(s.now)
}

// Precondition brings the device to the paper's STEADY-STATE: the entire
// logical volume is written sequentially once (full mapping, no free
// logical space), so subsequent write tests exercise GC realistically.
func (s *System) Precondition(depth int) error {
	bs := s.Split.LineBytes()
	n := int(s.VolumeBytes() / int64(bs))
	gen, err := workload.NewFIO(workload.SeqWrite, bs, s.VolumeBytes(), s.cfg.Device.Seed)
	if err != nil {
		return err
	}
	res, err := s.Run(gen, RunConfig{Requests: n, IODepth: depth, StopOnReadOnly: true})
	if err != nil {
		return err
	}
	if res.StoppedEarly || res.FailedWrites > 0 {
		// Surface wear-out as a typed error with progress context instead
		// of grinding the remaining budget against a read-only device.
		ok := res.Requests - res.FailedWrites
		return fmt.Errorf("core: precondition stopped after %d of %d writes (%d refused): %w",
			ok, n, res.FailedWrites, ftl.ErrReadOnly)
	}
	if _, err := s.Flush(s.now); err != nil {
		return err
	}
	s.Drain()
	return nil
}

// StressFill overwrites the volume randomly with writeFactor times its
// capacity in 4 KiB-aligned blocks of the given size — the stress Fig. 11
// runs with writeFactor 0.25.
func (s *System) StressFill(blockSize int, writeFactor float64) error {
	gen, err := workload.NewFIO(workload.RandWrite, blockSize, s.VolumeBytes(), s.cfg.Device.Seed^0x5f)
	if err != nil {
		return err
	}
	n := int(float64(s.VolumeBytes()) * writeFactor / float64(blockSize))
	if n < 1 {
		n = 1
	}
	res, err := s.Run(gen, RunConfig{Requests: n, IODepth: 32, StopOnReadOnly: true})
	if err != nil {
		return err
	}
	if res.StoppedEarly || res.FailedWrites > 0 {
		ok := res.Requests - res.FailedWrites
		return fmt.Errorf("core: stress fill stopped after %d of %d writes (%d refused): %w",
			ok, n, res.FailedWrites, ftl.ErrReadOnly)
	}
	return nil
}
