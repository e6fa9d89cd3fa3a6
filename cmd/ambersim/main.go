// Command ambersim runs one workload against one or more configured SSD
// systems and prints the measured bandwidth, latency distribution,
// firmware activity and power breakdown — the single-run front door to
// the simulator.
//
// Usage:
//
//	ambersim -device intel750 -workload rand-read -bs 4096 -depth 32 -n 20000
//	ambersim -device zssd -trace 24HRS -n 10000
//	ambersim -device intel750,zssd,850pro -parallel 3   # one system per device, simulated concurrently
//	ambersim -device intel750 -batch-submit -n 20000    # vectored SubmitBatch path, per-window bookkeeping
//	ambersim -device intel750 -rain 3 -scrub-every 5ms -fault-profile wearout   # die-level RAIN parity + patrol scrub
//	ambersim -list
//
// With multiple devices, each gets its own single-threaded core.System;
// -parallel N simulates up to N of them concurrently. Reports print in
// the order devices were named regardless of completion order.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"amber/internal/config"
	"amber/internal/core"
	"amber/internal/exp"
	"amber/internal/host"
	"amber/internal/sim"
	"amber/internal/stats"
	"amber/internal/workload"
)

func main() {
	var (
		device    = flag.String("device", "intel750", "comma-separated device presets (see -list)")
		wl        = flag.String("workload", "rand-read", "fio pattern: seq-read|rand-read|seq-write|rand-write")
		trace     = flag.String("trace", "", "Table III trace instead of fio pattern: 24HR|24HRS|DAP|CFS|MSNFS")
		bs        = flag.Int("bs", 4096, "block size in bytes (fio patterns)")
		depth     = flag.Int("depth", 32, "I/O queue depth")
		n         = flag.Int("n", 10000, "request count")
		sched     = flag.String("sched", "bfq", "host I/O scheduler: noop|cfq|bfq")
		mobile    = flag.Bool("mobile", false, "use the mobile (Jetson TX2-class) host platform")
		noPrecond = flag.Bool("no-precondition", false, "skip steady-state preconditioning")
		list      = flag.Bool("list", false, "list device presets and exit")
		seed      = flag.Uint64("seed", 42, "workload seed")
		parallel  = flag.Int("parallel", 0, "concurrently simulated devices (0/1 = serial)")
		contigDMA = flag.Bool("contig-dma", false, "model payload buffers as physically contiguous host pages (Timing-mode DMA batches descriptors)")
		faultProf = flag.String("fault-profile", "off", "deterministic NAND fault injection: off|light|heavy|wearout")
		faultSeed = flag.Uint64("fault-seed", 1, "seed for the injected fault schedule (same seed + same workload = same faults)")
		powerLoss = flag.String("power-loss-at", "", "cut device power this long into the measured run (e.g. 50ms): volatile state is lost, in-flight programs resolve torn-or-committed by a seeded draw, then the device remounts from OOB and the run reports the recovery")
		snapPath  = flag.String("snapshot", "", "after the run, write the device's full functional state to this file as a checksummed versioned image")
		restPath  = flag.String("restore", "", "before the run, restore device state from this snapshot image (skips preconditioning; the image carries the device's steady state)")
		batchSub  = flag.Bool("batch-submit", false, "drive the measured requests through the vectored SubmitBatch entry (serial depth-1 contract, per-window bookkeeping drains): footer reports batch windows and certified-read fast-path counters")
		rainWidth = flag.Int("rain", 0, "RAIN stripe width W: every W data planes share one parity plane, uncorrectable reads reconstruct from the stripe (0 = off; W+1 must divide the plane count)")
		scrubSpec = flag.String("scrub-every", "", "patrol scrub cadence (e.g. 5ms; needs -rain and a -fault-profile): a super-block under RAIN reconstruction pressure is refreshed on the next tick instead of retired, deferring wear-out read-only")
	)
	flag.Parse()
	// Every input is a flag; Parse stops at the first other word, so a
	// stray one would silently drop it and every flag after it.
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "ambersim: unexpected argument %q (every option is a flag; see -h)\n", flag.Arg(0))
		os.Exit(2)
	}

	if *list {
		names := make([]string, 0)
		for name := range config.Devices() {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			d, _ := config.Device(name)
			fmt.Printf("%-12s %-6s %3d dies  %4d MB/s link\n",
				name, d.Protocol.Kind, d.Geometry.TotalDies(), int(d.Protocol.LinkBytesPerSec/1e6))
		}
		return
	}

	var schedKind host.SchedulerKind
	switch *sched {
	case "noop":
		schedKind = host.NoopSched
	case "cfq":
		schedKind = host.CFQ
	case "bfq":
		schedKind = host.BFQ
	default:
		fatal(fmt.Errorf("unknown scheduler %q", *sched))
	}

	devices := strings.Split(*device, ",")
	for i := range devices {
		devices[i] = strings.TrimSpace(devices[i])
		// Validate names up front: a typo in a later device must not cost
		// the earlier devices' full preconditioning runs first.
		if _, err := config.Device(devices[i]); err != nil {
			fatal(err)
		}
	}

	// Validate workload naming up front: a typo must not cost a full
	// preconditioning run first.
	var pattern workload.Pattern
	var traceParams workload.TraceParams
	if *trace != "" {
		found := false
		for _, t := range workload.Traces() {
			if t.TraceName == *trace {
				traceParams, found = t, true
			}
		}
		if !found {
			fatal(fmt.Errorf("unknown trace %q", *trace))
		}
	} else {
		switch *wl {
		case "seq-read":
			pattern = workload.SeqRead
		case "rand-read":
			pattern = workload.RandRead
		case "seq-write":
			pattern = workload.SeqWrite
		case "rand-write":
			pattern = workload.RandWrite
		default:
			fatal(fmt.Errorf("unknown workload %q", *wl))
		}
	}

	// Validate the fault profile up front too, for the same reason.
	if _, err := config.FaultProfile(*faultProf, *faultSeed); err != nil {
		fatal(err)
	}

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	powerCut, scrubEvery, err := runFlags{
		requests: *n, blockSize: *bs, depth: *depth,
		devices: len(devices), parallel: *parallel,
		batchSubmit: *batchSub, trace: *trace != "",
		powerLossAt: *powerLoss, scrubEvery: *scrubSpec, rain: *rainWidth,
		snapshot: *snapPath, restore: *restPath, faultProfile: *faultProf, set: set,
	}.validate()
	if err != nil {
		fatal(err)
	}

	o := runOptions{
		sched: schedKind, mobile: *mobile, contigDMA: *contigDMA,
		faultProfile: *faultProf, faultSeed: *faultSeed, rain: *rainWidth,
		restore: *restPath, snapshot: *snapPath, precondition: !*noPrecond,
		pattern: pattern, blockSize: *bs, seed: *seed,
		requests: *n, depth: *depth, batchSubmit: *batchSub,
		scrubEvery: scrubEvery, powerCut: powerCut,
	}
	if *trace != "" {
		o.trace = &traceParams
	}
	outs := make([]strings.Builder, len(devices))
	err = exp.ForEach(*parallel, len(devices), func(i int) error {
		if err := runOne(devices[i], &outs[i], o); err != nil {
			return fmt.Errorf("%s: %w", devices[i], err)
		}
		return nil
	})
	if err != nil {
		fatal(err)
	}
	for i := range devices {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(outs[i].String())
	}
}

// runOptions is the flag set as one device's run needs it: names resolved,
// durations parsed, combinations already validated.
type runOptions struct {
	sched                host.SchedulerKind
	mobile, contigDMA    bool
	faultProfile         string
	faultSeed            uint64
	rain                 int
	restore, snapshot    string // image paths, "" = off
	precondition         bool
	trace                *workload.TraceParams // nil = the fio pattern
	pattern              workload.Pattern
	blockSize            int
	seed                 uint64
	requests, depth      int
	batchSubmit          bool
	scrubEvery, powerCut sim.Duration
}

// batchChunk is how many requests -batch-submit hands SubmitBatch at once:
// a multiple of core.DefaultBatchWindow.
const batchChunk = 1 << 16

// runOne builds the named device, brings it to its starting state, runs the
// workload and writes the report to w.
func runOne(dev string, w io.Writer, o runOptions) error {
	d, err := config.Device(dev)
	if err != nil {
		return err
	}
	d.Faults, err = config.FaultProfile(o.faultProfile, o.faultSeed)
	if err != nil {
		return err
	}
	d.RAINWidth = o.rain
	cfg := config.PCSystem(d)
	if o.mobile {
		cfg = config.MobileSystem(d)
	}
	cfg.Host.Scheduler = o.sched
	cfg.ContiguousDMA = o.contigDMA

	s, err := core.NewSystem(cfg)
	if err != nil {
		return err
	}
	switch {
	case o.restore != "":
		// The image carries a complete device state (typically an
		// already-preconditioned one), so preconditioning is skipped.
		img, err := os.ReadFile(o.restore)
		if err != nil {
			return err
		}
		if err := s.Restore(img); err != nil {
			return fmt.Errorf("restore %s: %w", o.restore, err)
		}
		fmt.Fprintf(os.Stderr, "%s: restored %d-byte state image from %s\n", dev, len(img), o.restore)
	case o.precondition:
		fmt.Fprintln(os.Stderr, dev+": preconditioning to steady state...")
		if err := s.Precondition(32); err != nil {
			return err
		}
	}

	var gen workload.Generator
	if o.trace != nil {
		gen, err = workload.NewTrace(*o.trace, s.VolumeBytes(), o.seed)
	} else {
		gen, err = workload.NewFIO(o.pattern, o.blockSize, s.VolumeBytes(), o.seed)
	}
	if err != nil {
		return err
	}

	rc := core.RunConfig{Requests: o.requests, IODepth: o.depth, ScrubEvery: o.scrubEvery}
	if o.powerCut > 0 {
		rc.PowerLossAt = s.Now() + o.powerCut
	}
	// Everything below the latency row is a counter that has been running
	// since construction, through preconditioning or a restored image's
	// history: the report prints what the measured run added.
	base := s.Counters()
	var res *core.RunResult
	if o.batchSubmit {
		// Vectored path: hand the request stream to SubmitBatch in chunks
		// of batchChunk requests, each issued at the previous one's last
		// completion, so memory stays flat whatever -n is. The device
		// windows internally (scheduler dispatch window, protocol queue
		// depth, core.DefaultBatchWindow) and resets its engine once per
		// window instead of once per request; results are byte-identical to
		// a Submit loop, so every footer counter below means the same thing.
		// Only the batch row's window count may differ from one call over
		// the whole stream, by at most one per chunk boundary.
		start := s.Now()
		res = &core.RunResult{Workload: gen.Name(), Requests: o.requests, Depth: 1, Start: start, End: start}
		reqs := make([]workload.Request, 0, min(o.requests, batchChunk))
		times := make([]sim.Time, cap(reqs))
		for i := 0; i < o.requests; {
			reqs = reqs[:0]
			for ; i < o.requests && len(reqs) < cap(reqs); i++ {
				r := gen.Next(i)
				if r.Write {
					res.BytesWritten += int64(r.Length)
				} else {
					res.BytesRead += int64(r.Length)
				}
				reqs = append(reqs, r)
			}
			prev := res.End
			if res.End, err = s.SubmitBatch(prev, reqs, nil, times); err != nil {
				return err
			}
			// Under the serial depth-1 contract request i issues the moment
			// request i-1 completes, so per-request latency is the gap
			// between consecutive completion stamps.
			for _, done := range times[:len(reqs)] {
				if done < prev { // contract says nondecreasing; stay safe
					done = prev
				}
				res.Latency.Add(done - prev)
				prev = done
			}
		}
	} else {
		res, err = s.Run(gen, rc)
		if err != nil {
			return err
		}
	}

	el := res.Elapsed()
	fmt.Fprintf(w, "workload        %s\n", res.Workload)
	fmt.Fprintf(w, "device          %s (%s, %d dies)\n", d.Name, d.Protocol.Kind, d.Geometry.TotalDies())
	switch {
	case o.batchSubmit:
		fmt.Fprintf(w, "requests        %d vectored (serial depth-1 contract)\n", res.Requests)
	case res.Requests < o.requests && res.PowerLost:
		fmt.Fprintf(w, "requests        %d of %d before the power cut at depth %d (effective)\n", res.Requests, o.requests, res.Depth)
	default:
		fmt.Fprintf(w, "requests        %d at depth %d (effective)\n", res.Requests, res.Depth)
	}
	fmt.Fprintf(w, "simulated time  %v\n", el)
	fmt.Fprintf(w, "bandwidth       %.1f MB/s (%.0f IOPS)\n", res.BandwidthMBps(), res.IOPS())
	// avg and max are exact; the percentiles are histogram midpoints, within
	// the bound the row states of the exact samples.
	fmt.Fprintf(w, "latency         avg %.1f us, p50 %.1f, p95 %.1f, p99 %.1f, max %.1f (percentiles ±%.1f %%)\n",
		res.AvgLatencyUs(), res.Latency.Percentile(50), res.Latency.Percentile(95),
		res.Latency.Percentile(99), res.Latency.Max(), stats.PercentileBound*100)

	win := s.Counters().Since(base)
	fmt.Fprintf(w, "ftl             WAF %.2f, GC runs %d, migrated %d, erases %d\n",
		win.FTL.WAF(), win.FTL.GCRuns, win.FTL.GCMigrated, win.FTL.Erases)
	fmt.Fprintf(w, "icl             hit rate %.1f%%, readaheads %d, evictions %d\n",
		win.ICL.HitRate()*100, win.ICL.Readaheads, win.ICL.Evictions)
	fmt.Fprintf(w, "firmware        %.1fM instructions (%.0f%% load/store)\n",
		float64(win.Firmware.Total())/1e6, win.Firmware.LoadStoreFraction()*100)
	fmt.Fprintf(w, "dma             %d descriptors / %d entries (%s mode), %.1f MB moved\n",
		win.DMA.Descriptors, win.DMA.Entries, s.DMA.Mode(), float64(win.DMA.BytesMoved)/1e6)
	// The certified-plan counter surfaces the fast path: plans the FIL
	// executed without the prevalidation walk.
	fmt.Fprintf(w, "fil             %d plans (%d certified fast-path)\n",
		win.FIL.PlanCount, win.FIL.CertifiedPlans)
	if o.batchSubmit {
		windows, batched := s.BatchStats()
		fmt.Fprintf(w, "batch           %d windows over %d requests; certified reads %d, cert disarms %d\n",
			windows, batched, win.FIL.CertifiedReads, win.FIL.CertDisarms)
	}
	if res.PowerLost {
		pl := res.PowerLoss.Flash
		fmt.Fprintf(w, "power loss      cut at %v: %d in-flight programs (%d torn / %d committed), %d erases undone, %d dirty cache lines lost\n",
			rc.PowerLossAt, pl.InFlight, pl.Torn, pl.Committed, pl.ErasesUndone, res.PowerLoss.DirtyLinesLost)
		m := res.Mount
		fmt.Fprintf(w, "recovery        mount scan %v, %d mappings recovered, %d torn pages discarded, %d stale skipped, %d retired replayed, cleanup erased %d, squeezed %d blocks (%d sub-pages)\n",
			m.ScanTime, m.RecoveredSubs, m.TornDiscarded, m.StaleSkipped, m.RetiredSBs, m.CleanupErases, m.SqueezedSBs, m.SqueezedSubs)
	}
	if o.rain > 0 || o.scrubEvery > 0 {
		fmt.Fprintf(w, "rain/scrub      %d parity writes, %d reconstructions, %d double faults; %d scrub runs migrated %d sub-pages\n",
			win.FTL.ParityWrites, win.FTL.Reconstructions, win.FTL.DoubleFaults, win.FTL.ScrubRuns, win.FTL.ScrubMigrated)
	}
	if s.Flash.FaultsEnabled() {
		state := "healthy"
		if s.FTL.ReadOnly() {
			state = "READ-ONLY"
		}
		fmt.Fprintf(w, "faults          %d program / %d erase / %d uncorrectable, %d read retries; retired %v, spare headroom %d, %d failed writes / %d failed reads [%s]\n",
			win.Faults.ProgramFails, win.Faults.EraseFails, win.Faults.Uncorrectable, win.Faults.ReadRetries,
			s.FTL.RetiredSuperBlocks(), s.FTL.SpareHeadroom(), res.FailedWrites, res.FailedReads, state)
	}
	if !o.batchSubmit {
		fmt.Fprintf(w, "engine          %d events", res.Events)
		// The busiest scheduling domains, most-loaded first, ties in
		// registration order.
		sort.SliceStable(res.DomainEvents, func(i, j int) bool {
			return res.DomainEvents[i].Dispatched > res.DomainEvents[j].Dispatched
		})
		shown := 0
		for _, d := range res.DomainEvents {
			if d.Dispatched == 0 || shown == 4 {
				break
			}
			fmt.Fprintf(w, "  %s %d", d.Name, d.Dispatched)
			shown++
		}
		fmt.Fprintln(w)
	}
	cpuW, dramW, nandW := s.WindowWatts(base, el)
	fmt.Fprintf(w, "power (avg)     cpu %.2f W, dram %.2f W, nand %.2f W\n", cpuW, dramW, nandW)
	fmt.Fprintf(w, "host            cpu busy %v, mem used %d MB\n",
		win.HostBusy, s.Host.MemUsed()>>20)
	if o.snapshot != "" {
		img, err := s.Snapshot()
		if err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		if err := os.WriteFile(o.snapshot, img, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "snapshot        %d-byte state image -> %s\n", len(img), o.snapshot)
	}
	return nil
}

// runFlags is the part of the flag set whose values constrain each other.
type runFlags struct {
	requests, blockSize, depth int
	devices, rain, parallel    int
	batchSubmit, trace         bool
	powerLossAt, scrubEvery    string // durations as typed, "" = off
	snapshot, restore          string
	faultProfile               string          // as typed; "off" and "" draw no faults
	set                        map[string]bool // flags given on the command line
}

// validate cross-checks the flags before any device is built — a bad
// combination must not cost a preconditioning run first — and returns the
// two parsed durations (zero = off).
func (f runFlags) validate() (powerCut, scrubEvery sim.Duration, err error) {
	if f.requests <= 0 {
		return 0, 0, fmt.Errorf("bad -n %d: want a positive request count", f.requests)
	}
	// A trace brings its own request mix and sizes, so the fio flags are
	// rejected rather than silently ignored, and -bs is only checked where
	// it is read.
	if f.trace {
		for _, name := range []string{"workload", "bs"} {
			if f.set[name] {
				return 0, 0, fmt.Errorf("-%s does not apply with -trace: the trace sets every request", name)
			}
		}
	} else if f.blockSize <= 0 {
		return 0, 0, fmt.Errorf("bad -bs %d: want a positive block size", f.blockSize)
	} else if f.blockSize%512 != 0 {
		// The host addresses whole sectors.
		return 0, 0, fmt.Errorf("bad -bs %d: want a multiple of 512 bytes", f.blockSize)
	}
	// Likewise a fault seed with no fault profile would seed nothing.
	if f.set["fault-seed"] && (f.faultProfile == "off" || f.faultProfile == "") {
		return 0, 0, errors.New("-fault-seed does not apply with -fault-profile off: no faults are drawn")
	}
	// The layers below clamp it to 1; a run at a depth nobody asked for is
	// not what the report would say it was.
	if f.depth <= 0 {
		return 0, 0, fmt.Errorf("bad -depth %d: want a positive queue depth", f.depth)
	}
	// Zero means serial; a negative count would run as zero and say nothing.
	if f.parallel < 0 {
		return 0, 0, fmt.Errorf("bad -parallel %d: want a non-negative device count", f.parallel)
	}
	if powerCut, err = flagDuration("-power-loss-at", f.powerLossAt, "50ms"); err != nil {
		return 0, 0, err
	}
	if scrubEvery, err = flagDuration("-scrub-every", f.scrubEvery, "5ms"); err != nil {
		return 0, 0, err
	}
	if (f.snapshot != "" || f.restore != "") && f.devices > 1 {
		return 0, 0, fmt.Errorf("-snapshot and -restore apply to a single device, got %d", f.devices)
	}
	if f.rain < 0 {
		return 0, 0, fmt.Errorf("bad -rain %d: want a non-negative stripe width", f.rain)
	}
	if f.batchSubmit {
		switch {
		case powerCut > 0:
			// SubmitBatch is synchronous: each call returns with the device
			// quiescent, so there is no in-flight window for a cut to land in.
			return 0, 0, errors.New("-batch-submit and -power-loss-at are incompatible: the vectored path has no in-flight state to cut")
		case scrubEvery > 0:
			// The patrol scrubber is an engine-event ticker inside Run; the
			// vectored path bypasses the evented runner entirely, so a cadence
			// there would silently never fire. Reject instead of ignoring.
			return 0, 0, errors.New("-batch-submit and -scrub-every are incompatible: the vectored path has no evented runner for the scrub ticker")
		case f.set["depth"]:
			return 0, 0, errors.New("-batch-submit and -depth are incompatible: the vectored path always runs at depth 1")
		}
	}
	// The patrol only refreshes blocks RAIN reconstructions of faulted
	// reads queued, so without both a tick would never scrub.
	if scrubEvery > 0 && (f.rain == 0 || f.faultProfile == "off" || f.faultProfile == "") {
		return 0, 0, errors.New("-scrub-every needs -rain and a -fault-profile other than off: only RAIN reconstructions queue scrubs")
	}
	return powerCut, scrubEvery, nil
}

// flagDuration parses the value of a flag that takes a positive duration;
// "" leaves it off.
func flagDuration(flag, value, example string) (sim.Duration, error) {
	if value == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(value)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("bad %s %q: want a positive duration like %s", flag, value, example)
	}
	return sim.Duration(d.Nanoseconds()) * sim.Nanosecond, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ambersim:", err)
	os.Exit(1)
}
