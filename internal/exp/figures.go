package exp

import (
	"fmt"
	"time"

	"amber/internal/baseline"
	"amber/internal/config"
	"amber/internal/core"
	"amber/internal/cpu"
	"amber/internal/host"
	"amber/internal/refdata"
	"amber/internal/sim"
	"amber/internal/stats"
	"amber/internal/workload"
)

// TableI reports the reverse-engineered hardware configuration of the
// validation device (the paper's Table I), as instantiated by the preset.
func TableI(o Options) (*Table, error) {
	d, err := config.Device("intel750")
	if err != nil {
		return nil, err
	}
	g := d.Geometry
	t := &Table{
		ID:     "table1",
		Title:  "Hardware configuration of real device (Intel 750 preset)",
		Header: []string{"parameter", "value"},
		Rows: [][]string{
			{"tPROG (us)", fmt.Sprintf("%.2f / %.0f", d.Flash.ProgFast.Microseconds(), d.Flash.ProgSlow.Microseconds())},
			{"tR (us)", fmt.Sprintf("%.3f / %.3f", d.Flash.ReadFast.Microseconds(), d.Flash.ReadSlow.Microseconds())},
			{"tERASE (us)", f0(d.Flash.Erase.Microseconds())},
			{"channels", fmt.Sprint(g.Channels)},
			{"packages/channel", fmt.Sprint(g.PackagesPerChannel)},
			{"dies/package", fmt.Sprint(g.DiesPerPackage)},
			{"planes/die", fmt.Sprint(g.PlanesPerDie)},
			{"blocks/plane", fmt.Sprint(g.BlocksPerPlane) + " (scaled from 512)"},
			{"pages/block", fmt.Sprint(g.PagesPerBlock) + " (scaled from 512)"},
			{"internal DRAM", fmt.Sprintf("%d MB, %d ch, %d rank, %d banks", d.DRAM.CapacityBytes>>20, d.DRAM.Channels, d.DRAM.RanksPerChannel, d.DRAM.BanksPerRank)},
			{"flash bus", fmt.Sprintf("ONFi %d MT/s", int(d.Flash.BusMTps))},
			{"interface", d.Protocol.Kind.String()},
			{"over-provisioning", pct(d.OPRatio)},
		},
	}
	return t, nil
}

// baselineFigure compares the bandwidth-vs-depth curves of the four
// baseline simulators with the real-device reference and Amber's full model
// (Fig. 3, the paper's motivation figure); with latency it is Fig. 4.
func baselineFigure(o Options, sw *sweep, latency bool) (*Table, error) {
	id, title := "fig3", "Bandwidth (MB/s) vs I/O depth: existing simulators vs real device vs Amber"
	format := f0
	if latency {
		id, title = "fig4", "Latency (us) vs I/O depth: existing simulators vs real device vs Amber"
		format = f1
	}
	t := &Table{ID: id, Title: title}
	t.Header = append([]string{"pattern", "model"}, depthHeader()...)

	const dev = "intel750"
	res, err := sw.run(o, grid([]string{dev}, []int{4096}, refdata.Depths))
	if err != nil {
		return nil, err
	}
	for _, p := range patterns() {
		ref, err := refCurve(dev, p, latency)
		if err != nil {
			return nil, err
		}
		row := []string{p.String(), "real-device"}
		for _, v := range ref {
			row = append(row, format(v))
		}
		t.Rows = append(t.Rows, row)

		for _, b := range baseline.All() {
			row := []string{p.String(), b.Name()}
			for _, d := range refdata.Depths {
				r := b.Replay(p, 4096, d, sweepRequests)
				v := r.BandwidthMBps
				if latency {
					v = r.LatencyUs
				}
				row = append(row, format(v))
			}
			t.Rows = append(t.Rows, row)
		}

		row = []string{p.String(), "amber"}
		for _, d := range refdata.Depths {
			row = append(row, format(res[point{dev, p, 4096, d}].value(latency)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"mqsim-like grows linearly (no interface ceiling), ssdsim-like never saturates,",
		"ssdext/flashsim-like are flat (serialized single path); amber follows the device's curve shape.",
		"each amber (pattern, depth) point runs on its own freshly preconditioned device (no state carryover between points).")
	return t, nil
}

// depthHeader is the qd column headings of the depth axis.
func depthHeader() []string {
	var h []string
	for _, d := range refdata.Depths {
		h = append(h, fmt.Sprintf("qd%d", d))
	}
	return h
}

// refCurve is the device's reference bandwidth, or with latency its latency,
// over refdata.Depths at 4 KiB.
func refCurve(dev string, p workload.Pattern, latency bool) ([]float64, error) {
	if latency {
		return refdata.Latency(dev, p)
	}
	return refdata.Bandwidth(dev, p)
}

// validationFigure validates Amber's bandwidth curves against the four
// reference devices and reports mean accuracy per pattern (paper Fig. 8);
// with latency it is Fig. 9.
func validationFigure(o Options, sw *sweep, latency bool) (*Table, error) {
	id, title := "fig8", "Amber vs real devices: bandwidth (MB/s) and accuracy"
	if latency {
		id, title = "fig9", "Amber vs real devices: latency (us) and accuracy"
	}
	t := &Table{ID: id, Title: title}
	t.Header = append([]string{"device", "pattern", "series"}, depthHeader()...)
	t.Header = append(t.Header, "accuracy")

	devs := refdata.DeviceNames()
	res, err := sw.run(o, grid(devs, []int{4096}, refdata.Depths))
	if err != nil {
		return nil, err
	}
	var accSum float64
	for _, dev := range devs {
		for _, p := range patterns() {
			ref, err := refCurve(dev, p, latency)
			if err != nil {
				return nil, err
			}
			var sim []float64
			for _, d := range refdata.Depths {
				sim = append(sim, res[point{dev, p, 4096, d}].value(latency))
			}
			acc, err := stats.MeanAccuracy(ref, sim)
			if err != nil {
				return nil, err
			}
			accSum += acc
			rr := []string{dev, p.String(), "real"}
			sr := []string{dev, p.String(), "amber"}
			for i := range ref {
				rr = append(rr, f0(ref[i]))
				sr = append(sr, f0(sim[i]))
			}
			t.Rows = append(t.Rows, append(rr, ""), append(sr, pct(acc)))
		}
	}
	rows := len(t.Rows) / 2
	t.Notes = append(t.Notes,
		"accuracy = mean(1 - |real-sim|/real) across the depth axis, the paper's metric.",
		fmt.Sprintf("mean accuracy over all %d rows = %.1f%%.", rows, accSum/float64(rows)*100),
		protocolNote)
	return t, nil
}

// blockSizeFigure sweeps block size from 4 KiB to 1024 KiB at depth 32 and
// reports per-device error rates (paper Fig. 10).
func blockSizeFigure(o Options, sw *sweep) (*Table, error) {
	t := &Table{ID: "fig10", Title: "Bandwidth (MB/s) vs block size at qd32, with error rates"}
	t.Header = []string{"device", "pattern", "series"}
	var sizes []int
	for _, kb := range refdata.BlockSizesKiB {
		t.Header = append(t.Header, fmt.Sprintf("%dK", kb))
		sizes = append(sizes, kb<<10)
	}
	t.Header = append(t.Header, "mean-err")

	devs := refdata.DeviceNames()
	res, err := sw.run(o, grid(devs, sizes, []int{32}))
	if err != nil {
		return nil, err
	}
	var errSum float64
	for _, dev := range devs {
		for _, p := range patterns() {
			ref, err := refdata.BlockBandwidth(dev, p)
			if err != nil {
				return nil, err
			}
			var rowErr float64
			rr := []string{dev, p.String(), "real"}
			sr := []string{dev, p.String(), "amber"}
			for i, bs := range sizes {
				bw := res[point{dev, p, bs, 32}].bandwidthMBps
				rowErr += stats.ErrorRate(ref[i], bw)
				rr = append(rr, f0(ref[i]))
				sr = append(sr, f0(bw))
			}
			rowErr /= float64(len(sizes))
			errSum += rowErr
			t.Rows = append(t.Rows, append(rr, ""), append(sr, pct(rowErr)))
		}
	}
	rows := len(t.Rows) / 2
	t.Notes = append(t.Notes,
		fmt.Sprintf("mean error over all %d rows = %.1f%%.", rows, errSum/float64(rows)*100),
		protocolNote)
	return t, nil
}

// Figure11 sweeps the over-provisioning ratio (20/15/10/5%) under a
// random-overwrite stress (a quarter of the volume, written into a
// preconditioned steady-state device) and reports normalized write
// bandwidth (Fig. 11).
func Figure11(o Options) (*Table, error) {
	const n = 3000
	ops := []float64{0.20, 0.15, 0.10, 0.05}
	sizes := []int{4096, 65536}
	t := &Table{ID: "fig11", Title: "Normalized random-write bandwidth vs over-provisioning ratio (stress: 0.25x volume random overwrite)"}
	t.Header = []string{"block"}
	for _, op := range ops {
		t.Header = append(t.Header, pct(op))
	}

	// Every (block size, OP ratio) point stresses its own device from
	// scratch: a fully independent task.
	bws := make([]float64, len(sizes)*len(ops))
	err := forEach(o, len(bws), func(ti int) error {
		bs := sizes[ti/len(ops)]
		op := ops[ti%len(ops)]
		s, err := newSystem("intel750", func(c *core.SystemConfig) { c.Device.OPRatio = op })
		if err != nil {
			return err
		}
		// Stress: random overwrite of a quarter of the volume.
		if err := s.StressFill(bs, 0.25); err != nil {
			return err
		}
		s.Drain()
		res, err := runPoint(s, workload.RandWrite, bs, 32, n)
		if err != nil {
			return err
		}
		bws[ti] = res.BandwidthMBps()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for si, bs := range sizes {
		base := bws[si*len(ops)]
		row := []string{fmt.Sprintf("%dK", bs/1024)}
		for oi := range ops {
			row = append(row, fmt.Sprintf("%.2f", bws[si*len(ops)+oi]/base))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "paper: 15/10/5% OP drop to ~0.66/0.38/0.12 of the 20% OP bandwidth (drops of 33.7/62.1/87.9%).")
	return t, nil
}

// Figure12 compares the Linux 4.4 (CFQ) and 4.14 (BFQ) storage stacks over
// NVMe and SATA across the Table III workloads (paper Fig. 12).
func Figure12(o Options) (*Table, error) {
	const n = 2500
	t := &Table{ID: "fig12", Title: "Performance impact of OS version (kernel 4.4/CFQ vs 4.14/BFQ), MB/s"}
	t.Header = []string{"interface", "workload", "kernel4.4 (CFQ)", "kernel4.14 (BFQ)", "4.4/4.14"}

	ifaces := []string{"nvme", "sata"}
	traces := workload.Traces()
	scheds := []host.SchedulerKind{host.CFQ, host.BFQ}
	// One task per (interface, trace, scheduler): each builds its own
	// preconditioned system.
	bw := make([]float64, len(ifaces)*len(traces)*len(scheds))
	err := forEach(o, len(bw), func(ti int) error {
		ii := ti / (len(traces) * len(scheds))
		rest := ti % (len(traces) * len(scheds))
		wi, si := rest/len(scheds), rest%len(scheds)
		dev := "intel750"
		if ifaces[ii] == "sata" {
			dev = "850pro"
		}
		sched := scheds[si]
		s, err := newSystem(dev, func(c *core.SystemConfig) {
			c.Host.Scheduler = sched
		})
		if err != nil {
			return err
		}
		gen, err := workload.NewTrace(traces[wi], s.VolumeBytes(), 13)
		if err != nil {
			return err
		}
		res, err := s.Run(gen, core.RunConfig{Requests: n, IODepth: 32})
		if err != nil {
			return err
		}
		bw[ti] = res.BandwidthMBps()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ii, iface := range ifaces {
		for wi, tp := range traces {
			base := (ii*len(traces) + wi) * len(scheds)
			cfq, bfq := bw[base], bw[base+1]
			t.Rows = append(t.Rows, []string{
				iface, tp.TraceName, f0(cfq), f0(bfq), fmt.Sprintf("%.2f", cfq/bfq),
			})
		}
	}
	t.Notes = append(t.Notes, "paper: kernel 4.4 underperforms 4.14 by ~63% (reads) / ~69% (writes) on average.")
	return t, nil
}

// Figure13a compares handheld (UFS) and general (NVMe) computing across
// the Table III workloads on the mobile platform (paper Fig. 13a).
func Figure13a(o Options) (*Table, error) {
	const n = 2500
	t := &Table{ID: "fig13a", Title: "Handheld vs general computing: UFS vs NVMe bandwidth (MB/s), mobile host"}
	t.Header = []string{"workload", "ufs", "nvme", "nvme/ufs"}

	traces := workload.Traces()
	devs := []string{"ufs", "mobile-nvme"}
	bw := make([]float64, len(traces)*len(devs))
	err := forEach(o, len(bw), func(ti int) error {
		tp := traces[ti/len(devs)]
		dev := devs[ti%len(devs)]
		s, err := newSystem(dev, mobileHost)
		if err != nil {
			return err
		}
		gen, err := workload.NewTrace(tp, s.VolumeBytes(), 17)
		if err != nil {
			return err
		}
		res, err := s.Run(gen, core.RunConfig{Requests: n, IODepth: 32})
		if err != nil {
			return err
		}
		bw[ti] = res.BandwidthMBps()
		return nil
	})
	if err != nil {
		return nil, err
	}
	var ratios float64
	for wi, tp := range traces {
		ufs, nvme := bw[wi*2], bw[wi*2+1]
		ratios += nvme / ufs
		t.Rows = append(t.Rows, []string{tp.TraceName, f0(ufs), f0(nvme), fmt.Sprintf("%.2f", nvme/ufs)})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("mean NVMe/UFS ratio = %.2f (paper: 1.81x, limited by low mobile compute for small workloads).", ratios/float64(len(traces))))
	return t, nil
}

// Figure13b breaks down SSD power (CPU / DRAM / NAND) for UFS and NVMe
// (paper Fig. 13b).
func Figure13b(o Options) (*Table, error) {
	const n = 3000
	t := &Table{ID: "fig13b", Title: "SSD power breakdown (W): embedded CPU vs DRAM vs NAND"}
	t.Header = []string{"interface", "cpu", "dram", "nand", "total"}

	devs := []string{"ufs", "mobile-nvme"}
	rows := make([][]string, len(devs))
	err := forEach(o, len(devs), func(di int) error {
		s, err := newSystem(devs[di], mobileHost)
		if err != nil {
			return err
		}
		gen, err := workload.NewFIO(workload.RandRead, 4096, s.VolumeBytes(), 19)
		if err != nil {
			return err
		}
		base := s.Counters()
		res, err := s.Run(gen, core.RunConfig{Requests: n, IODepth: 32})
		if err != nil {
			return err
		}
		cpuW, dramW, nandW := s.WindowWatts(base, res.Elapsed())
		rows[di] = []string{
			s.Protocol().Kind.String(), fmt.Sprintf("%.2f", cpuW), fmt.Sprintf("%.2f", dramW),
			fmt.Sprintf("%.2f", nandW), fmt.Sprintf("%.2f", cpuW+dramW+nandW),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	t.Notes = append(t.Notes, "paper: the embedded CPU is the most power-hungry component; UFS total ~2W, mostly CPU.")
	return t, nil
}

// Figure13c breaks down executed firmware instructions by category for UFS
// and NVMe over the same wall-clock window (paper Fig. 13c).
func Figure13c(o Options) (*Table, error) {
	const n = 3000
	t := &Table{ID: "fig13c", Title: "Firmware instruction breakdown (millions) over an equal time window"}
	t.Header = []string{"interface", "branch", "load", "store", "arith", "fp", "other", "total", "ld/st frac"}

	type devRun struct {
		kind string
		m    cpu.InstrMix // delta over the measured run
		el   sim.Duration
	}
	devs := []string{"ufs", "mobile-nvme"}
	runs := make([]devRun, len(devs))
	err := forEach(o, len(devs), func(di int) error {
		s, err := newSystem(devs[di], mobileHost)
		if err != nil {
			return err
		}
		base := s.Counters()
		gen, err := workload.NewFIO(workload.RandRead, 4096, s.VolumeBytes(), 23)
		if err != nil {
			return err
		}
		res, err := s.Run(gen, core.RunConfig{Requests: n, IODepth: 32})
		if err != nil {
			return err
		}
		runs[di] = devRun{kind: s.Protocol().Kind.String(), m: s.Counters().Since(base).Firmware, el: res.Elapsed()}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Normalize both devices to the first run's time window: the paper
	// counts instructions executed "within a same time period".
	window := runs[0].el
	var totals []float64
	for _, r := range runs {
		scale := window.Seconds() / r.el.Seconds()
		mm := func(v uint64) string { return fmt.Sprintf("%.2f", float64(v)*scale/1e6) }
		tot := float64(r.m.Total()) * scale
		totals = append(totals, tot)
		t.Rows = append(t.Rows, []string{
			r.kind, mm(r.m.Branch), mm(r.m.Load), mm(r.m.Store), mm(r.m.Arith), mm(r.m.FP), mm(r.m.Other),
			fmt.Sprintf("%.2f", tot/1e6), fmt.Sprintf("%.2f", r.m.LoadStoreFraction()),
		})
	}
	if len(totals) == 2 && totals[0] > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("NVMe executes %.2fx the UFS instructions in the same window (paper: 5.45x); loads+stores dominate (~60%%).", totals[1]/totals[0]))
	}
	return t, nil
}

// Figure14 sweeps the host CPU frequency from 2 to 8 GHz against the
// fastest device (Z-SSD) and reports device-level, interface-level and
// user-level sequential read bandwidth (paper Fig. 14).
func Figure14(o Options) (*Table, error) {
	const n = 3000
	freqs := []float64{2000, 4000, 6000, 8000}
	t := &Table{ID: "fig14", Title: "Z-SSD sequential-read bandwidth (MB/s) vs host CPU frequency"}
	t.Header = []string{"host freq", "device-level", "interface-level", "user-level", "loss"}

	d, err := config.Device("zssd")
	if err != nil {
		return nil, err
	}
	// Device-level: the storage backend's aggregate streaming ability
	// (channels x bus rate), before any interface or host effect.
	deviceLevel := float64(d.Geometry.Channels) * d.Flash.BusMTps * 1e6 / 1e6 // MB/s
	ifaceLevel := d.Protocol.LinkBytesPerSec / 1e6
	if ifaceLevel > deviceLevel {
		ifaceLevel = deviceLevel
	}
	user := make([]float64, len(freqs))
	err = forEach(o, len(freqs), func(fi int) error {
		f := freqs[fi]
		s, err := newSystem("zssd", func(c *core.SystemConfig) {
			c.Host.FreqMHz = f
		})
		if err != nil {
			return err
		}
		res, err := runPoint(s, workload.SeqRead, 131072, 32, n/4)
		if err != nil {
			return err
		}
		user[fi] = res.BandwidthMBps()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for fi, f := range freqs {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0fGHz", f/1000), f0(deviceLevel), f0(ifaceLevel), f0(user[fi]),
			pct(1 - user[fi]/deviceLevel),
		})
	}
	t.Notes = append(t.Notes, "paper: kernel execution at 2GHz costs 41% of device-level bandwidth, recovering to 29% at 8GHz.")
	return t, nil
}

// Figure15a compares NVMe (active) and OCSSD+pblk (passive) bandwidth for
// small and large blocks (paper Fig. 15a).
func Figure15a(o Options) (*Table, error) {
	const n = 2000
	t := &Table{ID: "fig15a", Title: "Active (NVMe) vs passive (OCSSD+pblk) bandwidth (MB/s)"}
	t.Header = []string{"pattern", "block", "nvme", "ocssd", "ocssd/nvme"}

	pats := []workload.Pattern{workload.RandRead, workload.RandWrite, workload.SeqRead, workload.SeqWrite}
	blocks := []int{4096, 65536}
	devs := []string{"intel750", "ocssd"}
	bw := make([]float64, len(pats)*len(blocks)*len(devs))
	err := forEach(o, len(bw), func(ti int) error {
		pi := ti / (len(blocks) * len(devs))
		rest := ti % (len(blocks) * len(devs))
		bi, di := rest/len(devs), rest%len(devs)
		s, err := newSystem(devs[di], nil)
		if err != nil {
			return err
		}
		nn := n
		if blocks[bi] > 4096 {
			nn = n / 4
		}
		res, err := runPoint(s, pats[pi], blocks[bi], 32, nn)
		if err != nil {
			return err
		}
		bw[ti] = res.BandwidthMBps()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for pi, p := range pats {
		for bi, bs := range blocks {
			base := (pi*len(blocks) + bi) * len(devs)
			nvme, ocssd := bw[base], bw[base+1]
			t.Rows = append(t.Rows, []string{
				p.String(), fmt.Sprintf("%dK", bs/1024), f0(nvme), f0(ocssd),
				fmt.Sprintf("%.2f", ocssd/nvme),
			})
		}
	}
	t.Notes = append(t.Notes, "paper: OCSSD wins ~30% at 4K (host-side buffering), NVMe wins ~20% at 64K (kernel buffer limits).")
	return t, nil
}

// Figure15b samples kernel CPU utilization over the write-then-read phases
// for NVMe and OCSSD (paper Fig. 15b).
func Figure15b(o Options) (*Table, error) { return passiveSeries(o, false) }

// Figure15c samples total host DRAM usage over the same phases (Fig. 15c).
func Figure15c(o Options) (*Table, error) { return passiveSeries(o, true) }

func passiveSeries(o Options, mem bool) (*Table, error) {
	id, title := "fig15b", "Kernel CPU utilization (%) over time: NVMe vs OCSSD"
	if mem {
		id, title = "fig15c", "Host DRAM usage (MB) over time: NVMe vs OCSSD"
	}
	const n = 4000
	t := &Table{ID: id, Title: title}
	t.Header = []string{"device", "phase", "mean", "max"}

	devs := []string{"intel750", "ocssd"}
	rowsPerDev := make([][][]string, len(devs))
	err := forEach(o, len(devs), func(di int) error {
		dev := devs[di]
		s, err := newSystem(dev, nil)
		if err != nil {
			return err
		}
		runMem := int64(280 << 20) // FIO + NVMe protocol management (~280MB)
		if dev == "ocssd" {
			runMem = 120 << 20 // pblk holds its 64MB at init; FIO footprint smaller
		}
		gen, err := workload.NewMixed("write-then-read", n/2, 4096, s.VolumeBytes()/4, 29)
		if err != nil {
			return err
		}
		res, err := s.Run(gen, core.RunConfig{
			Requests: n, IODepth: 32,
			SampleEvery: sim.Millisecond,
			RunMemBytes: runMem,
		})
		if err != nil {
			return err
		}
		series := res.HostCPUUtil
		scale := 100.0
		if mem {
			series = res.HostMemMB
			scale = 1
		}
		// Split samples at the write->read boundary (half the requests).
		var rows [][]string
		half := len(series.Points) / 2
		phase := func(name string, pts []stats.Point) {
			sub := stats.Series{Points: pts}
			rows = append(rows, []string{
				dev, name, f1(sub.Mean() * scale), f1(sub.Max() * scale),
			})
		}
		if half > 0 {
			phase("write", series.Points[:half])
			phase("read", series.Points[half:])
		} else {
			phase("all", series.Points)
		}
		rowsPerDev[di] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, rows := range rowsPerDev {
		t.Rows = append(t.Rows, rows...)
	}
	if mem {
		t.Notes = append(t.Notes, "paper: pblk allocates ~64MB at init and reuses it; FIO+NVMe needs ~280MB.")
	} else {
		t.Notes = append(t.Notes, "paper: after warm-up OCSSD consumes ~50% of the 4 cores, NVMe only ~10%.")
	}
	return t, nil
}

// Figure16 measures simulation speed: wall-clock time for the baseline
// simulators vs the full Amber stack over the same request count
// (paper Fig. 16). It always runs serially: concurrent simulations would
// contend for cores and distort the wall-clock metric being measured.
func Figure16(o Options) (*Table, error) {
	const n = 5000
	t := &Table{ID: "fig16", Title: "Simulation speed: wall-clock seconds per 100k simulated 4K requests"}
	t.Header = []string{"simulator", "wall s/100k reqs", "sim-reqs/s"}
	for _, b := range baseline.All() {
		start := time.Now()
		b.Replay(workload.RandRead, 4096, 16, n)
		el := time.Since(start).Seconds()
		t.Rows = append(t.Rows, []string{
			b.Name(), fmt.Sprintf("%.3f", el/float64(n)*1e5), f0(float64(n) / el),
		})
	}
	s, err := newSystem("intel750", nil)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if _, err := runPoint(s, workload.RandRead, 4096, 16, n); err != nil {
		return nil, err
	}
	el := time.Since(start).Seconds()
	t.Rows = append(t.Rows, []string{
		"amber (full system)", fmt.Sprintf("%.3f", el/float64(n)*1e5), f0(float64(n) / el),
	})
	t.Notes = append(t.Notes, "amber simulates every SSD resource plus the host stack; the baselines replay traces against skeleton models.")
	return t, nil
}

// TableIV prints the feature matrix of Table IV by probing the
// implementation's actual capabilities.
func TableIV(o Options) (*Table, error) {
	t := &Table{ID: "table4", Title: "Feature comparison (this implementation's capabilities)"}
	t.Header = []string{"feature", "supported", "where"}
	rows := [][]string{
		{"standalone full-system simulation", "yes", "core.System"},
		{"SATA / UFS / NVMe / OCSSD", "yes", "proto, core"},
		{"computation complex (CPU+DRAM)", "yes", "cpu, dram"},
		{"storage complex w/ transaction timing", "yes", "nand, fil"},
		{"super-page/super-block striping", "yes", "ftl"},
		{"ISPP latency variation", "yes", "nand.Timing.ISPPJitter"},
		{"fully-associative LRU cache + readahead", "yes", "icl"},
		{"page-level mapping + partial update", "yes", "ftl"},
		{"greedy GC + wear-leveling", "yes", "ftl"},
		{"CPU/DRAM/NAND power + energy", "yes", "cpu, dram, nand"},
		{"dynamic firmware execution accounting", "yes", "cpu.InstrMix"},
		{"queue arbitration (FIFO/RR/WRR)", "no", "proto.Params.EffectiveQueueDepth, Host.DepthCap"},
		{"data transfer emulation (real bytes)", "yes", "dma, nand.Options.TrackData"},
		{"functional + timing DMA modes", "yes", "dma.Mode"},
		{"parallel multi-system experiment harness", "yes", "exp.Options.Parallel"},
		{"intra-device parallel dispatch (horizon-synchronized)", "no", "retired: channel-local work is 1-5% of a run's time"},
	}
	t.Rows = rows
	return t, nil
}

// All returns every experiment in paper order. Its entries share one sweep
// and must run one at a time.
func All() []struct {
	ID  string
	Run func(Options) (*Table, error)
} {
	// Figs. 3/4/8/9/10 are views of one sweep, so each operating point is
	// computed once and prints the same number in every figure.
	sw := newSweep()
	return []struct {
		ID  string
		Run func(Options) (*Table, error)
	}{
		{"table1", TableI},
		{"fig3", func(o Options) (*Table, error) { return baselineFigure(o, sw, false) }},
		{"fig4", func(o Options) (*Table, error) { return baselineFigure(o, sw, true) }},
		{"fig8", func(o Options) (*Table, error) { return validationFigure(o, sw, false) }},
		{"fig9", func(o Options) (*Table, error) { return validationFigure(o, sw, true) }},
		{"fig10", func(o Options) (*Table, error) { return blockSizeFigure(o, sw) }},
		{"fig11", Figure11},
		{"fig12", Figure12},
		{"fig13a", Figure13a},
		{"fig13b", Figure13b},
		{"fig13c", Figure13c},
		{"fig14", Figure14},
		{"fig15a", Figure15a},
		{"fig15b", Figure15b},
		{"fig15c", Figure15c},
		{"fig16", Figure16},
		{"table4", TableIV},
	}
}
