package main

import (
	"crypto/sha256"
	"fmt"
	"strings"

	"amber/internal/core"
	"amber/internal/cpu"
	"amber/internal/dma"
	"amber/internal/dram"
	"amber/internal/fil"
	"amber/internal/ftl"
	"amber/internal/host"
	"amber/internal/icl"
	"amber/internal/nand"
	"amber/internal/sim"
)

// stack is the set of modules whose public Stats() the benchmark reads.
// Both a core.System and the replay's hand-wired second stack fill one, so
// the two are counted by the same code.
type stack struct {
	icl   *icl.Cache
	ftl   *ftl.FTL
	fil   *fil.FIL
	flash *nand.Flash
	dma   *dma.Engine
	dram  *dram.DRAM
	cpu   *cpu.Complex
	host  *host.Host
}

func stackOf(s *core.System) stack {
	return stack{icl: s.ICL, ftl: s.FTL, fil: s.FIL, flash: s.Flash, dma: s.DMA, dram: s.DevDRAM, cpu: s.DevCPU, host: s.Host}
}

// Indexes into counts.n: every raw counter a per-layer ratio is built from.
const (
	cReqs = iota
	cLines
	cBytes
	cFailed
	cIclReadHits
	cIclReadMisses
	cIclWriteHits
	cIclWriteMisses
	cIclEvictions
	cIclDirtyEvictions
	cIclReadaheads
	cIclReadaheadHits
	cFtlHostSubs
	cFtlFlashSubs
	cFtlGCRuns
	cFtlMigrated
	cFtlPartialRemaps
	cFilReads
	cFilPrograms
	cFilErases
	cFilPlans
	cFilCertPlans
	cFilCertReads
	cFilDepStalls
	cFilCertDisarms
	cNandReads
	cNandPrograms
	cNandErases
	cNandMultiPlane
	cDmaDescriptors
	cDmaEntries
	cDmaBytes
	cDramReads
	cDramWrites
	cDramRowHits
	cDramRowMisses
	cCPUInstr
	cCPUBusy  // simulated picoseconds, all device cores
	cHostBusy // simulated picoseconds, all host cores
	cSimTime  // simulated time covered
	cEvents
	cNandEvents
	cBatchWindows
	nCounts
)

// counts is one snapshot (or delta, or sum) of the raw counters. Integer
// counters subtract and add exactly; the flash energy is the one float.
type counts struct {
	n       [nCounts]uint64
	energyJ float64
}

// moduleCounts reads the module-owned counters of st; the request-side
// counters (cReqs..cFailed, cSimTime, cEvents..) belong to whoever drives
// the stack and stay zero here.
func (st stack) moduleCounts() counts {
	var c counts
	is := st.icl.Stats()
	c.n[cIclReadHits], c.n[cIclReadMisses] = is.ReadSubHits, is.ReadSubMisses
	c.n[cIclWriteHits], c.n[cIclWriteMisses] = is.WriteSubHits, is.WriteSubMisses
	c.n[cIclEvictions], c.n[cIclDirtyEvictions] = is.Evictions, is.DirtyEvictions
	c.n[cIclReadaheads], c.n[cIclReadaheadHits] = is.Readaheads, is.ReadaheadHits
	fs := st.ftl.Stats()
	c.n[cFtlHostSubs], c.n[cFtlFlashSubs] = fs.HostSubWrites, fs.FlashSubWrites
	c.n[cFtlGCRuns], c.n[cFtlMigrated], c.n[cFtlPartialRemaps] = fs.GCRuns, fs.GCMigrated, fs.PartialRemaps
	ls := st.fil.Stats()
	c.n[cFilReads], c.n[cFilPrograms], c.n[cFilErases] = ls.Reads, ls.Programs, ls.Erases
	c.n[cFilPlans], c.n[cFilCertPlans], c.n[cFilCertReads] = ls.PlanCount, ls.CertifiedPlans, ls.CertifiedReads
	c.n[cFilDepStalls], c.n[cFilCertDisarms] = ls.DepStalls, ls.CertDisarms
	ns := st.flash.Stats()
	c.n[cNandReads], c.n[cNandPrograms], c.n[cNandErases] = ns.Reads, ns.Programs, ns.Erases
	c.n[cNandMultiPlane] = ns.MultiPlaneOps
	c.energyJ = st.flash.EnergyJoules()
	ds := st.dma.Stats()
	c.n[cDmaDescriptors], c.n[cDmaEntries], c.n[cDmaBytes] = ds.Descriptors, ds.Entries, ds.BytesMoved
	rs := st.dram.Stats()
	c.n[cDramReads], c.n[cDramWrites] = rs.Reads, rs.Writes
	c.n[cDramRowHits], c.n[cDramRowMisses] = rs.RowHits, rs.RowMisses
	c.n[cCPUInstr] = st.cpu.Instructions().Total()
	c.n[cCPUBusy] = uint64(st.cpu.BusyTime())
	c.n[cHostBusy] = uint64(st.host.CPU.BusyTime())
	return c
}

func (c counts) sub(o counts) counts {
	for i := range c.n {
		c.n[i] -= o.n[i]
	}
	c.energyJ -= o.energyJ
	return c
}

func (c counts) add(o counts) counts {
	for i := range c.n {
		c.n[i] += o.n[i]
	}
	c.energyJ += o.energyJ
	return c
}

// addEvents folds an engine's per-domain dispatch counts (a delta) into the
// event counters.
func (c *counts) addEvents(doms []sim.DomainStat) {
	for _, d := range doms {
		c.n[cEvents] += d.Dispatched
		if strings.HasPrefix(d.Name, "nand.") {
			c.n[cNandEvents] += d.Dispatched
		}
	}
}

// domainDelta subtracts two DomainStats snapshots of one engine (before may
// be shorter: domains register lazily).
func domainDelta(after, before []sim.DomainStat) []sim.DomainStat {
	out := append([]sim.DomainStat(nil), after...)
	for i := range out {
		if i < len(before) {
			out[i].Dispatched -= before[i].Dispatched
		}
	}
	return out
}

// workMetrics turns a counter delta into the work-count and ratio metrics.
// cores are the device and host core counts (utilisation denominators).
func workMetrics(c counts, devCores, hostCores int) map[string]float64 {
	f := func(i int) float64 { return float64(c.n[i]) }
	reqs := f(cReqs)
	simS := sim.Time(c.n[cSimTime]).Seconds()
	iclProbes := f(cIclReadHits) + f(cIclReadMisses) + f(cIclWriteHits) + f(cIclWriteMisses)
	return map[string]float64{
		"hil.lines_per_req":           ratio(f(cLines), reqs),
		"icl.hit_ratio":               ratio(f(cIclReadHits)+f(cIclWriteHits), iclProbes),
		"icl.evictions_per_req":       ratio(f(cIclEvictions), reqs),
		"icl.dirty_evictions_per_req": ratio(f(cIclDirtyEvictions), reqs),
		"icl.readahead_hit_ratio":     ratio(f(cIclReadaheadHits), f(cIclReadHits)),
		"ftl.waf":                     ratio(f(cFtlFlashSubs), f(cFtlHostSubs)),
		"ftl.gc_runs_per_kreq":        ratio(1000*f(cFtlGCRuns), reqs),
		"ftl.migrated_subs_per_req":   ratio(f(cFtlMigrated), reqs),
		"ftl.partial_remaps_per_req":  ratio(f(cFtlPartialRemaps), reqs),
		"fil.plans_per_req":           ratio(f(cFilPlans), reqs),
		"fil.certified_plan_ratio":    ratio(f(cFilCertPlans), f(cFilPlans)),
		"fil.certified_read_ratio":    ratio(f(cFilCertReads), f(cFilReads)),
		"fil.dep_stalls_per_req":      ratio(f(cFilDepStalls), reqs),
		"fil.cert_disarms":            f(cFilCertDisarms),
		"nand.reads_per_req":          ratio(f(cNandReads), reqs),
		"nand.programs_per_req":       ratio(f(cNandPrograms), reqs),
		"nand.erases_per_kreq":        ratio(1000*f(cNandErases), reqs),
		"nand.multiplane_ratio":       ratio(f(cNandMultiPlane), f(cNandReads)+f(cNandPrograms)+f(cNandErases)),
		"nand.energy_j":               c.energyJ,
		"dma.descriptors_per_req":     ratio(f(cDmaDescriptors), reqs),
		"dma.entries_per_descriptor":  ratio(f(cDmaEntries), f(cDmaDescriptors)),
		"dma.bytes_per_req":           ratio(f(cDmaBytes), reqs),
		"dram.accesses_per_req":       ratio(f(cDramReads)+f(cDramWrites), reqs),
		"dram.row_hit_ratio":          ratio(f(cDramRowHits), f(cDramRowHits)+f(cDramRowMisses)),
		"cpu.instr_per_req":           ratio(f(cCPUInstr), reqs),
		"cpu.util":                    ratio(f(cCPUBusy), f(cSimTime)*float64(devCores)),
		"host.cpu_util":               ratio(f(cHostBusy), f(cSimTime)*float64(hostCores)),
		"sim.events_per_req":          ratio(f(cEvents), reqs),
		"sim.nand_domain_event_share": ratio(f(cNandEvents), f(cEvents)),
		"core.sim_iops":               ratio(reqs-f(cFailed), simS),
		"core.sim_bw_mbps":            ratio(f(cBytes)/1e6, simS),
		"core.batch_windows_per_kreq": ratio(1000*f(cBatchWindows), reqs),
		"core.failed_req_ratio":       ratio(f(cFailed), reqs),
	}
}

// digest hashes the simulated outcome of one repetition: what was asked of
// the device, when it finished, the latency distribution, the events per
// scheduling domain and every module's lifetime Stats(). A change meant only
// to speed the simulator up must leave it unchanged.
type digest struct{ b strings.Builder }

func (d *digest) add(label string, v any) { fmt.Fprintf(&d.b, "%s=%+v\n", label, v) }

func (d *digest) addStack(st stack) {
	d.add("icl", st.icl.Stats())
	d.add("ftl", st.ftl.Stats())
	d.add("fil", st.fil.Stats())
	d.add("nand", st.flash.Stats())
	d.add("nand.energy", st.flash.EnergyJoules())
	d.add("dma", st.dma.Stats())
	d.add("dram", st.dram.Stats())
	d.add("cpu.instr", st.cpu.Instructions())
	d.add("cpu.busy", st.cpu.BusyTime())
	d.add("host.busy", st.host.CPU.BusyTime())
}

func (d *digest) sum() string {
	h := sha256.Sum256([]byte(d.b.String()))
	return fmt.Sprintf("%x", h[:8])
}
