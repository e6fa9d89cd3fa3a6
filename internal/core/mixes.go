package core

import (
	"amber/internal/cpu"
	"amber/internal/icl"
	"amber/internal/sim"
)

// pblkFactor amplifies firmware instruction budgets when the FTL/ICL run
// as pblk on the host (§V-E): the kernel-space implementation pays for
// generic bio plumbing, per-page memcpy through the buffer, locking and
// lightNVM translation — the reason the passive architecture burns ~50%%
// of four host cores where the in-SSD firmware barely registers.
const pblkFactor = 120

// fwModule names one firmware module: the embedded core the default 3-core
// layout pins it to (HIL 0, ICL/FTL 1, FIL 2) and the names its
// instructions are accounted under — on the device, and as part of pblk on
// the host when the architecture is passive.
type fwModule struct {
	core       int
	name, pblk string
}

var (
	modHIL         = fwModule{0, "hil", ""}
	modHILComplete = fwModule{0, "hil.complete", ""}
	modICL         = fwModule{1, "icl", "pblk.icl"}
	modFTL         = fwModule{1, "ftl", "pblk.ftl"}
	modGC          = fwModule{1, "ftl.gc", "pblk.ftl.gc"}
	modRecover     = fwModule{1, "ftl.recover", "pblk.ftl.recover"}
	modRAIN        = fwModule{1, "ftl.rain", "pblk.ftl.rain"}
	modRetire      = fwModule{1, "ftl.retire", "pblk.ftl.retire"}
	modScrub       = fwModule{1, "ftl.scrub", "pblk.ftl.scrub"}
	modFIL         = fwModule{2, "fil", "pblk.fil"}
)

// place resolves where the architecture executes m: its embedded core,
// clamped to the configured core count, or — ICL/FTL/FIL-scheduling logic
// of passive storage, which runs in pblk — a host core.
func (s *System) place(m fwModule) (on *cpu.Complex, core int, name string) {
	if s.passive && m.core > 0 {
		return s.Host.CPU, m.core % s.cfg.Host.CPUs, m.pblk
	}
	if c := s.cfg.Device.CPU.Cores; m.core >= c {
		return s.DevCPU, c - 1, m.name
	}
	return s.DevCPU, m.core, m.name
}

// fwCharge is a firmware charge that is the same on every request, compiled
// at construction against the complex and core the architecture runs it on.
type fwCharge struct {
	on   *cpu.Complex
	core int
	ch   cpu.Charge
}

func (s *System) compileFirmware(m fwModule, mix cpu.InstrMix) fwCharge {
	on, core, name := s.place(m)
	return fwCharge{on: on, core: core, ch: on.Compile(name, mix)}
}

// run executes the charge at now and returns its completion.
func (f *fwCharge) run(now sim.Time) sim.Time {
	_, end := f.on.Run(now, f.core, &f.ch)
	return end
}

// chargeFirmware executes a mix that scales with a count (flash ops
// dispatched, sub-pages migrated) and is therefore priced per call.
func (s *System) chargeFirmware(now sim.Time, m fwModule, mix cpu.InstrMix) sim.Time {
	on, core, name := s.place(m)
	_, end := on.Execute(now, core, name, mix)
	return end
}

// fwCharges are the per-request constants of the cost model: the firmware
// charges compiled once, and the link occupancy of one command fetch and
// one completion record.
type fwCharges struct {
	hil          fwCharge // device-side queue handling + command parse
	hilParse     fwCharge // thin parse of a pblk vector command (passive)
	hilComplete  fwCharge
	iclLookup    fwCharge
	iclInsert    fwCharge
	ftlTranslate fwCharge

	cmdFetch   sim.Duration
	completion sim.Duration
}

func (s *System) compileCharges() {
	p := &s.params
	s.fw = fwCharges{
		hil:          s.compileFirmware(modHIL, p.QueueMix.Add(p.ParseMix)),
		hilParse:     s.compileFirmware(modHIL, p.ParseMix),
		hilComplete:  s.compileFirmware(modHILComplete, p.CompleteMix),
		iclLookup:    s.compileFirmware(modICL, s.scaleIfPassive(cpu.MixICLLookup)),
		iclInsert:    s.compileFirmware(modICL, s.scaleIfPassive(cpu.MixICLInsert)),
		ftlTranslate: s.compileFirmware(modFTL, s.scaleIfPassive(cpu.MixFTLTranslate)),
		cmdFetch:     p.CmdFetchTime(),
		completion:   p.CompletionTime(),
	}
}

func (s *System) scaleIfPassive(m cpu.InstrMix) cpu.InstrMix {
	if s.passive {
		return m.Scale(pblkFactor)
	}
	return m
}

// filScheduleMix scales the FIL transaction-composition cost by the number
// of flash operations dispatched.
func (s *System) filScheduleMix(ops int) cpu.InstrMix {
	if ops < 1 {
		ops = 1
	}
	return s.scaleIfPassive(cpu.MixFILSchedule.Scale(uint64(ops)))
}

// gcMix scales GC bookkeeping by the number of migrated sub-pages.
func (s *System) gcMix(migrated int) cpu.InstrMix {
	if migrated < 1 {
		migrated = 1
	}
	return s.scaleIfPassive(cpu.MixFTLGCPerPage.Scale(uint64(migrated)))
}

// iclEviction aliases the ICL's eviction record for the submit path.
type iclEviction = icl.Eviction
