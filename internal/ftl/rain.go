package ftl

import (
	"fmt"

	"amber/internal/sim"
)

// Die-level RAIN (redundant array of independent NAND): with Config.
// RAINWidth = W, every W+1 consecutive planes form a stripe group — W data
// planes and one parity plane (the group's last). One stripe is one page
// row of a group: when every data plane of the group has programmed row r,
// the parity plane programs row r with the XOR of the row's data pages,
// emitted into the same certified plan as the data write that completed
// the row (appendSub's catch-up). Because a flash page programs exactly
// once per erase cycle, the XOR identity over the row's physical contents
// holds from the parity program until the block erases — which is what
// makes reconstruction a pure function of durable state.
//
// On an uncorrectable read of a data page, the core assembles the XOR of
// the surviving stripe members (checking every member's OOB verdict — a
// torn or unwritten member is a double fault and falls back to honest data
// loss) and executes PlanReconstruct to re-home the sub-page; the lost
// page's block accumulates a reconstruction count that eventually forces a
// patrol scrub (NoteReconstruct). PlanScrub refreshes a whole super-block
// — migrate valid data onto fresh pages, erase — so its pages draw their
// read faults afresh under the next erase count.

// reconScrubThreshold is the per-block reconstruction count at which
// NoteReconstruct asks for a forced scrub of the source block instead of
// letting it keep faulting.
const reconScrubThreshold = 2

// RAINEnabled reports whether the FTL stripes parity (Config.RAINWidth > 0).
func (f *FTL) RAINEnabled() bool { return f.rainW > 0 }

// isParityPlane reports whether plane p is a parity plane under RAIN.
func (f *FTL) isParityPlane(p int) bool {
	return f.rainW > 0 && p%(f.rainW+1) == f.rainW
}

// groupBase returns the first (data) plane of stripe group g.
func (f *FTL) groupBase(g int) int { return g * (f.rainW + 1) }

// parityPlane returns the parity plane of stripe group g.
func (f *FTL) parityPlane(g int) int { return g*(f.rainW+1) + f.rainW }

// dataPlane maps the i-th data slot onto its physical plane, skipping
// parity planes: slots fill group 0's data planes first, then group 1's.
func (f *FTL) dataPlane(i int) int {
	if f.rainW == 0 {
		return i
	}
	return (i/f.rainW)*(f.rainW+1) + i%f.rainW
}

// fullSubs returns the number of data sub-pages a fully-valid super-block
// holds (parity planes excluded under RAIN).
func (f *FTL) fullSubs() int { return f.pagesPerSB * f.dataPlanes }

// parityCatchupGroup emits the parity programs stripe group g of
// super-block sbi owes: one per completed row (every data plane of the
// group past it) whose parity page is not yet programmed. The parity
// append pointer advances eagerly, like appendSub's, so the FTL's model
// stays exactly one plan ahead of the flash. Returns the programs emitted.
func (f *FTL) parityCatchupGroup(sbi, g int, plan *Plan) int {
	sb := &f.sbs[sbi]
	pp := f.parityPlane(g)
	base := f.groupBase(g)
	min := int32(f.pagesPerSB)
	for i := 0; i < f.rainW; i++ {
		if np := sb.nextPage[base+i]; np < min {
			min = np
		}
	}
	n := 0
	for sb.nextPage[pp] < min {
		row := int(sb.nextPage[pp])
		plan.add(Op{
			Kind: OpWrite,
			Loc:  PageLoc{SB: sbi, Page: row, Plane: pp, Sub: base},
			LSPN: -1, GC: true, Parity: true,
			Mask: uint32(1)<<uint(f.rainW) - 1,
		})
		sb.nextPage[pp]++
		f.stats.ParityWrites++
		n++
	}
	return n
}

// StripePeers resolves the RAIN stripe of the data page at src: the other
// data pages of its group's row (appended to peers, recycled like a lookup
// buffer) and the row's parity page. ok is false when RAIN is off or src
// sits on a parity plane. The caller must still check each member's OOB
// verdict against the flash — a returned location names a stripe slot, not
// a guarantee the page survived.
func (f *FTL) StripePeers(src PageLoc, peers []PageLoc) ([]PageLoc, PageLoc, bool) {
	if f.rainW == 0 || f.isParityPlane(src.Plane) {
		return peers, PageLoc{}, false
	}
	g := src.Plane / (f.rainW + 1)
	base := f.groupBase(g)
	for i := 0; i < f.rainW; i++ {
		p := base + i
		if p == src.Plane {
			continue
		}
		peers = append(peers, PageLoc{SB: src.SB, Page: src.Page, Plane: p, Sub: p})
	}
	return peers, PageLoc{SB: src.SB, Page: src.Page, Plane: f.parityPlane(g), Sub: base}, true
}

// StripeMaskBit returns the parity-mask bit covering the data page at src
// (its slot within the stripe group), for checking a stored OOB stripe
// mask before trusting a reconstruction.
func (f *FTL) StripeMaskBit(src PageLoc) uint32 {
	return uint32(1) << uint(src.Plane%(f.rainW+1))
}

// PlanReconstruct builds the certified plan that re-homes the data
// sub-page (lspn, sub) after an uncorrectable read: timing reads of the
// surviving stripe members in aux (LSPN -1, never paired with mappings or
// host data — the XOR itself is controller-RAM work the caller already
// did), then a fresh allocation whose payload the caller supplies as host
// data. aux may be empty when the members were already read as part of the
// faulted plan (the GC-recovery path). The append invalidates the old
// mapping, so the uncorrectable page drops out of the map — the loss
// became a latency event. The caller must have verified every member
// readable (probe + OOB verdict) before calling.
func (f *FTL) PlanReconstruct(now sim.Time, lspn int64, sub int, aux []PageLoc) (Plan, error) {
	plan := Plan{Ops: make([]Op, 0, len(aux)+4)}
	if f.rainW == 0 {
		return plan, fmt.Errorf("ftl: reconstruction without RAIN enabled")
	}
	if err := f.checkLSPN(lspn); err != nil {
		return plan, err
	}
	burn := true
	defer func() {
		if burn {
			f.planSeq++
		}
	}()
	for _, p := range aux {
		plan.add(Op{Kind: OpRead, Loc: p, LSPN: -1})
	}
	if err := f.appendSub(now, lspn, sub, true, 0, -1, &plan); err != nil {
		return plan, err
	}
	f.stats.Reconstructions++
	linkOps(plan.Ops)
	f.certify(&plan)
	burn = false
	return plan, nil
}

// NoteReconstruct records a reconstruction sourced from super-block sb and
// reports whether the block has faulted often enough that the caller
// should scrub it now: migrating and erasing re-programs the data on fresh
// pages and gives the block's pages new read-fault draws, while a block
// with genuinely failing cells then surfaces as a program or erase failure
// and retires through the grown-bad-block path.
func (f *FTL) NoteReconstruct(sb int) bool {
	f.sbs[sb].recon++
	return f.sbs[sb].recon >= reconScrubThreshold
}

// NoteDoubleFault counts a reconstruction that could not proceed (stripe
// member torn, unwritten or unreadable) and fell back to data loss.
func (f *FTL) NoteDoubleFault() { f.stats.DoubleFaults++ }

// Scrubbable reports whether sb currently qualifies for a patrol scrub or
// a precautionary retirement: closed (or at least not open), not free, not
// retired, and holding programmed pages.
func (f *FTL) Scrubbable(sb int) bool {
	blk := &f.sbs[sb]
	if blk.free || blk.retired || sb == f.openSB {
		return false
	}
	for _, np := range blk.nextPage {
		if np > 0 {
			return true
		}
	}
	return false
}

// PlanRetire builds the plan that evacuates super-block sb's valid data
// and retires it into the grown-bad-block list — the conservative policy
// for a block that keeps sourcing reconstructions when no patrol scrubber
// is armed to refresh it. The retirement counts against the spare reserve
// like any grown-bad block, so repeated read failures on an unscrubbed
// device eventually latch read-only; a scrubbed device erases the block
// instead and keeps it. The block is retired
// even when the migration runs out of space mid-plan (its unmigrated valid
// pages stay readable in place, see retireSB); the partial plan must still
// execute so the flash stays in lockstep.
func (f *FTL) PlanRetire(now sim.Time, sb int) (Plan, error) {
	var plan Plan
	blk := &f.sbs[sb]
	if blk.free || blk.retired || sb == f.openSB {
		return plan, nil
	}
	wasInGC := f.inGC
	f.inGC = true
	defer func() { f.inGC = wasInGC }()
	burn := true
	defer func() {
		if burn {
			f.planSeq++
		}
	}()
	err := f.migrateSuperBlock(now, sb, &plan, scrubMove)
	f.retireSB(sb)
	if err != nil {
		return plan, err
	}
	f.certify(&plan)
	burn = false
	return plan, nil
}

// PlanScrub builds the certified plan that refreshes super-block sb:
// every valid sub-page migrates to the open block and sb erases back into
// the free reserve, so its pages draw read faults afresh. A
// plan with no ops is returned when sb is not scrubbable (free, retired,
// open, or never written). Works with or without RAIN — scrub is the
// patrol half of the reliability machinery, parity the reactive half.
func (f *FTL) PlanScrub(now sim.Time, sb int) (Plan, int, error) {
	var plan Plan
	blk := &f.sbs[sb]
	if blk.free || blk.retired || sb == f.openSB {
		return plan, 0, nil
	}
	written := 0
	for _, np := range blk.nextPage {
		written += int(np)
	}
	if written == 0 {
		return plan, 0, nil
	}
	plan.Ops = make([]Op, 0, int(blk.validSubs)*2+4)
	// Suppress nested GC victim selection from racing the scrub victim the
	// same way wear-leveling does.
	wasInGC := f.inGC
	f.inGC = true
	defer func() { f.inGC = wasInGC }()
	burn := true
	defer func() {
		if burn {
			f.planSeq++
		}
	}()
	moved := int(blk.validSubs)
	if err := f.migrateSuperBlock(now, sb, &plan, scrubMove); err != nil {
		return plan, 0, err
	}
	f.eraseSB(sb, &plan)
	f.stats.ScrubRuns++
	f.certify(&plan)
	burn = false
	return plan, moved, nil
}

// ParityCatchup builds the post-mount plan that re-emits parity for every
// completed stripe row whose parity page is missing: rows finished right
// before a power cut whose parity program never started. A torn parity
// page cannot be re-programmed in place (strict in-order programming) and
// stays dead until its block erases; only rows the parity append pointer
// never reached are covered. The caller must execute the plan through the
// FIL (certified when non-empty) so the programs are charged to the
// simulated clock. Returns the parity programs planned.
func (f *FTL) ParityCatchup() (Plan, int) {
	var plan Plan
	if f.rainW == 0 {
		return plan, 0
	}
	n := 0
	for sb := range f.sbs {
		blk := &f.sbs[sb]
		if blk.free || blk.retired {
			continue
		}
		for g := 0; g < f.subCount/(f.rainW+1); g++ {
			n += f.parityCatchupGroup(sb, g, &plan)
		}
	}
	if n > 0 {
		f.certify(&plan)
	}
	return plan, n
}
