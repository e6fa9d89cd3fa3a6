package core

import (
	"errors"

	"amber/internal/fil"
	"amber/internal/ftl"
	"amber/internal/nand"
	"amber/internal/sim"
)

// RAIN reconstruction and patrol scrub, the firmware halves of the ftl
// parity layout (ftl/rain.go):
//
//   - Reactive: an uncorrectable read of a data page reassembles the page
//     from its stripe (XOR of the surviving peers and parity, all verified
//     against their OOB verdicts) and executes a certified PlanReconstruct
//     that re-homes the sub-page — the data loss becomes a latency event.
//     Host-path fills retry their fetch against the fresh mapping
//     (recoverFillFault); GC plan faults queue the repair and execute it
//     once the recovered plan restores model/flash lockstep
//     (noteRainFault / drainRainRepairs).
//
//   - Patrol: a periodic scrub tick (RunConfig.ScrubEvery, its own
//     engine domain) refreshes the super-blocks reconstructions flagged —
//     migrate valid data onto fresh pages, erase — so a block that keeps
//     failing reads rejoins the pool instead of being retired.
//
// The two halves meet in the scrub-or-retire policy (noteRecon): a block
// that keeps sourcing reconstructions is scrubbed when a patrol is armed
// (a read-fault draw keys on the block's erase count, so the erase gives
// its pages a fresh draw), but retired conservatively when none is, which
// is what makes an unscrubbed device exhaust its spare reserve and latch
// read-only sooner than a scrubbed one under the same read faults.

// rainRepair is one reconstruction queued by GC plan-fault recovery: the
// payload was reassembled from the stripe at fault time (while the members
// were still physically present) and the re-homing plan executes once the
// faulted plan's recovery lands.
type rainRepair struct {
	lspn int64
	sub  int
	sb   int    // source super-block, for the scrub-or-retire policy
	data []byte // reassembled payload (nil when data tracking is off)
}

// stripeAssemble verifies every surviving member of src's RAIN stripe
// (peer data pages plus parity) is physically present, clean and readable,
// and XORs their payloads into the controller-RAM scratch — reassembling
// src's page. Returns the member locations (for the repair plan's timing
// reads), the payload (nil when data tracking is off) and whether the
// stripe proves the bytes; a torn, unwritten or unreadable member is a
// double fault. The returned slices are scratch, valid until the next
// call.
func (s *System) stripeAssemble(src ftl.PageLoc) ([]ftl.PageLoc, []byte, bool) {
	peers, parity, ok := s.FTL.StripePeers(src, s.reconLocs[:0])
	if !ok {
		return nil, nil, false
	}
	pa := s.FTL.Address(parity)
	if !s.Flash.PageWritten(pa) {
		return nil, nil, false
	}
	if po := s.Flash.PageOOB(pa); !po.Good || po.FI != ftl.ParityTag || po.Stripe&s.FTL.StripeMaskBit(src) == 0 {
		return nil, nil, false
	}
	members := append(peers, parity)
	s.reconLocs = members
	track := s.Flash.TrackData()
	if track {
		if s.reconBuf == nil {
			ps := s.cfg.Device.Geometry.PageSize
			s.reconBuf = make([]byte, ps)
			s.reconTmp = make([]byte, ps)
		}
		for i := range s.reconBuf {
			s.reconBuf[i] = 0
		}
	}
	for _, m := range members {
		ma := s.FTL.Address(m)
		if !s.Flash.PageWritten(ma) {
			return nil, nil, false
		}
		if oob := s.Flash.PageOOB(ma); !oob.Good {
			return nil, nil, false
		}
		if err := s.Flash.ProbeRead(ma); err != nil {
			return nil, nil, false
		}
		if track {
			s.Flash.PagePayload(ma, s.reconTmp)
			for j := range s.reconBuf {
				s.reconBuf[j] ^= s.reconTmp[j]
			}
		}
	}
	if !track {
		return members, nil, true
	}
	return members, s.reconBuf, true
}

// recoverFillFault handles a flash fault surfaced by a fill's read batch:
// with RAIN armed and the fault an uncorrectable read of one of the fetch
// locations, the stripe is reassembled and the sub-page re-homed, so the
// caller re-looks-up the fresh mapping and retries the fetch — the read
// served its originally acknowledged bytes a reconstruction later.
// Returns whether to retry and the firmware clock after the repair.
func (s *System) recoverFillFault(e *sim.Engine, t sim.Time, lspn int64, fetch []ftl.PageLoc, err error) (bool, sim.Time) {
	if !s.FTL.RAINEnabled() || !errors.Is(err, nand.ErrUncorrectable) {
		return false, t
	}
	var fe *nand.FaultError
	if !errors.As(err, &fe) {
		return false, t
	}
	for _, loc := range fetch {
		if s.FTL.Address(loc) == fe.Addr {
			done, ok := s.reconstructSub(e, t, lspn, loc.Sub, loc, true)
			return ok, done
		}
	}
	return false, t
}

// reconstructSub reassembles and re-homes the data sub-page (lspn, sub)
// after an uncorrectable read at src. withAux emits timing reads of the
// surviving stripe members into the repair plan (the host read path; the
// GC-recovery path already read them as part of the faulted plan and
// passes prepared payloads through the repair queue instead). ok is false
// on a double fault — the caller falls back to honest data loss.
func (s *System) reconstructSub(e *sim.Engine, t sim.Time, lspn int64, sub int, src ftl.PageLoc, withAux bool) (sim.Time, bool) {
	aux, data, ok := s.stripeAssemble(src)
	if !ok {
		s.FTL.NoteDoubleFault()
		return t, false
	}
	if !withAux {
		aux = nil
	}
	return s.executeReconstruct(e, t, lspn, sub, src.SB, aux, data)
}

// executeReconstruct builds and runs the certified re-homing plan, feeding
// the reassembled payload through the host-data path, then applies the
// scrub-or-retire policy to the source block.
func (s *System) executeReconstruct(e *sim.Engine, t sim.Time, lspn int64, sub, srcSB int, aux []ftl.PageLoc, data []byte) (sim.Time, bool) {
	plan, err := s.FTL.PlanReconstruct(t, lspn, sub, aux)
	if err != nil { // Allocation exhausted on a degrading device: execute the partial
		// plan (flash in lockstep with the model's mutations), then fall
		// back to honest loss.
		if len(plan.Ops) > 0 {
			s.runPlan(e, t, plan, fil.PlanData{}, nil)
		}
		s.FTL.NoteDoubleFault()
		return t, false
	}
	var hd fil.PlanData
	if data != nil {
		subSize := s.ICL.Config().SubSize
		if s.reconData == nil {
			s.reconData = make([]byte, s.FTL.SuperPageBytes())
			s.reconDirty = make([]bool, s.FTL.SubPagesPerSuperPage())
		}
		for i := range s.reconDirty {
			s.reconDirty[i] = false
		}
		s.reconDirty[sub] = true
		copy(s.reconData[sub*subSize:(sub+1)*subSize], data)
		hd = fil.HostData(lspn, s.reconDirty, s.reconData, subSize)
	}
	t2 := s.chargeFirmware(t, modRAIN, s.filScheduleMix(len(plan.Ops)))
	res, rerr, _ := s.runPlan(e, t2, plan, hd, nil)
	if rerr != nil {
		return t2, false
	}
	done := res.Done
	if done < t2 {
		done = t2
	}
	done = s.noteRecon(e, done, srcSB)
	return done, true
}

// noteRecon applies the scrub-or-retire policy after a reconstruction
// sourced from super-block sb: under an armed patrol the block queues for
// a forced scrub (the erase gives its pages fresh fault draws and the block
// rejoins the pool); without one the firmware retires the block, spending
// a spare.
func (s *System) noteRecon(e *sim.Engine, t sim.Time, sb int) sim.Time {
	if !s.FTL.NoteReconstruct(sb) {
		return t
	}
	if s.scrubArmed {
		for _, q := range s.scrubPending {
			if q == sb {
				return t
			}
		}
		s.scrubPending = append(s.scrubPending, sb)
		return t
	}
	plan, err := s.FTL.PlanRetire(t, sb)
	if len(plan.Ops) == 0 && err == nil {
		return t
	}
	t2 := s.chargeFirmware(t, modRetire, s.filScheduleMix(len(plan.Ops)))
	res, _, _ := s.runPlan(e, t2, plan, fil.PlanData{}, nil)
	if res.Done > t2 {
		t2 = res.Done
	}
	return t2
}

// noteRainFault inspects a plan fault before recovery re-plans around it:
// an uncorrectable read of a mapped data page under RAIN is repairable.
// The stripe is reassembled now — while the members are still physically
// present (the victim's erase sits in the never-executed suffix) — and the
// repair queued for execution once the recovered plan restores lockstep.
// Recovery still marks the sub lost (counted in LostSubs) and pads its
// paired program; the queued repair then re-homes the payload, so the net
// effect is a latency event, with Reconstructions recording the save. A
// stripe that cannot prove the bytes is a double fault and the loss
// stands.
func (s *System) noteRainFault(pf *fil.PlanFault) {
	if !s.FTL.RAINEnabled() || pf.Op.Kind != ftl.OpRead || pf.Op.LSPN < 0 {
		return
	}
	if !errors.Is(pf.Err, nand.ErrUncorrectable) {
		return
	}
	src := pf.Op.Loc
	_, data, ok := s.stripeAssemble(src)
	if !ok {
		s.FTL.NoteDoubleFault()
		return
	}
	var cp []byte
	if data != nil {
		cp = append([]byte(nil), data...)
	}
	s.rainRepairs = append(s.rainRepairs, rainRepair{lspn: pf.Op.LSPN, sub: src.Sub, sb: src.SB, data: cp})
}

// drainRainRepairs executes the reconstructions GC plan-fault recovery
// queued. Re-entrancy-guarded: a repair's own plan can fault and queue
// further repairs, which the outermost drain picks up. A repair runs only
// while its sub is still lost: when a host write in the faulted plan
// superseded the lost bytes, re-homing them would put older data over the
// newer mapping.
func (s *System) drainRainRepairs(e *sim.Engine, t sim.Time) sim.Time {
	if s.rainDraining {
		return t
	}
	s.rainDraining = true
	defer func() { s.rainDraining = false }()
	for len(s.rainRepairs) > 0 {
		r := s.rainRepairs[0]
		s.rainRepairs = s.rainRepairs[:copy(s.rainRepairs, s.rainRepairs[1:])]
		if _, mapped := s.FTL.LookupSub(r.lspn, r.sub); mapped {
			continue
		}
		if done, ok := s.executeReconstruct(e, t, r.lspn, r.sub, r.sb, nil, r.data); ok && done > t {
			t = done
		}
	}
	return t
}

// scrubTick runs one patrol pass at t: it refreshes the first super-block
// reconstruction pressure queued that is still scrubbable. One block per
// tick keeps the background traffic from starving the foreground.
func (s *System) scrubTick(e *sim.Engine, t sim.Time) {
	if s.FTL.ReadOnly() {
		return
	}
	sb := -1
	for len(s.scrubPending) > 0 {
		cand := s.scrubPending[0]
		s.scrubPending = s.scrubPending[:copy(s.scrubPending, s.scrubPending[1:])]
		if s.FTL.Scrubbable(cand) {
			sb = cand
			break
		}
	}
	if sb < 0 {
		return
	}
	plan, moved, err := s.FTL.PlanScrub(t, sb)
	if err != nil {
		// Out of space mid-scrub on a degrading device: execute the partial
		// plan (lockstep) and let foreground GC recover the reserve first.
		if len(plan.Ops) > 0 {
			s.runPlan(e, t, plan, fil.PlanData{}, nil)
		}
		return
	}
	if len(plan.Ops) == 0 {
		return
	}
	t2 := s.chargeFirmware(t, modScrub, s.gcMix(moved))
	s.runPlan(e, t2, plan, fil.PlanData{}, nil)
	s.drainRainRepairs(e, t2)
}
