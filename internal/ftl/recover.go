package ftl

import (
	"errors"
	"fmt"

	"amber/internal/nand"
	"amber/internal/sim"
)

// retireSB marks sb as a grown bad block: it leaves the free pool and the
// open slot, is never erased, programmed or selected as a victim again,
// and counts against the spare reserve. Once retirements exceed the
// reserve the device latches read-only. The block is NOT erased — retired
// cells keep whatever the flash last programmed, so still-valid sub-pages
// remain readable until recovery migrates them out.
func (f *FTL) retireSB(sb int) {
	blk := &f.sbs[sb]
	if blk.retired {
		return
	}
	blk.retired = true
	blk.free = false
	blk.closed = true
	for i, fs := range f.freeSB {
		if fs == sb {
			f.freeSB = append(f.freeSB[:i], f.freeSB[i+1:]...)
			break
		}
	}
	if f.openSB == sb {
		f.openSB = -1
	}
	f.retireOrder = append(f.retireOrder, sb)
	f.stats.Retirements++
	if len(f.retireOrder) > f.spares {
		f.readOnly = true
	}
	if f.onRetire != nil {
		f.onRetire(sb)
	}
}

// fwdLost is the forward entry of a sub-page whose acknowledged data a
// read fault destroyed: LookupSubs fails a read of it with
// nand.ErrUncorrectable, everything else treats it as unmapped, and the
// next host write of the sub maps it again. It lives in RAM only: a mount
// rebuilds the map from the OOB stamps, where the lost sub's padding burn
// is its newest claimant.
const fwdLost = -2

// loseSub marks the forward entry fi lost after an uncorrectable read: the
// current mapping (which points at the location the in-flight plan was
// migrating the data to) is dropped, so reads of the sub fail from now on
// — data loss, surfaced honestly instead of serving zeroes or stale bytes.
func (f *FTL) loseSub(fi int64) {
	packed := int64(f.fwd[fi])
	if packed < 0 {
		return
	}
	f.invalidate(packed)
	f.fwd[fi] = fwdLost
	f.stats.LostSubs++
}

// loseUnlessRewritten loses fi's data (loseSub) unless a host write of fi
// in later, not yet executed, ops supersedes it: the mapping then names
// that write's page, whose bytes come from the host, and the loss only
// costs the migration writes before it.
func (f *FTL) loseUnlessRewritten(fi int64, later []Op) {
	for _, op := range later {
		if op.Kind == OpWrite && !op.GC && !op.Parity && op.LSPN >= 0 && f.fwdIndex(op.LSPN, op.Loc.Sub) == fi {
			return
		}
	}
	f.loseSub(fi)
}

// RecoverPlanFault absorbs an injected flash fault that stopped a plan
// mid-execution and returns the recovery plan that restores model/flash
// lockstep. plan is the failed plan, executed the number of its ops that
// completed before the fault (the op at index executed is the one that
// drew it, claiming and mutating nothing), cause the fault error.
//
// Program failure: the target super-block is retired and every op the
// fault stranded is re-placed — suffix writes aimed at the retired block
// get fresh allocations (invalidating their stale mappings), then the
// block's surviving valid sub-pages are migrated out. Erase failure: the
// block is retired out of the free pool; the suffix continues without it.
// Uncorrectable read: the sub-page is marked lost (data loss; reads of it
// fail) unless a host write later in the plan supersedes it, and its
// migration writes up to that host write degrade to padding programs —
// the physical page is still burned so the target block's append pointer
// advances in lockstep on the model and the flash, which strict in-order
// programming requires.
//
// GC rewrites in the suffix whose source reads executed before the fault
// are re-read from the original location while it is physically intact.
// Squeeze-shaped plans order a victim's erase BEFORE its rewrites
// (compaction into the same block), so those re-reads are hoisted ahead
// of the erase; when the erase already executed, the bytes are
// unrecoverable and the sub-page is lost the same way, its write degraded
// to a padding burn. The returned plan is uncertified — the executor walks
// it — and its Ops are freshly allocated (recovery is the cold path and
// must not alias the scratch buffer the failed plan borrowed).
func (f *FTL) RecoverPlanFault(now sim.Time, plan Plan, executed int, cause error) (Plan, error) {
	if executed < 0 || executed >= len(plan.Ops) {
		return Plan{}, fmt.Errorf("ftl: recover with executed %d outside plan of %d ops", executed, len(plan.Ops))
	}
	failed := plan.Ops[executed]
	f.stats.Replans++

	lostFi := int64(-1)
	switch {
	case errors.Is(cause, nand.ErrProgramFail):
		if failed.Kind != OpWrite {
			return Plan{}, fmt.Errorf("ftl: program fault on %v op", failed.Kind)
		}
		f.retireSB(failed.Loc.SB)
	case errors.Is(cause, nand.ErrEraseFail):
		if failed.Kind != OpErase {
			return Plan{}, fmt.Errorf("ftl: erase fault on %v op", failed.Kind)
		}
		f.retireSB(failed.SB)
	case errors.Is(cause, nand.ErrUncorrectable):
		if failed.Kind != OpRead {
			return Plan{}, fmt.Errorf("ftl: read fault on %v op", failed.Kind)
		}
		// A timing read (LSPN < 0: a reconstruction plan's stripe-member
		// read) owns no mapping — nothing to lose, the suffix just drops it.
		if failed.LSPN >= 0 {
			lostFi = f.fwdIndex(failed.LSPN, failed.Loc.Sub)
			f.loseUnlessRewritten(lostFi, plan.Ops[executed+1:])
		}
	default:
		return Plan{}, fmt.Errorf("ftl: unrecoverable plan failure: %w", cause)
	}

	suffix := plan.Ops[executed:]
	out := Plan{Ops: make([]Op, 0, len(suffix)+8)}
	// Ops copied from the suffix carry Src indices into the FAULTED plan,
	// meaningless here: whatever this function returns is re-linked whole.
	defer func() { linkOps(out.Ops) }()

	// A mega-plan can chain a logical sub-page through several physical
	// homes: migrated from its pre-plan page to a fresh block, that block
	// later collected in the SAME plan, migrated again, and so on. When a
	// link in the chain lands on the block this fault retired, every later
	// read of the chain points at a page whose programming write will
	// never burn. So pre-scan the plan per sub-page for the two places the
	// data is still physically real: the last write that EXECUTED before
	// the fault (programmed, but the executor's buffer is gone), else the
	// chain's original pre-plan source (intact — its erase follows the
	// chain's first write in plan order, so it is still in the suffix). A
	// chain rooted at a host write of this flush has no read source at
	// all; its data comes from hostData.
	type fiInfo struct {
		origin    PageLoc // first read loc in the plan (pre-plan home)
		lastExec  PageLoc // last write loc in the executed prefix
		hasOrigin bool
		hasExec   bool
		touched   bool
	}
	info := make(map[int64]*fiInfo)
	// Blocks whose erase already executed: a read source on one of them
	// has physically lost its bytes — no recovery read can bring them back.
	erasedPrefix := make(map[int]bool)
	for idx, op := range plan.Ops {
		if op.Kind == OpErase {
			if idx < executed {
				erasedPrefix[op.SB] = true
			}
			continue
		}
		if op.LSPN < 0 {
			continue // parity/timing ops own no logical sub-page
		}
		fi := f.fwdIndex(op.LSPN, op.Loc.Sub)
		in := info[fi]
		if in == nil {
			in = &fiInfo{}
			info[fi] = in
		}
		switch op.Kind {
		case OpRead:
			if !in.touched {
				in.origin, in.hasOrigin = op.Loc, true
			}
		case OpWrite:
			if idx < executed {
				in.lastExec, in.hasExec = op.Loc, true
			}
		}
		in.touched = true
	}

	emitted := make(map[int64]bool)  // fi whose data a recovery read loads
	broken := make(map[PageLoc]bool) // pages whose programming write was displaced

	// srcOf resolves the physical location still holding fi's bytes: the
	// last write that executed before the fault, else the chain's pre-plan
	// origin. ok is false for host-rooted chains (no read source ever).
	srcOf := func(in *fiInfo) (PageLoc, bool) {
		if in.hasExec {
			return in.lastExec, true
		}
		if in.hasOrigin {
			return in.origin, true
		}
		return PageLoc{}, false
	}

	// ensureData outcomes for a suffix write that needs its sub-page's
	// bytes in the executor's buffers.
	const (
		srcLoaded = iota // a recovery read supplies the bytes (or already did)
		srcHost          // host-rooted chain: pull from this flush's hostData
		srcGone          // only physical copy already erased: data is lost
	)
	ensureData := func(op Op, fi int64) int {
		if emitted[fi] {
			return srcLoaded
		}
		in := info[fi]
		if in == nil {
			return srcHost
		}
		src, ok := srcOf(in)
		if !ok {
			return srcHost
		}
		if erasedPrefix[src.SB] {
			// Squeeze-shaped plans erase a victim before rewriting it; when
			// the erase sits in the executed prefix and the rewrite's bytes
			// died with the failed executor's buffers, no copy survives.
			return srcGone
		}
		out.Ops = append(out.Ops, Op{Kind: OpRead, Loc: src, LSPN: op.LSPN})
		emitted[fi] = true
		return srcLoaded
	}

	// Writes stranded on the retired block are re-placed with fresh
	// allocations — but only after the whole verbatim suffix has been
	// emitted. Appending them mid-walk would violate flash ordering two
	// ways: a fresh allocation can land on a free-pool block whose erase
	// is still later in the suffix (programming a block before erasing
	// it), and it can land on the open block at a page past verbatim
	// suffix writes that would then program behind it (out-of-order
	// pages). Their source reads DO stay in place: a read must precede
	// any later suffix erase of the block it reads.
	type displacedWrite struct {
		op Op
		gc bool
	}
	var moves []displacedWrite

	// Sub-pages whose bytes no surviving copy can supply: the current
	// fault's uncorrectable read, plus any chain srcGone discovers. Their
	// pending writes degrade to padding burns.
	lost := map[int64]bool{}
	if lostFi >= 0 {
		lost[lostFi] = true
	}

	for j, op := range suffix {
		switch op.Kind {
		case OpRead:
			if j == 0 && failed.Kind == OpRead {
				continue // the uncorrectable read itself
			}
			if op.LSPN < 0 {
				// Timing read of a stripe member: no mapping, no pairing —
				// re-issue verbatim (its page is physically intact; a plan
				// orders any erase of it after the read).
				out.Ops = append(out.Ops, op)
				continue
			}
			fi := f.fwdIndex(op.LSPN, op.Loc.Sub)
			if broken[op.Loc] {
				// The write that was to program this page was displaced
				// onto the retired block; load from the still-intact
				// source instead (or nothing, for host-rooted chains —
				// the paired write degrades to a hostData write below).
				ensureData(op, fi)
				continue
			}
			out.Ops = append(out.Ops, op)
			emitted[fi] = true
		case OpWrite:
			if op.Parity {
				// A parity program owns no mapping. Its block retired: the
				// whole stripe died with the block, drop it. Otherwise the
				// suffix re-issues it verbatim — earlier writes into the same
				// block re-issue verbatim too, so in-order programming holds.
				if !f.sbs[op.Loc.SB].retired {
					out.Ops = append(out.Ops, op)
				}
				continue
			}
			fi := f.fwdIndex(op.LSPN, op.Loc.Sub)
			if f.sbs[op.Loc.SB].retired {
				broken[op.Loc] = true
				// Re-place only a write that still owns fi's live
				// mapping; one superseded later in the plan (or whose
				// data an uncorrectable read lost) needs neither a
				// mapping nor a burn on a block nothing programs again.
				if packed := f.fwd[fi]; packed >= 0 && f.unpackLoc(int64(packed), op.Loc.Sub) == op.Loc {
					gc := op.GC
					if op.GC {
						switch ensureData(op, fi) {
						case srcHost:
							gc = false
						case srcGone:
							// No surviving copy to migrate: lose the sub —
							// honest loss — and skip the re-placement (the
							// write targeted the retired block, so no live
							// block owes a burn for it).
							f.loseSub(fi)
							lost[fi] = true
							continue
						}
					}
					moves = append(moves, displacedWrite{op: op, gc: gc})
				}
				continue
			}
			if lost[fi] {
				if op.GC {
					// Padding program: the data is gone but the page must
					// still burn, or the live target block's next-page
					// pointer would diverge between model and flash.
					out.Ops = append(out.Ops, Op{Kind: OpWrite, Loc: op.Loc, LSPN: op.LSPN, GC: true})
					continue
				}
				// A host write brings fi's bytes back: it and whatever
				// migrates them later in the plan run as planned.
				delete(lost, fi)
			}
			if op.GC {
				switch ensureData(op, fi) {
				case srcHost:
					// Host-rooted chain whose read source was displaced:
					// re-program from the flush's host data.
					out.Ops = append(out.Ops, Op{Kind: OpWrite, Loc: op.Loc, LSPN: op.LSPN})
					continue
				case srcGone:
					// The only physical copy was erased before the fault and
					// the first-pass read's bytes died with the failed
					// executor: lose the sub and degrade to a padding burn.
					f.loseUnlessRewritten(fi, suffix[j+1:])
					lost[fi] = true
					out.Ops = append(out.Ops, Op{Kind: OpWrite, Loc: op.Loc, LSPN: op.LSPN, GC: true})
					continue
				}
			}
			out.Ops = append(out.Ops, op)
		case OpErase:
			if f.sbs[op.SB].retired {
				continue
			}
			// Squeeze-shaped plans erase a victim BEFORE rewriting its
			// pages into the compacted block. A chain whose first-pass read
			// executed holds its bytes only in the failed executor's
			// buffers — gone — so its recovery re-read must land before
			// this erase burns the last physical copy (ensureData would
			// otherwise emit it at the paired write's position, after the
			// erase).
			for _, later := range suffix[j+1:] {
				if later.Kind != OpWrite || !later.GC || later.Parity || later.LSPN < 0 {
					continue
				}
				lfi := f.fwdIndex(later.LSPN, later.Loc.Sub)
				if emitted[lfi] || lost[lfi] || f.fwd[lfi] < 0 {
					continue
				}
				in := info[lfi]
				if in == nil {
					continue
				}
				if src, ok := srcOf(in); ok && src.SB == op.SB && !erasedPrefix[src.SB] {
					out.Ops = append(out.Ops, Op{Kind: OpRead, Loc: src, LSPN: later.LSPN})
					emitted[lfi] = true
				}
			}
			out.Ops = append(out.Ops, op)
		}
	}
	for i, m := range moves {
		if err := f.appendSub(now, m.op.LSPN, m.op.Loc.Sub, m.gc, 0, -1, &out); err != nil {
			// No space to re-place the remaining stranded writes: their
			// mappings point at pages the fault kept the flash from ever
			// programming, so lose them — honest data loss — instead of
			// leaving phantom locations a later read would trip over. The
			// partial plan is still returned: the caller must execute it
			// to bring the flash in lockstep with the mutations already
			// made (see Write's contract on mid-plan errors).
			f.readOnly = true
			for _, rest := range moves[i:] {
				f.loseSub(f.fwdIndex(rest.op.LSPN, rest.op.Loc.Sub))
			}
			return out, err
		}
	}

	// With the stranded suffix re-placed, whatever is still valid in a
	// block retired by this fault was physically programmed before the
	// fault — migrate it to safety. (Erase-failure retirements are always
	// empty: a victim's migration precedes its erase in plan order.)
	var retired int
	switch {
	case errors.Is(cause, nand.ErrProgramFail):
		retired = failed.Loc.SB
	case errors.Is(cause, nand.ErrEraseFail):
		retired = failed.SB
	default:
		return out, nil
	}
	if f.sbs[retired].validSubs > 0 {
		if err := f.migrateSuperBlock(now, retired, &out, gcMove); err != nil {
			f.readOnly = true
			return out, err
		}
	}
	return out, nil
}
