package ftl

import (
	"amber/internal/sim"
)

// collect runs one garbage collection: it selects a victim super-block,
// migrates its valid sub-pages into the open super-block, erases it and
// returns it to the free reserve. The physical reads, writes and erase are
// appended to the plan in dependency order. It reports whether a
// profitable victim existed; when every candidate is fully valid there is
// nothing to reclaim and the caller must stop collecting (writes then
// consume the over-provisioning reserve, which subsequent overwrites will
// replenish by invalidating pages).
func (f *FTL) collect(now sim.Time, plan *Plan) (bool, error) {
	victim := f.selectVictim()
	if victim < 0 {
		return false, nil
	}
	f.stats.GCRuns++
	plan.GCRuns++

	if err := f.migrateSuperBlock(now, victim, plan, gcMove); err != nil {
		return true, err
	}
	f.eraseSB(victim, plan)
	return true, nil
}

// migrateMode attributes a super-block migration's moves in the stats.
type migrateMode int

const (
	gcMove migrateMode = iota
	wearMove
	scrubMove
)

// migrateSuperBlock moves every valid sub-page of sb into the open
// super-block, attributing the moves to mode.
func (f *FTL) migrateSuperBlock(now sim.Time, sb int, plan *Plan, mode migrateMode) error {
	base := int64(sb) * int64(f.pagesPerSB) * int64(f.subCount)
	for page := 0; page < f.pagesPerSB; page++ {
		for plane := 0; plane < f.subCount; plane++ {
			pi := base + int64(page)*int64(f.subCount) + int64(plane)
			fi := int64(f.rev[pi])
			if fi < 0 {
				continue
			}
			lspn := fi / int64(f.subCount)
			sub := int(fi - lspn*int64(f.subCount))
			op := plan.push(OpRead)
			op.Loc.SB, op.Loc.Page, op.Loc.Plane, op.Loc.Sub = sb, page, plane, sub
			op.LSPN = lspn
			read := int32(len(plan.Ops)) // 1-based: the rewrite's plan link
			if lspn == f.linkLSPN {
				f.lastRead[sub] = read
			}
			if err := f.appendSub(now, lspn, sub, true, read, pi, plan); err != nil {
				return err
			}
			switch mode {
			case wearMove:
				f.stats.WearLevelMoves++
				plan.WearLevelMoves++
			case scrubMove:
				f.stats.ScrubMigrated++
				plan.Migrated++
			default:
				f.stats.GCMigrated++
				plan.Migrated++
			}
		}
	}
	return nil
}

// eraseSB resets the super-block's physical state and returns it to the
// free list.
func (f *FTL) eraseSB(sb int, plan *Plan) {
	blk := &f.sbs[sb]
	perSB := int64(f.pagesPerSB) * int64(f.subCount)
	rev := f.rev[int64(sb)*perSB : int64(sb+1)*perSB]
	for i := range rev {
		rev[i] = -1
	}
	for p := range blk.nextPage {
		blk.nextPage[p] = 0
	}
	blk.validSubs = 0
	blk.eraseCount++
	blk.recon = 0 // a fresh erase clears the reconstruction pressure
	blk.closed = false
	blk.free = true
	f.freeSB = append(f.freeSB, sb)
	f.stats.Erases++
	plan.add(Op{Kind: OpErase, SB: sb})
}

// collectable reports whether sb may be a GC victim: the open super-block,
// free and retired blocks are excluded, and so are blocks collecting which
// gains nothing.
func (f *FTL) collectable(sb int) bool {
	blk := &f.sbs[sb]
	if blk.free || blk.retired || sb == f.openSB {
		return false
	}
	written := 0
	for _, np := range blk.nextPage {
		written += int(np)
	}
	if written == 0 {
		return false // nothing ever written; erasing gains nothing
	}
	// Fully valid: migration would consume what the erase frees.
	return int(blk.validSubs) != f.fullSubs()
}

// reserveStorm gives the plan, in one exact-size allocation, room for the
// collection loop allocOpen is about to run and for the write around it, so
// that a storm — on the bench device one write migrating the whole volume in
// ~295 000 ops — neither climbs append's growth ladder, copying megabytes a
// step, nor leaves Write a scratch larger than it needed. The loop migrates
// only sub-pages valid in a collectable super-block now (what it writes lands
// in fully valid blocks or the open one, never a victim): a read and a
// rewrite each, at most an erase per super-block and, under RAIN, about a
// parity program per stripe row; the write around it is a super-page of
// pre-reads and one of rewrites, wherever in it the storm starts. A plan that
// outgrows this all the same falls back to append.
func (f *FTL) reserveStorm(plan *Plan) {
	subs := 0
	for sb := range f.sbs {
		if f.collectable(sb) {
			subs += int(f.sbs[sb].validSubs)
		}
	}
	need := max(len(plan.Ops), 2*f.subCount) + 2*subs + f.sbCount
	if f.rainW > 0 {
		need += (subs+f.subCount)/f.rainW + f.subCount/(f.rainW+1)
	}
	if need <= cap(plan.Ops) {
		return
	}
	ops := make([]Op, len(plan.Ops), need)
	copy(ops, plan.Ops)
	plan.Ops = ops
}

// selectVictim returns the greedy GC victim [41] — the collectable
// super-block with the fewest valid sub-pages, the lowest-numbered of a tie —
// or -1 if none qualifies.
func (f *FTL) selectVictim() int {
	best := -1
	for sb := range f.sbs {
		if f.collectable(sb) && (best < 0 || f.sbs[sb].validSubs < f.sbs[best].validSubs) {
			best = sb
		}
	}
	return best
}

// maybeWearLevel performs static wear-leveling when the erase spread
// exceeds the configured delta: the coldest closed super-block (the one
// least recently written, holding static data) is migrated and erased so
// its underlying cells rejoin the rotation.
func (f *FTL) maybeWearLevel(now sim.Time, plan *Plan) {
	if f.MaxEraseSpread() <= f.cfg.WearLevelDelta {
		return
	}
	coldest := -1
	var coldestTime sim.Time
	for sb := range f.sbs {
		blk := &f.sbs[sb]
		if blk.free || blk.retired || sb == f.openSB || blk.validSubs == 0 {
			continue
		}
		// Only blocks with below-median wear hold back the spread.
		if blk.eraseCount > f.sbs[f.minEraseSB()].eraseCount {
			continue
		}
		if coldest < 0 || blk.lastWrite < coldestTime {
			coldest = sb
			coldestTime = blk.lastWrite
		}
	}
	if coldest < 0 {
		return
	}
	// Suppress nested GC during the move: a GC choosing this same block as
	// its victim would double-erase it.
	wasInGC := f.inGC
	f.inGC = true
	err := f.migrateSuperBlock(now, coldest, plan, wearMove)
	f.inGC = wasInGC
	if err != nil {
		return // reserve exhausted; ordinary GC will recover first
	}
	f.eraseSB(coldest, plan)
}

func (f *FTL) minEraseSB() int {
	best := 0
	for i := range f.sbs {
		if f.sbs[i].eraseCount < f.sbs[best].eraseCount {
			best = i
		}
	}
	return best
}
