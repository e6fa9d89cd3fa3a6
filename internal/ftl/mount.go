package ftl

import (
	"fmt"

	"amber/internal/nand"
	"amber/internal/sim"
)

// MountReport summarizes one mount-time recovery scan.
type MountReport struct {
	// ScanTime is the simulated duration of the mount scan: every written
	// page's OOB area is read, channels scan in parallel, so the scan costs
	// the busiest channel's page count times one fast read plus command
	// overhead.
	ScanTime sim.Duration
	// RecoveredSubs counts logical sub-page mappings rebuilt from OOB.
	RecoveredSubs int
	// TornDiscarded counts pages whose OOB checksum failed (torn tail
	// programs at the power cut) and were treated as unwritten.
	TornDiscarded int
	// StaleSkipped counts written pages that lost their logical slot to a
	// later write (lower sequence number than the winner).
	StaleSkipped int
	// RetiredSBs counts super-blocks rebuilt as retired from the durable
	// bad-block table.
	RetiredSBs int
	// CleanupErases counts super-blocks erased by the post-mount cleanup
	// pass (MountCleanup): blocks whose surviving pages were all stale or
	// torn, reclaimed into the free reserve before the device serves I/O.
	CleanupErases int
	// SqueezedSBs counts super-blocks compacted by the emergency mount
	// squeeze (MountSqueeze), and SqueezedSubs the valid sub-pages it
	// rewrote. Nonzero only when the durable image held no erased block at
	// all — every functionally-free block's erase claim was undone by the
	// cut — so normal GC could not bootstrap a write destination.
	SqueezedSBs  int
	SqueezedSubs int
	// ParityPages counts intact RAIN parity pages found by the scan
	// (stripe membership rebuilt from their OOB tags and masks).
	ParityPages int
	// ParityReemitted counts parity programs the post-mount catch-up pass
	// (ParityCatchup) planned for stripe rows completed before the cut
	// whose parity never programmed.
	ParityReemitted int
}

// Mount rebuilds an FTL from flash state alone — the crash-recovery path.
// It scans every block's written pages in allocation order, reading only
// the OOB metadata each program stamped (logical tag, write sequence,
// checksum verdict): the highest sequence number claiming a logical
// sub-page holds its current data, torn pages (checksum-bad) are treated
// as unwritten, per-plane append pointers and erase counts come from the
// flash's block state, and the retirement order (with the read-only latch)
// is replayed from the durable bad-block table. The result converges to a
// mapping where every write whose program completed before the cut — every
// acknowledged-durable write — is readable, and no torn page is ever
// served.
//
// The scan is deterministic at any dispatch parallelism: it runs with the
// engine drained, reads only durable state, and its iteration order is
// fixed by the geometry. Mount does not touch the flash (OOB reads are
// modeled in the report's ScanTime, not charged to the channel counters,
// so a remounted device's golden state stays a pure function of its
// durable state).
func Mount(cfg Config, flash *nand.Flash) (*FTL, MountReport, error) {
	f, err := New(cfg)
	if err != nil {
		return nil, MountReport{}, err
	}
	if flash.Geometry() != cfg.Geometry {
		return nil, MountReport{}, fmt.Errorf("ftl: mount geometry mismatch")
	}
	var rep MountReport

	// Replay retirements from the durable bad-block table, in marked order.
	// MarkBadBlock records every plane block of a retired super-block;
	// deduplication by super-block recovers the retirement order.
	seen := make(map[int]bool)
	for _, bi := range flash.BadBlocks() {
		sb := bi % cfg.Geometry.BlocksPerPlane
		if seen[sb] {
			continue
		}
		seen[sb] = true
		blk := &f.sbs[sb]
		blk.retired = true
		blk.free = false
		blk.closed = true
		f.retireOrder = append(f.retireOrder, sb)
		rep.RetiredSBs++
	}
	if len(f.retireOrder) > f.spares {
		f.readOnly = true
	}

	// Scan: per super-block, per plane, per page in program order. The
	// winner for each logical sub-page is the claimant with the highest
	// write sequence. bestSeq is indexed by forward-map index.
	bestSeq := make([]uint64, len(f.fwd))
	chPages := make([]int64, cfg.Geometry.Channels) // written pages per channel
	for sb := 0; sb < f.sbCount; sb++ {
		blk := &f.sbs[sb]
		anyWritten := false
		for plane := 0; plane < f.subCount; plane++ {
			addr0 := f.Address(PageLoc{SB: sb, Plane: plane})
			blk.nextPage[plane] = int32(flash.NextProgramPage(addr0))
			if plane == 0 {
				blk.eraseCount = flash.EraseCount(addr0)
			}
			for page := 0; page < f.pagesPerSB; page++ {
				addr := addr0
				addr.Page = page
				if !flash.PageWritten(addr) {
					continue
				}
				anyWritten = true
				chPages[addr.Channel]++
				oob := flash.PageOOB(addr)
				if !oob.Good || !flash.VerifyPage(addr) {
					rep.TornDiscarded++
					continue
				}
				if oob.FI == ParityTag {
					rep.ParityPages++
					continue // parity holds no mapping; membership is its OOB mask
				}
				if oob.FI < 0 || oob.FI >= int64(len(f.fwd)) {
					continue // raw/untagged program: not the FTL's page
				}
				sub := int(oob.FI % int64(f.subCount))
				loc := PageLoc{SB: sb, Page: page, Plane: plane, Sub: sub}
				if oob.Seq <= bestSeq[oob.FI] {
					rep.StaleSkipped++
					continue
				}
				if old := f.fwd[oob.FI]; old >= 0 {
					// This claimant supersedes an earlier-scanned winner.
					f.invalidate(int64(old))
					rep.RecoveredSubs--
					rep.StaleSkipped++
				}
				bestSeq[oob.FI] = oob.Seq
				pi := f.physIndex(loc)
				f.fwd[oob.FI] = int32(pi)
				f.rev[pi] = int32(oob.FI)
				blk.validSubs++
				rep.RecoveredSubs++
			}
		}
		if blk.retired {
			continue
		}
		if anyWritten || !planesAllAtZero(blk) {
			blk.free = false
			blk.closed = true
		}
	}

	// Rebuild the free reserve in New's order (descending index) so the
	// dynamic wear-leveling pop is deterministic.
	f.freeSB = f.freeSB[:0]
	for sb := f.sbCount - 1; sb >= 0; sb-- {
		if f.sbs[sb].free {
			f.freeSB = append(f.freeSB, sb)
		}
	}

	// Resume the active block: reopen the partially written super-block
	// with the most remaining append room (ties to the lowest index).
	// Which block was open at the cut is not recorded durably, but the
	// max-room block is the deterministic proxy — and reopening one is
	// load-bearing, not cosmetic: a cut can leave a durable state with no
	// erased block at all (every functionally-free block's erase claim was
	// undone), and GC cannot bootstrap a destination out of an empty
	// reserve. The interrupted block's unwritten tail is the only write
	// room the durable state guarantees.
	f.openSB = -1
	bestRoom := 0
	for sb := 0; sb < f.sbCount; sb++ {
		blk := &f.sbs[sb]
		if blk.free || blk.retired {
			continue
		}
		room := 0
		for _, np := range blk.nextPage {
			room += f.pagesPerSB - int(np)
		}
		if room > bestRoom {
			bestRoom = room
			f.openSB = sb
		}
	}
	if f.openSB >= 0 {
		f.sbs[f.openSB].closed = false
	}

	var maxPages int64
	for _, n := range chPages {
		if n > maxPages {
			maxPages = n
		}
	}
	tim := flash.Timing()
	rep.ScanTime = sim.Duration(maxPages) * (tim.ReadFast + tim.CmdCycles)
	return f, rep, nil
}

// MountCleanup builds the post-mount recovery erase plan: every closed,
// unretired super-block holding no valid data (all its written pages lost
// to later writes or torn at the cut) is erased back into the free
// reserve. Mount itself leaves such blocks closed — only fully-erased
// blocks re-enter the free list — so a cut taken mid-GC (migrations
// landed, victim erase undone because its array operation never started)
// can leave the reserve empty with no GC destination to rebuild it: the
// device would refuse writes despite those blocks holding nothing live.
// The plan is certified when non-empty; the caller must execute it through
// the FIL so the erases are charged to the simulated clock like any other
// plan (skipping execution would break the certified chain). Returns the
// number of super-blocks erased; zero means no plan was issued.
func (f *FTL) MountCleanup() (Plan, int) {
	var plan Plan
	n := 0
	for sb := range f.sbs {
		blk := &f.sbs[sb]
		if blk.free || blk.retired || sb == f.openSB || blk.validSubs != 0 {
			continue
		}
		written := 0
		for _, np := range blk.nextPage {
			written += int(np)
		}
		if written == 0 {
			continue
		}
		f.eraseSB(sb, &plan)
		n++
	}
	if n > 0 {
		f.certify(&plan)
	}
	return plan, n
}

// MountSqueeze builds the emergency compaction plan for a durable image
// with no usable write room: repeatedly pick the closed super-block with
// the fewest valid sub-pages, read those sub-pages out, erase the block,
// and rewrite them compactly — the freed block is its own first
// destination, so the squeeze needs no pre-existing free space. This is
// the cap-backed-RAM recovery real controllers use for the same corner: a
// cut can undo every claimed erase at once, restoring a physical state
// where all blocks are fully written (the over-provisioning space entirely
// stale but trapped), and ordinary GC — which migrates before erasing —
// cannot bootstrap a destination out of that. The squeeze inverts the
// order, which is only crash-safe because mount is atomic in the model:
// the valid data lives in controller RAM between the erase and the
// rewrite.
//
// The loop compacts until the free reserve clears the GC threshold or no
// profitable victim remains. The plan is certified when non-empty and must
// be executed through the FIL (reads complete before the erase starts, and
// the rewrites before the block's erase ordering slot, by the FIL's
// super-block ordering). Returns the number of blocks squeezed and valid
// sub-pages rewritten.
func (f *FTL) MountSqueeze(now sim.Time) (Plan, int, int, error) {
	var plan Plan
	blocks, subs := 0, 0
	f.inGC = true
	defer func() { f.inGC = false }()
	burn := false
	defer func() {
		if burn {
			f.planSeq++
		}
	}()
	fullSubs := f.fullSubs()
	for tries := 0; len(f.freeSB) <= gcFreeThreshold && tries < 2*f.sbCount; tries++ {
		victim := -1
		for sb := range f.sbs {
			blk := &f.sbs[sb]
			if blk.free || blk.retired || sb == f.openSB || int(blk.validSubs) >= fullSubs {
				continue
			}
			if victim < 0 || blk.validSubs < f.sbs[victim].validSubs {
				victim = sb
			}
		}
		if victim < 0 {
			break
		}
		type move struct {
			lspn int64
			sub  int
		}
		var moves []move
		base := int64(victim) * int64(f.pagesPerSB) * int64(f.subCount)
		for page := 0; page < f.pagesPerSB; page++ {
			for plane := 0; plane < f.subCount; plane++ {
				pi := base + int64(page)*int64(f.subCount) + int64(plane)
				fi := int64(f.rev[pi])
				if fi < 0 {
					continue
				}
				lspn := fi / int64(f.subCount)
				sub := int(fi % int64(f.subCount))
				plan.Ops = append(plan.Ops, Op{Kind: OpRead, Loc: PageLoc{SB: victim, Page: page, Plane: plane, Sub: sub}, LSPN: lspn})
				moves = append(moves, move{lspn: lspn, sub: sub})
			}
		}
		f.eraseSB(victim, &plan)
		for _, m := range moves {
			burn = true
			if err := f.appendSub(now, m.lspn, m.sub, true, 0, -1, &plan); err != nil {
				return plan, blocks, subs, err
			}
			burn = false
			f.stats.GCMigrated++
			plan.Migrated++
		}
		blocks++
		subs += len(moves)
	}
	if len(plan.Ops) > 0 {
		// Every read of a victim precedes its erase and the rewrites follow
		// it, so the links are not known at append time: one reference pass.
		linkOps(plan.Ops)
		f.certify(&plan)
	}
	return plan, blocks, subs, nil
}

// planesAllAtZero reports whether every plane's append pointer is at page
// zero — the erased (or never-programmed) state that keeps a block in the
// free reserve at mount.
func planesAllAtZero(blk *superBlock) bool {
	for _, np := range blk.nextPage {
		if np != 0 {
			return false
		}
	}
	return true
}
