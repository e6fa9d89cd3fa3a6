package nand

import "amber/internal/sim"

// Durable-state surface: what survives a power cut, and the cut itself.
//
// The durable state of the storage complex is exactly what physically lives
// in the NAND array — block erase counts and in-order pointers, page
// payloads, per-page OOB stamps with their written flags, and the grown
// bad-block table. Everything else (the erase-undo journal, the staging
// pool, the pins) is firmware RAM: PowerLoss resolves the journal, drops the
// pins and keeps the pool, whose contents every taker overwrites. The
// activity counters and energy
// are neither: they are the simulator's record of what was issued, charged
// at issue, so an op issued before a cut stays counted even if it would have
// completed after it.

// OOBInfo is the readable view of one page's out-of-band metadata, the
// input to mount-time FTL recovery.
type OOBInfo struct {
	// FI is the FTL-defined logical tag stamped at program time (the
	// forward-map index of the logical sub-page), or -1 for raw/untagged
	// programs.
	FI int64
	// Seq is the device-wide write sequence number: among pages claiming
	// the same FI, the highest sequence holds the current data.
	Seq uint64
	// Good reports the modeled checksum verdict: false marks a torn
	// program (the power cut interrupted the array operation), which
	// recovery must treat as unwritten.
	Good bool
	// Stripe is the RAIN stripe-membership mask stamped on parity pages
	// (bit i: data plane i of the parity group is covered), zero for data
	// and non-RAIN pages. Mount rebuilds parity membership from it.
	Stripe uint32
}

// PageOOB returns the OOB metadata of the page at addr. Pages never
// programmed since their block's last erase return FI -1, Seq 0.
func (f *Flash) PageOOB(addr Address) OOBInfo {
	o := &f.oob[f.slot(&addr)]
	return OOBInfo{FI: o.fi(), Seq: o.seqNo(), Good: o.good(), Stripe: o.stripe}
}

// SetPageStripe stamps the written page at addr with a RAIN stripe
// membership mask. The stamp is part of the page's OOB metadata, written
// by the same array operation as the parity payload — callers invoke it
// right after issuing the parity program, and a power cut that
// tears the program clears the whole stamp (good=false) with it.
func (f *Flash) SetPageStripe(addr Address, mask uint32) {
	f.oob[f.slot(&addr)].stripe = mask
}

// TamperOOB corrupts one field of a page's OOB stamp, selected by mode
// (modulo the field count): flip the checksum verdict, bit-flip the
// logical tag, the sequence number, the payload checksum (a no-op on a
// timing-only flash, which keeps none), or the stripe mask. The page is
// named by its global physical page number (Geometry.PageIndex). A test-only
// hook for fuzzing mount-time recovery against torn and bit-rotted OOB
// images; it models silent spare-area corruption, so no counters or epochs
// move.
func (f *Flash) TamperOOB(pageIdx int64, mode uint8) {
	if pageIdx < 0 || pageIdx >= int64(len(f.oob)) {
		return
	}
	s := f.slotOfPage(pageIdx)
	o := &f.oob[s]
	switch mode % 5 {
	case 0:
		o.seq ^= oobGood
	case 1:
		o.notFI ^= 1 << (mode % 32) // the same bit of the tag
	case 2:
		o.seq ^= 1 << (mode % 48)
	case 3:
		if f.sums != nil {
			f.sums[s] ^= 1 << (mode % 64)
		}
	case 4:
		o.stripe ^= 1 << (mode % 16)
	}
}

// VerifyPage recomputes the modeled OOB checksum of the written page at
// addr against its stored payload: false marks a torn program. Pages
// stamped without tracked data (sum 0) verify trivially — their torn state
// is carried by the Good flag alone.
func (f *Flash) VerifyPage(addr Address) bool {
	s := f.slot(&addr)
	if !f.oob[s].good() {
		return false
	}
	if !f.trackData || f.sums[s] == 0 {
		return true
	}
	pageIdx := f.geo.PageIndex(addr)
	data := f.data[int(pageIdx/f.pagesPerC)].get(f.chanLocal(pageIdx))
	if data == nil {
		return false
	}
	return pageSum(data) == f.sums[s]
}

// MarkBadBlock records the block at global index bi in the durable grown
// bad-block table, in call order. Idempotent. The FTL's retire hook calls
// it for every plane block of a retired super-block, which is what lets
// Mount rebuild the retirement order (and the read-only latch) from flash
// state alone.
func (f *Flash) MarkBadBlock(bi int) {
	blk := &f.blocks[bi]
	if blk.bad {
		return
	}
	blk.bad = true
	f.badOrder = append(f.badOrder, int32(bi))
}

// BadBlocks returns the grown bad-block table: global block indices in the
// order they were marked.
func (f *Flash) BadBlocks() []int {
	out := make([]int, len(f.badOrder))
	for i, bi := range f.badOrder {
		out[i] = int(bi)
	}
	return out
}

// PowerLossReport summarizes how a power cut resolved the storage state.
type PowerLossReport struct {
	// InFlight counts programs whose array operation had not completed at
	// the cut time and were resolved by the seeded torn-or-committed draw.
	InFlight int
	// Torn counts in-flight programs resolved as torn: their OOB checksum
	// is marked bad and their payload is lost, so mount-time recovery
	// treats the page as unwritten.
	Torn int
	// Committed counts in-flight programs resolved as committed: the array
	// operation latched enough charge that the page reads back intact.
	Committed int
	// ErasesUndone counts claimed erases whose array operation had not yet
	// started at the cut: the block never physically erased, so its
	// pre-erase contents (typically GC-migration sources whose copies were
	// still in flight) are restored.
	ErasesUndone int
}

// PowerLoss cuts power at simulated time now: claimed erases whose array
// operation had not started are undone, every program whose array operation
// would complete after the cut is resolved torn-or-committed by a pure
// seeded draw (see tornDraw), torn pages lose their payload and their OOB
// checksum, and an erase already started completes (the model's
// deterministic resolution rule). Counters and energy are left as issued.
// Every pin is dropped and every orphan pooled: whatever held a pin lived in
// firmware RAM, so the caller drops its pinned buffers unreleased.
//
// The caller must have stopped dispatching events first (sim.Engine.Halt).
// The undone set is decided purely by comparing each journaled erase's
// start, and the in-flight set each page's OOB completion stamp, against the
// cut time, and the draw is a pure function of (seed, page, write sequence),
// so the resolution depends only on where the cut lands in the issue stream.
func (f *Flash) PowerLoss(now sim.Time, seed uint64) PowerLossReport {
	var rep PowerLossReport
	// Un-erase blocks whose erase claim's array operation starts after the
	// cut: the functional reset applied at claim time (the in-order pointer
	// must reset before later claims target the block), but physically the
	// erase never began — the block still holds its data, which may be the
	// only durable copy of migrations still in flight. Newest-first so
	// stacked claims against one block settle on the oldest snapshot.
	for i := len(f.eraseUndo) - 1; i >= 0; i-- {
		u := f.eraseUndo[i]
		if u.start > now {
			f.undoErase(u)
			rep.ErasesUndone++
		}
		f.recycleEraseUndo(u)
	}
	f.eraseUndo = f.eraseUndo[:0]
	f.undoLow = sim.MaxTime
	for s := range f.oob {
		o := &f.oob[s]
		if !o.written() {
			// Unwritten: settle the durable state.
			if f.trackData {
				f.dropPayload(int64(s))
			}
			*o = pageOOB{}
			continue
		}
		if o.doneAt <= now {
			continue // completed before the cut: durable as-is
		}
		rep.InFlight++
		if tornDraw(seed, f.pageOfSlot(int64(s)), o.seqNo()) {
			rep.Torn++
			o.seq &^= oobGood
			if f.trackData {
				f.dropPayload(int64(s))
			}
			continue
		}
		rep.Committed++
	}
	f.plan.e, f.plan.open = nil, false // a plan the cut interrupted is over
	f.dropPins()                       // their holders were firmware RAM
	f.epoch++                          // the cut is a functional state transition
	return rep
}

// dropPayload clears the tracked payload and checksum of the page at slot s.
func (f *Flash) dropPayload(s int64) {
	pageIdx := f.pageOfSlot(s)
	f.data[int(pageIdx/f.pagesPerC)].clearRange(f.chanLocal(pageIdx), 1)
	f.sums[s] = 0
}

// undoErase puts back the block state u snapshotted: erase count, disturb
// count, in-order pointer, stamps (written flags included) and, on a
// tracked flash, checksums and page buffers. Every page present at the claim is present
// again with its bytes and every other page absent, whatever programs
// issued after the claim installed: they would have completed after the
// erase, so after the cut.
func (f *Flash) undoErase(u *eraseUndoRec) {
	blk := &f.blocks[u.bi]
	blk.eraseCount = u.eraseCount
	blk.disturb = u.disturb
	blk.nextPage = u.nextPage
	s0 := f.blockSlot(u.bi)
	for pg, s := 0, s0; pg < len(u.oob); pg, s = pg+1, s+f.planes {
		f.oob[s] = u.oob[pg]
	}
	if !f.trackData {
		return
	}
	for pg, s := 0, s0; pg < len(u.sums); pg, s = pg+1, s+f.planes {
		f.sums[s] = u.sums[pg]
	}
	base := int64(u.bi) * int64(f.geo.PagesPerBlock)
	arena, local := f.data[int(base/f.pagesPerC)], f.chanLocal(base)
	for pg, buf := range u.bufs {
		if buf == nil {
			arena.clearRange(local+int64(pg), 1)
			continue
		}
		if old := arena.install(local+int64(pg), buf); old != nil {
			f.ReleaseStagingBuf(old)
		}
		u.bufs[pg] = nil
	}
}
