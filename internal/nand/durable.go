package nand

import "amber/internal/sim"

// Durable-state surface: what survives a power cut, and the cut itself.
//
// The durable state of the storage complex is exactly what physically lives
// in the NAND array — block erase counts and in-order pointers, page
// payloads, per-page OOB stamps with their written flags, and the grown
// bad-block table. Two journals say which of it the array operations issued
// so far have not yet physically made: the erase-undo records (a block whose
// erase has not started still holds its data) and the program journal (a
// program not yet complete may tear). They are the array's
// in-flight state, not firmware RAM: a snapshot carries them, and PowerLoss
// resolves them against the cut. The staging pool and the pins are firmware
// RAM: PowerLoss drops the pins and keeps the pool, whose contents every
// taker overwrites. The activity counters and energy are neither: they are
// the simulator's record of what was issued, charged at issue, so an op
// issued before a cut stays counted even if it would have completed after
// it.

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

// progEntry journals one program whose array operation may still be in
// flight: when it completes, the slot it stamped and the low 32 bits of its
// write sequence, which tell its stamp from a later one in the same slot.
type progEntry struct {
	doneAt sim.Time
	slot   int32
	seq    uint32
}

// inFlightChunk is how many entries one chunk of the program journal holds:
// 8 KiB of them, a heap span to itself, so a chunk the journal lets go takes
// its span with it.
const inFlightChunk = 512

// progChunk is a run of journal entries.
type progChunk [inFlightChunk]progEntry

// progJournal lists programs in claim order, in chunks: entry i is at
// position head+i of the chunks laid end to end. One list for the whole
// flash is one sequential stream of appends, and a chunk is never copied or
// grown: a burst takes chunks (from spare first), and a prune hands back
// the ones it empties. The head waits for the oldest entry to complete, so
// entries of a die that finished first may stay behind it; each die
// completes its programs in claim order, so the order costs little memory.
type progJournal struct {
	chunks  []*progChunk
	spare   []*progChunk
	head, n int
}

// at returns the i-th oldest entry.
func (j *progJournal) at(i int) *progEntry {
	k := uint(j.head + i)
	return &j.chunks[k/inFlightChunk][k%inFlightChunk]
}

// push appends e, taking a chunk when the last one is full.
func (j *progJournal) push(e progEntry) {
	k := uint(j.head + j.n)
	if k == uint(len(j.chunks))*inFlightChunk {
		var c *progChunk
		if n := len(j.spare); n > 0 {
			c, j.spare[n-1] = j.spare[n-1], nil
			j.spare = j.spare[:n-1]
		} else {
			c = new(progChunk)
		}
		j.chunks = append(j.chunks, c)
	}
	j.chunks[k/inFlightChunk][k%inFlightChunk] = e
	j.n++
}

// dropDead drops the journal's oldest entries up to the first that
// completes after the latest prune time, and hands the chunks that emptied
// to the spares.
func (f *Flash) dropDead() {
	j := &f.inFlight
	for j.n > 0 {
		c, i := j.chunks[j.head/inFlightChunk], j.head%inFlightChunk
		k, end := i, min(inFlightChunk, i+j.n)
		for k < end && c[k].doneAt <= f.inFlightCut {
			k++
		}
		j.head, j.n = j.head+k-i, j.n-(k-i)
		if k < end {
			break // a live entry
		}
	}
	if j.n == 0 {
		j.head = len(j.chunks) * inFlightChunk // every chunk emptied
	}
	used := j.head / inFlightChunk
	j.spare = append(j.spare, j.chunks[:used]...)
	kept := copy(j.chunks, j.chunks[used:])
	clear(j.chunks[kept:]) // each chunk is referenced once, or dropping it frees nothing
	j.chunks = j.chunks[:kept]
	j.head -= used * inFlightChunk
}

// journal appends e, the per-program path. At a chunk boundary it first
// drops what completed by the latest prune time, so a busy device reuses
// its chunks.
func (f *Flash) journal(e progEntry) {
	if j := &f.inFlight; j.head+j.n == len(j.chunks)*inFlightChunk {
		f.dropDead()
	}
	f.inFlight.push(e)
}

// pruneInFlight makes t a prune time and drops the journaled programs that
// completed by it: a cut at t or later finds them durable. A prune that
// empties the journal lets every spare chunk but one go: a busy device's
// burst leaves its chunks for the next burst, and a drained device keeps
// one chunk.
func (f *Flash) pruneInFlight(t sim.Time) {
	f.inFlightCut = max(f.inFlightCut, t)
	f.dropDead()
	if j := &f.inFlight; j.n == 0 && len(j.spare) > 1 {
		clear(j.spare[1:])
		j.spare = j.spare[:1]
	}
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
// The caller must have stopped dispatching events first (sim.Engine.Halt),
// and the cut must not land before the latest prune time (BeginPlan on an
// engine, PruneEraseUndo): a record pruned then is gone. The undone set is
// decided purely by comparing each journaled erase's start, and the
// in-flight set each journaled program's completion, against the cut time —
// a program counts while its slot still holds its stamp — and the draw is a
// pure function of (seed, page, write sequence), so the resolution depends
// only on where the cut lands in the issue stream.
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
		if o := &f.oob[s]; !o.written() {
			// Unwritten: settle the durable state.
			if f.trackData {
				f.dropPayload(int64(s))
			}
			*o = pageOOB{}
		}
	}
	for i := range f.inFlight.n {
		p := f.inFlight.at(i)
		o := &f.oob[p.slot]
		if p.doneAt <= now || !o.written() || uint32(o.seqNo()) != p.seq {
			// Completed before the cut, or no longer the slot's stamp: erased
			// since, reprogrammed since, or older than the stamp an undone
			// erase put back (that stamp's own entry counts it).
			continue
		}
		rep.InFlight++
		if tornDraw(seed, f.pageOfSlot(int64(p.slot)), o.seqNo()) {
			rep.Torn++
			o.seq &^= oobGood
			if f.trackData {
				f.dropPayload(int64(p.slot))
			}
			continue
		}
		rep.Committed++
	}
	// What completes after the cut stays journaled, as its stamp would have
	// kept its completion time.
	f.pruneInFlight(now)
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

// undoErase puts back the block state u snapshotted: erase count, in-order
// pointer, stamps (written flags included) and, on a tracked flash,
// checksums and page buffers. Every page present at the claim is present
// again with its bytes and every other page absent, whatever programs
// issued after the claim installed: they would have completed after the
// erase, so after the cut.
func (f *Flash) undoErase(u *eraseUndoRec) {
	blk := &f.blocks[u.bi]
	blk.eraseCount = u.eraseCount
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
