package nand

import (
	"fmt"
	"math"
	"math/bits"

	"amber/internal/snap"
)

// State walks the flash's image: resource reservations, block condition,
// OOB stamps, tracked payloads, per-channel counters and energy, the state
// epoch and program sequence, the ISPP jitter cursor, the bad-block table,
// the fault model's counters and site log, and the array's in-flight state —
// the program journal and the erase-undo records, so a cut after a restore
// resolves as it would have on the original — so a restored flash
// continues byte-identically. The staging pool and the pins are firmware RAM
// and have no serialized form. Decoding needs a freshly
// constructed flash of the identical geometry, options and fault
// configuration (the image fingerprint enforces this upstream), so it holds
// no pins; on error the flash is left partially written and must be
// discarded — callers decode into a scratch device and swap on success.
func (f *Flash) State(c *snap.Codec) error {
	for _, r := range f.channels {
		r.Snap(c)
	}
	for _, r := range f.dies {
		r.Snap(c)
	}
	// Pages walk in PageIndex order, block by block, whatever slot holds
	// their stamps.
	ppb := f.geo.PagesPerBlock
	for i := range f.blocks {
		blk := &f.blocks[i]
		snap.U(c, &blk.eraseCount)
		snap.I(c, &blk.nextPage)
		c.Bool(&blk.bad)
		for pg, s := 0, f.blockSlot(i); pg < ppb; pg, s = pg+1, s+f.planes {
			w := f.oob[s].written()
			c.Bool(&w)
			if w {
				f.oob[s].seqHi |= hiWritten
			}
		}
	}
	for i := range f.blocks {
		base := int64(i) * int64(ppb)
		for pg, s := 0, f.blockSlot(i); pg < ppb; pg, s = pg+1, s+f.planes {
			if !f.oob[s].written() {
				continue // invariant: unwritten pages carry the erased OOB, a fresh flash's too
			}
			stripe := f.stripes.at(s)
			if err := f.stampState(c, &f.oob[s], f.sumAt(s), &stripe, base+int64(pg)); err != nil {
				return err
			}
			f.stripes.set(s, stripe, len(f.oob))
		}
	}
	if err := c.SameBool(f.trackData, "tracked data"); err != nil {
		return err
	}
	if f.trackData {
		for ch, a := range f.data {
			if err := f.arenaState(c, ch, a); err != nil {
				return err
			}
		}
	}
	for i := range f.chStats {
		s := &f.chStats[i]
		snap.U(c, &s.Reads)
		snap.U(c, &s.Programs)
		snap.U(c, &s.Erases)
		snap.U(c, &s.BytesRead)
		snap.U(c, &s.BytesWritten)
		snap.U(c, &s.MultiPlaneOps)
	}
	for i := range f.chEnergy {
		c.F64(&f.chEnergy[i])
	}
	snap.U(c, &f.epoch)
	snap.U(c, &f.progSeq)
	if c.Err() == nil && f.progSeq&oobFlags != 0 {
		return fmt.Errorf("%w: write sequence %#x past 62 bits", snap.ErrCorrupt, f.progSeq)
	}
	f.rng.Snap(c)
	snap.Slice(c, &f.badOrder, len(f.blocks))
	for i := range f.badOrder {
		bi := int64(f.badOrder[i])
		snap.I(c, &bi)
		if c.Err() == nil && (bi < 0 || bi >= int64(len(f.blocks))) {
			return fmt.Errorf("%w: bad-block index %d out of range", snap.ErrCorrupt, bi)
		}
		f.badOrder[i] = int32(bi)
	}
	if err := c.SameBool(f.faults != nil, "fault model armed"); err != nil {
		return err
	}
	if m := f.faults; m != nil {
		snap.U(c, &m.stats.ProgramFails)
		snap.U(c, &m.stats.EraseFails)
		snap.U(c, &m.stats.Uncorrectable)
		snap.U(c, &m.stats.ReadRetries)
		snap.Slice(c, &m.sites, maxFaultSites)
		for i := range m.sites {
			s := &m.sites[i]
			snap.I(c, &s.Op)
			snap.I(c, &s.Addr.Channel)
			snap.I(c, &s.Addr.Package)
			snap.I(c, &s.Addr.Die)
			snap.I(c, &s.Addr.Plane)
			snap.I(c, &s.Addr.Block)
			snap.I(c, &s.Addr.Page)
			snap.U(c, &s.EraseCount)
		}
	}
	if err := f.inFlightState(c); err != nil {
		return err
	}
	if err := f.eraseUndoState(c); err != nil {
		return err
	}
	return c.Err()
}

// sumAt returns the checksum slot s keeps, nil on a timing-only flash.
func (f *Flash) sumAt(s int64) *uint64 {
	if f.sums == nil {
		return nil
	}
	return &f.sums[s]
}

// stampState walks the OOB stamp o of written page idx, its checksum (sum,
// nil on a timing-only flash) and its stripe mask as five separate fields —
// tag, sequence, checksum, good flag, stripe — so the compact stamp, whose
// sequence word is split in halves and whose mask lives in a side table,
// leaves the image in its wide form (the written flag travels with the
// block's). The caller reads the mask from where the page's copy lives — the
// live table for a page on the flash, the record's own table for an
// erase-undo record, whose erase zeroed the live one — and stores it back
// there after decoding. Decoding reads the wide values and refuses what the
// stamp cannot hold instead of truncating it: a tag outside int32, a
// sequence with either flag's bit set, a checksum on a flash that keeps
// none.
func (f *Flash) stampState(c *snap.Codec, o *pageOOB, sum *uint64, stripe *uint32, idx int64) error {
	fi, seq, good := o.fi(), o.seqNo(), o.good()
	var s uint64
	if sum != nil {
		s = *sum
	}
	snap.I(c, &fi)
	snap.U(c, &seq)
	snap.U(c, &s)
	c.Bool(&good)
	snap.U(c, stripe)
	if !c.Decoding() || c.Err() != nil {
		return c.Err()
	}
	switch {
	case fi < math.MinInt32 || fi > math.MaxInt32:
		return fmt.Errorf("%w: OOB tag %d of page %d outside int32", snap.ErrCorrupt, fi, idx)
	case seq&oobFlags != 0:
		return fmt.Errorf("%w: OOB sequence %#x of page %d past 62 bits", snap.ErrCorrupt, seq, idx)
	case s != 0 && sum == nil:
		return fmt.Errorf("%w: OOB checksum on page %d of a timing-only flash", snap.ErrCorrupt, idx)
	}
	o.notFI = ^int32(fi)
	o.setSeq(seq | goodBit(good) | oobWritten)
	if sum != nil {
		*sum = s
	}
	return nil
}

// inFlightState walks the latest prune time, then the program journal from
// its first entry that completes after it: a count, then each entry oldest
// first — completion, slot, low sequence bits. The dead entries before that
// one are left out, so the image does not depend on when the journal last
// dropped them. Decoding refuses a slot out of range and a sequence past 32
// bits.
func (f *Flash) inFlightState(c *snap.Codec) error {
	snap.I(c, &f.inFlightCut)
	j := &f.inFlight
	dead := 0
	for dead < j.n && j.at(dead).doneAt <= f.inFlightCut {
		dead++
	}
	n := c.Len(j.n-dead, math.MaxInt32)
	for i := range n {
		var p progEntry
		if !c.Decoding() {
			p = *j.at(dead + i)
		}
		slot, seq := int64(p.slot), uint64(p.seq)
		snap.I(c, &p.doneAt)
		snap.I(c, &slot)
		snap.U(c, &seq)
		if !c.Decoding() {
			continue
		}
		if err := c.Err(); err != nil {
			return err
		}
		switch {
		case slot < 0 || slot >= int64(len(f.oob)):
			return fmt.Errorf("%w: journaled program slot %d out of range", snap.ErrCorrupt, slot)
		case seq > math.MaxUint32:
			return fmt.Errorf("%w: journaled program sequence %#x past 32 bits", snap.ErrCorrupt, seq)
		}
		p.slot, p.seq = int32(slot), uint32(seq)
		j.push(p)
	}
	return c.Err()
}

// eraseUndoState walks the erase-undo records, oldest first: block, erase
// start, erase count, in-order pointer, each page's written flag and, for a
// written page, its stamp, checksum and stripe mask (the record's copy),
// then on a tracked flash each page's buffer, if the erase took one.
// Decoding journals each record again and refuses a buffer on a page whose
// stamp is unwritten.
func (f *Flash) eraseUndoState(c *snap.Codec) error {
	ppb := f.geo.PagesPerBlock
	n := c.Len(len(f.eraseUndo), len(f.blocks)*ppb)
	for i := range n {
		var u *eraseUndoRec
		if c.Decoding() {
			u = f.acquireEraseUndo()
			f.eraseUndo = append(f.eraseUndo, u)
		} else {
			u = f.eraseUndo[i]
		}
		bi := int64(u.bi)
		snap.I(c, &bi)
		snap.I(c, &u.start)
		snap.U(c, &u.eraseCount)
		snap.I(c, &u.nextPage)
		if c.Decoding() {
			if err := c.Err(); err != nil {
				return err
			}
			if bi < 0 || bi >= int64(len(f.blocks)) || u.nextPage < 0 || int(u.nextPage) > ppb {
				return fmt.Errorf("%w: erase-undo record of block %d at page %d out of range", snap.ErrCorrupt, bi, u.nextPage)
			}
			u.bi = int(bi)
			f.undoLow = min(f.undoLow, u.start)
		}
		base := bi * int64(ppb)
		for pg := range u.oob {
			w := u.oob[pg].written()
			c.Bool(&w)
			if !w {
				continue // invariant: an unwritten page's stamp and checksum are erased
			}
			var sum *uint64
			if u.sums != nil {
				sum = &u.sums[pg]
			}
			stripe := u.stripes.at(int64(pg))
			if err := f.stampState(c, &u.oob[pg], sum, &stripe, base+int64(pg)); err != nil {
				return err
			}
			u.stripes.set(int64(pg), stripe, len(u.oob))
		}
		for pg, buf := range u.bufs {
			has := buf != nil
			c.Bool(&has)
			if !has {
				continue
			}
			c.Blob(&buf)
			if !c.Decoding() {
				continue
			}
			if err := c.Err(); err != nil {
				return err
			}
			if len(buf) != f.geo.PageSize {
				return fmt.Errorf("%w: erase-undo page of %d bytes, want %d", snap.ErrCorrupt, len(buf), f.geo.PageSize)
			}
			if !u.oob[pg].written() {
				return fmt.Errorf("%w: erase-undo payload on unwritten page %d", snap.ErrCorrupt, base+int64(pg))
			}
			u.bufs[pg] = append(f.StagingBuf()[:0], buf...)
		}
	}
	return c.Err()
}

// arenaState walks channel ch's tracked payloads: a count, then each
// present page's channel-local index and contents, indexes ascending.
// Encoding steps idx to the next present page; decoding reads it and refuses
// a payload on a page whose stamp is unwritten.
func (f *Flash) arenaState(c *snap.Codec, ch int, a *pageArena) error {
	present := 0
	for _, w := range a.present {
		present += bits.OnesCount64(w)
	}
	idx := int64(-1)
	for n := c.Len(present, int(f.pagesPerC)); n > 0; n-- {
		var buf []byte
		if !c.Decoding() {
			for idx++; !a.has(idx); idx++ {
			}
			buf = a.get(idx)
		}
		snap.I(c, &idx)
		c.Blob(&buf)
		if !c.Decoding() {
			continue
		}
		if c.Err() != nil {
			return c.Err()
		}
		if idx < 0 || idx >= f.pagesPerC {
			return fmt.Errorf("%w: arena page index %d out of range", snap.ErrCorrupt, idx)
		}
		if len(buf) != f.geo.PageSize {
			return fmt.Errorf("%w: arena page of %d bytes, want %d", snap.ErrCorrupt, len(buf), f.geo.PageSize)
		}
		if pageIdx := int64(ch)*f.pagesPerC + idx; !f.oob[f.slotOfPage(pageIdx)].written() {
			return fmt.Errorf("%w: payload on unwritten page %d", snap.ErrCorrupt, pageIdx)
		}
		a.put(idx, buf)
	}
	return nil
}

// QuiescedForSnapshot reports nil unless a plan batch is open, the
// precondition for encoding State: between plans every transaction has taken
// effect.
func (f *Flash) QuiescedForSnapshot() error {
	if f.plan.open {
		return fmt.Errorf("nand: snapshot with a plan batch open")
	}
	return nil
}
