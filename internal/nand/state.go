package nand

import (
	"fmt"
	"math"
	"math/bits"

	"amber/internal/snap"
)

// state is the flash's image layout: resource reservations, block
// condition, OOB stamps, tracked payloads, per-channel counters and energy,
// the state epoch and program sequence, the ISPP jitter cursor, the
// bad-block table, and the fault model's counters and site log. The
// erase-undo journal, the staging pool and the pins are firmware RAM and
// have no serialized form.
func (f *Flash) state(c *snap.Codec) error {
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
		snap.U(c, &blk.disturb)
		snap.I(c, &blk.nextPage)
		c.Bool(&blk.bad)
		for pg, s := 0, f.blockSlot(i); pg < ppb; pg, s = pg+1, s+f.planes {
			w := f.oob[s].written()
			c.Bool(&w)
			if w {
				f.oob[s].seq |= oobWritten
			}
		}
	}
	for i := range f.blocks {
		base := int64(i) * int64(ppb)
		for pg, s := 0, f.blockSlot(i); pg < ppb; pg, s = pg+1, s+f.planes {
			if !f.oob[s].written() {
				continue // invariant: unwritten pages carry the erased OOB, a fresh flash's too
			}
			if err := f.oobState(c, s, base+int64(pg)); err != nil {
				return err
			}
		}
	}
	if err := c.SameBool(f.trackData, "tracked data"); err != nil {
		return err
	}
	if f.trackData {
		for _, a := range f.data {
			if err := f.arenaState(c, a); err != nil {
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
	return c.Err()
}

// oobState walks the OOB stamp of written page idx, at slot s, in the layout
// it had as six separate fields — tag, sequence, completion, checksum, good
// flag, stripe — so the compact stamp leaves the image as it was (the
// written flag travels with the block's). Decoding reads the wide values
// and refuses what the stamp cannot hold instead of truncating it: a tag
// outside int32, a sequence with either flag's bit set, a checksum on a
// flash that keeps none.
func (f *Flash) oobState(c *snap.Codec, s, idx int64) error {
	o := &f.oob[s]
	fi, seq, good := o.fi(), o.seqNo(), o.good()
	var sum uint64
	if f.sums != nil {
		sum = f.sums[s]
	}
	snap.I(c, &fi)
	snap.U(c, &seq)
	snap.I(c, &o.doneAt)
	snap.U(c, &sum)
	c.Bool(&good)
	snap.U(c, &o.stripe)
	if !c.Decoding() || c.Err() != nil {
		return c.Err()
	}
	switch {
	case fi < math.MinInt32 || fi > math.MaxInt32:
		return fmt.Errorf("%w: OOB tag %d of page %d outside int32", snap.ErrCorrupt, fi, idx)
	case seq&oobFlags != 0:
		return fmt.Errorf("%w: OOB sequence %#x of page %d past 62 bits", snap.ErrCorrupt, seq, idx)
	case sum != 0 && f.sums == nil:
		return fmt.Errorf("%w: OOB checksum on page %d of a timing-only flash", snap.ErrCorrupt, idx)
	}
	o.notFI = ^int32(fi)
	o.seq = seq | goodBit(good) | oobWritten
	if f.sums != nil {
		f.sums[s] = sum
	}
	return nil
}

// arenaState walks one channel's tracked payloads: a count, then each
// present page's channel-local index and contents, indexes ascending.
// Encoding steps idx to the next present page; decoding reads it.
func (f *Flash) arenaState(c *snap.Codec, a *pageArena) error {
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
		a.put(idx, buf)
	}
	return nil
}

// EncodeState serializes the flash's complete functional and timing state,
// so a restored flash continues byte-identically.
func (f *Flash) EncodeState(e *snap.Enc) {
	_ = f.state(snap.Encoding(e)) // encoding cannot fail
}

// DecodeState reinstalls a state captured by EncodeState into f, which must
// be freshly constructed with the identical geometry, options and fault
// configuration (the image fingerprint enforces this upstream), so it holds
// no pins. On error f is left partially written and must be discarded —
// callers decode into a scratch device and swap on success.
func (f *Flash) DecodeState(d *snap.Dec) error { return f.state(snap.Decoding(d)) }

// QuiescedForSnapshot reports nil unless a plan batch is open, the
// precondition for EncodeState: between plans every transaction has taken
// effect.
func (f *Flash) QuiescedForSnapshot() error {
	if f.plan.open {
		return fmt.Errorf("nand: snapshot with a plan batch open")
	}
	return nil
}
