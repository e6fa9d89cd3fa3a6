package ftl

import (
	"fmt"

	"amber/internal/snap"
)

// State walks the FTL's image: the forward map, per-super-block metadata,
// the free reserve and open block, the counters, the retirement order with
// the read-only latch, and the plan sequence. A forward entry travels as the
// varint of its widened value, and decoding refuses one outside
// [-1, physical sub-pages) rather than narrowing it onto some other
// sub-page. The reverse map and valid counts are not stored: decoding, which
// needs a freshly constructed FTL of the identical configuration, rebuilds
// them from the forward map. On error the FTL must be discarded.
func (f *FTL) State(c *snap.Codec) error {
	if err := c.Same(len(f.fwd), "forward-map entries"); err != nil {
		return err
	}
	for i := range f.fwd {
		v := int64(f.fwd[i])
		snap.I(c, &v)
		if !c.Decoding() {
			continue
		}
		if c.Err() == nil && (v < fwdLost || v >= int64(len(f.rev))) {
			return fmt.Errorf("%w: forward entry %d maps to %d, outside [%d, %d)", snap.ErrCorrupt, i, v, fwdLost, len(f.rev))
		}
		f.fwd[i] = int32(v)
	}
	for i := range f.sbs {
		sb := &f.sbs[i]
		for p := range sb.nextPage {
			snap.I(c, &sb.nextPage[p])
		}
		snap.U(c, &sb.eraseCount)
		snap.I(c, &sb.lastWrite)
		c.Bool(&sb.closed)
		c.Bool(&sb.free)
		c.Bool(&sb.retired)
		snap.U(c, &sb.recon)
	}
	f.sbListState(c, &f.freeSB)
	snap.I(c, &f.openSB)
	snap.U(c, &f.stats.HostSubWrites)
	snap.U(c, &f.stats.FlashSubWrites)
	snap.U(c, &f.stats.GCRuns)
	snap.U(c, &f.stats.GCMigrated)
	snap.U(c, &f.stats.Erases)
	snap.U(c, &f.stats.RMWReads)
	snap.U(c, &f.stats.PartialRemaps)
	snap.U(c, &f.stats.WearLevelMoves)
	snap.U(c, &f.stats.Retirements)
	snap.U(c, &f.stats.Replans)
	snap.U(c, &f.stats.LostSubs)
	snap.U(c, &f.stats.ParityWrites)
	snap.U(c, &f.stats.Reconstructions)
	snap.U(c, &f.stats.DoubleFaults)
	snap.U(c, &f.stats.ScrubRuns)
	snap.U(c, &f.stats.ScrubMigrated)
	f.sbListState(c, &f.retireOrder)
	c.Bool(&f.readOnly)
	snap.U(c, &f.planSeq)
	if !c.Decoding() || c.Err() != nil {
		return c.Err()
	}
	// Rebuild the derived state from the forward map, whose entries the
	// walk bounded to [-1, len(rev)).
	for i := range f.sbs {
		f.sbs[i].validSubs = 0
	}
	for i := range f.rev {
		f.rev[i] = -1
	}
	for fi, packed := range f.fwd {
		if packed < 0 {
			continue
		}
		if f.rev[packed] >= 0 {
			return fmt.Errorf("%w: physical sub %+v mapped twice", snap.ErrCorrupt, f.unpackLoc(int64(packed), fi%f.subCount))
		}
		f.rev[packed] = int32(fi)
		f.sbs[int(packed)/(f.pagesPerSB*f.subCount)].validSubs++
	}
	for _, sb := range f.freeSB {
		if sb < 0 || sb >= f.sbCount {
			return fmt.Errorf("%w: free super-block %d out of range", snap.ErrCorrupt, sb)
		}
	}
	for _, sb := range f.retireOrder {
		if sb < 0 || sb >= f.sbCount {
			return fmt.Errorf("%w: retired super-block %d out of range", snap.ErrCorrupt, sb)
		}
	}
	if f.openSB < -1 || f.openSB >= f.sbCount {
		return fmt.Errorf("%w: open super-block %d out of range", snap.ErrCorrupt, f.openSB)
	}
	return nil
}

// sbListState walks a list of super-block numbers, at most one entry per
// super-block long.
func (f *FTL) sbListState(c *snap.Codec, list *[]int) {
	snap.Slice(c, list, f.sbCount)
	for i := range *list {
		snap.I(c, &(*list)[i])
	}
}
