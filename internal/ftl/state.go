package ftl

import (
	"fmt"

	"amber/internal/snap"
)

// state is the FTL's image layout: the forward map, per-super-block
// metadata, the free reserve and open block, the counters, the retirement
// order with the read-only latch, and the plan sequence. The reverse map,
// valid bits and valid counts are derived from the forward map at decode
// time instead of being stored.
func (f *FTL) state(c *snap.Codec) error {
	if err := c.Same(len(f.fwd), "forward-map entries"); err != nil {
		return err
	}
	for i := range f.fwd {
		snap.I(c, &f.fwd[i])
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
	return c.Err()
}

// sbListState walks a list of super-block numbers, at most one entry per
// super-block long.
func (f *FTL) sbListState(c *snap.Codec, list *[]int) {
	snap.Slice(c, list, f.sbCount)
	for i := range *list {
		snap.I(c, &(*list)[i])
	}
}

// EncodeState serializes the FTL's complete functional state.
func (f *FTL) EncodeState(e *snap.Enc) {
	_ = f.state(snap.Encoding(e)) // encoding cannot fail
}

// DecodeState reinstalls a state captured by EncodeState into f, which
// must be freshly constructed with the identical configuration. The
// reverse map, valid bits and per-super-block valid counts are rebuilt
// from the decoded forward map. On error f must be discarded.
func (f *FTL) DecodeState(d *snap.Dec) error {
	if err := f.state(snap.Decoding(d)); err != nil {
		return err
	}

	// Rebuild the derived maps from the forward map.
	for i := range f.sbs {
		f.sbs[i].validSubs = 0
	}
	for i := range f.rev {
		f.rev[i] = -1
		f.valid[i] = false
	}
	for fi := range f.fwd {
		packed := f.fwd[fi]
		if packed < 0 {
			continue
		}
		sub := fi % f.subCount
		loc := f.unpackLoc(packed, sub)
		if loc.SB < 0 || loc.SB >= f.sbCount || loc.Page < 0 || loc.Page >= f.pagesPerSB ||
			loc.Plane < 0 || loc.Plane >= f.subCount {
			return fmt.Errorf("%w: forward entry %d decodes to out-of-range %+v", snap.ErrCorrupt, fi, loc)
		}
		pi := f.physIndex(loc)
		if f.valid[pi] {
			return fmt.Errorf("%w: physical sub %+v mapped twice", snap.ErrCorrupt, loc)
		}
		f.rev[pi] = int64(fi)
		f.valid[pi] = true
		f.sbs[loc.SB].validSubs++
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
