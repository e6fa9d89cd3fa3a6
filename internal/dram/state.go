package dram

import (
	"fmt"

	"amber/internal/snap"
)

// state is the DRAM's image layout: bus and bank resource timelines,
// open-row registers, the capacity accountant, counters (the burst counts
// are the dynamic energy) and the power-state watermark.
func (d *DRAM) state(c *snap.Codec) error {
	for _, bus := range d.bus {
		bus.Snap(c)
	}
	for i := range d.banks {
		d.banks[i].res.Snap(c)
		snap.I(c, &d.banks[i].openRow)
	}
	snap.I(c, &d.used)
	snap.U(c, &d.stats.Reads)
	snap.U(c, &d.stats.Writes)
	snap.U(c, &d.stats.BytesRead)
	snap.U(c, &d.stats.BytesWritten)
	snap.U(c, &d.stats.RowHits)
	snap.U(c, &d.stats.RowMisses)
	snap.U(c, &d.stats.Activates)
	snap.U(c, &d.rdBursts)
	snap.U(c, &d.wrBursts)
	snap.I(c, &d.busyUntil)
	return c.Err()
}

// EncodeState serializes the DRAM's complete functional state.
func (d *DRAM) EncodeState(e *snap.Enc) {
	_ = d.state(snap.Encoding(e)) // encoding cannot fail
}

// DecodeState reinstalls a state captured by EncodeState into d, which
// must be freshly constructed with the identical configuration. On error d
// must be discarded.
func (d *DRAM) DecodeState(dec *snap.Dec) error {
	if err := d.state(snap.Decoding(dec)); err != nil {
		return err
	}
	if d.used < 0 || d.used > d.cfg.CapacityBytes {
		return fmt.Errorf("%w: dram reservation %d outside capacity %d", snap.ErrCorrupt, d.used, d.cfg.CapacityBytes)
	}
	return nil
}
