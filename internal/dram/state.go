package dram

import (
	"fmt"

	"amber/internal/snap"
)

// State walks the DRAM's image: bus and bank resource timelines, open-row
// registers, the capacity accountant, counters (the burst counts are the
// dynamic energy) and the power-state watermark. Decoding needs a freshly
// constructed DRAM of the identical configuration and refuses a reservation
// beyond its capacity; on error the DRAM must be discarded.
func (d *DRAM) State(c *snap.Codec) error {
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
	if c.Decoding() && c.Err() == nil && (d.used < 0 || d.used > d.cfg.CapacityBytes) {
		return fmt.Errorf("%w: dram reservation %d outside capacity %d", snap.ErrCorrupt, d.used, d.cfg.CapacityBytes)
	}
	return c.Err()
}
