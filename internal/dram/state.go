package dram

import (
	"fmt"

	"amber/internal/sim"
	"amber/internal/snap"
)

// EncodeState serializes the DRAM's complete functional state: bus and
// bank resource timelines, open-row registers, the capacity accountant,
// counters (the burst counts are the dynamic energy) and the power-state
// watermark.
func (d *DRAM) EncodeState(e *snap.Enc) {
	for _, bus := range d.bus {
		encodeResource(e, bus)
	}
	for i := range d.banks {
		encodeResource(e, d.banks[i].res)
		e.I64(d.banks[i].openRow)
	}
	e.I64(d.used)
	e.U64(d.stats.Reads)
	e.U64(d.stats.Writes)
	e.U64(d.stats.BytesRead)
	e.U64(d.stats.BytesWritten)
	e.U64(d.stats.RowHits)
	e.U64(d.stats.RowMisses)
	e.U64(d.stats.Activates)
	e.U64(d.rdBursts)
	e.U64(d.wrBursts)
	e.I64(int64(d.busyUntil))
}

// DecodeState reinstalls a state captured by EncodeState into d, which
// must be freshly constructed with the identical configuration.
func (d *DRAM) DecodeState(dec *snap.Dec) error {
	for _, bus := range d.bus {
		decodeResource(dec, bus)
	}
	for i := range d.banks {
		decodeResource(dec, d.banks[i].res)
		d.banks[i].openRow = dec.I64()
	}
	used := dec.I64()
	if dec.Err() == nil && (used < 0 || used > d.cfg.CapacityBytes) {
		return fmt.Errorf("%w: dram reservation %d outside capacity %d", snap.ErrCorrupt, used, d.cfg.CapacityBytes)
	}
	d.used = used
	d.stats.Reads = dec.U64()
	d.stats.Writes = dec.U64()
	d.stats.BytesRead = dec.U64()
	d.stats.BytesWritten = dec.U64()
	d.stats.RowHits = dec.U64()
	d.stats.RowMisses = dec.U64()
	d.stats.Activates = dec.U64()
	d.rdBursts = dec.U64()
	d.wrBursts = dec.U64()
	d.busyUntil = sim.Time(dec.I64())
	return dec.Err()
}

func encodeResource(e *snap.Enc, r *sim.Resource) {
	st := r.State()
	e.I64(int64(st.FreeAt))
	e.I64(int64(st.Busy))
	e.U64(st.Claims)
}

func decodeResource(d *snap.Dec, r *sim.Resource) {
	r.SetState(sim.ResourceState{
		FreeAt: sim.Time(d.I64()),
		Busy:   sim.Duration(d.I64()),
		Claims: d.U64(),
	})
}
