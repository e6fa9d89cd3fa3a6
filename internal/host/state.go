package host

import "amber/internal/snap"

// state is the host's own image layout, which follows the CPU complex's:
// the memory-bandwidth resource and the capacity accountant.
func (h *Host) state(c *snap.Codec) error {
	h.Mem.Snap(c)
	snap.I(c, &h.memUsed)
	return c.Err()
}

// EncodeState serializes the host's complete functional state: the CPU
// complex, then the host's own.
func (h *Host) EncodeState(e *snap.Enc) {
	h.CPU.EncodeState(e)
	_ = h.state(snap.Encoding(e)) // encoding cannot fail
}

// DecodeState reinstalls a state captured by EncodeState into h, which
// must be freshly constructed with the identical configuration.
func (h *Host) DecodeState(d *snap.Dec) error {
	if err := h.CPU.DecodeState(d); err != nil {
		return err
	}
	return h.state(snap.Decoding(d))
}
