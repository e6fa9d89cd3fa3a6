package host

import "amber/internal/snap"

// State walks the host's image: the CPU complex's, then the host's own, the
// memory-bandwidth resource and the capacity accountant. Decoding needs a
// freshly constructed host of the identical configuration.
func (h *Host) State(c *snap.Codec) error {
	if err := h.CPU.State(c); err != nil {
		return err
	}
	h.Mem.Snap(c)
	snap.I(c, &h.memUsed)
	return c.Err()
}
