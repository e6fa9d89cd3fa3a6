package dma

import "amber/internal/snap"

// State walks the engine's image: its counters. The link and host-memory
// resources are owned by the system assembly and walked there.
func (e *Engine) State(c *snap.Codec) error {
	snap.U(c, &e.stats.Descriptors)
	snap.U(c, &e.stats.Entries)
	snap.U(c, &e.stats.BytesMoved)
	snap.U(c, &e.stats.ListWalks)
	snap.U(c, &e.stats.DescriptorBytes)
	return c.Err()
}
