package dma

import "amber/internal/snap"

// state is the engine's image layout: its counters. The link and
// host-memory resources are owned by the system assembly and walked there.
func (e *Engine) state(c *snap.Codec) error {
	snap.U(c, &e.stats.Descriptors)
	snap.U(c, &e.stats.Entries)
	snap.U(c, &e.stats.BytesMoved)
	snap.U(c, &e.stats.ListWalks)
	snap.U(c, &e.stats.DescriptorBytes)
	return c.Err()
}

// EncodeState serializes the engine's state.
func (e *Engine) EncodeState(enc *snap.Enc) {
	_ = e.state(snap.Encoding(enc)) // encoding cannot fail
}

// DecodeState reinstalls a state captured by EncodeState.
func (e *Engine) DecodeState(d *snap.Dec) error { return e.state(snap.Decoding(d)) }
