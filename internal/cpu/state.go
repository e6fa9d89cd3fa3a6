package cpu

import (
	"slices"
	"strings"

	"amber/internal/snap"
)

func mixState(k *snap.Codec, m *InstrMix) {
	snap.U(k, &m.Branch)
	snap.U(k, &m.Load)
	snap.U(k, &m.Store)
	snap.U(k, &m.Arith)
	snap.U(k, &m.FP)
	snap.U(k, &m.Other)
}

// state is the complex's image layout: per-core timelines, aggregate and
// per-module instruction accounting (modules in sorted order for a
// canonical image), and accumulated energy.
func (c *Complex) state(k *snap.Codec) error {
	if err := c.cores.Snap(k); err != nil {
		return err
	}
	mixState(k, &c.total)
	var mods []moduleMix
	if !k.Decoding() {
		mods = slices.Clone(c.perModule)
		slices.SortFunc(mods, func(a, b moduleMix) int { return strings.Compare(a.name, b.name) })
	}
	snap.Slice(k, &mods, 1<<20)
	for i := range mods {
		name := []byte(mods[i].name)
		k.Blob(&name)
		mods[i].name = string(name)
		mixState(k, &mods[i].mix)
	}
	if k.Decoding() {
		c.perModule, c.lastMod = mods, 0
	}
	k.F64(&c.energyJ)
	return k.Err()
}

// EncodeState serializes the complex's complete functional state.
func (c *Complex) EncodeState(e *snap.Enc) {
	_ = c.state(snap.Encoding(e)) // encoding cannot fail
}

// DecodeState reinstalls a state captured by EncodeState into c, which
// must be freshly constructed with the identical configuration. On error c
// must be discarded.
func (c *Complex) DecodeState(d *snap.Dec) error { return c.state(snap.Decoding(d)) }
