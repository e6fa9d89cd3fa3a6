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

// State walks the complex's image: per-core timelines, aggregate and
// per-module instruction accounting (modules in sorted order for a
// canonical image), and accumulated energy. Decoding needs a freshly
// constructed complex of the identical configuration; on error it must be
// discarded.
func (c *Complex) State(k *snap.Codec) error {
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
