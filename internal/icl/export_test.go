package icl

// poisonInvalidSubs writes 0xA5 over every byte the payload contract leaves
// undefined: the frame bytes of each invalid or pinned sub of every frame,
// and each sub of the eviction scratch outside its dirty mask, the subs a
// consumer reads.
func (c *Cache) poisonInvalidSubs() {
	ss := c.cfg.SubSize
	poison := func(data []byte, s int) {
		for i := s * ss; i < (s+1)*ss; i++ {
			data[i] = 0xA5
		}
	}
	for _, ln := range c.frames {
		for s, v := range ln.valid {
			if ln.data != nil && (!v || ln.pins[s] != nil) {
				poison(ln.data, s)
			}
		}
	}
	for s, d := range c.scratchEv.Dirty {
		if !d && c.scratchEv.Data != nil {
			poison(c.scratchEv.Data, s)
		}
	}
}

// pinnedSubs counts the subs that hold a pin, over every frame.
func (c *Cache) pinnedSubs() int {
	n := 0
	for _, ln := range c.frames {
		n += ln.nPinned
	}
	return n
}
