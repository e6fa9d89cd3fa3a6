package icl

// poisonInvalidSubs writes 0xA5 over every byte the payload contract leaves
// undefined: each invalid sub of every frame, and each sub of the eviction
// scratch outside its dirty mask, the subs a consumer reads.
func (c *Cache) poisonInvalidSubs() {
	poison := func(defined []bool, data []byte) {
		ss := c.cfg.SubSize
		for s, d := range defined {
			if !d && data != nil {
				for i := s * ss; i < (s+1)*ss; i++ {
					data[i] = 0xA5
				}
			}
		}
	}
	for i := range c.sets {
		for _, ln := range c.sets[i].frames {
			poison(ln.valid, ln.data)
		}
	}
	poison(c.scratchEv.Dirty, c.scratchEv.Data)
}
