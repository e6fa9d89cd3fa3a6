package icl

import (
	"fmt"
	"sort"

	"amber/internal/snap"
)

// Invalidate models a power cut hitting the cache: the DRAM contents are
// volatile, so every frame is dropped — including dirty lines whose
// write-back never reached flash (that is exactly the data a power-loss
// test must prove was either acknowledged-durable or never acknowledged).
// The sequential detector and degraded-mode latch reset with the frames;
// the statistics survive (they are the observer's, not the firmware's).
func (c *Cache) Invalidate() {
	for i := range c.sets {
		st := &c.sets[i]
		for _, ln := range st.frames {
			ln.lspn = -1
			ln.prefetched = false
			ln.lastUse = 0
			ln.inserted = 0
			ln.prev, ln.next = nil, nil
			clearSubs(ln.valid, ln.dirty, ln.data, c.cfg.SubSize)
		}
		st.head, st.tail, st.empty = nil, nil, 0
	}
	clear(c.index)
	c.tick = 0
	c.seqNext = -1
	c.seqStreak = 0
	c.preferClean = false
}

// EncodeState serializes the cache's complete functional state: every
// frame (tag, valid/dirty masks, payload, replacement metadata), the
// replacement clock, the RNG, the sequential detector and the statistics.
func (c *Cache) EncodeState(e *snap.Enc) {
	e.U64(uint64(len(c.sets)))
	e.U64(uint64(c.ways))
	for i := range c.sets {
		for _, ln := range c.sets[i].frames {
			e.I64(ln.lspn)
			for i := range ln.valid {
				e.Bool(ln.valid[i])
				e.Bool(ln.dirty[i])
			}
			e.Bool(ln.prefetched)
			e.U64(ln.lastUse)
			e.U64(ln.inserted)
			if c.cfg.TrackData {
				e.Blob(ln.data)
			}
		}
	}
	e.U64(c.tick)
	for _, w := range c.rng.State() {
		e.U64(w)
	}
	e.I64(c.seqNext)
	e.Int(c.seqStreak)
	e.Bool(c.preferClean)
	e.U64(c.stats.ReadSubHits)
	e.U64(c.stats.ReadSubMisses)
	e.U64(c.stats.WriteSubHits)
	e.U64(c.stats.WriteSubMisses)
	e.U64(c.stats.Evictions)
	e.U64(c.stats.DirtyEvictions)
	e.U64(c.stats.Readaheads)
	e.U64(c.stats.ReadaheadHits)
	e.U64(c.stats.Flushes)
}

// DecodeState reinstalls a state captured by EncodeState into c, which
// must be freshly constructed with the identical configuration. On error
// c must be discarded.
func (c *Cache) DecodeState(d *snap.Dec) error {
	if n := d.U64(); d.Err() == nil && n != uint64(len(c.sets)) {
		return fmt.Errorf("%w: %d cache sets, want %d", snap.ErrMismatch, n, len(c.sets))
	}
	if w := d.U64(); d.Err() == nil && w != uint64(c.ways) {
		return fmt.Errorf("%w: %d cache ways, want %d", snap.ErrMismatch, w, c.ways)
	}
	for i := range c.sets {
		for _, ln := range c.sets[i].frames {
			ln.lspn = d.I64()
			for i := range ln.valid {
				ln.valid[i] = d.Bool()
				ln.dirty[i] = d.Bool()
			}
			ln.prefetched = d.Bool()
			ln.lastUse = d.U64()
			ln.inserted = d.U64()
			if c.cfg.TrackData {
				buf := d.Blob()
				if d.Err() != nil {
					return d.Err()
				}
				if len(buf) != len(ln.data) {
					return fmt.Errorf("%w: cache line of %d bytes, want %d", snap.ErrMismatch, len(buf), len(ln.data))
				}
				// Valid subs only: the fresh frame is zero, and an image is
				// not trusted to uphold the zero invariant for the rest.
				ss := c.cfg.SubSize
				for i, v := range ln.valid {
					if v {
						copy(ln.data[i*ss:(i+1)*ss], buf[i*ss:(i+1)*ss])
					}
				}
			}
		}
	}
	c.tick = d.U64()
	var rs [4]uint64
	for i := range rs {
		rs[i] = d.U64()
	}
	c.rng.SetState(rs)
	c.seqNext = d.I64()
	c.seqStreak = d.Int()
	c.preferClean = d.Bool()
	c.stats.ReadSubHits = d.U64()
	c.stats.ReadSubMisses = d.U64()
	c.stats.WriteSubHits = d.U64()
	c.stats.WriteSubMisses = d.U64()
	c.stats.Evictions = d.U64()
	c.stats.DirtyEvictions = d.U64()
	c.stats.Readaheads = d.U64()
	c.stats.ReadaheadHits = d.U64()
	c.stats.Flushes = d.U64()
	if d.Err() != nil {
		return d.Err()
	}
	return c.reindex()
}

// reindex rebuilds the LSPN index and every set's victim order and empty
// cursor from freshly decoded frames, refusing an image the index cannot
// represent faithfully: a line outside the set its LSPN maps to (find would
// never reach it), one LSPN in two frames (ambiguous), or a frame stamped
// ahead of the replacement clock (a later touch would be stamped older than
// it, and the order would stop mirroring the stamps). Within a set the
// order is the policy's clock ascending, ties in way order — the frame a
// scan for the minimum stamp picks first.
func (c *Cache) reindex() error {
	stamp := func(ln *line) uint64 {
		if c.cfg.Replacement == LRU {
			return ln.lastUse
		}
		return ln.inserted
	}
	var occupied []*line
	for i := range c.sets {
		st := &c.sets[i]
		st.empty = len(st.frames)
		occupied = occupied[:0]
		for w, ln := range st.frames {
			switch {
			case ln.lspn < 0:
				if st.empty == len(st.frames) {
					st.empty = w
				}
				continue
			case c.setOf(ln.lspn) != st:
				return fmt.Errorf("%w: cache line %d in set %d, belongs in %d", snap.ErrCorrupt, ln.lspn, i, ln.lspn%int64(len(c.sets)))
			case c.index[ln.lspn] != nil:
				return fmt.Errorf("%w: cache line %d in two frames", snap.ErrCorrupt, ln.lspn)
			case ln.lastUse > c.tick || ln.inserted > c.tick:
				return fmt.Errorf("%w: cache line %d stamped %d/%d, clock at %d", snap.ErrCorrupt, ln.lspn, ln.lastUse, ln.inserted, c.tick)
			}
			c.index[ln.lspn] = ln
			occupied = append(occupied, ln)
		}
		sort.SliceStable(occupied, func(a, b int) bool { return stamp(occupied[a]) < stamp(occupied[b]) })
		for _, ln := range occupied {
			st.pushTail(ln)
		}
	}
	return nil
}
