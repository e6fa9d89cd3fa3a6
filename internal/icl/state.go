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
// The sequential detector and degraded-mode latch reset with the frames, and
// every pin is released; the statistics survive (they are the observer's,
// not the firmware's).
func (c *Cache) Invalidate() {
	for i := range c.sets {
		st := &c.sets[i]
		for _, ln := range st.frames {
			c.unpinAll(ln)
			ln.lspn = -1
			ln.prefetched = false
			ln.lastUse = 0
			ln.inserted = 0
			ln.prev, ln.next = nil, nil
			ln.clearMasks()
		}
		st.head, st.tail, st.empty = nil, nil, 0
	}
	clear(c.index)
	c.tick = 0
	c.seqNext = -1
	c.seqStreak = 0
	c.preferClean = false
}

// State walks the cache's image: every frame (tag, valid/dirty masks,
// replacement metadata, payload), the replacement clock, the RNG, the
// sequential detector and the statistics. Decoding needs a freshly
// constructed cache of the identical configuration; it releases any pin the
// cache holds first, since the image carries every sub's bytes, and
// rebuilds the LSPN index from the decoded frames. On error the cache must
// be discarded.
func (c *Cache) State(k *snap.Codec) error {
	if k.Decoding() {
		for i := range c.sets {
			for _, ln := range c.sets[i].frames {
				c.unpinAll(ln)
			}
		}
	}
	if err := k.Same(len(c.sets), "cache sets"); err != nil {
		return err
	}
	if err := k.Same(c.ways, "cache ways"); err != nil {
		return err
	}
	var img []byte // an encoded frame's payload, its invalid subs zero
	if c.cfg.TrackData && !k.Decoding() {
		img = make([]byte, c.cfg.LineBytes())
	}
	for i := range c.sets {
		for _, ln := range c.sets[i].frames {
			snap.I(k, &ln.lspn)
			for i := range ln.valid {
				k.Bool(&ln.valid[i])
				k.Bool(&ln.dirty[i])
			}
			k.Bool(&ln.prefetched)
			snap.U(k, &ln.lastUse)
			snap.U(k, &ln.inserted)
			if c.cfg.TrackData {
				if err := c.payloadState(k, ln, img); err != nil {
					return err
				}
			}
		}
	}
	snap.U(k, &c.tick)
	c.rng.Snap(k)
	snap.I(k, &c.seqNext)
	snap.I(k, &c.seqStreak)
	k.Bool(&c.preferClean)
	snap.U(k, &c.stats.ReadSubHits)
	snap.U(k, &c.stats.ReadSubMisses)
	snap.U(k, &c.stats.WriteSubHits)
	snap.U(k, &c.stats.WriteSubMisses)
	snap.U(k, &c.stats.Evictions)
	snap.U(k, &c.stats.DirtyEvictions)
	snap.U(k, &c.stats.Readaheads)
	snap.U(k, &c.stats.ReadaheadHits)
	snap.U(k, &c.stats.Flushes)
	if !k.Decoding() || k.Err() != nil {
		return k.Err()
	}
	return c.reindex()
}

// payloadState walks a frame's payload through img, after its valid mask.
// An image holds zeros at the invalid subs, as an eagerly zeroed frame would,
// and a pinned sub's pin; decoding takes the payload whole into the frame,
// since an invalid sub may hold anything.
func (c *Cache) payloadState(k *snap.Codec, ln *line, img []byte) error {
	if !k.Decoding() {
		ss := c.cfg.SubSize
		for s, v := range ln.valid {
			if v {
				copy(img[s*ss:(s+1)*ss], c.subBytes(ln, s))
			} else {
				clear(img[s*ss : (s+1)*ss])
			}
		}
	}
	if k.Blob(&img); !k.Decoding() || k.Err() != nil {
		return k.Err()
	}
	if len(img) != len(ln.data) {
		return fmt.Errorf("%w: cache line of %d bytes, want %d", snap.ErrMismatch, len(img), len(ln.data))
	}
	copy(ln.data, img)
	return nil
}

// countSet returns the number of set bits of a mask.
func countSet(mask []bool) int {
	n := 0
	for _, b := range mask {
		if b {
			n++
		}
	}
	return n
}

// reindex rebuilds the LSPN index, every frame's mask counts and every set's
// victim order and empty cursor from freshly decoded frames, refusing an
// image the index cannot represent faithfully: a line outside the set its
// LSPN maps to (find would never reach it), one LSPN in two frames
// (ambiguous), or a frame stamped ahead of the replacement clock (a later
// touch would be stamped older than it, and the order would stop mirroring
// the stamps). Within a set the order is the policy's clock ascending, ties
// in way order — the frame a scan for the minimum stamp picks first.
func (c *Cache) reindex() error {
	var occupied []*line
	for i := range c.sets {
		st := &c.sets[i]
		st.empty = len(st.frames)
		occupied = occupied[:0]
		for w, ln := range st.frames {
			ln.nValid, ln.nDirty = countSet(ln.valid), countSet(ln.dirty)
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
		sort.SliceStable(occupied, func(a, b int) bool { return c.stamp(occupied[a]) < c.stamp(occupied[b]) })
		for _, ln := range occupied {
			st.pushTail(ln)
		}
	}
	return nil
}
