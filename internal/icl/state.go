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
	for _, ln := range c.frames {
		c.unpinAll(ln)
		ln.lspn = -1
		ln.prefetched = false
		ln.lastUse = 0
		ln.prev, ln.next = nil, nil
		ln.clearMasks()
	}
	c.head, c.tail, c.empty = nil, nil, 0
	clear(c.index)
	c.tick = 0
	c.seqNext = -1
	c.seqStreak = 0
	c.preferClean = false
}

// State walks the cache's image: every frame (tag, valid/dirty masks,
// prefetch flag, LRU stamp, payload), the LRU clock, the sequential detector
// and the statistics. Decoding needs a freshly
// constructed cache of the identical configuration; it releases any pin the
// cache holds first, since the image carries every sub's bytes, and
// rebuilds the LSPN index from the decoded frames. On error the cache must
// be discarded.
func (c *Cache) State(k *snap.Codec) error {
	if k.Decoding() {
		for _, ln := range c.frames {
			c.unpinAll(ln)
		}
	}
	var img []byte // an encoded frame's payload, its invalid subs zero
	if c.cfg.TrackData && !k.Decoding() {
		img = make([]byte, c.cfg.LineBytes())
	}
	for _, ln := range c.frames {
		snap.I(k, &ln.lspn)
		for i := range ln.valid {
			k.Bool(&ln.valid[i])
			k.Bool(&ln.dirty[i])
		}
		k.Bool(&ln.prefetched)
		snap.U(k, &ln.lastUse)
		if c.cfg.TrackData {
			if err := c.payloadState(k, ln, img); err != nil {
				return err
			}
		}
	}
	snap.U(k, &c.tick)
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

// reindex rebuilds the LSPN index, every frame's mask counts, the LRU order
// and the empty cursor from freshly decoded frames, refusing an image the
// index cannot represent faithfully: one LSPN in two frames (ambiguous), an
// LSPN outside the volume (it has no slot, and the FTL would refuse its
// write-back), or a frame stamped ahead of the clock (a later touch would be
// stamped older than it, and the order would stop mirroring the stamps).
// The order is lastUse ascending, ties in frame order — the frame a scan for
// the minimum stamp picks first.
func (c *Cache) reindex() error {
	c.empty = len(c.frames)
	var occupied []*line
	for i, ln := range c.frames {
		ln.nValid, ln.nDirty = countSet(ln.valid), countSet(ln.dirty)
		switch {
		case ln.lspn < 0:
			if c.empty == len(c.frames) {
				c.empty = i
			}
			continue
		case ln.lspn >= int64(len(c.index)):
			return fmt.Errorf("%w: cache line %d outside the volume of %d lines", snap.ErrCorrupt, ln.lspn, len(c.index))
		case c.index[ln.lspn] != nil:
			return fmt.Errorf("%w: cache line %d in two frames", snap.ErrCorrupt, ln.lspn)
		case ln.lastUse > c.tick:
			return fmt.Errorf("%w: cache line %d stamped %d, clock at %d", snap.ErrCorrupt, ln.lspn, ln.lastUse, c.tick)
		}
		c.index[ln.lspn] = ln
		occupied = append(occupied, ln)
	}
	sort.SliceStable(occupied, func(a, b int) bool { return occupied[a].lastUse < occupied[b].lastUse })
	for _, ln := range occupied {
		c.pushTail(ln)
	}
	return nil
}
