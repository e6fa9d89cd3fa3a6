// Package icl implements Amber's internal cache layer (§III-B, §IV-C): the
// firmware module that buffers super-page-sized lines of data in the SSD's
// internal DRAM between the host interface and the FTL. The cache is
// fully-associative with LRU replacement, write-back with dirty sub-page
// masks, explicit flush, and the parallelism-aware readahead of §IV-C: a
// frequency counter detects sequential miss streaks and prefetches the
// following super-pages, which land on disjoint dies and therefore load in
// parallel.
//
// Like the FTL, the ICL is a pure state machine: it returns the evictions
// and prefetch candidates its caller (the core SSD assembly) must turn
// into DRAM and flash traffic.
//
// Payload contract (TrackData). Bytes move at the granularity the cache is
// valid at, the sub-page, and no call costs more than the subs it touches:
//
//   - A caller buffer is a window onto the line: WriteAt's src holds the
//     line bytes [off, off+len(src)), so a host payload is its own source
//     and the only copy is payload → frame. Read, Fill and Write take the
//     window at offset 0, i.e. a line-layout buffer, of which only the
//     named subs are read or written — the rest may hold anything (callers
//     recycle staging buffers without clearing them).
//   - Defined when valid: a sub's bytes are defined only while it is valid.
//     A sub that becomes valid through a source that does not cover all of
//     it (short tail, nil source, unmapped fill) is zero-padded then, so
//     eviction and Invalidate clear masks, never bytes. State writes
//     invalid subs as zeros: images equal those of eagerly zeroed frames.
//   - A clean sub may hold a pin: FillPinned makes each sub's bytes a
//     sub-size buffer the caller pinned elsewhere (a flash page), so a
//     prefetched line is never copied in. A pinned sub's bytes are its pin's;
//     the frame's bytes there are undefined. Read, State and WriteAt's
//     merge of a partly written sub read the pin. The cache releases a pin
//     through the release hook (SetPinRelease) when its sub stops being a
//     clean copy of it: overwritten, refilled, evicted, invalidated or
//     decoded over. Dirty subs are never pinned and keep the frame's bytes.
//   - Records alias: the *Eviction Fill, FillPinned and Write return is one
//     per-cache record holding the evicted frame's own Dirty and Data,
//     swapped out, valid until the next call that evicts; FlushEach shows
//     its visitor each dirty frame's own. Consumers read the dirty subs,
//     which are never pinned.
//
// Lookup and victim selection cost the same for every cache size. Three
// structures mirror the frames' tags: Cache.index has one slot per LSPN of
// the volume (Config.SuperPages) holding its frame, nil when it is not
// resident (find is one bounds-checked load; an LSPN outside the volume is
// never resident, and Read, Fill and Write refuse it); the occupied frames
// sit on an intrusive list in lastUse order, least recently used first,
// whose head is the victim; and the empty cursor is the lowest empty frame,
// which is taken before any victim. The invariant: a frame is named by its
// lspn's index slot and is on the list exactly when its lspn >= 0, every
// other slot is nil, and the list order is ascending lastUse order. Only
// three functions may change a tag, and each restores the invariant before
// it returns: evictInto (clears the outgoing LSPN's slot, fills the
// incoming one's, moves the frame to the list's tail, advances the cursor
// when it consumed an empty frame), Invalidate (empties all three) and a
// decoding State (rebuilds them from the decoded frames — lastUse order,
// ties in frame order — and refuses as snap.ErrCorrupt an image they cannot
// mirror: one LSPN in two frames, an LSPN outside the volume, or a stamp
// ahead of the clock). touch moves a frame to the tail and changes no tag.
// The degraded clean-first mode walks the list from its head to the first
// clean frame; the frame chosen is in every case the one a scan for the
// first empty frame, then the smallest stamp, picks (reference_test.go
// holds the two equal).
package icl

import (
	"fmt"
	"slices"
)

// Config parameterizes the cache.
type Config struct {
	// Lines is the total line count; line size is SubsPerLine*SubSize (one
	// super-page).
	Lines       int
	SubsPerLine int // sub-pages (physical pages) per line
	SubSize     int // bytes per sub-page
	// ReadaheadThreshold is the sequential-streak count that arms the
	// §IV-C readahead; zero disables readahead.
	ReadaheadThreshold int
	// ReadaheadLines is how many following super-pages to prefetch once
	// armed.
	ReadaheadLines int
	// TrackData keeps real line contents.
	TrackData bool
	// SuperPages is the volume's size in lines: every LSPN the cache is
	// handed lies in [0, SuperPages), and the LSPN index has one slot each.
	SuperPages int64
}

// Validate reports descriptive configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Lines <= 0:
		return fmt.Errorf("icl: Lines must be positive")
	case c.SubsPerLine <= 0 || c.SubSize <= 0:
		return fmt.Errorf("icl: line geometry must be positive")
	case c.ReadaheadThreshold > 0 && c.ReadaheadLines <= 0:
		return fmt.Errorf("icl: readahead enabled but ReadaheadLines is %d", c.ReadaheadLines)
	case c.SuperPages <= 0:
		return fmt.Errorf("icl: SuperPages must be positive")
	}
	return nil
}

// LineBytes returns the byte size of one line.
func (c Config) LineBytes() int { return c.SubsPerLine * c.SubSize }

// CapacityBytes returns total data capacity of the cache.
func (c Config) CapacityBytes() int64 { return int64(c.Lines) * int64(c.LineBytes()) }

// Eviction describes a line the caller must flush (if dirty) before its
// frame is reused. Records alias the cache's buffers (see the package
// comment); FlushAll returns copies.
type Eviction struct {
	LSPN  int64
	Dirty []bool // per-sub dirty mask; all-false means clean drop
	// Data is the line-layout contents when TrackData, else nil. Only the
	// line's valid subs are defined, the dirty ones among them.
	Data []byte

	// nDirty is the number of set bits in Dirty. Only the cache makes
	// evictions, and it counts as it sets the bits.
	nDirty int
}

// IsDirty reports whether any sub-page needs a flash write.
func (e Eviction) IsDirty() bool { return e.nDirty > 0 }

// Stats aggregates cache activity.
type Stats struct {
	ReadSubHits    uint64
	ReadSubMisses  uint64
	WriteSubHits   uint64
	WriteSubMisses uint64
	Evictions      uint64
	DirtyEvictions uint64
	Readaheads     uint64 // prefetch lines requested
	ReadaheadHits  uint64 // read hits on prefetched subs
	Flushes        uint64
}

// HitRate returns the overall sub-page hit fraction.
func (s Stats) HitRate() float64 {
	hits := s.ReadSubHits + s.WriteSubHits
	tot := hits + s.ReadSubMisses + s.WriteSubMisses
	if tot == 0 {
		return 0
	}
	return float64(hits) / float64(tot)
}

type line struct {
	lspn       int64 // -1 = empty
	valid      []bool
	dirty      []bool
	nValid     int // set bits of valid and of dirty: kept by every function
	nDirty     int // that writes a mask, rebuilt from the masks on decode
	data       []byte
	prefetched bool
	lastUse    uint64

	// pins holds, by sub, the buffer a clean sub reads its bytes from
	// instead of data (FillPinned), nil where data holds them; nPinned
	// counts the non-nil ones. Tracked caches only.
	pins    [][]byte
	nPinned int

	// The frame's neighbours in the LRU order (Cache.head); nil at the ends
	// and while the frame is empty.
	prev, next *line
}

// Cache is the internal cache layer. Not safe for concurrent use.
type Cache struct {
	cfg    Config
	frames []*line
	// head..tail orders the occupied frames by lastUse, least recently used
	// first: head is the victim.
	head, tail *line
	// empty is the lowest frame holding no line, len(frames) when full. Only
	// Invalidate empties frames and only victim order fills them, so it moves
	// forward between resets.
	empty int
	// index holds each LSPN's frame, nil when it is not resident: one slot
	// per super-page of the volume. It and the LRU order mirror the frames'
	// tags; see the package comment for the three functions that may change
	// a tag.
	index []*line
	tick  uint64
	stats Stats

	// copied and zeroed count the tracked payload bytes the cache has moved
	// into or out of frames and zero-padded (PayloadBytes). They are the
	// observer's, like stats, but no Stats field and no part of an image.
	copied, zeroed uint64

	// Sequential detector state for readahead (§IV-C): the next expected
	// LSPN and the current streak length.
	seqNext   int64
	seqStreak int

	// preferClean restricts victim selection to clean frames whenever any
	// exist. Core enables it once the FTL latches read-only: dirty lines can
	// never be written back then, so evicting one would fail the read that
	// needed the frame — pinning them keeps reads serving through the clean
	// frames instead.
	preferClean bool

	// scratchEv is the reusable eviction record returned by Fill/Write:
	// the submit path consumes it synchronously, so one preallocated
	// buffer per cache avoids a Dirty-mask (and Data) copy per eviction.
	scratchEv Eviction

	// scratchHits/scratchMisses/scratchRA back ReadResult slices, reused
	// across Read calls for the same reason.
	scratchHits   []int
	scratchMisses []int
	scratchRA     []int64

	// release gives a pin back to whoever pinned it (SetPinRelease); nil
	// drops it.
	release func([]byte)
}

// New constructs a Cache from a validated configuration.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{
		cfg:     cfg,
		frames:  make([]*line, cfg.Lines),
		index:   make([]*line, cfg.SuperPages),
		seqNext: -1,
	}
	c.scratchEv.Dirty = make([]bool, cfg.SubsPerLine)
	if cfg.TrackData {
		c.scratchEv.Data = make([]byte, cfg.LineBytes())
	}
	for i := range c.frames {
		ln := &line{lspn: -1, valid: make([]bool, cfg.SubsPerLine), dirty: make([]bool, cfg.SubsPerLine)}
		if cfg.TrackData {
			ln.data = make([]byte, cfg.LineBytes())
			ln.pins = make([][]byte, cfg.SubsPerLine)
		}
		c.frames[i] = ln
	}
	return c, nil
}

// Config returns the configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// PayloadBytes returns the tracked payload bytes the cache has copied — hit
// subs out to a reader, fills and writes into frames, a pinned sub's bytes
// merged under a partial write, FlushAll's copies — and zeroed, padding
// newly valid subs. A pinned fill copies nothing. A cache without TrackData
// moves none.
func (c *Cache) PayloadBytes() (copied, zeroed uint64) { return c.copied, c.zeroed }

// SetPinRelease sets the hook the cache gives each pin back through once
// no sub holds it (see the package comment); the owner of the pinned
// buffers wires it once, before the first FillPinned.
func (c *Cache) SetPinRelease(release func(buf []byte)) { c.release = release }

// unpin releases sub s's pin, if it holds one; its bytes are the frame's
// again, undefined until the caller defines them.
func (c *Cache) unpin(ln *line, s int) {
	if pin := ln.pins[s]; pin != nil {
		ln.pins[s] = nil
		ln.nPinned--
		c.releasePin(pin)
	}
}

// unpinAll releases every pin the frame holds.
func (c *Cache) unpinAll(ln *line) {
	for s := 0; ln.nPinned > 0; s++ {
		c.unpin(ln, s)
	}
}

func (c *Cache) releasePin(pin []byte) {
	if pin != nil && c.release != nil {
		c.release(pin)
	}
}

// subBytes returns the bytes sub s of a tracked frame holds: its pin's, or
// the frame's.
func (c *Cache) subBytes(ln *line, s int) []byte {
	if ln.pins[s] != nil {
		return ln.pins[s]
	}
	return ln.data[s*c.cfg.SubSize : (s+1)*c.cfg.SubSize]
}

// find returns lspn's frame, nil when it is not resident or lies outside the
// volume (a readahead probe may look past its end).
func (c *Cache) find(lspn int64) *line {
	if uint64(lspn) >= uint64(len(c.index)) {
		return nil
	}
	return c.index[lspn]
}

// checkLSPN refuses an LSPN outside the volume.
func (c *Cache) checkLSPN(lspn int64) error {
	if uint64(lspn) >= uint64(len(c.index)) {
		return fmt.Errorf("icl: lspn %d outside the volume of %d lines", lspn, len(c.index))
	}
	return nil
}

// SetPreferCleanVictims toggles degraded-mode victim selection: clean
// frames are evicted before dirty ones regardless of recency. See the
// preferClean field.
func (c *Cache) SetPreferCleanVictims(on bool) { c.preferClean = on }

// victim picks the replacement frame: the lowest empty frame, else the least
// recently used one — in the degraded clean-first mode the least recently
// used clean one, if any frame is clean.
func (c *Cache) victim() *line {
	if c.empty < len(c.frames) {
		return c.frames[c.empty]
	}
	if c.preferClean {
		for ln := c.head; ln != nil; ln = ln.next {
			if ln.nDirty == 0 {
				return ln
			}
		}
	}
	return c.head
}

// unlink removes an occupied frame from the LRU order.
func (c *Cache) unlink(ln *line) {
	if ln.prev != nil {
		ln.prev.next = ln.next
	} else {
		c.head = ln.next
	}
	if ln.next != nil {
		ln.next.prev = ln.prev
	} else {
		c.tail = ln.prev
	}
	ln.prev, ln.next = nil, nil
}

// pushTail appends a frame as the most recently used.
func (c *Cache) pushTail(ln *line) {
	ln.prev, ln.next = c.tail, nil
	if c.tail != nil {
		c.tail.next = ln
	} else {
		c.head = ln
	}
	c.tail = ln
}

// evictInto resets the victim frame for reuse by lspn and returns the
// eviction record if the frame held a line. The record aliases the cache's
// scratch buffers and stays valid only until the next eviction; callers
// that keep evictions must copy them.
func (c *Cache) evictInto(ln *line, lspn int64) *Eviction {
	var ev *Eviction
	if ln.lspn >= 0 {
		c.index[ln.lspn] = nil
		c.unlink(ln)
		c.unpinAll(ln)
		// Swap, don't copy: the record takes the frame's dirty mask and
		// payload wholesale and the frame inherits the retired record's, so an
		// eviction costs pointer exchanges plus clearing two masks.
		c.scratchEv.LSPN = ln.lspn
		c.scratchEv.Dirty, ln.dirty = ln.dirty, c.scratchEv.Dirty
		c.scratchEv.nDirty, ln.nDirty = ln.nDirty, 0
		c.scratchEv.Data, ln.data = ln.data, c.scratchEv.Data
		ln.clearMasks()
		c.stats.Evictions++
		if c.scratchEv.IsDirty() {
			c.stats.DirtyEvictions++
		}
		ev = &c.scratchEv
	} else {
		// victim handed out the lowest empty frame; the next one is further on.
		c.empty++
		for c.empty < len(c.frames) && c.frames[c.empty].lspn >= 0 {
			c.empty++
		}
	}
	// An empty frame is already reset: Invalidate left its masks clear.
	ln.lspn = lspn
	c.index[lspn] = ln
	c.pushTail(ln)
	ln.prefetched = false
	c.tick++
	ln.lastUse = c.tick
	return ev
}

// clearMasks marks every sub invalid and clean; the bytes stay undefined.
func (ln *line) clearMasks() {
	clear(ln.valid)
	clear(ln.dirty)
	ln.nValid, ln.nDirty = 0, 0
}

// zeroPad clears the bytes of sub s outside the line range [lo, hi) that
// fills it, for a sub becoming valid: they are not defined until then.
func (c *Cache) zeroPad(data []byte, s, lo, hi int) {
	a, b := s*c.cfg.SubSize, (s+1)*c.cfg.SubSize
	lo = min(max(lo, a), b)
	hi = min(max(hi, lo), b)
	clear(data[a:lo])
	clear(data[hi:b])
	c.zeroed += uint64(lo - a + b - hi)
}

// mergePin copies the bytes of pinned sub s outside the line range [lo, hi)
// that a write fills into the frame and releases the pin: the sub is
// becoming dirty, and a dirty sub's bytes are the frame's.
func (c *Cache) mergePin(ln *line, s, lo, hi int) {
	a, b := s*c.cfg.SubSize, (s+1)*c.cfg.SubSize
	lo = min(max(lo, a), b)
	hi = min(max(hi, lo), b)
	pin := ln.pins[s]
	copy(ln.data[a:lo], pin[:lo-a])
	copy(ln.data[hi:b], pin[hi-a:])
	c.copied += uint64(lo - a + b - hi)
	c.unpin(ln, s)
}

// setValid marks sub s of the frame's line valid.
func (ln *line) setValid(s int) {
	if !ln.valid[s] {
		ln.valid[s] = true
		ln.nValid++
	}
}

func (c *Cache) touch(ln *line) {
	c.tick++
	ln.lastUse = c.tick
	if c.tail != ln {
		c.unlink(ln)
		c.pushTail(ln)
	}
}

// ReadResult reports the outcome of a cache read probe. Its slices alias
// per-cache scratch buffers and stay valid only until the next Read call;
// callers that defer consumption (e.g. into a scheduled event) must copy.
type ReadResult struct {
	// HitSubs are sub-pages served from DRAM.
	HitSubs []int
	// MissSubs must be fetched from flash and then installed with Fill.
	MissSubs []int
	// Readahead lists LSPNs the §IV-C prefetcher wants loaded.
	Readahead []int64
}

// Read probes the cache for sub-pages [firstSub, firstSub+nSubs) of lspn.
// If TrackData is on and dst is non-nil, bytes of hit subs are copied into
// dst at their line offsets; dst's other bytes — missed subs included — are
// left as they were, so a caller recycling dst must fill or zero the
// misses itself.
func (c *Cache) Read(lspn int64, firstSub, nSubs int, dst []byte) (ReadResult, error) {
	if err := c.checkLSPN(lspn); err != nil {
		return ReadResult{}, err
	}
	if err := c.checkRange(firstSub, nSubs); err != nil {
		return ReadResult{}, err
	}
	res := ReadResult{
		HitSubs:   c.scratchHits[:0],
		MissSubs:  c.scratchMisses[:0],
		Readahead: c.scratchRA[:0],
	}
	ln := c.find(lspn)
	anyMiss := false
	for s := firstSub; s < firstSub+nSubs; s++ {
		if ln != nil && ln.valid[s] {
			res.HitSubs = append(res.HitSubs, s)
			c.stats.ReadSubHits++
			if ln.prefetched {
				c.stats.ReadaheadHits++
			}
			if c.cfg.TrackData && dst != nil {
				copy(dst[s*c.cfg.SubSize:(s+1)*c.cfg.SubSize], c.subBytes(ln, s))
				c.copied += uint64(c.cfg.SubSize)
			}
		} else {
			res.MissSubs = append(res.MissSubs, s)
			c.stats.ReadSubMisses++
			anyMiss = true
		}
	}
	if ln != nil {
		c.touch(ln)
	}
	// Sequential-streak readahead: misses arm the counter ("sequentially
	// accessed right after the addresses of the previous ones, but no
	// cache hit"), and hits on previously prefetched lines keep the stream
	// armed so a sustained sequential scan stays ahead of the consumer.
	if c.cfg.ReadaheadThreshold > 0 {
		armed := false
		switch {
		case anyMiss:
			if lspn == c.seqNext {
				c.seqStreak++
			} else {
				c.seqStreak = 1
			}
			c.seqNext = lspn + 1
			armed = c.seqStreak >= c.cfg.ReadaheadThreshold
		case ln != nil && ln.prefetched:
			// Stream follow-up: the consumer reached a prefetched line.
			c.seqStreak = c.cfg.ReadaheadThreshold
			if lspn+1 > c.seqNext {
				c.seqNext = lspn + 1
			}
			armed = true
		}
		if armed {
			for i := int64(1); i <= int64(c.cfg.ReadaheadLines); i++ {
				next := lspn + i
				if c.find(next) == nil {
					res.Readahead = append(res.Readahead, next)
					c.stats.Readaheads++
				}
			}
		}
	}
	c.scratchHits = res.HitSubs[:0]
	c.scratchMisses = res.MissSubs[:0]
	c.scratchRA = res.Readahead[:0]
	return res, nil
}

// Fill installs fetched sub-pages of lspn, evicting a victim line if the
// cache is full. prefetched marks readahead fills so their later hits are
// attributed. data, when non-nil with TrackData, is a line-layout buffer of
// which only the filled subs are read (an unmapped sub must be zero in it);
// with nil data a newly valid sub reads as zeroes. A sub that is dirty in the
// frame keeps its bytes and its dirty bit; a pinned sub that data refills
// lets go of its pin.
func (c *Cache) Fill(lspn int64, subs []int, data []byte, prefetched bool) (*Eviction, error) {
	if err := c.checkLSPN(lspn); err != nil {
		return nil, err
	}
	for _, s := range subs {
		if err := c.checkRange(s, 1); err != nil {
			return nil, err
		}
	}
	ln := c.find(lspn)
	var ev *Eviction
	if ln == nil {
		ln = c.victim()
		if c.preferClean && ln.lspn >= 0 && ln.nDirty > 0 {
			// Degraded read-around: every candidate frame holds dirty
			// data that can never flush on a read-only device. The
			// caller's buffer already has the fetched bytes; serve them
			// uncached rather than evict what cannot be written back.
			return nil, nil
		}
		ev = c.evictInto(ln, lspn)
	}
	ln.prefetched = ln.prefetched || prefetched
	ss := c.cfg.SubSize
	for _, s := range subs {
		switch {
		case !c.cfg.TrackData || ln.dirty[s]:
			// A dirty sub was written while the fetch was in flight: the
			// frame holds the newer bytes.
		case data != nil:
			c.unpin(ln, s)
			copy(ln.data[s*ss:(s+1)*ss], data[s*ss:(s+1)*ss])
			c.copied += uint64(ss)
		case !ln.valid[s]:
			c.zeroPad(ln.data, s, 0, 0)
		}
		ln.setValid(s)
	}
	c.touch(ln)
	return ev, nil
}

// FillPinned is Fill of every sub of lspn on a TrackData cache, without
// copying: pins holds one entry per sub, a pinned sub-size buffer whose
// bytes the sub then reads (nil: the sub reads as zeroes). The pins are the
// cache's from this call on, whatever it returns: a sub that is dirty keeps
// the frame's bytes and its pin is released at once, as are all of them
// when read-around installs nothing or the call fails.
func (c *Cache) FillPinned(lspn int64, pins [][]byte, prefetched bool) (*Eviction, error) {
	ss := c.cfg.SubSize
	bad := !c.cfg.TrackData || len(pins) != c.cfg.SubsPerLine
	for _, pin := range pins {
		bad = bad || pin != nil && len(pin) != ss
	}
	err := c.checkLSPN(lspn)
	if bad && err == nil {
		err = fmt.Errorf("icl: FillPinned of %d pins, want one of %d bytes or nil per sub of %d on a tracked cache", len(pins), ss, c.cfg.SubsPerLine)
	}
	if err != nil {
		for _, pin := range pins {
			c.releasePin(pin)
		}
		return nil, err
	}
	ev, _ := c.Fill(lspn, nil, nil, prefetched) // lspn checked, no subs: cannot fail
	ln := c.find(lspn)
	for s, pin := range pins {
		if ln == nil || ln.dirty[s] {
			c.releasePin(pin)
			continue
		}
		c.unpin(ln, s)
		if pin != nil {
			ln.pins[s] = pin
			ln.nPinned++
		} else {
			c.zeroPad(ln.data, s, 0, 0)
		}
		ln.setValid(s)
	}
	return ev, nil
}

// WriteAt stores sub-pages [firstSub, firstSub+nSubs) of lspn into the
// cache (write-back), marking them dirty. A miss allocates a frame
// (write-allocate), possibly evicting. When TrackData is on and src is
// non-nil, src holds the line bytes [off, off+len(src)) — the host payload
// at its true in-line offset — and the part of it inside the sub range is
// the only thing copied. Range bytes src does not cover keep their value
// in a sub that was already valid and are zero-padded in one that was not,
// so a caller that needs a partial sub merged with its flash contents
// widens src before the call.
func (c *Cache) WriteAt(lspn int64, firstSub, nSubs int, src []byte, off int) (*Eviction, error) {
	if err := c.checkLSPN(lspn); err != nil {
		return nil, err
	}
	if err := c.checkRange(firstSub, nSubs); err != nil {
		return nil, err
	}
	if off < 0 {
		return nil, fmt.Errorf("icl: negative source offset %d", off)
	}
	ln := c.find(lspn)
	var ev *Eviction
	if ln == nil {
		c.stats.WriteSubMisses += uint64(nSubs)
		ln = c.victim()
		ev = c.evictInto(ln, lspn)
	} else {
		c.stats.WriteSubHits += uint64(nSubs)
	}
	end := off + len(src)
	for s := firstSub; s < firstSub+nSubs; s++ {
		switch {
		case !c.cfg.TrackData:
		case !ln.valid[s]:
			c.zeroPad(ln.data, s, off, end)
		case ln.pins[s] != nil:
			c.mergePin(ln, s, off, end)
		}
		ln.setValid(s)
		if !ln.dirty[s] {
			ln.dirty[s] = true
			ln.nDirty++
		}
	}
	if c.cfg.TrackData && src != nil {
		lo, hi := max(firstSub*c.cfg.SubSize, off), min((firstSub+nSubs)*c.cfg.SubSize, end)
		if lo < hi {
			copy(ln.data[lo:hi], src[lo-off:hi-off])
			c.copied += uint64(hi - lo)
		}
	}
	c.touch(ln)
	return ev, nil
}

// Write is WriteAt with a line-layout source (offset 0).
func (c *Cache) Write(lspn int64, firstSub, nSubs int, src []byte) (*Eviction, error) {
	return c.WriteAt(lspn, firstSub, nSubs, src, 0)
}

// FlushEach cleans every dirty line (host FLUSH / power-fail path), in frame
// order, after handing visit a record that aliases the frame's own
// mask and payload for the call. visit's first error is returned at once:
// that line and every line not yet visited stay dirty. Lines stay resident.
func (c *Cache) FlushEach(visit func(*Eviction) error) error {
	var ev Eviction
	for _, ln := range c.frames {
		if ln.lspn < 0 || ln.nDirty == 0 {
			continue
		}
		ev = Eviction{LSPN: ln.lspn, Dirty: ln.dirty, Data: ln.data, nDirty: ln.nDirty}
		if err := visit(&ev); err != nil {
			return err
		}
		clear(ln.dirty)
		ln.nDirty = 0
		c.stats.Flushes++
	}
	return nil
}

// FlushAll is FlushEach returning a copy of every record, for a caller that
// acts on them after the lines are clean.
func (c *Cache) FlushAll() []Eviction {
	var out []Eviction
	c.FlushEach(func(ev *Eviction) error {
		out = append(out, Eviction{LSPN: ev.LSPN, Dirty: slices.Clone(ev.Dirty), Data: slices.Clone(ev.Data), nDirty: ev.nDirty})
		c.copied += uint64(len(ev.Data))
		return nil
	})
	return out
}

// Contains reports whether sub s of lspn is valid in the cache.
func (c *Cache) Contains(lspn int64, s int) bool {
	ln := c.find(lspn)
	return ln != nil && s >= 0 && s < c.cfg.SubsPerLine && ln.valid[s]
}

// DirtyLines counts lines with at least one dirty sub.
func (c *Cache) DirtyLines() int { return c.countLines(true) }

// ResidentLines counts occupied frames.
func (c *Cache) ResidentLines() int { return c.countLines(false) }

// countLines counts occupied frames, or only the dirty ones if dirty.
func (c *Cache) countLines(dirty bool) int {
	n := 0
	for _, ln := range c.frames {
		if ln.lspn >= 0 && (!dirty || ln.nDirty > 0) {
			n++
		}
	}
	return n
}

func (c *Cache) checkRange(firstSub, nSubs int) error {
	if firstSub < 0 || nSubs < 1 || firstSub+nSubs > c.cfg.SubsPerLine {
		return fmt.Errorf("icl: sub range [%d,%d) outside line of %d subs",
			firstSub, firstSub+nSubs, c.cfg.SubsPerLine)
	}
	return nil
}
