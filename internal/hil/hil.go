// Package hil implements the host interface layer of Amber's firmware
// stack (§III-B): the module that splits each host request into
// super-page-sized internal requests matched to the ICL's cache entry size.
// It does not arbitrate between device queues: requests reach it in
// submission order, and the number in flight is bounded by the protocol's
// queue depth (proto.Params.EffectiveQueueDepth) and the host's depth cap
// (host.Host.DepthCap).
package hil

import "fmt"

// Line is one super-page-aligned internal request produced by splitting.
type Line struct {
	LSPN     int64
	FirstSub int
	NumSubs  int
	// ByteOff/ByteLen locate this line's payload within the request buffer.
	ByteOff int
	ByteLen int
	// LineOff is the payload's byte offset within the line: FirstSub's
	// start for sub-page-aligned I/O, inside FirstSub otherwise.
	LineOff int
}

// Splitter converts byte-addressed host requests into super-page lines.
type Splitter struct {
	subSize     int
	subsPerLine int
}

// NewSplitter builds a splitter for the given sub-page size and line width.
func NewSplitter(subSize, subsPerLine int) (*Splitter, error) {
	if subSize <= 0 || subsPerLine <= 0 {
		return nil, fmt.Errorf("hil: splitter geometry must be positive")
	}
	return &Splitter{subSize: subSize, subsPerLine: subsPerLine}, nil
}

// LineBytes returns the cache entry size (one super-page).
func (s *Splitter) LineBytes() int { return s.subSize * s.subsPerLine }

// SplitInto decomposes [offset, offset+length) into lines, appended to dst
// so the submit hot path can reuse its per-request buffers (pass dst[:0] to
// recycle capacity). Sub-page granularity is the unit of cache validity, so
// offsets are rounded to sub-page boundaries (partial sub-pages touch the
// whole sub-page, the read-modify-write the paper attributes to small
// writes).
func (s *Splitter) SplitInto(dst []Line, offset int64, length int) ([]Line, error) {
	if offset < 0 || length <= 0 {
		return nil, fmt.Errorf("hil: invalid request [%d, +%d)", offset, length)
	}
	lineBytes := int64(s.LineBytes())
	out := dst
	end := offset + int64(length)
	for pos := offset; pos < end; {
		lspn := pos / lineBytes
		lineStart := lspn * lineBytes
		inLine := pos - lineStart
		take := lineBytes - inLine
		if remaining := end - pos; take > remaining {
			take = remaining
		}
		firstSub := int(inLine) / s.subSize
		lastSub := int(inLine+take-1) / s.subSize
		out = append(out, Line{
			LSPN:     lspn,
			FirstSub: firstSub,
			NumSubs:  lastSub - firstSub + 1,
			ByteOff:  int(pos - offset),
			ByteLen:  int(take),
			LineOff:  int(inLine),
		})
		pos += take
	}
	return out, nil
}
