// Package hil implements the host interface layer of Amber's firmware
// stack (§III-B): the module that fetches host requests from device-level
// queues, schedules them — FIFO for h-type storage, round-robin or
// weighted round-robin arbitration across rich queues for s-type — and
// splits each request into super-page-sized internal requests matched to
// the ICL's cache entry size.
package hil

import (
	"fmt"

	"amber/internal/proto"
)

// Request is a host command as the device controller exposes it to the HIL.
type Request struct {
	Queue  int // submission queue index
	Write  bool
	Offset int64 // byte offset into the logical volume
	Length int   // bytes
	Tag    uint64
}

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

// Split decomposes [offset, offset+length) into lines. Sub-page
// granularity is the unit of cache validity, so offsets are rounded to
// sub-page boundaries (partial sub-pages touch the whole sub-page, the
// read-modify-write the paper attributes to small writes).
func (s *Splitter) Split(offset int64, length int) ([]Line, error) {
	return s.SplitInto(nil, offset, length)
}

// SplitInto is Split appending into dst, so per-request buffers can be
// reused by the submit hot path. Pass dst[:0] to recycle capacity.
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

// Arbiter schedules requests across device-level queues using the
// protocol's arbitration policy. It is the s-type "rich queue" fetch logic;
// with a single queue it degenerates to FIFO.
type Arbiter struct {
	policy  proto.Arbitration
	queues  [][]*Request
	weights []int
	// WRR state: current queue and remaining credits.
	cur     int
	credits int
}

// NewArbiter builds an arbiter over nQueues queues. weights are used by
// WRR (nil defaults every weight to 1, i.e. plain round-robin behavior).
func NewArbiter(policy proto.Arbitration, nQueues int, weights []int) (*Arbiter, error) {
	if nQueues <= 0 {
		return nil, fmt.Errorf("hil: need at least one queue")
	}
	if weights == nil {
		weights = make([]int, nQueues)
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != nQueues {
		return nil, fmt.Errorf("hil: %d weights for %d queues", len(weights), nQueues)
	}
	for i, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("hil: weight %d of queue %d must be positive", w, i)
		}
	}
	a := &Arbiter{policy: policy, queues: make([][]*Request, nQueues), weights: weights}
	a.credits = weights[0]
	return a, nil
}

// Enqueue places a request on its submission queue.
func (a *Arbiter) Enqueue(r *Request) error {
	if r.Queue < 0 || r.Queue >= len(a.queues) {
		return fmt.Errorf("hil: queue %d out of range [0,%d)", r.Queue, len(a.queues))
	}
	a.queues[r.Queue] = append(a.queues[r.Queue], r)
	return nil
}

// Pending returns the total queued request count.
func (a *Arbiter) Pending() int {
	n := 0
	for _, q := range a.queues {
		n += len(q)
	}
	return n
}

// Next fetches the next request per the arbitration policy, or nil when
// all queues are empty.
func (a *Arbiter) Next() *Request {
	switch a.policy {
	case proto.RoundRobin:
		return a.nextRR(false)
	case proto.WeightedRoundRobin:
		return a.nextRR(true)
	default:
		return a.nextFIFO()
	}
}

// nextFIFO drains queues strictly in order: the h-type single I/O path.
func (a *Arbiter) nextFIFO() *Request {
	for i := range a.queues {
		if len(a.queues[i]) > 0 {
			return a.pop(i)
		}
	}
	return nil
}

// nextRR visits queues cyclically; with weighted=true each queue keeps the
// grant for its weight's worth of commands before rotating.
func (a *Arbiter) nextRR(weighted bool) *Request {
	n := len(a.queues)
	for tries := 0; tries < n; tries++ {
		if len(a.queues[a.cur]) > 0 {
			r := a.pop(a.cur)
			if weighted {
				a.credits--
				if a.credits <= 0 {
					a.advance()
				}
			} else {
				a.advance()
			}
			return r
		}
		a.advance()
	}
	return nil
}

func (a *Arbiter) advance() {
	a.cur = (a.cur + 1) % len(a.queues)
	a.credits = a.weights[a.cur]
}

func (a *Arbiter) pop(i int) *Request {
	r := a.queues[i][0]
	a.queues[i] = a.queues[i][1:]
	return r
}
