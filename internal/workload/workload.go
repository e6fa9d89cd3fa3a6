// Package workload generates the I/O streams the evaluation runs: a
// FIO-style microbenchmark engine (sequential/random read/write at a given
// block size, matching §III-A and §V-B) and synthetic generators for the
// five enterprise traces of Table III (24HR, 24HRS, CFS, MSNFS, DAP),
// parameterized by their published request-size, read-ratio and randomness
// statistics.
package workload

import (
	"fmt"

	"amber/internal/sim"
)

// Request is one generated I/O.
type Request struct {
	Write  bool
	Offset int64
	Length int
}

// Generator produces a request stream. Implementations are deterministic
// for a given seed.
type Generator interface {
	// Next returns the i-th request of the stream.
	Next(i int) Request
	// Name identifies the workload in reports.
	Name() string
}

// Pattern is a FIO access pattern.
type Pattern int

// FIO patterns.
const (
	SeqRead Pattern = iota
	RandRead
	SeqWrite
	RandWrite
)

func (p Pattern) String() string {
	switch p {
	case SeqRead:
		return "seq-read"
	case RandRead:
		return "rand-read"
	case SeqWrite:
		return "seq-write"
	case RandWrite:
		return "rand-write"
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// IsWrite reports whether the pattern writes.
func (p Pattern) IsWrite() bool { return p == SeqWrite || p == RandWrite }

// IsRandom reports whether the pattern is random-offset.
func (p Pattern) IsRandom() bool { return p == RandRead || p == RandWrite }

// FIO is the microbenchmark generator: fixed block size over a volume span
// with a pure sequential or uniformly random offset stream.
type FIO struct {
	Pattern   Pattern
	BlockSize int
	Span      int64 // volume bytes; offsets stay in [0, Span)
	Seed      uint64

	rng    *sim.RNG
	blocks int64
}

// NewFIO validates and builds a FIO generator.
func NewFIO(p Pattern, blockSize int, span int64, seed uint64) (*FIO, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("workload: block size must be positive")
	}
	if span < int64(blockSize) {
		return nil, fmt.Errorf("workload: span %d smaller than block size %d", span, blockSize)
	}
	return &FIO{
		Pattern:   p,
		BlockSize: blockSize,
		Span:      span,
		Seed:      seed,
		rng:       sim.NewRNG(seed ^ 0xf10),
		blocks:    span / int64(blockSize),
	}, nil
}

// Name implements Generator. The block size is in KiB when it is a whole
// number of KiB and in bytes otherwise.
func (f *FIO) Name() string {
	if f.BlockSize%1024 != 0 {
		return fmt.Sprintf("fio-%v-%dB", f.Pattern, f.BlockSize)
	}
	return fmt.Sprintf("fio-%v-%dk", f.Pattern, f.BlockSize/1024)
}

// Next implements Generator. Sequential streams wrap around the span.
func (f *FIO) Next(i int) Request {
	var block int64
	if f.Pattern.IsRandom() {
		block = int64(f.rng.Uint64n(uint64(f.blocks)))
	} else {
		block = int64(i) % f.blocks
	}
	return Request{
		Write:  f.Pattern.IsWrite(),
		Offset: block * int64(f.BlockSize),
		Length: f.BlockSize,
	}
}

// TraceParams holds Table III's workload characteristics.
type TraceParams struct {
	TraceName   string
	AvgReadKB   float64
	AvgWriteKB  float64
	ReadRatio   float64 // fraction of requests that are reads
	RandomRead  float64 // fraction of reads at random offsets
	RandomWrite float64 // fraction of writes at random offsets
}

// Table III trace parameter sets.
var (
	// W1: Authentication Server (24HR).
	Trace24HR = TraceParams{"24HR", 10.3, 8.1, 0.10, 0.97, 0.47}
	// W2: Back End SQL Server (24HRS).
	Trace24HRS = TraceParams{"24HRS", 106.2, 11.7, 0.18, 0.92, 0.43}
	// W3: Display Ads Payload (DAP).
	TraceDAP = TraceParams{"DAP", 62.1, 97.2, 0.56, 0.03, 0.84}
	// W4: MSN Storage metadata (CFS).
	TraceCFS = TraceParams{"CFS", 8.7, 12.6, 0.74, 0.94, 0.94}
	// W5: MSN Storage FS (MSNFS).
	TraceMSNFS = TraceParams{"MSNFS", 10.7, 11.2, 0.67, 0.98, 0.98}
)

// Traces lists the five Table III workloads in the paper's W1..W5 order.
func Traces() []TraceParams {
	return []TraceParams{Trace24HR, Trace24HRS, TraceDAP, TraceCFS, TraceMSNFS}
}

// Trace is a synthetic generator matching a TraceParams marginal
// distribution: request sizes are drawn around the per-direction mean
// (uniform in [0.5, 1.5] x mean, 4 KiB aligned, minimum 4 KiB), direction
// by ReadRatio, and offsets either continue a per-direction sequential
// stream or jump uniformly, per the Random* fractions.
type Trace struct {
	P    TraceParams
	Span int64
	Seed uint64

	rng     *sim.RNG
	nextOff [2]int64 // per-direction sequential cursors: [read, write]
}

// NewTrace validates and builds a trace generator.
func NewTrace(p TraceParams, span int64, seed uint64) (*Trace, error) {
	if span < 1<<20 {
		return nil, fmt.Errorf("workload: span %d too small for trace replay", span)
	}
	if p.ReadRatio < 0 || p.ReadRatio > 1 || p.RandomRead < 0 || p.RandomRead > 1 || p.RandomWrite < 0 || p.RandomWrite > 1 {
		return nil, fmt.Errorf("workload: trace fractions must be in [0,1]")
	}
	t := &Trace{P: p, Span: span, Seed: seed, rng: sim.NewRNG(seed ^ 0x7ace)}
	t.nextOff[1] = span / 2 // separate the write stream's sequential region
	return t, nil
}

// Name implements Generator.
func (t *Trace) Name() string { return t.P.TraceName }

// Next implements Generator.
func (t *Trace) Next(i int) Request {
	read := t.rng.Float64() < t.P.ReadRatio
	meanKB := t.P.AvgWriteKB
	randFrac := t.P.RandomWrite
	dir := 1
	if read {
		meanKB = t.P.AvgReadKB
		randFrac = t.P.RandomRead
		dir = 0
	}
	// Size: uniform around the mean, 4 KiB aligned, at least 4 KiB.
	kb := meanKB * t.rng.Range(0.5, 1.5)
	length := int(kb/4+0.5) * 4096
	if length < 4096 {
		length = 4096
	}
	if int64(length) > t.Span/4 {
		length = int(t.Span / 4 / 4096 * 4096)
	}

	var off int64
	if t.rng.Float64() < randFrac {
		maxBlock := (t.Span - int64(length)) / 4096
		off = int64(t.rng.Uint64n(uint64(maxBlock+1))) * 4096
	} else {
		off = t.nextOff[dir]
		if off+int64(length) > t.Span {
			off = 0
		}
	}
	t.nextOff[dir] = off + int64(length)
	return Request{Write: !read, Offset: off, Length: length}
}

// Mixed is a two-phase generator used by the Fig. 15b/c experiment: writes
// for the first writeCount requests, then reads of the written range.
type Mixed struct {
	Label      string
	WriteCount int
	BlockSize  int
	Span       int64
	Seed       uint64
	rng        *sim.RNG
}

// NewMixed builds a write-then-read phase generator.
func NewMixed(label string, writeCount, blockSize int, span int64, seed uint64) (*Mixed, error) {
	if writeCount <= 0 || blockSize <= 0 || span < int64(blockSize) {
		return nil, fmt.Errorf("workload: invalid mixed-phase parameters")
	}
	return &Mixed{Label: label, WriteCount: writeCount, BlockSize: blockSize, Span: span, Seed: seed,
		rng: sim.NewRNG(seed ^ 0x3d)}, nil
}

// Name implements Generator.
func (m *Mixed) Name() string { return m.Label }

// Next implements Generator.
func (m *Mixed) Next(i int) Request {
	blocks := m.Span / int64(m.BlockSize)
	block := int64(i) % blocks
	return Request{
		Write:  i < m.WriteCount,
		Offset: block * int64(m.BlockSize),
		Length: m.BlockSize,
	}
}
