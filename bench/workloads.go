package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"time"

	"amber/internal/config"
	"amber/internal/core"
	"amber/internal/refdata"
	"amber/internal/sim"
	"amber/internal/stats"
	"amber/internal/workload"
)

// bench750 is the paper's Table I device (12 ch x 5 pkg x 2 planes, 8 KiB
// pages, NVMe) with 12 blocks per plane: a 1151 MB volume behind the default
// ICL (about 70 % of the 1 GiB DRAM), small enough to precondition in a
// fraction of a second and to reach steady-state GC right after it.
func bench750() core.DeviceConfig {
	d := config.Intel750()
	d.Name = "bench750"
	d.Geometry.BlocksPerPlane = 12
	d.TrackData = false
	return d
}

// bench750d is the same geometry shrunk to a 60 MB volume behind a 16-line
// ICL, with real payload bytes carried end to end.
func bench750d() core.DeviceConfig {
	d := config.Intel750()
	d.Name = "bench750d"
	d.Geometry.BlocksPerPlane = 4
	d.Geometry.PagesPerBlock = 32
	d.CacheLines = 16
	d.TrackData = true
	return d
}

const (
	queueDepth  = 32 // every Run-driven workload and Precondition
	batchWindow = 64 // requests per SubmitBatch vector
	dataIO      = 8192
)

// workloadDef describes one benchmark workload. perSec is the sizing
// constant: how many requests of this workload one second of timed section
// holds on the 2-core sandbox the benchmark was sized on, so that
// requests-per-repetition = perSec * seconds / reps is a pure function of
// the flags (and the simulated outcome with it), not of the machine.
type workloadDef struct {
	name   string
	why    string
	perSec float64
	warm   int // warm-up requests at scale 1, not timed
	run    func(w *workloadDef, p params) (*rep, error)
	traced bool // has a traced replay
	// replay-side description of the request stream (see replay.go).
	device  func() core.DeviceConfig
	prepare func(vol, lineBytes int64, seed uint64) (prefill workload.Generator, prefillN int, gen workload.Generator, err error)
	data    bool
}

// params are the flag-derived knobs of one repetition.
type params struct {
	seed     uint64
	requests int // timed requests (validate_sweep: requests per sweep point)
	warm     int
}

// rep is one repetition's measurements.
type rep struct {
	setupS     float64
	wallNs     float64
	segNs      []float64 // wall time per segment of the timed section
	reqs       int
	failed     int
	mallocs    uint64
	allocBytes uint64
	heapSysMB  float64
	delta      counts
	latP50     float64
	latP99     float64
	latP999    float64
	accuracy   float64 // validate_sweep only
	domains    []sim.DomainStat
	digest     string
	sys        *core.System // the system the repetition ran on (replay reads its configs)
}

// segmentsPerRep is how many equal runs of requests a timed section is cut
// into. Every repetition does identical work in its j-th segment, which is
// what lets host_ns_per_req take each segment at its fastest repetition.
const segmentsPerRep = 256

// countingGen wraps a generator and tallies what it handed out, so the
// benchmark knows requests, lines and bytes without a counter inside the
// program, and notes the wall clock at every segment boundary.
type countingGen struct {
	workload.Generator
	lineBytes int64
	reqs      uint64
	lines     uint64
	bytes     uint64
	segLen    uint64
	marks     []time.Time
}

func (g *countingGen) Next(i int) workload.Request {
	r := g.Generator.Next(i)
	g.note(r)
	return r
}

func (g *countingGen) note(r workload.Request) {
	if g.segLen > 0 && g.reqs%g.segLen == 0 {
		g.marks = append(g.marks, time.Now())
	}
	g.reqs++
	g.bytes += uint64(r.Length)
	g.lines += uint64((r.Offset+int64(r.Length)-1)/g.lineBytes - r.Offset/g.lineBytes + 1)
}

// start zeroes the tallies before a timed section of n requests.
func (g *countingGen) start(n int) {
	g.reqs, g.lines, g.bytes = 0, 0, 0
	g.segLen = uint64((n + segmentsPerRep - 1) / segmentsPerRep)
	g.marks = g.marks[:0]
}

// segments returns the wall time of each segment of a timed section that
// ended at end.
func segments(marks []time.Time, end time.Time) []float64 {
	out := make([]float64, len(marks))
	for i := range marks {
		next := end
		if i+1 < len(marks) {
			next = marks[i+1]
		}
		out[i] = float64(next.Sub(marks[i]).Nanoseconds())
	}
	return out
}

// timing is what timedSection measures around one timed section.
type timing struct {
	end        time.Time
	wallNs     float64
	mallocs    uint64
	allocBytes uint64
	heapSysMB  float64
}

// timedSection runs fn between two runtime.MemStats readings and a wall
// clock; a collection is forced first so every repetition starts its timed
// section at the same point of the collector's cycle. The heap figure is
// the heap in use once the section's garbage has been collected: how much
// garbage happens to be uncollected when a section ends is the collector's
// timing, not the simulator's size (alloc_bytes_per_req carries the
// garbage).
func timedSection(fn func() error) (timing, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := fn()
	end := time.Now()
	runtime.ReadMemStats(&m1)
	t := timing{
		end:        end,
		wallNs:     float64(end.Sub(t0).Nanoseconds()),
		mallocs:    m1.Mallocs - m0.Mallocs,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	t.heapSysMB = float64(m1.HeapInuse) / 1e6
	return t, err
}

// newSystem builds and preconditions a system around d on the PC platform.
func newSystem(d core.DeviceConfig) (*core.System, error) {
	s, err := core.NewSystem(config.PCSystem(d))
	if err != nil {
		return nil, err
	}
	if err := s.Precondition(queueDepth); err != nil {
		return nil, err
	}
	return s, nil
}

// startRep collects the previous repetition's system, so every repetition
// sets up from the same live heap, and starts the set-up clock. The memory
// is deliberately not returned to the OS: faulting it back in costs a fifth
// of validate_sweep's time and varies by half of that from run to run.
func startRep() time.Time {
	runtime.GC()
	return time.Now()
}

func (r *rep) fill(t timing, s *core.System) {
	r.wallNs, r.mallocs, r.allocBytes, r.heapSysMB = t.wallNs, t.mallocs, t.allocBytes, t.heapSysMB
	r.sys = s
}

func (r *rep) latencies(l *stats.Latency) {
	r.latP50, r.latP99, r.latP999 = l.Percentile(50), l.Percentile(99), l.Percentile(99.9)
}

// runClosedLoop is the shape of the four System.Run workloads: build the
// device, optionally pre-fill the cache, warm up, then time one Run at
// queueDepth on the continuing request stream.
func runClosedLoop(w *workloadDef, p params) (*rep, error) {
	t0 := startRep()
	s, err := newSystem(w.device())
	if err != nil {
		return nil, err
	}
	prefill, prefillN, inner, err := w.prepare(s.VolumeBytes(), int64(s.Split.LineBytes()), p.seed)
	if err != nil {
		return nil, err
	}
	if prefill != nil {
		if _, err := s.Run(prefill, core.RunConfig{Requests: prefillN, IODepth: queueDepth}); err != nil {
			return nil, err
		}
	}
	gen := &countingGen{Generator: inner, lineBytes: int64(s.Split.LineBytes())}
	if p.warm > 0 {
		if _, err := s.Run(gen, core.RunConfig{Requests: p.warm, IODepth: queueDepth}); err != nil {
			return nil, err
		}
	}
	s.Drain()
	r := &rep{setupS: time.Since(t0).Seconds(), reqs: p.requests}

	gen.start(p.requests)
	st := stackOf(s)
	before := st.moduleCounts()
	var res *core.RunResult
	t, err := timedSection(func() error {
		var err error
		res, err = s.Run(gen, core.RunConfig{Requests: p.requests, IODepth: queueDepth})
		return err
	})
	if err != nil {
		return nil, err
	}
	r.fill(t, s)
	r.segNs = segments(gen.marks, t.end)
	r.delta = st.moduleCounts().sub(before)
	r.delta.n[cReqs], r.delta.n[cLines], r.delta.n[cBytes] = gen.reqs, gen.lines, gen.bytes
	r.failed = res.FailedReads + res.FailedWrites
	r.delta.n[cFailed] = uint64(r.failed)
	r.delta.n[cSimTime] = uint64(res.Elapsed())
	r.domains = res.DomainEvents
	r.delta.addEvents(r.domains)
	r.latencies(&res.Latency)

	var d digest
	d.add("run", []any{res.Requests, res.Depth, res.BytesRead, res.BytesWritten, res.Start, res.End, res.Events})
	d.add("lat", []float64{res.Latency.Mean(), r.latP50, r.latP99, r.latP999, res.Latency.Max()})
	d.add("domains", res.DomainEvents)
	d.addStack(st)
	r.digest = d.sum()
	return r, nil
}

// batchDriver pushes request vectors through System.SubmitBatch and keeps
// the per-request latencies its times vector yields.
type batchDriver struct {
	s     *core.System
	reqs  []workload.Request
	datas [][]byte
	times []sim.Time
	lat   stats.Latency

	// Snapshots taken by begin, for the deltas finish computes.
	st      stack
	before  counts
	events0 []sim.DomainStat
	wins0   uint64
	start   sim.Time
}

func newBatchDriver(s *core.System) *batchDriver {
	return &batchDriver{s: s, reqs: make([]workload.Request, batchWindow), times: make([]sim.Time, batchWindow)}
}

// submit runs the current vector; request i is issued at request i-1's
// completion, so its latency is the gap between the two completion times.
func (b *batchDriver) submit() error {
	issue := b.s.Now()
	if _, err := b.s.SubmitBatch(issue, b.reqs, b.datas, b.times); err != nil {
		return err
	}
	for _, done := range b.times {
		b.lat.Add(done - issue)
		issue = done
	}
	return nil
}

// begin marks the start of the timed section: latencies restart and the
// counters finish subtracts from are snapshotted.
func (b *batchDriver) begin() {
	b.lat = stats.Latency{}
	b.st = stackOf(b.s)
	b.before = b.st.moduleCounts()
	b.events0 = b.s.SubmitEngineDomainStats()
	b.wins0, _ = b.s.BatchStats()
	b.start = b.s.Now()
}

// finish fills the parts of a repetition both SubmitBatch workloads share.
func (b *batchDriver) finish(r *rep, t timing, gen *countingGen) {
	s := b.s
	r.fill(t, s)
	r.segNs = segments(gen.marks, t.end)
	r.delta = b.st.moduleCounts().sub(b.before)
	r.delta.n[cReqs], r.delta.n[cLines], r.delta.n[cBytes] = gen.reqs, gen.lines, gen.bytes
	r.delta.n[cSimTime] = uint64(s.Now() - b.start)
	wins, _ := s.BatchStats()
	r.delta.n[cBatchWindows] = wins - b.wins0
	r.domains = domainDelta(s.SubmitEngineDomainStats(), b.events0)
	r.delta.addEvents(r.domains)
	r.latencies(&b.lat)
	r.delta.n[cFailed] = uint64(r.failed)

	var d digest
	d.add("batch", []any{gen.reqs, gen.bytes, b.start, s.Now(), r.delta.n[cBatchWindows], r.failed})
	d.add("lat", []float64{b.lat.Mean(), r.latP50, r.latP99, r.latP999, b.lat.Max()})
	d.add("domains", r.domains)
	d.addStack(b.st)
	r.digest = d.sum()
}

// windowStream yields a SubmitBatch workload's request vectors.
type windowStream interface {
	// next fills reqs (and bufs, for writes that carry payloads) with the
	// next window and reports whether its read-backs are to be checked.
	next(reqs []workload.Request, bufs [][]byte) (check bool)
	// mismatches counts read-backs in bufs that differ from what was written.
	mismatches(reqs []workload.Request, bufs [][]byte, want []byte) int
}

// genWindows cuts a generator's stream into windows; it carries no payloads.
type genWindows struct {
	gen workload.Generator
	pos int
}

func (g *genWindows) next(reqs []workload.Request, _ [][]byte) bool {
	for k := range reqs {
		reqs[k] = g.gen.Next(g.pos)
		g.pos++
	}
	return false
}

func (g *genWindows) mismatches([]workload.Request, [][]byte, []byte) int { return 0 }

// runBatch is the shape of the two SubmitBatch workloads: batch_randwrite4k
// (randwrite4k_gc's stream, timing only) and batch_rw8k_data (payloads
// carried and every read-back checked).
func runBatch(w *workloadDef, p params) (*rep, error) {
	t0 := startRep()
	s, err := newSystem(w.device())
	if err != nil {
		return nil, err
	}
	b := newBatchDriver(s)
	var stream windowStream
	if w.data {
		if stream, err = newDataStream(s.VolumeBytes(), p.seed); err != nil {
			return nil, err
		}
		b.datas = make([][]byte, batchWindow)
		for k := range b.datas {
			b.datas[k] = make([]byte, dataIO)
		}
	} else {
		_, _, inner, err := w.prepare(s.VolumeBytes(), int64(s.Split.LineBytes()), p.seed)
		if err != nil {
			return nil, err
		}
		stream = &genWindows{gen: inner}
	}
	gen := &countingGen{lineBytes: int64(s.Split.LineBytes())}
	want := make([]byte, dataIO)
	failed := 0
	windows := func(n int) error {
		for done := 0; done < n; done += batchWindow {
			check := stream.next(b.reqs, b.datas)
			for _, r := range b.reqs {
				gen.note(r)
			}
			if err := b.submit(); err != nil {
				return err
			}
			if check {
				failed += stream.mismatches(b.reqs, b.datas, want)
			}
		}
		return nil
	}
	if err := windows(p.warm); err != nil {
		return nil, err
	}
	s.Drain()
	r := &rep{setupS: time.Since(t0).Seconds(), reqs: p.requests}

	gen.start(p.requests)
	failed = 0
	b.begin()
	t, err := timedSection(func() error { return windows(p.requests) })
	if err != nil {
		return nil, err
	}
	r.failed = failed
	b.finish(r, t, gen)
	return r, nil
}

// payload fills buf with the bytes block holds after its version-th write:
// a cheap xorshift stream keyed by both, so a read-back can be checked
// against nothing more than a version number per block.
func payload(buf []byte, block int64, version uint32) {
	x := uint64(block)*0x9e3779b97f4a7c15 ^ uint64(version)<<32 ^ 0xa5a5a5a5
	for i := 0; i+8 <= len(buf); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
}

// dataStream generates batch_rw8k_data's windows: three all-write windows
// then one all-read window over blocks already written, with the shadow
// copy (a version per block) that read-backs are checked against. Windows
// are homogeneous because a vector mixing reads with evicting writes panics
// the simulator (README, Known defects).
type dataStream struct {
	offsets workload.Generator // uniform random dataIO-aligned offsets
	pick    *sim.RNG           // which written block a read targets
	version []uint32           // per block; 0 = never written by the benchmark
	written []int64            // blocks with version > 0, in first-write order
	window  int
}

func newDataStream(vol int64, seed uint64) (*dataStream, error) {
	g, err := workload.NewFIO(workload.RandWrite, dataIO, vol, seed)
	if err != nil {
		return nil, err
	}
	return &dataStream{offsets: g, pick: sim.NewRNG(seed ^ 0xda7a), version: make([]uint32, vol/dataIO)}, nil
}

func (d *dataStream) next(reqs []workload.Request, bufs [][]byte) (read bool) {
	read = d.window%4 == 3
	d.window++
	for k := range reqs {
		if read {
			block := d.written[d.pick.Intn(len(d.written))]
			reqs[k] = workload.Request{Offset: block * dataIO, Length: dataIO}
			continue
		}
		r := d.offsets.Next(0)
		block := r.Offset / dataIO
		if d.version[block] == 0 {
			d.written = append(d.written, block)
		}
		d.version[block]++
		payload(bufs[k], block, d.version[block])
		reqs[k] = r
	}
	return read
}

func (d *dataStream) mismatches(reqs []workload.Request, bufs [][]byte, want []byte) int {
	bad := 0
	for k, r := range reqs {
		block := r.Offset / dataIO
		payload(want, block, d.version[block])
		if !bytes.Equal(bufs[k], want) {
			bad++
		}
	}
	return bad
}

// sweepDepths and sweepPatterns are the Fig. 8 quick sweep's axes.
var (
	sweepDepths   = []int{1, 8, 32}
	sweepPatterns = []workload.Pattern{workload.SeqRead, workload.RandRead, workload.SeqWrite, workload.RandWrite}
)

func depthIndex(depth int) int {
	for i, d := range refdata.Depths {
		if d == depth {
			return i
		}
	}
	panic(fmt.Sprintf("bench: refdata has no depth %d", depth))
}

// runValidateSweep is validate_sweep: for each reference device, build and
// precondition a system, then run 4 patterns x 3 depths of short 4 KiB runs
// and score the bandwidth curves against internal/refdata. Construction and
// preconditioning are inside the timed section on purpose — they are most of
// what a figure suite costs — and are also summed on their own as setup_s.
func runValidateSweep(w *workloadDef, p params) (*rep, error) {
	startRep()
	r := &rep{}
	var total counts
	var setup time.Duration
	var accSum float64
	var accN int
	var dg digest
	var last *core.System
	var marks []time.Time
	t, err := timedSection(func() error {
		for _, name := range refdata.DeviceNames() {
			d, err := config.Device(name)
			if err != nil {
				return err
			}
			// Two segments per device: set-up, then its twelve sweep points.
			t0 := time.Now()
			s, err := newSystem(d)
			if err != nil {
				return err
			}
			t1 := time.Now()
			marks = append(marks, t0, t1)
			setup += t1.Sub(t0)
			last = s
			st := stackOf(s)
			before := st.moduleCounts()
			gen := &countingGen{lineBytes: int64(s.Split.LineBytes())}
			for _, pat := range sweepPatterns {
				ref, err := refdata.Bandwidth(name, pat)
				if err != nil {
					return err
				}
				var refRow, simRow []float64
				for _, depth := range sweepDepths {
					gen.Generator, err = workload.NewFIO(pat, 4096, s.VolumeBytes(), p.seed)
					if err != nil {
						return err
					}
					res, err := s.Run(gen, core.RunConfig{Requests: p.requests, IODepth: depth})
					if err != nil {
						return err
					}
					s.Drain()
					refRow = append(refRow, ref[depthIndex(depth)])
					simRow = append(simRow, res.BandwidthMBps())
					r.failed += res.FailedReads + res.FailedWrites
					total.n[cSimTime] += uint64(res.Elapsed())
					total.addEvents(res.DomainEvents)
					dg.add(name, []any{pat, depth, res.End, res.Events, res.BandwidthMBps(), res.Latency.Mean()})
				}
				acc, err := stats.MeanAccuracy(refRow, simRow)
				if err != nil {
					return err
				}
				accSum += acc
				accN++
			}
			delta := st.moduleCounts().sub(before)
			delta.n[cReqs], delta.n[cLines], delta.n[cBytes] = gen.reqs, gen.lines, gen.bytes
			total = total.add(delta)
			dg.addStack(st)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.fill(t, last)
	r.segNs = segments(marks, t.end)
	r.setupS = setup.Seconds()
	r.reqs = int(total.n[cReqs])
	total.n[cFailed] = uint64(r.failed)
	r.delta = total
	r.accuracy = 100 * accSum / float64(accN)
	dg.add("accuracy", r.accuracy)
	r.digest = dg.sum()
	return r, nil
}

// fio returns a prepare function for a single FIO stream over the volume.
func fio(pat workload.Pattern, bs int) func(vol, lineBytes int64, seed uint64) (workload.Generator, int, workload.Generator, error) {
	return func(vol, _ int64, seed uint64) (workload.Generator, int, workload.Generator, error) {
		g, err := workload.NewFIO(pat, bs, vol, seed)
		return nil, 0, g, err
	}
}

// hotSpan is the byte span hotread4k_cached reads inside: it is pre-read
// line by line so every timed read hits the ICL.
const hotSpan = 256 << 20

func hotRead(vol, lineBytes int64, seed uint64) (workload.Generator, int, workload.Generator, error) {
	span := int64(hotSpan) / lineBytes * lineBytes
	if span > vol {
		span = vol / lineBytes * lineBytes
	}
	pre, err := workload.NewFIO(workload.SeqRead, int(lineBytes), span, seed)
	if err != nil {
		return nil, 0, nil, err
	}
	g, err := workload.NewFIO(workload.RandRead, 4096, span, seed)
	return pre, int(span / lineBytes), g, err
}

func msnfs(vol, _ int64, seed uint64) (workload.Generator, int, workload.Generator, error) {
	g, err := workload.NewTrace(workload.TraceMSNFS, vol, seed)
	return nil, 0, g, err
}

// workloads lists the benchmark's workloads in report order.
var workloads = []*workloadDef{
	{
		name:   "randwrite4k_gc",
		why:    "steady-state GC: 4 KiB random overwrite at QD 32 keeps ftl planning, fil.ExecuteOn and nand program/erase busy",
		perSec: 90e3, warm: 20000, run: runClosedLoop, traced: true,
		device: bench750, prepare: fio(workload.RandWrite, 4096),
	},
	{
		name:   "randread4k_miss",
		why:    "ICL miss path: 4 KiB random reads over the whole volume go ftl lookup, fil staged read, nand read, dma; no programs, no GC",
		perSec: 128e3, warm: 20000, run: runClosedLoop, traced: true,
		device: bench750, prepare: fio(workload.RandRead, 4096),
	},
	{
		name:   "hotread4k_cached",
		why:    "every read hits the ICL, flash idle: only host, hil, icl, dram, cpu, dma, sim and core constants remain; bypasses ftl, fil and nand",
		perSec: 340e3, warm: 0, run: runClosedLoop, traced: true,
		device: bench750, prepare: hotRead,
	},
	{
		name:   "mixed_msnfs",
		why:    "MSNFS trace mix (67 % reads, about 11 KiB, random): reads beside GC-triggering writes and multi-line requests",
		perSec: 66e3, warm: 20000, run: runClosedLoop, traced: true,
		device: bench750, prepare: msnfs,
	},
	{
		name:   "batch_randwrite4k",
		why:    "randwrite4k_gc's stream through SubmitBatch in 64-request vectors: same layers, depth-1 vectored path; the gap isolates core and sim",
		perSec: 92e3, warm: 20000, run: runBatch, traced: true,
		device: bench750, prepare: fio(workload.RandWrite, 4096),
	},
	{
		name:   "batch_rw8k_data",
		why:    "8 KiB random I/O with real payloads through SubmitBatch, every read checked: the only workload that moves bytes end to end",
		perSec: 4.4e3, warm: 1024, run: runBatch, traced: true,
		device: bench750d, data: true,
	},
	{
		name: "validate_sweep",
		why:  "Fig. 8 quick sweep on all reference devices: many short runs where construction and preconditioning dominate; source of model accuracy",
		run:  runValidateSweep,
	},
}

// sweepPointRequests is validate_sweep's request count per (device, pattern,
// depth) point at scale 1, the figure suite's quick setting.
const sweepPointRequests = 600

// sizing returns the request counts of one repetition.
func (w *workloadDef) sizing(seconds float64, reps int, scale float64, seed uint64) params {
	p := params{seed: seed}
	roundUp := func(v float64, to int) int {
		n := int(math.Ceil(v/float64(to))) * to
		if n < to {
			n = to
		}
		return n
	}
	switch {
	case w.perSec == 0:
		p.requests = roundUp(sweepPointRequests*scale, queueDepth)
	case w.data:
		// Whole write-write-write-read cycles.
		p.requests = roundUp(w.perSec*seconds/float64(reps)*scale, 4*batchWindow)
		p.warm = roundUp(float64(w.warm)*scale, 4*batchWindow)
	default:
		p.requests = roundUp(w.perSec*seconds/float64(reps)*scale, batchWindow)
		if w.warm > 0 {
			p.warm = roundUp(float64(w.warm)*scale, batchWindow)
		}
	}
	return p
}
