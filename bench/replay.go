package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"amber/internal/core"
	"amber/internal/cpu"
	"amber/internal/dma"
	"amber/internal/dram"
	"amber/internal/fil"
	"amber/internal/ftl"
	"amber/internal/hil"
	"amber/internal/host"
	"amber/internal/icl"
	"amber/internal/nand"
	"amber/internal/proto"
	"amber/internal/sim"
	"amber/internal/workload"
)

// The traced replay attributes host time to layers without a timer inside
// the program: it builds a second stack from the layers' public
// constructors, with the configurations the untraced system reports, wires
// it the way core.NewSystem does, and plays core's role in its simplest
// serial form (one request at a time, fills installed at once) over the
// identical request stream, taking one span around every call into a layer.
//
// fil's spans contain nand's time, invisible from outside. A twin
// nand.Flash is therefore driven in lockstep with the same physical
// operations, straight from the FTL's plans; that is nand's time, and fil's
// own time is its spans minus it. sim is an engine of the same domains
// dispatching no-op events at the counts the untraced run recorded.
//
// What the replay cannot show is the order QD 32 imposes: fills that land
// while other requests are in flight, coalesced misses, events interleaved
// across requests. core.replay_count_skew and core.replay_coverage say how
// far that matters.

type opID uint8

const (
	opRequest opID = iota
	opWorkloadNext
	opHostSubmit
	opHostComplete
	opCPUExecute
	opHilSplit
	opDmaBuild
	opDmaWalk
	opDmaTransfer
	opIclRead
	opIclWrite
	opIclFill
	opDramAccess
	opFtlLookup
	opFtlWrite
	opFilReadSubs
	opFilExecute
	opFilDrain
	opNandRead
	opNandProgram
	opNandErase
	opNandCommit
	opNandDrain
	nOps
)

// opNames are <layer>.<op>; the layer prefix is what host time sums under.
var opNames = [nOps]string{
	"core.request", "workload.next", "host.submit", "host.complete", "cpu.execute", "hil.split",
	"dma.build", "dma.walk", "dma.transfer", "icl.read", "icl.write", "icl.fill", "dram.access",
	"ftl.lookup", "ftl.write", "fil.readsubs", "fil.execute", "fil.drain",
	"nand.read", "nand.program", "nand.erase", "nand.commit", "nand.drain",
}

// span is one timed call (or, for nand, one run of same-kind calls): times
// are nanoseconds since the trace began, parent the index of the span that
// caused it (-1 for a request's root).
type span struct {
	op         opID
	req        int32
	parent     int32
	start, end int64
}

// tracer keeps spans in memory for the first keepReqs requests and totals
// for all of them.
type tracer struct {
	base     time.Time
	on       bool
	keepReqs int
	req      int32
	root     int32 // index of the current request's root span, -1 when not kept
	spans    []span
	ns       [nOps]int64 // summed span durations
	calls    [nOps]int64 // calls covered
	taken    [nOps]int64 // spans taken
}

func (t *tracer) begin() int64 {
	if !t.on {
		return 0
	}
	return int64(time.Since(t.base))
}

// end closes a span opened by begin that covered calls calls, caused by
// span parent (-1: the current request). It returns the span's index, -1
// when the span was only totalled.
func (t *tracer) end(op opID, start int64, calls int, parent int32) int32 {
	if !t.on {
		return -1
	}
	end := int64(time.Since(t.base))
	t.ns[op] += end - start
	t.calls[op] += int64(calls)
	t.taken[op]++
	if int(t.req) >= t.keepReqs {
		return -1
	}
	if parent < 0 {
		parent = t.root
	}
	t.spans = append(t.spans, span{op: op, req: t.req, parent: parent, start: start, end: end})
	return int32(len(t.spans) - 1)
}

// beginRequest opens request id's root span; endRequest closes it.
func (t *tracer) beginRequest(id int) {
	t.req, t.root = int32(id), -1
	if t.on && id < t.keepReqs {
		t.spans = append(t.spans, span{op: opRequest, req: t.req, parent: -1, start: int64(time.Since(t.base))})
		t.root = int32(len(t.spans) - 1)
	}
}

func (t *tracer) endRequest() {
	if t.root >= 0 {
		t.spans[t.root].end = int64(time.Since(t.base))
	}
}

// spanOverhead measures what one begin/end pair costs and how much of that
// falls inside the recorded duration, so the latter can be taken off every
// total: the layers' calls are tens of nanoseconds, the clock is not free.
func spanOverhead() (perSpan, inside float64) {
	const n = 200000
	t := &tracer{base: time.Now(), on: true}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		st := t.begin()
		t.end(opRequest, st, 1, -1)
	}
	return float64(time.Since(t0).Nanoseconds()) / n, float64(t.ns[opRequest]) / n
}

// writeChrome writes the kept spans as Chrome trace-event JSON (load in
// chrome://tracing or Perfetto). The twin flash's spans go on their own
// track: they run after the fil span that caused them, not inside it.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		name := opNames[s.op]
		layer, _, _ := strings.Cut(name, ".")
		tid := 1
		if layer == "nand" {
			tid = 2
		}
		fmt.Fprintf(w, "\n"+`{"name":%q,"cat":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"req":%d,"parent":%d}}`,
			name, layer, tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.req, s.parent)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayStack is the second stack and the state core.System keeps around
// it: the device clock, the link and flush-buffer resources, the engines
// that carry the flashes' deferred per-channel bookkeeping.
type replayStack struct {
	tr *tracer
	st stack

	params    proto.Params
	dramCap   int64
	hostPage  int
	contigDMA bool
	listKind  dma.ListKind
	cores     int

	split    *hil.Splitter
	link     *sim.Resource
	hba      *sim.Resource
	flushBuf *sim.Pool
	eng      *sim.Engine
	doms     []sim.DomainID
	tw       twin

	now       sim.Time
	lastEnd   int64
	subSize   int
	lineBytes int

	lines     []hil.Line
	locs      []ftl.PageLoc
	fetch     []ftl.PageLoc
	dsts      [][]byte
	missSubs  []int
	readahead []int64
	allSubs   []int
	wbuf      []byte // line-layout staging for one written line
	rbuf      []byte // line-layout staging for one read line
	pbuf      []byte // prefetch line
}

// twin is the second nand.Flash with its own engine.
type twin struct {
	tr     *tracer
	flash  *nand.Flash
	eng    *sim.Engine
	doms   []sim.DomainID
	addrOf func(ftl.PageLoc) nand.Address
	planes int
	page   int  // bytes per page
	track  bool // the flash keeps payload bytes

	// Per-plan scratch, resolved before the timed pass so its spans hold
	// nand calls only.
	addrs      []nand.Address
	planeAddrs []nand.Address
	datas      [][]byte
	tags       []int64
	bufs       [][]byte
	reads      map[fil.SubKey][]byte
	rbuf       []byte
}

func channelDomains(e *sim.Engine, channels int) []sim.DomainID {
	doms := make([]sim.DomainID, channels)
	for ch := range doms {
		doms[ch] = e.Domain(nand.ChannelDomain(ch))
		e.MarkDomainLocal(doms[ch])
	}
	return doms
}

// newReplayStack builds the second stack from the configurations s reports.
// Memory accounting (DRAM.Reserve, Host.Alloc) and the retire hook are left
// out: they move no simulated or host time on a fault-free device.
func newReplayStack(s *core.System, tr *tracer) (*replayStack, error) {
	cfg := s.Config()
	d := cfg.Device
	if d.Passive || d.RAINWidth > 0 || d.Faults.Enabled() {
		return nil, errors.New("the replay covers the active architecture without RAIN or fault injection")
	}
	h, err := host.New(cfg.Host)
	if err != nil {
		return nil, err
	}
	devCPU, err := cpu.New(s.DevCPU.Config(), d.CPUPower)
	if err != nil {
		return nil, err
	}
	devDRAM, err := dram.New(s.DevDRAM.Config(), d.DRAMPower)
	if err != nil {
		return nil, err
	}
	opt := nand.Options{TrackData: d.TrackData, Seed: d.Seed}
	geo, tim := s.Flash.Geometry(), s.Flash.Timing()
	flash, err := nand.New(geo, tim, d.FlashPower, d.Cell, opt)
	if err != nil {
		return nil, err
	}
	twinFlash, err := nand.New(geo, tim, d.FlashPower, d.Cell, opt)
	if err != nil {
		return nil, err
	}
	translator, err := ftl.New(s.FTL.Config())
	if err != nil {
		return nil, err
	}
	f, err := fil.New(flash, translator.Address)
	if err != nil {
		return nil, err
	}
	cache, err := icl.New(s.ICL.Config())
	if err != nil {
		return nil, err
	}
	subSize, subsPerLine := geo.PageSize, geo.TotalPlanes()
	split, err := hil.NewSplitter(subSize, subsPerLine)
	if err != nil {
		return nil, err
	}
	link := sim.NewResource("link." + d.Protocol.Kind.String())
	dmaEng, err := dma.New(dma.Config{
		Link:               link,
		LinkBytesPerSec:    d.Protocol.LinkBytesPerSec,
		HostMem:            h.Mem,
		HostMemBytesPerSec: cfg.Host.MemBandwidth,
		Mode:               cfg.DMAMode,
		HostControllerCopy: d.Protocol.HostControllerCopy,
	})
	if err != nil {
		return nil, err
	}
	if err := f.AcceptCertified(translator); err != nil {
		return nil, err
	}
	translator.SetEpochSource(flash.StateEpoch)

	r := &replayStack{
		tr:        tr,
		st:        stack{icl: cache, ftl: translator, fil: f, flash: flash, dma: dmaEng, dram: devDRAM, cpu: devCPU, host: h},
		params:    d.Protocol,
		dramCap:   d.DRAM.CapacityBytes,
		hostPage:  cfg.HostPageSize,
		contigDMA: cfg.ContiguousDMA,
		cores:     d.CPU.Cores,
		split:     split,
		link:      link,
		flushBuf:  sim.NewPool("flushbuf", subsPerLine),
		eng:       sim.NewEngine(),
		lastEnd:   -1,
		subSize:   subSize,
		lineBytes: split.LineBytes(),
	}
	switch d.Protocol.Kind {
	case proto.SATA:
		r.listKind = dma.PRDT
	case proto.UFS:
		r.listKind = dma.UPIU
	default:
		r.listKind = dma.PRP
	}
	if d.Protocol.HostControllerCopy {
		r.hba = sim.NewResource("hba")
	}
	r.doms = channelDomains(r.eng, geo.Channels)
	te := sim.NewEngine()
	r.tw = twin{
		tr: tr, flash: twinFlash, eng: te, doms: channelDomains(te, geo.Channels),
		addrOf: translator.Address, planes: subsPerLine, page: subSize, track: d.TrackData,
		reads: map[fil.SubKey][]byte{},
	}
	r.allSubs = make([]int, subsPerLine)
	for i := range r.allSubs {
		r.allSubs[i] = i
	}
	if d.TrackData {
		r.wbuf = make([]byte, r.lineBytes)
		r.rbuf = make([]byte, r.lineBytes)
		r.pbuf = make([]byte, r.lineBytes)
		r.tw.rbuf = make([]byte, r.lineBytes)
	}
	return r, nil
}

// coreFor is core.System's module-to-core pinning.
func (r *replayStack) coreFor(module int) int {
	if module >= r.cores {
		return r.cores - 1
	}
	return module
}

// firmware charges mix to module's pinned device core at t.
func (r *replayStack) firmware(t sim.Time, module int, name string, mix cpu.InstrMix) sim.Time {
	st := r.tr.begin()
	_, end := r.st.cpu.Execute(t, r.coreFor(module), name, mix)
	r.tr.end(opCPUExecute, st, 1, -1)
	return end
}

func scaled(m cpu.InstrMix, n int) cpu.InstrMix {
	if n < 1 {
		n = 1
	}
	return m.Scale(uint64(n))
}

func (r *replayStack) cacheMem(t sim.Time, lspn int64, bytes int, write bool) sim.Time {
	if bytes <= 0 {
		return t
	}
	addr := lspn * int64(r.lineBytes) % r.dramCap
	st := r.tr.begin()
	done := r.st.dram.Access(t, addr, bytes, write)
	r.tr.end(opDramAccess, st, 1, -1)
	return done
}

// request pushes one host request through the stack at the device clock and
// advances it to the request's completion.
func (r *replayStack) request(id int, req workload.Request, data []byte) error {
	tr, p := r.tr, r.params
	tr.beginRequest(id)
	defer tr.endRequest()

	sequential := req.Offset == r.lastEnd
	r.lastEnd = req.Offset + int64(req.Length)
	st := tr.begin()
	subEnd := r.st.host.Submit(r.now, sequential, p.SubmitInstr)
	tr.end(opHostSubmit, st, 1, -1)
	t := subEnd + p.DoorbellLatency
	if r.hba != nil {
		_, t = r.hba.Claim(t, p.ControllerLatency)
	}
	_, fetched := r.link.Claim(t, p.CmdFetchTime())
	parsed := r.firmware(fetched+p.ControllerLatency, 0, "hil", p.QueueMix.Add(p.ParseMix))

	st = tr.begin()
	lines, err := r.split.SplitInto(r.lines[:0], req.Offset, req.Length)
	tr.end(opHilSplit, st, 1, -1)
	if err != nil {
		return err
	}
	r.lines = lines
	build := dma.Build
	if r.contigDMA {
		build = dma.BuildContiguous
	}
	st = tr.begin()
	pl, err := build(r.listKind, req.Length, r.hostPage, data)
	tr.end(opDmaBuild, st, 1, -1)
	if err != nil {
		return err
	}
	st = tr.begin()
	walked := r.st.dma.WalkList(parsed, pl)
	tr.end(opDmaWalk, st, 1, -1)

	var opsDone sim.Time
	if req.Write {
		st = tr.begin()
		xferDone := r.st.dma.Transfer(walked, pl, true)
		tr.end(opDmaTransfer, st, 1, -1)
		opsDone = xferDone
		for _, ln := range lines {
			var lineData []byte
			if data != nil {
				lineData = r.wbuf
				copy(lineData[ln.FirstSub*r.subSize:], data[ln.ByteOff:ln.ByteOff+ln.ByteLen])
			}
			done, err := r.writeLine(xferDone, ln, lineData)
			if err != nil {
				return err
			}
			opsDone = sim.MaxOf(opsDone, done)
		}
	} else {
		ready := walked
		for _, ln := range lines {
			var lineBuf []byte
			start := ln.FirstSub * r.subSize
			if data != nil {
				// Unmapped sub-pages read as zeroes, not as the last line's bytes.
				lineBuf = r.rbuf
				clear(lineBuf[start : start+ln.NumSubs*r.subSize])
			}
			done, err := r.readLine(walked, ln, lineBuf)
			if err != nil {
				return err
			}
			if lineBuf != nil {
				copy(data[ln.ByteOff:ln.ByteOff+ln.ByteLen], lineBuf[start:start+ln.ByteLen])
			}
			ready = sim.MaxOf(ready, done)
		}
		st = tr.begin()
		opsDone = r.st.dma.Transfer(ready, pl, false)
		tr.end(opDmaTransfer, st, 1, -1)
	}

	composed := r.firmware(opsDone, 0, "hil.complete", p.CompleteMix)
	_, cqDone := r.link.Claim(composed, p.CompletionTime())
	intr := cqDone + p.InterruptLatency
	if r.hba != nil {
		_, intr = r.hba.Claim(intr, p.ControllerLatency/2)
	}
	st = tr.begin()
	complete := r.st.host.Complete(intr, p.CompleteInstr)
	tr.end(opHostComplete, st, 1, -1)
	r.now = sim.MaxOf(r.now, complete)
	return nil
}

// writeLine is core's writeLine: write-back into the ICL, flush the victim
// if dirty, wait only for a flush-buffer slot.
func (r *replayStack) writeLine(t sim.Time, ln hil.Line, lineData []byte) (sim.Time, error) {
	t2 := r.firmware(t, 1, "icl", cpu.MixICLInsert)
	st := r.tr.begin()
	ev, err := r.st.icl.Write(ln.LSPN, ln.FirstSub, ln.NumSubs, lineData)
	r.tr.end(opIclWrite, st, 1, -1)
	if err != nil {
		return 0, err
	}
	dramDone := r.cacheMem(t2, ln.LSPN, ln.ByteLen, true)
	slotFree := t2
	if ev != nil && ev.IsDirty() {
		flushDone, err := r.flush(t2, ev)
		if err != nil {
			return 0, err
		}
		var dur sim.Duration
		if flushDone > t2 {
			dur = flushDone - t2
		}
		slotFree, _, _ = r.flushBuf.Claim(t2, dur)
	}
	return sim.MaxOf(dramDone, slotFree), nil
}

// flush is core's flushEviction: FTL plan, FIL execution, and the same plan
// on the twin flash.
func (r *replayStack) flush(t sim.Time, ev *icl.Eviction) (sim.Time, error) {
	t2 := r.firmware(t, 1, "ftl", cpu.MixFTLTranslate)
	st := r.tr.begin()
	plan, err := r.st.ftl.Write(t2, ev.LSPN, ev.Dirty)
	r.tr.end(opFtlWrite, st, 1, -1)
	if err != nil {
		return 0, err
	}
	if plan.GCRuns > 0 {
		t2 = r.firmware(t2, 1, "ftl.gc", scaled(cpu.MixFTLGCPerPage, plan.Migrated))
	}
	nWrites := 0
	for _, op := range plan.Ops {
		if op.Kind == ftl.OpWrite {
			nWrites++
		}
	}
	t3 := r.firmware(t2, 2, "fil", scaled(cpu.MixFILSchedule, nWrites))
	hostData := fil.HostData(ev.LSPN, ev.Dirty, ev.Data, r.subSize)
	st = r.tr.begin()
	res, err := r.st.fil.ExecuteOn(r.eng, r.doms, t3, plan, hostData)
	parent := r.tr.end(opFilExecute, st, 1, -1)
	if err != nil {
		return 0, err
	}
	if err := r.tw.execute(t3, plan, hostData, parent); err != nil {
		return 0, fmt.Errorf("twin flash: %w", err)
	}
	if res.HostWritesDone > 0 {
		return res.HostWritesDone, nil
	}
	return res.Done, nil
}

// readLine is core's readLineAsync with the fill installed at once.
func (r *replayStack) readLine(t sim.Time, ln hil.Line, lineBuf []byte) (sim.Time, error) {
	t2 := r.firmware(t, 1, "icl", cpu.MixICLLookup)
	st := r.tr.begin()
	res, err := r.st.icl.Read(ln.LSPN, ln.FirstSub, ln.NumSubs, lineBuf)
	r.tr.end(opIclRead, st, 1, -1)
	if err != nil {
		return 0, err
	}
	ready := t2
	if n := len(res.HitSubs); n > 0 {
		ready = sim.MaxOf(ready, r.cacheMem(t2, ln.LSPN, n*r.subSize, false))
	}
	// The result aliases the cache's scratch; fills below probe it again.
	r.missSubs = append(r.missSubs[:0], res.MissSubs...)
	r.readahead = append(r.readahead[:0], res.Readahead...)
	for _, pre := range r.readahead {
		if pre >= r.st.ftl.UserSuperPages() || !r.st.ftl.Mapped(pre) {
			continue
		}
		if _, err := r.fill(t, pre, r.allSubs, r.pbuf, true); err != nil {
			return 0, err
		}
	}
	if len(r.missSubs) == 0 {
		return ready, nil
	}
	done, err := r.fill(t2, ln.LSPN, r.missSubs, lineBuf, false)
	return sim.MaxOf(ready, done), err
}

// fill is core's startFill followed at once by fillOp.done.
func (r *replayStack) fill(t sim.Time, lspn int64, subs []int, lineBuf []byte, prefetch bool) (sim.Time, error) {
	t2 := r.firmware(t, 1, "ftl", cpu.MixFTLTranslate)
	st := r.tr.begin()
	locs, cert, err := r.st.ftl.LookupCertified(r.locs[:0], lspn)
	r.tr.end(opFtlLookup, st, 1, -1)
	if err != nil {
		return 0, err
	}
	r.locs = locs[:0]
	fetch := r.fetch[:0]
	for _, loc := range locs {
		for _, sub := range subs {
			if loc.Sub == sub {
				fetch = append(fetch, loc)
				break
			}
		}
	}
	r.fetch = fetch[:0]
	flashDone := t2
	if len(fetch) > 0 {
		t3 := r.firmware(t2, 2, "fil", scaled(cpu.MixFILSchedule, len(fetch)))
		var dsts [][]byte
		if lineBuf != nil {
			dsts = r.dsts[:0]
			for _, loc := range fetch {
				dsts = append(dsts, lineBuf[loc.Sub*r.subSize:(loc.Sub+1)*r.subSize])
			}
			r.dsts = dsts[:0]
		}
		st = r.tr.begin()
		flashDone, err = r.st.fil.ReadSubsStaged(r.eng, r.doms, t3, fetch, dsts, cert)
		parent := r.tr.end(opFilReadSubs, st, 1, -1)
		if err != nil {
			return 0, err
		}
		r.tw.readSubs(t3, fetch, lineBuf != nil, parent)
	}
	st = r.tr.begin()
	ev, err := r.st.icl.Fill(lspn, subs, lineBuf, prefetch)
	r.tr.end(opIclFill, st, 1, -1)
	if err != nil {
		return 0, err
	}
	ready := r.cacheMem(flashDone, lspn, len(subs)*r.subSize, true)
	if ev != nil && ev.IsDirty() {
		flushDone, err := r.flush(flashDone, ev)
		if err != nil {
			return 0, err
		}
		ready = sim.MaxOf(ready, flushDone)
	}
	return ready, nil
}

// drain dispatches the deferred per-channel bookkeeping both flashes
// accumulated and rewinds their engines, as core's drainWindow does.
func (r *replayStack) drain() {
	st := r.tr.begin()
	r.eng.Run()
	r.tr.end(opFilDrain, st, 0, -1)
	r.eng.Reset()
	r.st.flash.PruneEraseUndo(r.now)
	st = r.tr.begin()
	r.tw.eng.Run()
	r.tr.end(opNandDrain, st, 0, -1)
	r.tw.eng.Reset()
	r.tw.flash.PruneEraseUndo(r.now)
}

// readSubs issues fil.ReadSubsStaged's certified reads on the twin.
func (tw *twin) readSubs(t sim.Time, fetch []ftl.PageLoc, withData bool, parent int32) {
	tw.addrs = tw.addrs[:0]
	for _, loc := range fetch {
		tw.addrs = append(tw.addrs, tw.addrOf(loc))
	}
	st := tw.tr.begin()
	for i, addr := range tw.addrs {
		var dst []byte
		if withData {
			sub := fetch[i].Sub
			dst = tw.rbuf[sub*tw.page : (sub+1)*tw.page]
		}
		tw.flash.ReadDeferredEagerTrusted(tw.eng, tw.doms[addr.Channel], t, addr, dst)
	}
	tw.tr.end(opNandRead, st, len(tw.addrs), parent)
}

// execute issues a certified plan's physical operations on the twin the way
// fil.ExecuteOn issues them on the first flash: trusted reads and programs,
// a probed erase per plane, one commit. Dependencies are kept in their
// simplest safe form (a program waits for every earlier read of the plan, an
// erase for everything before it); only the claims' arithmetic depends on
// the start times, not the work done.
func (tw *twin) execute(t sim.Time, plan ftl.Plan, hostData fil.PlanData, parent int32) error {
	tw.addrs, tw.datas, tw.tags = tw.addrs[:0], tw.datas[:0], tw.tags[:0]
	clear(tw.reads)
	nbuf := 0
	for _, op := range plan.Ops {
		var data []byte
		var tag int64
		switch op.Kind {
		case ftl.OpRead:
			if tw.track {
				if nbuf == len(tw.bufs) {
					tw.bufs = append(tw.bufs, make([]byte, tw.page))
				}
				data = tw.bufs[nbuf]
				nbuf++
				tw.reads[fil.Key(op.LSPN, op.Loc.Sub)] = data
			}
			tw.addrs = append(tw.addrs, tw.addrOf(op.Loc))
		case ftl.OpWrite:
			k := fil.Key(op.LSPN, op.Loc.Sub)
			data, _ = hostData.Bytes(k)
			if data == nil {
				data = tw.reads[k]
			}
			tag = op.LSPN*int64(tw.planes) + int64(op.Loc.Sub)
			tw.addrs = append(tw.addrs, tw.addrOf(op.Loc))
		case ftl.OpErase:
			// One slot per op keeps the scratch slices index-aligned; the
			// per-plane addresses are resolved when the erase is issued.
			tw.addrs = append(tw.addrs, nand.Address{})
		default:
			return fmt.Errorf("unknown plan op kind %d", op.Kind)
		}
		tw.datas = append(tw.datas, data)
		tw.tags = append(tw.tags, tag)
	}

	batch := tw.flash.BeginPlan(tw.eng, tw.doms)
	readsDone, allDone := t, t
	for i := 0; i < len(plan.Ops); {
		kind := plan.Ops[i].Kind
		j := i
		for j < len(plan.Ops) && plan.Ops[j].Kind == kind && kind != ftl.OpErase {
			j++
		}
		switch kind {
		case ftl.OpRead:
			st := tw.tr.begin()
			for k := i; k < j; k++ {
				res, err := batch.ReadTrusted(t, tw.addrs[k], tw.datas[k])
				if err != nil {
					batch.Abort()
					return err
				}
				readsDone = sim.MaxOf(readsDone, res.Done)
			}
			tw.tr.end(opNandRead, st, j-i, parent)
			allDone = sim.MaxOf(allDone, readsDone)
		case ftl.OpWrite:
			st := tw.tr.begin()
			for k := i; k < j; k++ {
				res, err := batch.ProgramTaggedTrusted(readsDone, tw.addrs[k], tw.datas[k], tw.tags[k])
				if err != nil {
					batch.Abort()
					return err
				}
				allDone = sim.MaxOf(allDone, res.Done)
			}
			tw.tr.end(opNandProgram, st, j-i, parent)
		case ftl.OpErase:
			j = i + 1
			sb := plan.Ops[i].SB
			planeAddrs := tw.planeAddrs[:0]
			for plane := 0; plane < tw.planes; plane++ {
				planeAddrs = append(planeAddrs, tw.addrOf(ftl.PageLoc{SB: sb, Plane: plane, Sub: plane}))
			}
			tw.planeAddrs = planeAddrs
			st := tw.tr.begin()
			for _, addr := range planeAddrs {
				if err := tw.flash.ProbeErase(addr); err != nil {
					batch.Abort()
					return err
				}
			}
			start := allDone
			for _, addr := range planeAddrs {
				res, err := batch.Erase(start, addr)
				if err != nil {
					batch.Abort()
					return err
				}
				allDone = sim.MaxOf(allDone, res.Done)
			}
			tw.tr.end(opNandErase, st, len(planeAddrs), parent)
		}
		i = j
	}
	st := tw.tr.begin()
	batch.Commit()
	tw.tr.end(opNandCommit, st, 0, parent)
	return nil
}

// precondition is core.System.Precondition on the replay stack: the whole
// volume written once, line by line, then flushed and drained.
func (r *replayStack) precondition() error {
	vol := r.st.ftl.UserSuperPages() * int64(r.lineBytes)
	n := 0
	for off := int64(0); off < vol; off += int64(r.lineBytes) {
		if err := r.request(n, workload.Request{Write: true, Offset: off, Length: r.lineBytes}, nil); err != nil {
			return err
		}
		if n++; n%batchWindow == 0 {
			r.drain()
		}
	}
	for _, ev := range r.st.icl.FlushAll() {
		ev := ev
		if _, err := r.flush(r.now, &ev); err != nil {
			return err
		}
	}
	r.drain()
	r.now = sim.MaxOf(r.now, r.st.flash.FreeAt())
	return nil
}

// run plays n requests of gen through the stack, draining once per
// batchWindow requests, and returns the index after the last.
func (r *replayStack) run(gen workload.Generator, first, n int) error {
	for i := first; i < first+n; i++ {
		st := r.tr.begin()
		req := gen.Next(i)
		r.tr.end(opWorkloadNext, st, 1, -1)
		if err := r.request(i, req, nil); err != nil {
			return err
		}
		if (i+1)%batchWindow == 0 {
			r.drain()
		}
	}
	r.drain()
	return nil
}

// runData plays n requests of the data workload's stream: window
// generation, the requests, and the read-back check, which is counted as the
// workload's time.
func (r *replayStack) runData(ds *dataStream, first, n int) (mismatches int, err error) {
	reqs := make([]workload.Request, batchWindow)
	bufs := make([][]byte, batchWindow)
	for k := range bufs {
		bufs[k] = make([]byte, dataIO)
	}
	want := make([]byte, dataIO)
	for done := 0; done < n; done += batchWindow {
		st := r.tr.begin()
		read := ds.next(reqs, bufs)
		r.tr.end(opWorkloadNext, st, batchWindow, -1)
		for k, req := range reqs {
			if err := r.request(first+done+k, req, bufs[k]); err != nil {
				return 0, err
			}
		}
		r.drain()
		if read {
			st := r.tr.begin()
			mismatches += ds.mismatches(reqs, bufs, want)
			r.tr.end(opWorkloadNext, st, 0, -1)
		}
	}
	return mismatches, nil
}

// simNoop measures the engine alone: an engine with the untraced run's
// domains dispatching no-op events in the untraced run's per-domain
// proportions, a few requests' worth pending at a time as at QD 32.
func simNoop(domains []sim.DomainStat, reqs int) (nsPerEvent float64) {
	var total uint64
	for _, d := range domains {
		total += d.Dispatched
	}
	if total == 0 || reqs == 0 {
		return 0
	}
	e := sim.NewEngine()
	const windowReqs = 8
	var pattern []sim.DomainID
	for _, d := range domains {
		id := e.Domain(d.Name)
		for k := uint64(0); k < (d.Dispatched*windowReqs+uint64(reqs)/2)/uint64(reqs); k++ {
			pattern = append(pattern, id)
		}
	}
	if len(pattern) == 0 {
		return 0
	}
	// Interleave the domains the way concurrent requests do.
	for i := range pattern {
		j := (i * 7919) % len(pattern)
		pattern[i], pattern[j] = pattern[j], pattern[i]
	}
	noop := func() {}
	windows := max(int(total)/len(pattern), 1)
	best := 0.0
	for pass := 0; pass < replayPasses; pass++ {
		before := e.Dispatched()
		t0 := time.Now()
		for w := 0; w < windows; w++ {
			for k, id := range pattern {
				e.ScheduleIn(id, sim.Duration(k+1), noop)
			}
			e.Run()
		}
		ns := float64(time.Since(t0).Nanoseconds()) / float64(e.Dispatched()-before)
		if pass == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// skewCounters are the work counts compared between the replay's stack and
// the untraced run.
var skewCounters = []int{
	cIclEvictions, cIclDirtyEvictions, cFtlHostSubs, cFtlFlashSubs, cFtlGCRuns,
	cFilReads, cFilPrograms, cFilErases, cFilPlans,
	cNandReads, cNandPrograms, cNandErases, cDmaDescriptors, cDramReads, cDramWrites,
}

// replayPasses is how many times the traced pass is repeated, each on a
// freshly built second stack. Every pass does identical work, so each
// operation's total is taken from the pass where it was fastest, for the
// reason host_ns_per_req takes segments at their fastest repetition.
const replayPasses = 3

// passResult is what one traced pass measured.
type passResult struct {
	tr         *tracer
	delta      counts // the replay stack's work counts over the traced requests
	twinEvents uint64
	mismatches int
	disarms    uint64
}

// replayPass builds a second stack after s, sets it up the way the
// repetition was set up, and plays the measured requests with tracing on.
func replayPass(w *workloadDef, p params, s *core.System, keepReqs int) (*passResult, error) {
	tr := &tracer{keepReqs: keepReqs, root: -1, spans: make([]span, 0, keepReqs*16)}
	r, err := newReplayStack(s, tr)
	if err != nil {
		return nil, err
	}
	if err := r.precondition(); err != nil {
		return nil, fmt.Errorf("precondition: %w", err)
	}
	var gen workload.Generator
	var ds *dataStream
	if w.data {
		if ds, err = newDataStream(s.VolumeBytes(), p.seed); err != nil {
			return nil, err
		}
		if _, err := r.runData(ds, 0, p.warm); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	} else {
		prefill, prefillN, g, err := w.prepare(s.VolumeBytes(), int64(r.lineBytes), p.seed)
		if err != nil {
			return nil, err
		}
		gen = g
		if prefill != nil {
			if err := r.run(prefill, 0, prefillN); err != nil {
				return nil, fmt.Errorf("pre-fill: %w", err)
			}
		}
		if err := r.run(gen, 0, p.warm); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	r.now = sim.MaxOf(r.now, r.st.flash.FreeAt())

	res := &passResult{tr: tr}
	before := r.st.moduleCounts()
	twinEvents0 := r.tw.eng.Dispatched()
	runtime.GC() // as timedSection does for the run this explains
	tr.base, tr.on = time.Now(), true
	if w.data {
		res.mismatches, err = r.runData(ds, 0, p.requests)
	} else {
		err = r.run(gen, 0, p.requests)
	}
	tr.on = false
	if err != nil {
		return nil, err
	}
	res.delta = r.st.moduleCounts().sub(before)
	res.twinEvents = r.tw.eng.Dispatched() - twinEvents0
	res.disarms = r.st.fil.Stats().CertDisarms
	return res, nil
}

// replay runs w's traced replay against the repetition last and returns the
// host-time per-layer metrics. hostNs is the untraced host_ns_per_req the
// layers are summed against. ok is false when the replay's own checks
// failed (payload mismatches, a disarmed certified chain).
func replay(w *workloadDef, p params, last *rep, hostNs float64, outDir string) (map[string]float64, bool, error) {
	var first *passResult
	var ns [nOps]int64
	for pass := 0; pass < replayPasses; pass++ {
		keep := 0
		if pass == 0 {
			keep = min(p.requests, 20000)
		}
		res, err := replayPass(w, p, last.sys, keep)
		if err != nil {
			return nil, false, err
		}
		if pass == 0 {
			first, ns = res, res.tr.ns
			if err := res.tr.writeChrome(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
				return nil, false, err
			}
			res.tr.spans = nil
			continue
		}
		if res.tr.calls != first.tr.calls || res.delta != first.delta {
			return nil, false, errors.New("two replay passes did different work")
		}
		for op := range ns {
			ns[op] = min(ns[op], res.tr.ns[op])
		}
	}
	tr, delta, twinEvents := first.tr, first.delta, first.twinEvents

	perSpan, inside := spanOverhead()
	nsPerEvent := simNoop(last.domains, last.reqs)
	reqs := float64(p.requests)
	// Layer totals, each span's share of the clock's own cost taken off.
	layerNs := map[string]float64{}
	opNs := func(op opID) float64 {
		v := float64(ns[op]) - inside*float64(tr.taken[op])
		if v < 0 {
			v = 0
		}
		return v
	}
	for op := opID(1); op < nOps; op++ {
		layer, _, _ := strings.Cut(opNames[op], ".")
		layerNs[layer] += opNs(op)
	}
	// The twin's time is nand's; the engine's share of its drains is sim's
	// (counted below for every event of the untraced run); fil keeps what
	// its spans hold beyond that.
	nandRaw := layerNs["nand"]
	layerNs["fil"] -= nandRaw
	if layerNs["fil"] < 0 {
		layerNs["fil"] = 0
	}
	layerNs["nand"] = nandRaw - nsPerEvent*float64(twinEvents)
	if layerNs["nand"] < 0 {
		layerNs["nand"] = 0
	}
	eventsPerReq := ratio(float64(last.delta.n[cEvents]), float64(last.delta.n[cReqs]))
	layerNs["sim"] = nsPerEvent * eventsPerReq * reqs

	m := map[string]float64{
		"sim.host_ns_per_event":           nsPerEvent,
		"core.trace_overhead_ns_per_span": perSpan,
	}
	var sum float64
	for _, layer := range []string{"hil", "icl", "ftl", "fil", "nand", "dma", "dram", "cpu", "host", "sim", "workload"} {
		v := layerNs[layer] / reqs
		m[layer+".host_ns_per_req"] = v
		sum += v
	}
	perCall := func(op opID) float64 { return ratio(opNs(op), float64(tr.calls[op])) }
	m["icl.read_ns_per_call"] = perCall(opIclRead)
	m["icl.write_ns_per_call"] = perCall(opIclWrite)
	m["icl.fill_ns_per_call"] = perCall(opIclFill)
	m["ftl.write_ns_per_call"] = perCall(opFtlWrite)
	m["ftl.lookup_ns_per_call"] = perCall(opFtlLookup)
	m["fil.execute_ns_per_call"] = perCall(opFilExecute)
	m["fil.readsubs_ns_per_call"] = perCall(opFilReadSubs)
	m["nand.read_ns_per_call"] = perCall(opNandRead)
	m["nand.program_ns_per_call"] = perCall(opNandProgram)
	m["nand.erase_ns_per_call"] = perCall(opNandErase)
	m["core.self_ns_per_req"] = hostNs - sum
	m["core.replay_coverage"] = ratio(sum, hostNs)

	var skew float64
	for _, c := range skewCounters {
		want := float64(last.delta.n[c])
		got := float64(delta.n[c])
		base := want
		if base < 1 {
			base = 1
		}
		d := (got - want) / base
		if d < 0 {
			d = -d
		}
		if d > skew {
			skew = d
		}
	}
	m["core.replay_count_skew"] = skew

	ok := true
	if first.mismatches > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: replay read back %d wrong payloads\n", w.name, first.mismatches)
		ok = false
	}
	if first.disarms > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: replay's ftl-fil-nand chain disarmed %d times\n", w.name, first.disarms)
		ok = false
	}
	return m, ok, nil
}
