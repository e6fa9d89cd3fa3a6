package core

import (
	"errors"
	"fmt"

	"amber/internal/dma"
	"amber/internal/fil"
	"amber/internal/ftl"
	"amber/internal/hil"
	"amber/internal/sim"
	"amber/internal/workload"
)

// The submit path is staged on pooled op structs rather than per-request
// closures: a submitOp carries one host request through the pipeline and a
// fillOp carries one flash fetch to its cache install. Both are recycled
// through per-System free lists with their step callbacks bound once, so a
// steady-state request schedules engine events without allocating.

// maxFaultRetries bounds how many consecutive injected flash faults one
// eviction absorbs before giving up: each retry retires a block and
// re-plans, so the bound only trips under a fault storm (at which point
// the FTL has usually latched read-only anyway).
const maxFaultRetries = 8

// submitOp pipeline stages. The last two are the passive (OCSSD/pblk)
// architecture's: its cache and FTL run on the host, so a request is served
// host-side and only misses and flushes cross the link, as vector commands
// charged inside startFill / flushEviction.
const (
	opDispatch   = iota // after queue/parse firmware: start DMA + line ops
	opWriteOps          // write payload transferred: run the line writes
	opReadDMA           // all lines staged in cache: move payload to host
	opFinish            // completion firmware, CQ/interrupt, host ISR
	opHostServe         // passive: kernel submission done, run the line ops
	opHostFinish        // passive: host-side completion
)

// submitOp is one in-flight host request.
type submitOp struct {
	s    *System
	e    *sim.Engine
	doms *engineDomains
	req  workload.Request
	data []byte
	cb   func(sim.Time, error)

	lines []hil.Line // owned buffer, reused across op lifetimes
	pl    dma.PointerList

	stage   int
	pending int      // outstanding line reads
	ready   sim.Time // latest line-ready time (reads)
	failed  bool

	stepFn func()                // op.step, bound once
	lineFn func(sim.Time, error) // op.lineDone, bound once
}

func (s *System) acquireOp(e *sim.Engine, req workload.Request, data []byte, cb func(sim.Time, error)) *submitOp {
	var op *submitOp
	if n := len(s.opFree); n > 0 {
		op = s.opFree[n-1]
		s.opFree = s.opFree[:n-1]
	} else {
		op = &submitOp{s: s}
		op.stepFn = op.step
		op.lineFn = op.lineDone
	}
	op.e, op.req, op.data, op.cb = e, req, data, cb
	op.doms = s.domainsFor(e)
	op.pending, op.ready, op.failed = 0, 0, false
	return op
}

func (s *System) releaseOp(op *submitOp) {
	op.e, op.doms, op.data, op.cb = nil, nil, nil, nil
	op.pl = dma.PointerList{}
	s.opFree = append(s.opFree, op)
}

// fail reports a pipeline error and retires the op. Only valid on stages
// with no outstanding line callbacks (writes and the final stages).
func (op *submitOp) fail(err error) {
	cb := op.cb
	op.s.releaseOp(op)
	cb(0, err)
}

// step advances the op through its pipeline stages. Each engine event the
// original closure-per-stage implementation scheduled maps to exactly one
// step invocation, so resource claims keep their global time order.
func (op *submitOp) step() {
	s, e := op.s, op.e
	switch op.stage {
	case opDispatch:
		// Parse finished: fetch the pointer list, then move data. Writes
		// transfer the payload into the device before the line writes;
		// reads probe the cache per line first.
		now := e.Now()
		walked := s.DMA.WalkList(now, op.pl)
		if op.req.Write {
			// The write-ops stage flushes evictions into flash; it rides the
			// icl domain.
			xferDone := s.DMA.Transfer(walked, op.pl, true)
			op.stage = opWriteOps
			e.AtIn(op.doms.icl, xferDone, op.stepFn)
			return
		}
		op.readLines(walked)

	case opWriteOps:
		op.writeLines(opFinish)

	case opReadDMA:
		// All lines staged in cache memory: move the payload to the host.
		xferDone := s.DMA.Transfer(e.Now(), op.pl, false)
		s.bytesRead += uint64(op.req.Length)
		op.stage = opFinish
		e.AtIn(op.doms.host, sim.MaxOf(xferDone, e.Now()), op.stepFn)

	case opFinish:
		op.complete(s.completeRequest(e.Now()))

	case opHostServe:
		if op.req.Write {
			op.writeLines(opHostFinish)
			return
		}
		op.readLines(e.Now())

	case opHostFinish:
		// Its own event so the host-CPU claim happens in global time order,
		// not call order.
		op.complete(s.retire(s.Host.Complete(e.Now(), s.params.CompleteInstr/2)))
	}
}

// writeLines runs the request's line writes inside the current event and
// schedules the completion stage next when the last one's data is in cache.
func (op *submitOp) writeLines(next int) {
	s, e := op.s, op.e
	opsDone := e.Now()
	for i := range op.lines {
		ln := op.lines[i]
		done, err := s.writeLine(e, e.Now(), ln, linePayload(ln, op.data))
		if err != nil {
			op.fail(err)
			return
		}
		if done > opsDone {
			opsDone = done
		}
	}
	s.bytesWritten += uint64(op.req.Length)
	op.stage = next
	e.AtIn(op.doms.host, opsDone, op.stepFn)
}

// readLines probes the cache per line; lineDone collects them. floor is the
// earliest the payload may move on.
func (op *submitOp) readLines(floor sim.Time) {
	op.pending = len(op.lines)
	op.ready = floor
	for i := range op.lines {
		ln := op.lines[i]
		op.s.readLineAsync(op.e, ln, linePayload(ln, op.data), op.lineFn)
	}
}

// complete retires the op and reports the request's completion time.
func (op *submitOp) complete(t sim.Time) {
	cb := op.cb
	op.s.releaseOp(op)
	cb(t, nil)
}

// lineDone collects one line read. When the last line lands, the next stage
// is scheduled at the latest line-ready time: the payload DMA, or for a
// passive request — whose payload is in host memory already — the completion.
func (op *submitOp) lineDone(t sim.Time, err error) {
	if err != nil && !op.failed {
		op.failed = true
		op.cb(0, err)
	}
	if t > op.ready {
		op.ready = t
	}
	op.pending--
	if op.pending > 0 {
		return
	}
	if op.failed {
		// The error was already reported; retire the op once the last
		// outstanding line callback has drained.
		op.s.releaseOp(op)
		return
	}
	at := sim.MaxOf(op.ready, op.e.Now())
	if op.s.passive {
		op.s.bytesRead += uint64(op.req.Length)
		op.stage = opHostFinish
		op.e.AtIn(op.doms.host, at, op.stepFn)
		return
	}
	op.stage = opReadDMA
	op.e.AtIn(op.doms.dma, at, op.stepFn)
}

// SubmitAsync pushes one host request through the full stack, staged on
// the discrete-event engine so that concurrent requests interleave their
// resource claims in global time order (the property that makes queue
// depth buy bandwidth, exactly as on real hardware). The callback fires
// with the request's completion time.
//
// The path mirrors §III-B/§IV: kernel submission (scheduler + driver) on a
// host core → doorbell/register write → command fetch over the link →
// device-side queue and parse firmware → HIL split into super-page lines →
// ICL/FTL/FIL per line → DMA data transfer emulation → completion record,
// interrupt and host ISR. Claims made inside one engine event start at
// that event's time; each stage boundary (parse done, flash done, data
// staged) is its own event.
//
// data optionally carries the request payload (writes) or receives it
// (reads) when the system tracks data; it must remain valid until the
// callback fires.
func (s *System) SubmitAsync(e *sim.Engine, req workload.Request, data []byte, cb func(sim.Time, error)) {
	if err := s.admit(req, data); err != nil {
		cb(0, err)
		return
	}
	op := s.acquireOp(e, req, data, cb)
	if s.passive {
		// Passive storage (§V-E): the kernel submission runs, then pblk
		// serves the request from its host-side cache.
		subEnd := s.hostSubmit(e.Now(), req)
		var err error
		if op.lines, err = s.Split.SplitInto(op.lines[:0], req.Offset, req.Length); err != nil {
			op.fail(err)
			return
		}
		op.stage = opHostServe
		e.AtIn(op.doms.host, subEnd, op.stepFn)
		return
	}
	parsed, err := s.submitStage1(e.Now(), req, data, &op.lines, &op.pl)
	if err != nil {
		op.fail(err)
		return
	}
	op.stage = opDispatch
	e.AtIn(op.doms.cpu, parsed, op.stepFn)
}

// admit is the admission check every submit path runs before it claims or
// mutates anything: the request lies inside the volume, its buffer covers
// it, and a write finds the device writable.
func (s *System) admit(req workload.Request, data []byte) error {
	if req.Length <= 0 || req.Offset < 0 || req.Offset+int64(req.Length) > s.VolumeBytes() {
		return fmt.Errorf("core: request [%d,+%d) outside volume of %d bytes",
			req.Offset, req.Length, s.VolumeBytes())
	}
	if data != nil && len(data) < req.Length {
		return fmt.Errorf("core: data buffer shorter than request")
	}
	if s.FTL.ReadOnly() {
		if req.Write {
			// Grown bad blocks exhausted the spare reserve: the device
			// degrades to read-only instead of risking further data.
			// Reads still serve.
			return fmt.Errorf("core: write of [%d,+%d) refused: %w",
				req.Offset, req.Length, ftl.ErrReadOnly)
		}
		// Reads on a read-only device must not evict dirty lines (their
		// write-back can never succeed); pin them and recycle clean frames.
		s.ICL.SetPreferCleanVictims(true)
	}
	return nil
}

// hostSubmit charges the kernel submission path (block layer + I/O
// scheduler + driver) of a request issued at now and returns its end.
func (s *System) hostSubmit(now sim.Time, req workload.Request) sim.Time {
	sequential := req.Offset == s.lastEnd
	s.lastEnd = req.Offset + int64(req.Length)
	return s.Host.Submit(now, sequential, s.params.SubmitInstr)
}

// submitStage1 is the active architecture's stage 1, shared by the evented
// and the inline path so their claims cannot drift apart: kernel submission,
// doorbell, command fetch over the link, device-side queue/parse firmware —
// claimed in that order from now — then the HIL split into *lines (reused)
// and the request's pointer list into *pl. It returns when parsing ends.
func (s *System) submitStage1(now sim.Time, req workload.Request, data []byte, lines *[]hil.Line, pl *dma.PointerList) (parsed sim.Time, err error) {
	t := s.hostSubmit(now, req) + s.params.DoorbellLatency
	if s.hba != nil {
		// The h-type host controller serializes command issue.
		_, t = s.hba.Claim(t, s.params.ControllerLatency)
	}
	_, fetched := s.link.Claim(t, s.fw.cmdFetch)
	parsed = s.fw.hil.run(fetched + s.params.ControllerLatency)

	if *lines, err = s.Split.SplitInto((*lines)[:0], req.Offset, req.Length); err != nil {
		return 0, err
	}
	build := dma.Build
	if s.cfg.ContiguousDMA {
		build = dma.BuildContiguous
	}
	*pl, err = build(s.listKind(), req.Length, s.cfg.HostPageSize, data)
	return parsed, err
}

// completeRequest is the active architecture's completion path, shared like
// submitStage1: firmware composes the CQ entry / response FIS at t, the link
// carries it, the interrupt fires, the host ISR retires the request. It
// returns the completion time, having advanced the system clock to it.
func (s *System) completeRequest(t sim.Time) sim.Time {
	composed := s.fw.hilComplete.run(t)
	_, cqDone := s.link.Claim(composed, s.fw.completion)
	intr := cqDone + s.params.InterruptLatency
	if s.hba != nil {
		// The single h-type I/O path serializes completions too (§II-A).
		_, intr = s.hba.Claim(intr, s.params.ControllerLatency/2)
	}
	return s.retire(s.Host.Complete(intr, s.params.CompleteInstr))
}

// retire counts one finished request and advances the system clock to its
// completion.
func (s *System) retire(complete sim.Time) sim.Time {
	s.reqs++
	if complete > s.now {
		s.now = complete
	}
	return complete
}

// Submit is the synchronous convenience wrapper around SubmitAsync for a
// single request: it runs a private event engine to completion and returns
// the completion time. The engine and its dispatch closures are reused
// across calls, so a submit-per-call workload does not allocate them anew.
func (s *System) Submit(now sim.Time, req workload.Request, data []byte) (sim.Time, error) {
	if now < s.now {
		now = s.now
	}
	e := s.submitEngine()
	e.Reset()
	s.subReq, s.subData = req, data
	s.subDone, s.subErr = 0, nil
	e.AtIn(s.domainsFor(e).host, now, s.subStartFn)
	e.Run()
	s.subReq, s.subData = workload.Request{}, nil
	return s.subDone, s.subErr
}

// submitEngine returns the synchronous submit paths' private engine,
// lazily constructed with Submit's dispatch closures bound once.
func (s *System) submitEngine() *sim.Engine {
	if s.subEngine == nil {
		s.subEngine = sim.NewEngine()
		s.subStartFn = func() {
			s.SubmitAsync(s.subEngine, s.subReq, s.subData, s.subFinishFn)
		}
		s.subFinishFn = func(t sim.Time, err error) {
			s.subDone, s.subErr = t, err
		}
	}
	return s.subEngine
}

// SubmitBatch pushes a whole vector of host requests through the stack with
// per-request results identical to calling Submit in a loop — request i+1
// is issued at request i's completion, the serial depth-1 semantics of the
// synchronous API — while amortizing the per-request constants across a
// queue-depth window. Steady-state write requests are unrolled inline:
// their stage boundaries (parse done, payload transferred, lines written,
// completion composed) are pure time arithmetic over the same resource
// claims the evented pipeline makes, in the same order, so no engine events
// are scheduled for them at all, and the shared engine is reset once per
// window instead of once per request. The window is
// bounded by the host scheduler's queue-depth cap and the protocol's
// hardware queue limit, under DefaultBatchWindow. Requests the inline
// contract cannot cover — reads (their fills install in future events),
// passive mode, an in-flight fill — fall back to the evented Submit after a
// window drain, so mixed batches stay byte-identical too.
//
// datas optionally carries per-request payload buffers (writes) or receives
// them (reads); it may be nil, or hold nil entries, but a non-nil datas must
// be at least as long as reqs (nothing is applied otherwise). times optionally
// receives each request's completion time (it must be at least as long as
// reqs when non-nil), so batch callers keep their per-request latency
// histograms without falling back to the evented path. Processing stops at
// the first error, which is returned wrapped with the request's index;
// earlier requests remain applied, exactly as a Submit loop would leave
// them. On error the times slots of the failing request and every request
// after it are zeroed: zero is the documented "no completion" sentinel (a
// real completion is always positive — stage-1 submission costs alone push
// it past zero), so callers never read a stale time for a request that
// failed mid-window, even when reusing one times buffer across batches.
func (s *System) SubmitBatch(now sim.Time, reqs []workload.Request, datas [][]byte, times []sim.Time) (sim.Time, error) {
	if now < s.now {
		now = s.now
	}
	last := now
	if times != nil && len(times) < len(reqs) {
		return 0, fmt.Errorf("core: batch times buffer of %d for %d requests", len(times), len(reqs))
	}
	if datas != nil && len(datas) < len(reqs) {
		return 0, fmt.Errorf("core: batch data vector of %d for %d requests", len(datas), len(reqs))
	}
	e := s.submitEngine()
	e.Reset()
	window := min(s.params.EffectiveQueueDepth(s.Host.BatchWindow(len(reqs))), DefaultBatchWindow)
	fill := 0
	for i, req := range reqs {
		var data []byte
		if datas != nil {
			data = datas[i]
		}
		cur := now
		if cur < s.now {
			cur = s.now
		}
		var done sim.Time
		var err error
		if req.Write && !s.passive && s.fillsInFlight() == 0 {
			done, err = s.submitInline(e, cur, req, data)
			fill++
			if fill >= window {
				s.drainWindow(e, &fill)
			}
		} else {
			// The evented path resets the shared engine, so the window
			// closes first.
			s.drainWindow(e, &fill)
			done, err = s.Submit(cur, req, data)
			// Submit drained the shared engine but left its clock where its
			// last event ran, possibly past the host clock; rewind it, or the
			// next inline erase would prune undo records a later power cut
			// may still need.
			e.Reset()
		}
		if err != nil {
			s.drainWindow(e, &fill)
			if times != nil {
				// No stale completions: the failed request and the
				// requests never reached hold the zero sentinel.
				for j := i; j < len(reqs); j++ {
					times[j] = 0
				}
			}
			return 0, fmt.Errorf("core: batch request %d: %w", i, err)
		}
		if times != nil {
			times[i] = done
		}
		last = done
		s.batchReqs++
	}
	s.drainWindow(e, &fill)
	return last, nil
}

// drainWindow closes a batch window: it runs and resets the shared engine
// (times rewind to zero, exactly the state a fresh Submit would start from)
// and prunes the flash's in-flight journals. fill counts the inline requests since
// the last drain; an empty window drains nothing and is not counted.
func (s *System) drainWindow(e *sim.Engine, fill *int) {
	if *fill == 0 && e.Pending() == 0 {
		return
	}
	e.Run()
	e.Reset()
	// Inline claims ran outside the engine, where the dispatch clock that
	// normally retires their power-loss records never moves; the host clock
	// is the earliest time a future cut can land, so undo snapshots of
	// erases already started by then, and programs completed by then, are
	// dead weight.
	s.Flash.PruneEraseUndo(s.now)
	s.batchWindows++
	*fill = 0
}

// submitInline is the batched write fast path: the stages of SubmitAsync and
// submitOp.step for a write, run in one call. Every resource claim the
// evented pipeline would make is made here, at the same time, in the same
// order — stage 1 and the completion path are the very same helpers, and the
// stage events elided in between carried no claims of their own, only the
// times the claims below derive directly.
func (s *System) submitInline(e *sim.Engine, now sim.Time, req workload.Request, data []byte) (sim.Time, error) {
	if err := s.admit(req, data); err != nil {
		return 0, err
	}
	var pl dma.PointerList
	parsed, err := s.submitStage1(now, req, data, &s.batchLines, &pl)
	if err != nil {
		return 0, err
	}

	// opDispatch: pointer-list walk, payload transfer into the device.
	walked := s.DMA.WalkList(parsed, pl)
	xferDone := s.DMA.Transfer(walked, pl, true)

	// opWriteOps: the line writes, all claiming from the transfer's end.
	opsDone := xferDone
	for i := range s.batchLines {
		ln := s.batchLines[i]
		done, err := s.writeLine(e, xferDone, ln, linePayload(ln, data))
		if err != nil {
			return 0, err
		}
		if done > opsDone {
			opsDone = done
		}
	}
	s.bytesWritten += uint64(req.Length)

	// opFinish: completion firmware, CQ/interrupt, host ISR.
	return s.completeRequest(opsDone), nil
}

// linePayload returns the part of a request's buffer that belongs to ln,
// nil for a timing-only request.
func linePayload(ln hil.Line, data []byte) []byte {
	if data == nil {
		return nil
	}
	return data[ln.ByteOff : ln.ByteOff+ln.ByteLen]
}

// acquireLineBuf hands out a line-layout staging buffer for a data-tracking
// read or partial-sub merge (a prefetch stages nothing: it pins its pages,
// see prefetch). Buffers are recycled as they are: whoever stages through
// one writes every byte it later reads.
func (s *System) acquireLineBuf() []byte {
	if n := len(s.lineBufFree); n > 0 {
		buf := s.lineBufFree[n-1]
		s.lineBufFree = s.lineBufFree[:n-1]
		return buf
	}
	return make([]byte, s.Split.LineBytes())
}

func (s *System) releaseLineBuf(buf []byte) {
	s.lineBufFree = append(s.lineBufFree, buf)
}

// widenPartialWrite prepares a data-tracking write whose payload covers
// only part of its first or last sub-page while that sub is not cached:
// the cache would zero-pad it, so the sub's bytes currently on flash are
// merged under the payload in a staging buffer and the widened source is
// returned with its line offset (and the buffer to release). The merge is
// functional — FTL lookup plus nand.Flash.PagePayload, no claims, counters
// or fault draws — so timing and statistics match the zero-padding model.
// Aligned writes and partial writes to cached subs return payload as is.
func (s *System) widenPartialWrite(ln hil.Line, payload []byte) (src []byte, off int, buf []byte) {
	subSize := s.ICL.Config().SubSize
	lo, hi := ln.LineOff, ln.LineOff+ln.ByteLen
	first, last := ln.FirstSub, ln.FirstSub+ln.NumSubs-1
	head := lo > first*subSize && !s.ICL.Contains(ln.LSPN, first)
	tail := hi < (last+1)*subSize && !s.ICL.Contains(ln.LSPN, last)
	if !head && !tail {
		return payload, lo, nil
	}
	buf = s.acquireLineBuf()
	wlo, whi := lo, hi
	if head {
		wlo = first * subSize
		s.flashSub(ln.LSPN, first, buf[wlo:wlo+subSize])
	}
	if tail {
		whi = (last + 1) * subSize
		if !head || last != first {
			s.flashSub(ln.LSPN, last, buf[whi-subSize:whi])
		}
	}
	s.stagedCopied += uint64(copy(buf[lo:hi], payload))
	return buf[wlo:whi], wlo, buf
}

// flashSub copies the bytes sub-page (lspn, sub) currently holds on flash
// into dst, zeroes when it is unmapped.
func (s *System) flashSub(lspn int64, sub int, dst []byte) {
	if loc, ok := s.FTL.LookupSub(lspn, sub); ok {
		s.Flash.PagePayload(s.FTL.Address(loc), dst)
		return
	}
	clear(dst)
	s.stagedZeroed += uint64(len(dst))
}

// writeLine stores one line into the ICL (write-back, write-allocate) and
// flushes the displaced victim if dirty. Completion is when the data is in
// cache memory and the victim's frame was safely flushed. All claims start
// at t (the caller invokes it inside an event at t). e is the engine the
// flush's plan runs under, whose clock keeps its erases undoable by a power
// cut until they start; nil (the engine-less Flush) commits them at claim.
// payload is the
// line's part of the request buffer (nil when timing-only): it is the
// cache's source directly, placed at its true in-line offset.
func (s *System) writeLine(e *sim.Engine, t sim.Time, ln hil.Line, payload []byte) (sim.Time, error) {
	t2 := s.fw.iclInsert.run(t)
	src, off := payload, ln.LineOff
	var merged []byte
	if payload != nil && s.ICL.Config().TrackData {
		src, off, merged = s.widenPartialWrite(ln, payload)
	}
	ev, err := s.ICL.WriteAt(ln.LSPN, ln.FirstSub, ln.NumSubs, src, off)
	if merged != nil {
		s.releaseLineBuf(merged)
	}
	if err != nil {
		return 0, err
	}
	dramDone := s.cacheMemAccess(t2, ln.LSPN, ln.ByteLen, true)
	slotFree := t2
	if ev != nil && ev.IsDirty() {
		flushDone, err := s.flushEviction(e, t2, ev)
		if err != nil {
			return 0, err
		}
		// Write-back decoupling: the incoming write only waits for a flush
		// buffer slot, not for the victim's flash programs. The slot is
		// occupied until the flush lands, so a saturated backend
		// back-pressures the host exactly when all slots are busy.
		var dur sim.Duration
		if flushDone > t2 {
			dur = flushDone - t2
		}
		slotFree, _, _ = s.flushBuf.Claim(t2, dur)
	}
	return sim.MaxOf(dramDone, slotFree), nil
}

// readLineAsync serves one line: cache hits stream from cache memory now;
// misses issue flash reads now and install their fills in a second event
// at flash completion, where §IV-C readahead is also armed. When the
// missing sub-pages are already being fetched (by a prefetch or another
// request), the read coalesces onto the in-flight fill instead of
// duplicating flash work, retrying once when the fill lands. dst receives
// the line's payload (nil for a timing-only read): the touched subs are
// staged through a recycled line buffer — hits copied in by the cache,
// misses landed by the flash — and copied out, from their true in-line
// offset, at completion.
func (s *System) readLineAsync(e *sim.Engine, ln hil.Line, dst []byte, cb func(sim.Time, error)) {
	if dst == nil {
		s.readLineAttempt(e, ln, nil, cb, false)
		return
	}
	buf := s.acquireLineBuf()
	s.readLineAttempt(e, ln, buf, func(t sim.Time, err error) {
		if err == nil {
			s.stagedCopied += uint64(copy(dst, buf[ln.LineOff:ln.LineOff+ln.ByteLen]))
		}
		s.releaseLineBuf(buf)
		cb(t, err)
	}, false)
}

// readLineAttempt is one probe of readLineAsync; lineBuf is the staging
// buffer (line layout), nil when timing-only.
func (s *System) readLineAttempt(e *sim.Engine, ln hil.Line, lineBuf []byte, cb func(sim.Time, error), retried bool) {
	t := e.Now()
	t2 := s.fw.iclLookup.run(t)
	res, err := s.ICL.Read(ln.LSPN, ln.FirstSub, ln.NumSubs, lineBuf)
	if err != nil {
		cb(0, err)
		return
	}
	ready := t2
	if len(res.HitSubs) > 0 {
		bytes := len(res.HitSubs) * s.ICL.Config().SubSize
		if d := s.cacheMemAccess(t2, ln.LSPN, bytes, false); d > ready {
			ready = d
		}
	}

	// Arm readahead off the critical path.
	for _, pre := range res.Readahead {
		s.prefetch(e, pre)
	}

	if len(res.MissSubs) == 0 {
		cb(ready, nil)
		return
	}
	// Coalesce onto an in-flight fill covering every missing sub.
	if !retried {
		if fl := s.fillOf(ln.LSPN); fl != nil {
			covered := true
			for _, sub := range res.MissSubs {
				if !fl.mask.has(sub) {
					covered = false
					break
				}
			}
			if covered {
				fl.waiters = append(fl.waiters, func() {
					s.readLineAttempt(e, ln, lineBuf, cb, true)
				})
				return
			}
		}
	}
	s.startFill(e, t2, ln.LSPN, res.MissSubs, lineBuf, false, ready, cb)
}

// fillOp carries one flash fetch (demand miss or prefetch) from its FTL
// lookup to the cache install at flash completion. Pooled like submitOp. A
// tracked demand fill lands its bytes in the reader's line buffer; a tracked
// prefetch pins the flash pages it read instead (pins), which the cache
// takes over at done.
type fillOp struct {
	s        *System
	e        *sim.Engine
	lspn     int64
	subs     []int         // owned copy (the caller's slice may be scratch), ascending
	fetch    []ftl.PageLoc // where the mapped ones of subs live, in that order; reused
	lineBuf  []byte        // a demand fill's line-layout staging buffer, the reader's
	dsts     [][]byte      // per-fetch destination slices into lineBuf, reused
	pins     [][]byte      // by sub, a tracked prefetch's pinned pages (nil: unmapped); reused
	prefetch bool
	nFetch   int
	floor    sim.Time // completion lower bound (hit-side readiness)
	cb       func(sim.Time, error)

	doneFn func() // op.done, bound once
}

func (s *System) acquireFill(e *sim.Engine) *fillOp {
	var fo *fillOp
	if n := len(s.fillFree); n > 0 {
		fo = s.fillFree[n-1]
		s.fillFree = s.fillFree[:n-1]
	} else {
		fo = &fillOp{s: s}
		fo.doneFn = fo.done
	}
	fo.e = e
	return fo
}

func (s *System) releaseFill(fo *fillOp) {
	fo.e, fo.lineBuf, fo.cb = nil, nil, nil
	s.fillFree = append(s.fillFree, fo)
}

// inFlight is one LSPN's entry in the fill table (System.fills): the subs
// its fetches in flight cover and the readers parked until one of them
// lands. A free entry's mask is all clear and its waiter list empty.
type inFlight struct {
	mask    subMask
	waiters []func()
}

// fillOf returns lspn's fill-table entry, nil when no fetch of it is in
// flight. The pointer is valid until the next entry is added.
func (s *System) fillOf(lspn int64) *inFlight {
	if i := s.fillSlot[lspn]; i != 0 {
		return &s.fills[i-1]
	}
	return nil
}

// fillsInFlight counts the LSPNs with a fetch in flight.
func (s *System) fillsInFlight() int { return len(s.fills) - len(s.fillsFree) }

// registerFill marks subs of lspn in flight, taking a free entry for an
// LSPN that has none.
func (s *System) registerFill(lspn int64, subs []int) {
	fl := s.fillOf(lspn)
	if fl == nil {
		var i int32
		if n := len(s.fillsFree); n > 0 {
			i, s.fillsFree = s.fillsFree[n-1], s.fillsFree[:n-1]
		} else {
			s.fills = append(s.fills, inFlight{mask: make(subMask, (s.ICL.Config().SubsPerLine+63)/64)})
			i = int32(len(s.fills) - 1)
		}
		s.fillSlot[lspn] = i + 1
		fl = &s.fills[i]
	}
	for _, sub := range subs {
		fl.mask.set(sub)
	}
}

// landFill clears a landed fetch's subs of lspn and returns the readers
// parked on lspn, for the caller to wake; the entry goes free once no fetch
// of lspn is left in flight.
func (s *System) landFill(lspn int64, subs []int) []func() {
	i := s.fillSlot[lspn]
	if i == 0 {
		return nil
	}
	fl := &s.fills[i-1]
	for _, sub := range subs {
		fl.mask.clear(sub)
	}
	ws := fl.waiters
	fl.waiters = nil
	if fl.mask.empty() {
		s.fillSlot[lspn] = 0
		s.fillsFree = append(s.fillsFree, i-1)
	}
	return ws
}

// subMask is a set of sub-page indices of one line, one bit each: the subs
// with a fetch in flight (inFlight.mask). Masks are recycled all-clear.
type subMask []uint64

func (m subMask) has(sub int) bool { return m[sub/64]&(1<<(sub%64)) != 0 }
func (m subMask) set(sub int)      { m[sub/64] |= 1 << (sub % 64) }
func (m subMask) clear(sub int)    { m[sub/64] &^= 1 << (sub % 64) }

func (m subMask) empty() bool {
	for _, w := range m {
		if w != 0 {
			return false
		}
	}
	return true
}

// noopFill is the completion callback for prefetches.
func noopFill(sim.Time, error) {}

// startFill reads the given subs of lspn from flash (claims at t) and
// installs them in the cache at flash completion, flushing any displaced
// dirty victim. The callback fires with max(floor, install time).
func (s *System) startFill(e *sim.Engine, t sim.Time, lspn int64, subs []int, lineBuf []byte, prefetch bool, floor sim.Time, cb func(sim.Time, error)) {
	fo := s.acquireFill(e)
	fo.lspn = lspn
	fo.subs = append(fo.subs[:0], subs...)
	fo.lineBuf = lineBuf
	fo.prefetch = prefetch
	fo.floor = floor
	fo.cb = cb

	t2 := s.fw.ftlTranslate.run(t)
	doms := s.domainsFor(e)
	flashDone := t2
	var nFetch int
	// Lookup-fetch loop: an uncorrectable read under RAIN reconstructs the
	// sub-page from its stripe and retries against the fresh mapping, so
	// the fill still serves the originally acknowledged bytes — the loss
	// became a latency event. Bounded like plan-fault recovery.
	for attempt := 0; ; attempt++ {
		fetch, cert, err := s.FTL.LookupSubs(fo.fetch[:0], lspn, fo.subs)
		if err != nil {
			fo.finish(0, err)
			return
		}
		fo.fetch = fetch[:0]
		nFetch = len(fetch)
		if len(fetch) == 0 {
			// Unmapped subs read as zeroes with no flash work.
			break
		}
		t3 := s.chargeFirmware(t2, modFIL, s.filScheduleMix(len(fetch)))
		if s.passive {
			// OCSSD vector read command + device-side thin parse, then the
			// data crosses the link back to the host buffer.
			_, t3 = s.link.Claim(t3, s.fw.cmdFetch)
			t3 = s.fw.hilParse.run(t3)
		}
		var dsts [][]byte
		if lineBuf != nil {
			subSize := s.ICL.Config().SubSize
			dsts = fo.dsts[:0]
			for _, loc := range fetch {
				dsts = append(dsts, lineBuf[loc.Sub*subSize:(loc.Sub+1)*subSize])
			}
			fo.dsts = dsts
		}
		// Precopy stage of the install: a demand fill's page bytes land in
		// its line buffer at issue (one copy), and a prefetch pins its pages
		// right after (pinFetched), so the publish below depends on no flash
		// event. The lookup's read
		// certificate rides along: while the FTL↔flash chain is armed, the
		// per-address validation walk is skipped (mapped ⇒ written by
		// construction).
		flashDone, err = s.FIL.ReadSubsStaged(e, doms.nand, t3, fetch, dsts, cert)
		if err == nil {
			break
		}
		var redo bool
		if attempt < maxFaultRetries {
			redo, t2 = s.recoverFillFault(e, t3, lspn, fetch, err)
		}
		if !redo {
			fo.finish(0, err)
			return
		}
	}
	fo.nFetch = nFetch
	if lineBuf != nil {
		fo.zeroUnmapped()
	}
	if prefetch && s.ICL.Config().TrackData {
		fo.pinFetched()
	}

	// Register the fill so concurrent readers coalesce instead of
	// refetching.
	s.registerFill(lspn, fo.subs)

	// The continuation installs into the ICL, charges cache memory and
	// wakes coalesced waiters. Flash-backed fills publish through the
	// fil.publish domain (the staged line buffer is complete at issue);
	// fills with no flash work (all subs unmapped, pure cache-side traffic)
	// ride the icl domain.
	dom := doms.icl
	if nFetch > 0 {
		dom = doms.pub
	}
	e.AtIn(dom, sim.MaxOf(flashDone, e.Now()), fo.doneFn)
}

// done installs the fetched subs at flash completion, flushes any
// displaced dirty victim, wakes coalesced waiters and fires the callback.
func (fo *fillOp) done() {
	s, e := fo.s, fo.e
	ws := s.landFill(fo.lspn, fo.subs)
	if s.passive && fo.nFetch > 0 {
		// Vector-read payload crosses the link into the host buffer.
		// Claimed here, inside the completion event, so the claim is
		// made in global time order.
		s.link.Claim(e.Now(), sim.TransferTime(int64(fo.nFetch*s.ICL.Config().SubSize), s.params.LinkBytesPerSec))
	}
	var ev *iclEviction
	var err error
	if fo.prefetch && s.ICL.Config().TrackData {
		// The cache takes the prefetch's pins over: no byte is copied.
		ev, err = s.ICL.FillPinned(fo.lspn, fo.pins, true)
		clear(fo.pins)
	} else {
		ev, err = s.ICL.Fill(fo.lspn, fo.subs, fo.lineBuf, fo.prefetch)
	}
	now := e.Now()
	ready := now
	if err == nil {
		ready = s.cacheMemAccess(now, fo.lspn, len(fo.subs)*s.ICL.Config().SubSize, true)
		if ev != nil && ev.IsDirty() {
			var flushDone sim.Time
			if flushDone, err = s.flushEviction(e, now, ev); flushDone > ready {
				ready = flushDone
			}
		}
	}
	// Coalesced readers wake whether or not the install succeeded: this
	// fill's subs are no longer in flight, so a waiter left parked on them
	// would never run. On failure each retries with a fill of its own and
	// reports its own outcome. Nothing between landFill and here parks a
	// reader, so ws holds every reader parked on lspn.
	for _, w := range ws {
		w()
	}
	if err != nil {
		fo.finish(0, err)
		return
	}
	fo.finish(sim.MaxOf(fo.floor, ready), nil)
}

// zeroUnmapped clears the staging bytes of every sub of the fill that
// flash does not deliver (fo.fetch[:fo.nFetch] is what it does): an
// unmapped sub reads as zeroes, and a recycled buffer holds whatever its
// last user left there. Both lists ascend by sub — the cache probes in sub
// order and the FTL answers in the order asked — so one merge pass tells
// them apart.
func (fo *fillOp) zeroUnmapped() {
	subSize := fo.s.ICL.Config().SubSize
	fetch := fo.fetch[:fo.nFetch]
	for _, sub := range fo.subs {
		if len(fetch) > 0 && fetch[0].Sub == sub {
			fetch = fetch[1:]
			continue
		}
		clear(fo.lineBuf[sub*subSize : (sub+1)*subSize])
		fo.s.stagedZeroed += uint64(subSize)
	}
}

// pinFetched pins every page the fill's reads were just issued to, in the
// same serial call, so the pins hold exactly the bytes those reads deliver
// at issue; a sub flash does not deliver keeps a nil pin and reads as
// zeroes.
func (fo *fillOp) pinFetched() {
	s := fo.s
	if fo.pins == nil {
		fo.pins = make([][]byte, s.ICL.Config().SubsPerLine)
	}
	for _, loc := range fo.fetch[:fo.nFetch] {
		fo.pins[loc.Sub] = s.Flash.Pin(s.FTL.Address(loc))
	}
}

func (fo *fillOp) finish(t sim.Time, err error) {
	cb := fo.cb
	fo.s.releaseFill(fo)
	cb(t, err)
}

// prefetch loads a full super-page in the background (§IV-C readahead):
// the line lands across all dies and later sequential reads hit it. On a
// tracked system its reads deliver no bytes: the fill pins the pages they
// read and the cache serves later hits from those pins (icl.FillPinned), so
// only a sub a host read actually hits is ever copied.
func (s *System) prefetch(e *sim.Engine, lspn int64) {
	if lspn >= s.FTL.UserSuperPages() || !s.FTL.Mapped(lspn) {
		return
	}
	if s.fillSlot[lspn] != 0 {
		return // a fetch is already in flight
	}
	s.startFill(e, e.Now(), lspn, s.FTL.AllSubs(), nil, true, 0, noopFill)
}

// flushEviction writes a displaced dirty line back through FTL and FIL,
// returning when the victim's data has left the cache memory (host writes
// programmed; background GC may continue past this point). The plan
// executes through fil.ExecuteOn: with an engine, its erases a power cut can
// still undo until the engine's clock passes their start; without one (the
// synchronous Flush), they commit at claim.
func (s *System) flushEviction(e *sim.Engine, t sim.Time, ev *iclEviction) (sim.Time, error) {
	t2 := s.fw.ftlTranslate.run(t)
	plan, err := s.FTL.Write(t2, ev.LSPN, ev.Dirty)
	// A mid-plan FTL error (allocation exhausted on a degrading device)
	// still returns the partial plan covering every mutation the model
	// made. It must be executed — flash in lockstep with the model — before
	// the error surfaces, because on a read-only device the host keeps
	// running past this failure and later plans build on this state.
	pending := err
	if err != nil && len(plan.Ops) == 0 {
		return 0, err
	}
	err = nil
	if plan.GCRuns > 0 {
		t2 = s.chargeFirmware(t2, modGC, s.gcMix(plan.Migrated))
	}
	nWrites := 0
	for _, op := range plan.Ops {
		if op.Kind == ftl.OpWrite {
			nWrites++
		}
	}
	t3 := s.chargeFirmware(t2, modFIL, s.filScheduleMix(nWrites))
	if s.passive && nWrites > 0 {
		// OCSSD vector write: command plus the dirty payload cross the link
		// before the device programs it.
		dirtyBytes := 0
		for _, d := range ev.Dirty {
			if d {
				dirtyBytes += s.ICL.Config().SubSize
			}
		}
		_, t3 = s.link.Claim(t3, s.fw.cmdFetch+
			sim.TransferTime(int64(dirtyBytes), s.params.LinkBytesPerSec))
		t3 = s.fw.hilParse.run(t3)
	}
	hostData := fil.HostData(ev.LSPN, ev.Dirty, ev.Data, s.ICL.Config().SubSize)
	res, err, pending := s.runPlan(e, t3, plan, hostData, pending)
	if err != nil {
		return 0, err
	}
	if pending != nil {
		return 0, pending
	}
	// Reconstructions the plan's fault recovery queued (uncorrectable GC
	// reads under RAIN) execute now, with model and flash back in lockstep.
	s.drainRainRepairs(e, t3)
	if res.HostWritesDone > 0 {
		return res.HostWritesDone, nil
	}
	return res.Done, nil
}

// runPlan executes one FTL plan through the FIL at t, absorbing injected
// flash faults: each *fil.PlanFault commits the executed prefix, disarms
// the certified chain, and the FTL re-places the stranded suffix (retiring
// the bad block) into a fresh uncertified plan. Bounded retries absorb
// back-to-back faults; once a recovered plan lands clean the certified
// chain re-arms. A recovery that itself runs out of space returns a
// partial plan plus an error: the partial plan still executes (lockstep)
// and the error is folded into pending, surfaced by the caller once the
// flash has caught up. Uncorrectable reads of mapped data pages under RAIN
// additionally queue a reconstruction (noteRainFault) which the caller
// drains after the plan lands.
func (s *System) runPlan(e *sim.Engine, t sim.Time, plan ftl.Plan, hostData fil.PlanData, pending error) (fil.Result, error, error) {
	var doms []sim.DomainID
	if e != nil {
		doms = s.domainsFor(e).nand
	}
	execute := func(p ftl.Plan) (fil.Result, error) { return s.FIL.ExecuteOn(e, doms, t, p, hostData) }
	res, err := execute(plan)
	// The retry budget scales with the work in flight, not a flat constant:
	// a read-fault recovery strictly shrinks the un-executed suffix (bounded
	// by the plan size), while a program/erase fault can GROW the plan —
	// retiring a full super-block emits a migration of everything valid on
	// it — but only finitely often (each retirement spends a spare; an
	// exhausted reserve latches read-only and recovery returns an error
	// instead of a plan). Abandoning a suffix mid-chain is never safe: the
	// FTL mutated its append pointers at plan build, so unexecuted ops
	// desynchronize model and flash.
	maxAttempts := len(plan.Ops) + maxFaultRetries
	for attempt := 0; err != nil && attempt < maxAttempts; attempt++ {
		var pf *fil.PlanFault
		if !errors.As(err, &pf) {
			break
		}
		s.noteRainFault(pf)
		rplan, rerr := s.FTL.RecoverPlanFault(t, plan, pf.Executed, pf.Err)
		if rerr != nil {
			if pending == nil {
				pending = fmt.Errorf("core: plan-fault recovery: %w", rerr)
			}
			if len(rplan.Ops) == 0 {
				return res, nil, pending
			}
		}
		if grown := attempt + 1 + len(rplan.Ops) + maxFaultRetries; grown > maxAttempts {
			maxAttempts = grown
		}
		t = s.chargeFirmware(t, modRecover, s.filScheduleMix(len(rplan.Ops)))
		plan = rplan
		res, err = execute(plan)
		if err == nil && pending == nil {
			s.FIL.AcceptCertified(s.FTL)
		}
	}
	return res, err, pending
}

// Flush forces every dirty cache line to flash (the host FLUSH command)
// and returns when the last write lands.
func (s *System) Flush(now sim.Time) (sim.Time, error) {
	if now < s.now {
		now = s.now
	}
	done := now
	err := s.ICL.FlushEach(func(ev *iclEviction) error {
		d, err := s.flushEviction(nil, now, ev)
		done = sim.MaxOf(done, d)
		return err
	})
	if err != nil {
		return 0, err
	}
	if done > s.now {
		s.now = done
	}
	return done, nil
}

// cacheMemAccess charges a data movement through the cache memory:
// internal DRAM for active storage, host memory bandwidth for pblk.
func (s *System) cacheMemAccess(t sim.Time, lspn int64, bytes int, write bool) sim.Time {
	if bytes <= 0 {
		return t
	}
	if s.passive {
		_, done := s.Host.Mem.Claim(t, sim.TransferTime(int64(bytes), s.Host.MemBandwidth()))
		return done
	}
	addr := lspn * int64(s.Split.LineBytes()) % s.cfg.Device.DRAM.CapacityBytes
	return s.DevDRAM.Access(t, addr, bytes, write)
}
