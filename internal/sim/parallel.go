package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Horizon-synchronized parallel dispatch. Every scheduling domain is one of
// two classes:
//
//   - cross-domain (the default): its events may read or write any
//     simulator state and may schedule further events anywhere. They are
//     always dispatched serially, in global (time, sequence) order.
//
//   - domain-local (marked with MarkDomainLocal): its events touch only
//     state owned by that domain (per-NAND-channel buses, dies, counters,
//     tracked-page copies) and never call back into the engine — no
//     scheduling, no Step. Between two cross-domain events,
//     events in distinct domain-local shards are causally independent, so
//     they may be dispatched concurrently by different workers without
//     changing any observable result.
//
// Cross-domain shards may additionally be marked channel-neutral
// (MarkChannelNeutral): their events are promised not to touch the state
// pending domain-local events write, so they commute with them. RunParallel
// dispatches a channel-neutral horizon head without draining the local
// shards first — horizon batching — so consecutive neutral cross events
// cost no barrier and the local work accumulates into fewer, larger
// windows.
//
// RunParallel exploits this: it repeatedly computes the horizon — the
// (time, sequence) key of the earliest pending cross-domain event — lets
// workers drain every domain-local shard strictly up to that key
// (StepDomainUntil), barriers (EndWindow), then dispatches the horizon
// event serially and repeats. doc.go states the full determinism argument;
// the short form is that the dispatch order restricted to any one state
// partition (each local domain, and the union of all cross domains) is
// identical to the serial order, and all scheduling happens in serial
// sections so sequence numbers are assigned identically too.

// checkSerial panics when a serial-only engine call is made while a
// parallel window is open. Window callbacks must not touch the engine;
// this turns such bugs into a deterministic panic instead of a data race.
func (e *Engine) checkSerial() {
	if e.inWindow {
		panic("sim: engine call during an open parallel window (domain-local events must not schedule or step)")
	}
}

// DefaultBatchLimit is the horizon-batching backstop every new engine
// starts with: once the eligible domain-local shards hold more than this
// many pending events, a neutral cross head forces a window instead of
// batching past them. With every cross shard of a workload neutral (the
// active architecture), nothing else would ever drain the local shards
// until the cross queue empties, so the
// backstop bounds the engine's latent event population — and doubles as a
// parallelism pump, turning an otherwise run-length batching window into
// periodic wide fan-outs. The bound is read from shard queue depths, so the
// decision sequence is a pure function of queue state and identical at
// every worker count.
const DefaultBatchLimit = 4096

// MarkDomainLocal classifies dom as domain-local: its events touch only
// per-domain state and never call the engine, so RunParallel may dispatch
// them concurrently with other local domains between synchronization
// horizons. Marking is idempotent and, like Domain registration, is a
// setup-time call.
func (e *Engine) MarkDomainLocal(dom DomainID) {
	e.checkSerial()
	if dom < 0 || int(dom) >= len(e.shards) {
		panic(fmt.Sprintf("sim: marking unregistered domain %d local", dom))
	}
	sh := &e.shards[dom]
	if sh.local {
		return
	}
	if sh.neutral {
		panic(fmt.Sprintf("sim: domain %q is channel-neutral, cannot also be domain-local", sh.name))
	}
	sh.local = true
	e.locals = append(e.locals, dom)
}

// IsDomainLocal reports whether dom was marked domain-local.
func (e *Engine) IsDomainLocal(dom DomainID) bool {
	return int(dom) < len(e.shards) && e.shards[dom].local
}

// MarkChannelNeutral classifies the cross-domain shard dom as
// channel-neutral: its events are promised not to read or write any state
// that pending domain-local events write (per-channel counters and energy
// accumulators, installed tracked-data pages except through the
// pending-aware staging paths, in-flight destination buffers). A neutral
// cross event therefore commutes with every pending domain-local event, and
// RunParallel may dispatch it without first draining the local shards —
// horizon batching: consecutive neutral cross events run back to back while
// local work accumulates for one larger window, cutting barrier frequency
// on small-window workloads. doc.go states the full safety condition.
// Marking is idempotent and is a setup-time call.
func (e *Engine) MarkChannelNeutral(dom DomainID) {
	e.checkSerial()
	if dom < 0 || int(dom) >= len(e.shards) {
		panic(fmt.Sprintf("sim: marking unregistered domain %d channel-neutral", dom))
	}
	sh := &e.shards[dom]
	if sh.local {
		panic(fmt.Sprintf("sim: domain %q is domain-local, cannot also be channel-neutral", sh.name))
	}
	sh.neutral = true
}

// IsChannelNeutral reports whether dom was marked channel-neutral.
func (e *Engine) IsChannelNeutral(dom DomainID) bool {
	return int(dom) < len(e.shards) && e.shards[dom].neutral
}

// NextCrossDomainTime returns the (time, sequence) key of the earliest
// pending event in any cross-domain shard, or ok=false when every
// cross-domain shard is empty. RunParallel uses it as the horizon bound for
// a window; the scan is O(number of cross shards), which a full system
// keeps small (host, cpu, icl.dram, dma, fil, default).
func (e *Engine) NextCrossDomainTime() (at Time, seq uint64, ok bool) {
	at, seq, _, ok = e.nextCross()
	return at, seq, ok
}

// nextCross is NextCrossDomainTime plus the winning shard's index, which
// the horizon loop needs both to dispatch the head without re-reading the
// tournament and to test the shard's channel-neutral mark.
func (e *Engine) nextCross() (at Time, seq uint64, shard int, ok bool) {
	best := emptyNode
	for s := range e.shards {
		if e.shards[s].local {
			continue
		}
		if n := e.leafNode(s); n.beats(best) { // an empty shard's leaf beats nothing
			best = n
		}
	}
	if best == emptyNode {
		return 0, 0, 0, false
	}
	return best.at, best.key >> 16, int(best.key & 0xffff), true
}

// BeginWindow opens a parallel window: until EndWindow, the only legal
// engine calls are StepDomainUntil on distinct domain-local shards,
// possibly from concurrent goroutines. All other engine methods panic.
func (e *Engine) BeginWindow() {
	if e.inWindow {
		panic("sim: nested BeginWindow")
	}
	e.inWindow = true
}

// StepDomainUntil dispatches every pending event of the given domain-local
// shard whose (time, sequence) key is strictly before (horizon,
// horizonSeq), in shard order, and returns the number dispatched. It is the
// one engine call legal inside an open window and may run concurrently
// with StepDomainUntil on other shards: every word it reads or writes — the
// heap included — is owned by the shard (an atomic owner guard panics if
// two workers ever step the same shard). The pending delta and the clock
// advance are staged on the shard and merged serially by EndWindow.
func (e *Engine) StepDomainUntil(dom DomainID, horizon Time, horizonSeq uint64) int {
	if !e.inWindow {
		panic("sim: StepDomainUntil outside an open window")
	}
	if dom < 0 || int(dom) >= len(e.shards) {
		panic(fmt.Sprintf("sim: stepping unregistered domain %d", dom))
	}
	sh := &e.shards[dom]
	if !sh.local {
		panic(fmt.Sprintf("sim: StepDomainUntil on cross-domain shard %q", sh.name))
	}
	if !atomic.CompareAndSwapInt32(&sh.owner, 0, 1) {
		panic(fmt.Sprintf("sim: shard %q stepped by two workers concurrently", sh.name))
	}
	n := 0
	for len(sh.heap) > 0 && sh.heap[0].before(horizon, horizonSeq) {
		ev := sh.popHead()
		sh.dispatched++
		sh.popped++
		if ev.at > sh.maxAt {
			sh.maxAt = ev.at
		}
		n++
		ev.fn()
	}
	atomic.StoreInt32(&sh.owner, 0)
	return n
}

// EndWindow closes a parallel window: it merges each local shard's staged
// bookkeeping back into the engine — pending and dispatched counters and
// the clock (to the latest event dispatched in the window) — and repairs
// the tournament leaves of the shards that changed.
func (e *Engine) EndWindow() {
	if !e.inWindow {
		panic("sim: EndWindow without BeginWindow")
	}
	e.inWindow = false
	for _, dom := range e.locals {
		sh := &e.shards[dom]
		if sh.popped == 0 {
			continue
		}
		e.pending -= sh.popped
		e.dispatched += uint64(sh.popped)
		sh.popped = 0
		if sh.maxAt > e.now {
			e.now = sh.maxAt
		}
		sh.maxAt = 0
		e.repair(int(dom))
	}
}

// ParallelStats reports the horizon structure of one RunParallel drain.
type ParallelStats struct {
	Horizons         uint64 // windows that dispatched at least one local event
	ParallelHorizons uint64 // of those, windows fanned out over >1 worker
	LocalEvents      uint64 // events dispatched inside windows
	CrossEvents      uint64 // events dispatched serially between windows
	// BatchedCross counts cross-domain events dispatched through the
	// horizon-batching fast path: their shard was channel-neutral, so they
	// ran while eligible domain-local events were still pending instead of
	// forcing a drain-and-barrier first. Each one is a barrier the
	// un-batched loop would have paid.
	BatchedCross uint64
	// LimitBarriers counts windows a neutral cross head would have batched
	// past but the batch limit forced anyway (DefaultBatchLimit): the
	// pending-local backstop draining accumulated channel work. They are
	// included in Horizons.
	LimitBarriers uint64
}

// MeanLocalPerHorizon returns the average number of domain-local events a
// window dispatched — the work available between two synchronization
// barriers, the figure of merit for intra-device parallel efficiency.
func (p ParallelStats) MeanLocalPerHorizon() float64 {
	if p.Horizons == 0 {
		return 0
	}
	return float64(p.LocalEvents) / float64(p.Horizons)
}

// Barriers returns the number of synchronization barriers the drain paid:
// one per window.
func (p ParallelStats) Barriers() uint64 { return p.Horizons }

// BarriersWithoutBatching returns the barrier count the same drain would
// have paid with horizon batching disabled: every batched cross event had
// eligible local work pending and would have opened its own window first.
func (p ParallelStats) BarriersWithoutBatching() uint64 {
	return p.Horizons + p.BatchedCross
}

// RunParallel dispatches events until the queue drains, like Run, but steps
// domain-local shards concurrently between synchronization horizons over up
// to `workers` goroutines (the calling goroutine is one of them). The
// result — every callback effect, counter and the final clock — is
// byte-identical to Run at any worker count; see doc.go for the argument.
// With workers <= 1 the same horizon-structured loop runs entirely on the
// calling goroutine, which is the reference mode for equivalence tests.
//
// The worker goroutines live for this call only, and start on the first
// window wide enough to fan out: none when workers <= 1 or every window is
// single-domain.
func (e *Engine) RunParallel(workers int) ParallelStats {
	workers = clampWorkers(workers, len(e.locals))
	var st ParallelStats
	var pool *workerPool
	defer func() {
		if pool != nil {
			pool.close()
		}
	}()
	for {
		at, seq, cross, ok := e.nextCross()
		if !ok {
			// No cross-domain work left: drain every local shard fully.
			at, seq = MaxTime, ^uint64(0)
		}
		eligible := e.elig[:0]
		pendingLocal := 0
		for _, dom := range e.locals {
			sh := &e.shards[dom]
			if len(sh.heap) == 0 {
				continue
			}
			if sh.heap[0].before(at, seq) {
				eligible = append(eligible, dom)
				// Queue depth is a cheap upper bound on the shard's eligible
				// events (some may lie past the horizon); exactness doesn't
				// matter — the limit is a backstop, not a schedule.
				pendingLocal += len(sh.heap)
			}
		}
		e.elig = eligible // keep the (possibly grown) scratch for the next round
		if len(eligible) > 0 {
			// Horizon batching: a channel-neutral cross head commutes with
			// every pending local event, so dispatch it without paying the
			// drain-and-barrier — the local work keeps accumulating for one
			// larger window at the next channel-coupled horizon, bounded by
			// the batch limit so a fully neutral workload cannot defer its
			// channel work (and the memory holding it) indefinitely.
			neutral := ok && e.shards[cross].neutral
			if neutral && pendingLocal <= e.batchLimit {
				e.stepShard(cross)
				st.CrossEvents++
				st.BatchedCross++
				if e.halted {
					return st
				}
				continue
			}
			st.Horizons++
			if neutral {
				st.LimitBarriers++
			}
			e.BeginWindow()
			if workers <= 1 || len(eligible) == 1 {
				for _, dom := range eligible {
					st.LocalEvents += uint64(e.StepDomainUntil(dom, at, seq))
				}
			} else {
				if pool == nil {
					pool = newWorkerPool(e, workers)
				}
				st.ParallelHorizons++
				st.LocalEvents += pool.run(eligible, at, seq)
			}
			e.EndWindow()
		}
		if !ok {
			return st
		}
		e.stepShard(cross)
		st.CrossEvents++
		if e.halted {
			// A power-loss cut: every event before the halting cross event
			// (in (time, sequence) order) has dispatched — the windows above
			// drained the local shards strictly up to it at any worker count
			// — and everything after it stays queued. The surviving state is
			// therefore identical to the serial drain halting at the same
			// event.
			return st
		}
	}
}

// clampWorkers bounds the window fan-out width: more workers than local
// domains can never get work, and more workers than processors only add
// handoff and context-switch cost to every window — on a single-processor
// host the horizon loop runs entirely on the calling goroutine, which
// still collects the batch-drain and horizon-batching wins. Results are
// byte-identical at any width, so the clamp is purely a scheduling choice.
func clampWorkers(workers, locals int) int {
	if workers > locals {
		workers = locals
	}
	if p := runtime.GOMAXPROCS(0); workers > p {
		workers = p
	}
	return workers
}

// workerPool is RunParallel's worker set: workers-1 background goroutines
// plus the coordinator drain an atomically indexed list of eligible domains
// each window. Handoff is one unbuffered channel token per participating
// worker (a happens-before edge for the window fields) and a WaitGroup
// barrier back. close releases the background goroutines.
type workerPool struct {
	e      *Engine
	nbg    int // background goroutines (workers - 1)
	doms   []DomainID
	at     Time
	seq    uint64
	next   int32 // atomic index into doms
	events int64 // atomic dispatched-count accumulator
	start  chan struct{}
	wg     sync.WaitGroup
}

// newWorkerPool parks workers-1 background goroutines for horizon windows
// on e; workers counts the calling goroutine too.
func newWorkerPool(e *Engine, workers int) *workerPool {
	p := &workerPool{e: e, nbg: workers - 1, start: make(chan struct{})}
	for w := 0; w < p.nbg; w++ {
		go func() {
			for range p.start {
				p.drain()
				p.wg.Done()
			}
		}()
	}
	return p
}

// drain steps eligible domains until the shared index runs out.
func (p *workerPool) drain() {
	var n int64
	for {
		i := int(atomic.AddInt32(&p.next, 1)) - 1
		if i >= len(p.doms) {
			break
		}
		n += int64(p.e.StepDomainUntil(p.doms[i], p.at, p.seq))
	}
	if n != 0 {
		atomic.AddInt64(&p.events, n)
	}
}

// run fans one window out over the coordinating caller and as many
// background workers as there are further domains, and blocks until every
// domain is stepped.
func (p *workerPool) run(doms []DomainID, at Time, seq uint64) uint64 {
	p.doms, p.at, p.seq = doms, at, seq
	atomic.StoreInt32(&p.next, 0)
	atomic.StoreInt64(&p.events, 0)
	n := min(p.nbg, len(doms)-1) // the coordinator always takes at least one
	p.wg.Add(n)
	for w := 0; w < n; w++ {
		p.start <- struct{}{}
	}
	p.drain()
	p.wg.Wait()
	return uint64(atomic.LoadInt64(&p.events))
}

// close releases the pool's background goroutines.
func (p *workerPool) close() { close(p.start) }
