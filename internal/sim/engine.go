package sim

import (
	"fmt"
	"math"
)

// DomainID names one scheduling domain (shard) of an Engine. The zero
// value is the default domain every event lands in unless the caller
// schedules with ScheduleIn/AtIn.
type DomainID int32

// DefaultDomain is the domain Schedule and At use.
const DefaultDomain DomainID = 0

// event is one queued callback. Events live inline in their shard's heap
// and nowhere else: scheduling appends one, dispatch pops it, and nothing
// outside the engine can name it.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// before reports whether ev fires ahead of the key (at, seq): FIFO among
// equal times. The sequence counter is engine-global, so the order is total
// across shards.
func (ev *event) before(at Time, seq uint64) bool {
	return ev.at < at || (ev.at == at && ev.seq < seq)
}

// shard is one scheduling domain: a 4-ary min-heap of events plus its
// lifetime dispatch counter.
type shard struct {
	name       string
	heap       []event // 4-ary min-heap ordered by (at, seq)
	dispatched uint64
}

// DomainStat reports one domain's activity.
type DomainStat struct {
	ID         DomainID
	Name       string
	Dispatched uint64 // lifetime events fired from this domain
	Pending    int    // currently queued events
}

// Engine is the discrete-event simulator. The zero value is not usable;
// construct with NewEngine. Scheduling and dispatch are allocation-free in
// steady state: each scheduling domain keeps its own events inline in a
// 4-ary min-heap whose backing array is reused, and the global minimum is
// read from a tournament (winner) tree over the shard heads that is
// repaired in O(log S) when a single shard's head changes (see doc.go for
// the layout rationale). Dispatch order is identical to a
// single global heap: the tree compares shard heads by (time, sequence)
// and the sequence counter is engine-global, so FIFO among equal times
// holds across shards.
type Engine struct {
	now        Time
	seq        uint64
	dispatched uint64
	pending    int

	shards  []shard
	domains map[string]DomainID

	// halted is set by Halt (a power-loss event body): the drain loops —
	// Run and RunUntil — return after the current dispatch completes,
	// leaving every later event queued. Reset clears it.
	halted bool

	// Tournament (winner) tree over shard heads: tree[leafCap+s] mirrors
	// shard s's head, each internal node caches the winner of its two
	// children, tree[1] is the overall winner. Nodes carry the head
	// event's (at, seq) key inline, so replaying a match after one
	// shard's head changes is a single sibling load and compare per
	// level — no pointer chasing into the shard heaps — with an early
	// exit as soon as a path node's value stops changing: O(log S) worst
	// case, often O(1). leafCap is the smallest power of two
	// >= len(shards).
	tree    []treeNode
	leafCap int
}

// treeNode is one tournament slot: a shard-head key ordered by (at, seq).
// key packs seq<<16 | shard, which both identifies the winning shard and
// breaks same-time ties exactly like the heap comparison (the sequence
// counter is engine-global and unique; the shard bits are only reached on
// a seq tie, which cannot happen). The packing caps an engine at 65535
// domains and 2^48 lifetime events per Reset — both far beyond any
// simulation.
type treeNode struct {
	at  Time
	key uint64
}

// emptyNode loses to every real head: its at is the maximum Time and its
// key compares above every packed (seq, shard).
var emptyNode = treeNode{at: Time(math.MaxInt64), key: ^uint64(0)}

// beats reports whether n's head fires before m's.
func (n treeNode) beats(m treeNode) bool {
	return n.at < m.at || (n.at == m.at && n.key < m.key)
}

// NewEngine returns an empty engine at time zero with only the default
// domain registered.
func NewEngine() *Engine {
	e := &Engine{domains: make(map[string]DomainID, 4)}
	e.shards = append(e.shards, shard{name: "default"})
	e.domains["default"] = DefaultDomain
	e.growTree()
	return e
}

// Domain returns the id of the named scheduling domain, registering it on
// first use. Registration is cheap but not allocation-free; callers are
// expected to resolve domains at setup time and reuse the ids in the hot
// path. "default" names the default domain.
func (e *Engine) Domain(name string) DomainID {
	if id, ok := e.domains[name]; ok {
		return id
	}
	if len(e.shards) >= 1<<16 {
		panic("sim: too many scheduling domains (max 65536)")
	}
	id := DomainID(len(e.shards))
	e.shards = append(e.shards, shard{name: name})
	e.domains[name] = id
	e.growTree()
	return id
}

// NumDomains returns the number of registered domains (including the
// default one).
func (e *Engine) NumDomains() int { return len(e.shards) }

// DomainName returns the name of a registered domain.
func (e *Engine) DomainName(dom DomainID) string { return e.shards[dom].name }

// Kept for the frozen bench/replay.go, which calls it on every channel
// domain (ROADMAP, "Pinned"): it checks that dom is registered and does
// nothing else. The engine has one dispatch loop and no classes of domain.
func (e *Engine) MarkDomainLocal(dom DomainID) {
	if dom < 0 || int(dom) >= len(e.shards) {
		panic(fmt.Sprintf("sim: marking unregistered domain %d local", dom))
	}
}

// DomainStats returns per-domain lifetime dispatch counts and queue
// depths, in registration order. It allocates; it is a reporting call,
// not a hot-path one.
func (e *Engine) DomainStats() []DomainStat {
	out := make([]DomainStat, len(e.shards))
	for i := range e.shards {
		out[i] = DomainStat{
			ID:         DomainID(i),
			Name:       e.shards[i].name,
			Dispatched: e.shards[i].dispatched,
			Pending:    len(e.shards[i].heap),
		}
	}
	return out
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of queued events across all domains.
func (e *Engine) Pending() int { return e.pending }

// Dispatched returns the total number of events fired so far. It is used by
// the simulation-speed experiment (Fig. 16) as the work metric.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// Reset drops all queued events and rewinds the clock to zero, keeping the
// heaps' storage and the registered domains so a reused engine schedules
// without reallocating. The dispatched counters (global and per-domain)
// are preserved (they track lifetime work for the simulation-speed
// metric).
func (e *Engine) Reset() {
	for s := range e.shards {
		sh := &e.shards[s]
		clear(sh.heap) // drop the callback references
		sh.heap = sh.heap[:0]
	}
	// Every shard is now empty; the tree is all sentinels.
	for i := range e.tree {
		e.tree[i] = emptyNode
	}
	e.pending = 0
	e.now = 0
	e.seq = 0
	e.halted = false
}

// Halt stops the drain loops: after the event that calls it returns, Run
// and RunUntil exit with every later event still queued. It is the mechanism
// behind deterministic power-loss injection — the cut event halts the engine
// at an exact (time, sequence) point, after every earlier event and before
// every later one. Reset clears the flag.
func (e *Engine) Halt() { e.halted = true }

// Halted reports whether Halt stopped the engine since the last Reset.
func (e *Engine) Halted() bool { return e.halted }

// Schedule queues fn to run after delay in the default domain. A zero
// delay fires on the next Step at the current time, after previously
// queued same-time events.
func (e *Engine) Schedule(delay Duration, fn func()) {
	e.AtIn(DefaultDomain, e.now+delay, fn)
}

// ScheduleIn queues fn to run after delay in the given domain. The domain
// only selects the shard that orders the event; dispatch order across the
// whole engine is the same for every placement.
func (e *Engine) ScheduleIn(dom DomainID, delay Duration, fn func()) {
	e.AtIn(dom, e.now+delay, fn)
}

// At queues fn to run at absolute time t in the default domain.
// Scheduling in the past is a programming error and panics: it would
// silently reorder causality.
func (e *Engine) At(t Time, fn func()) {
	e.AtIn(DefaultDomain, t, fn)
}

// AtIn queues fn to run at absolute time t in the given domain. A queued
// event cannot be withdrawn: it fires, or a Reset drops it.
func (e *Engine) AtIn(dom DomainID, t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: scheduling nil event function")
	}
	if dom < 0 || int(dom) >= len(e.shards) {
		panic(fmt.Sprintf("sim: scheduling into unregistered domain %d", dom))
	}
	sh := &e.shards[dom]
	sh.heap = append(sh.heap, event{at: t, seq: e.seq, fn: fn})
	e.seq++
	e.pending++
	if siftUp(sh.heap, len(sh.heap)-1) == 0 {
		// Only a new shard head can change the tournament outcome.
		e.repair(int(dom))
	}
}

// Step fires the earliest event across all domains and advances the clock
// to it. It returns false when every shard is empty. The event leaves its
// heap before its callback runs, so the callback may schedule into the shard
// being dispatched, even when that append moves the heap.
func (e *Engine) Step() bool {
	head := e.tree[1]
	if head == emptyNode {
		return false
	}
	w := int(head.key & 0xffff)
	sh := &e.shards[w]
	ev := sh.popHead()
	sh.dispatched++
	e.repair(w)
	e.now = ev.at
	e.pending--
	e.dispatched++
	ev.fn()
	return true
}

// Run dispatches events until the queue drains or Halt stops the engine.
func (e *Engine) Run() {
	for !e.halted && e.Step() {
	}
}

// RunUntil dispatches events with time <= t, then advances the clock to t.
// Events scheduled beyond t remain queued. A Halt stops the loop early
// without advancing the clock.
func (e *Engine) RunUntil(t Time) {
	for !e.halted {
		if head := e.tree[1]; head == emptyNode || head.at > t {
			break
		}
		e.Step()
	}
	if e.halted {
		return
	}
	if t > e.now {
		e.now = t
	}
}

// Tournament tree. The leaves are the shard heads; each internal node
// caches the winner (earlier (at, seq)) of its two children, so reading
// the global minimum is O(1) and repairing after one shard's head change
// replays only that leaf's root path: O(log S) comparisons of keys held
// inline in the tree. Compared to re-heapifying one global
// queue, a dispatch costs log4(N_shard) sift steps plus log2(S) match
// replays instead of log4(N_total) sift steps.

// growTree resizes the tree to the next power of two covering all shards
// and rebuilds it. Called only from Domain registration.
func (e *Engine) growTree() {
	leafCap := 1
	for leafCap < len(e.shards) {
		leafCap *= 2
	}
	if leafCap != e.leafCap {
		e.leafCap = leafCap
		e.tree = make([]treeNode, 2*leafCap)
	}
	e.rebuildTree()
}

// leafNode builds the tournament leaf for shard s from its current head.
func (e *Engine) leafNode(s int) treeNode {
	if s >= len(e.shards) || len(e.shards[s].heap) == 0 {
		return emptyNode
	}
	head := &e.shards[s].heap[0]
	return treeNode{at: head.at, key: head.seq<<16 | uint64(s)}
}

// rebuildTree recomputes every node from the current shard heads. Only
// domain registration pays this O(S); steady-state mutations use repair.
func (e *Engine) rebuildTree() {
	for i := 0; i < e.leafCap; i++ {
		e.tree[e.leafCap+i] = e.leafNode(i)
	}
	for k := e.leafCap - 1; k >= 1; k-- {
		win := e.tree[2*k]
		if e.tree[2*k+1].beats(win) {
			win = e.tree[2*k+1]
		}
		e.tree[k] = win
	}
}

// repair replays the matches on shard s's path to the root after its head
// changed (new head, head dispatched, or shard emptied). The
// candidate winner is carried upward so each level costs one sibling load
// and one comparison, and the walk stops as soon as a node's stored value
// is already the recomputed winner: every node off the path is correct by
// construction, so an unchanged path node proves the ancestors are
// consistent too.
func (e *Engine) repair(s int) {
	k := e.leafCap + s
	cand := e.leafNode(s)
	for {
		if e.tree[k] == cand {
			return
		}
		e.tree[k] = cand
		if k == 1 {
			return
		}
		if sib := e.tree[k^1]; sib.beats(cand) {
			cand = sib
		}
		k >>= 1
	}
}

// Each shard heap is 4-ary: children of node i are 4i+1..4i+4. Compared to
// the binary container/heap it does ~half the levels per sift with better
// locality over the flat []event, and needs no interface boxing.

// siftUp moves the event at index i toward the root until its parent fires
// no later than it does, and returns the index it settles at.
func siftUp(heap []event, i int) int {
	ev := heap[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(heap[parent].at, heap[parent].seq) {
			break
		}
		heap[i] = heap[parent]
		i = parent
	}
	heap[i] = ev
	return i
}

// popHead removes and returns the shard's head event, restoring heap order
// by sinking the last event from the root.
func (sh *shard) popHead() event {
	heap := sh.heap
	head := heap[0]
	n := len(heap) - 1
	ev := heap[n]
	heap[n] = event{} // drop the callback reference
	heap = heap[:n]
	sh.heap = heap
	if n == 0 {
		return head
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best, last := first, min(first+4, n)
		for c := first + 1; c < last; c++ {
			if heap[c].before(heap[best].at, heap[best].seq) {
				best = c
			}
		}
		if !heap[best].before(ev.at, ev.seq) {
			break
		}
		heap[i] = heap[best]
		i = best
	}
	heap[i] = ev
	return head
}
