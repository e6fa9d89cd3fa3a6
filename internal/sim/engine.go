package sim

import (
	"fmt"
	"math/bits"
)

// DomainID names one scheduling domain of an Engine: a label an event is
// scheduled under and counted by. Every schedule call names one
// (ScheduleIn/AtIn); the zero value is the default domain.
type DomainID int32

// DefaultDomain is the domain every engine registers first, as "default".
const DefaultDomain DomainID = 0

// domainBits is the width of the domain label in an event's key.
const domainBits = 16

// event is one queued callback. Events live inline in the engine's ring or
// its heap and nowhere else: scheduling places one, dispatch takes it out,
// and nothing outside the engine can name it. key packs
// seq<<domainBits | domain: the sequence counter is engine-global and
// unique, so at equal times keys compare as sequence numbers (FIFO; the
// domain bits never decide) and the label rides along in a 24-byte event.
// The packing caps an engine at 65536 domains and 2^48 events per Reset,
// both far beyond any simulation.
type event struct {
	at  Time
	key uint64
	fn  func()
}

// less is 1 when ev fires ahead of o and 0 otherwise: by time, FIFO among
// equal times. (at, key) is compared as one 128-bit number by subtracting
// with borrow, so the answer is a value and popHead can pick the earliest of
// four children without a branch the data decides. It is a total order, so
// whichever container holds an event, the earlier of the two heads is the
// earliest event queued.
func (ev *event) less(o *event) int {
	_, borrow := bits.Sub64(ev.key, o.key, 0)
	_, borrow = bits.Sub64(uint64(ev.at), uint64(o.at), borrow)
	return int(borrow)
}

// dom returns the label ev was scheduled under.
func (ev *event) dom() DomainID { return DomainID(ev.key & (1<<domainBits - 1)) }

// domain is one registered scheduling domain: its name and how many events
// have fired under it.
type domain struct {
	name       string
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
// steady state: every queued event sits inline in one of two containers
// ordered by (time, sequence) whose backing arrays are reused — a sorted
// ring that takes every event landing within ringReach slots of either of
// its ends, and a 4-ary min-heap that takes the rest — and dispatch fires
// the earlier of their two heads (doc.go has the rationale). A scheduling
// domain is a label: it decides which counter a dispatch bumps, never when
// an event fires.
type Engine struct {
	now        Time
	seq        uint64
	dispatched uint64

	// ring is a power-of-two circular buffer whose ringLen slots from
	// ringHead (wrapping) hold events sorted by (at, key); every other slot
	// is zero.
	ring     []event
	ringHead int
	ringLen  int

	heap    []event // 4-ary min-heap ordered by (at, key): the ring's overflow
	domains []domain
	ids     map[string]DomainID

	// halted is set by Halt (a power-loss event body): the drain loops —
	// Run and RunUntil — return after the current dispatch completes,
	// leaving every later event queued. Reset clears it.
	halted bool
}

// NewEngine returns an empty engine at time zero with only the default
// domain registered.
func NewEngine() *Engine {
	return &Engine{
		domains: []domain{{name: "default"}},
		ids:     map[string]DomainID{"default": DefaultDomain},
	}
}

// Domain returns the id of the named scheduling domain, registering it on
// first use. Registration is cheap but not allocation-free; callers are
// expected to resolve domains at setup time and reuse the ids in the hot
// path. "default" names the default domain.
func (e *Engine) Domain(name string) DomainID {
	if id, ok := e.ids[name]; ok {
		return id
	}
	if len(e.domains) >= 1<<domainBits {
		panic("sim: too many scheduling domains (max 65536)")
	}
	id := DomainID(len(e.domains))
	e.domains = append(e.domains, domain{name: name})
	e.ids[name] = id
	return id
}

// Kept for the frozen bench/replay.go, which calls it on every channel
// domain (ROADMAP, "Pinned"): it checks that dom is registered and does
// nothing else. The engine has one dispatch loop and no classes of domain.
func (e *Engine) MarkDomainLocal(dom DomainID) {
	if dom < 0 || int(dom) >= len(e.domains) {
		panic(fmt.Sprintf("sim: marking unregistered domain %d local", dom))
	}
}

// DomainStats returns per-domain lifetime dispatch counts and queue
// depths, in registration order. It allocates, and counts what is pending
// under each label by walking the whole queue; it is a reporting call, not
// a hot-path one.
func (e *Engine) DomainStats() []DomainStat {
	out := make([]DomainStat, len(e.domains))
	for i, d := range e.domains {
		out[i] = DomainStat{ID: DomainID(i), Name: d.name, Dispatched: d.dispatched}
	}
	for i := range e.ringLen {
		out[e.ringAt(i).dom()].Pending++
	}
	for i := range e.heap {
		out[e.heap[i].dom()].Pending++
	}
	return out
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of queued events across all domains.
func (e *Engine) Pending() int { return e.ringLen + len(e.heap) }

// Dispatched returns the total number of events fired so far. It is used by
// the simulation-speed experiment (Fig. 16) as the work metric.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// Reset drops all queued events and rewinds the clock to zero, keeping the
// ring's and the heap's storage and the registered domains so a reused
// engine schedules without reallocating. The dispatched counters (global
// and per-domain) are preserved: they track lifetime work for the
// simulation-speed metric.
func (e *Engine) Reset() {
	// Drop the callback references. Only occupied slots hold one, so a
	// reset costs what was queued, not the containers' capacity.
	for i := range e.ringLen {
		*e.ringAt(i) = event{}
	}
	e.ringHead, e.ringLen = 0, 0
	clear(e.heap)
	e.heap = e.heap[:0]
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

// ScheduleIn queues fn to run after delay in the given domain. The domain
// only selects the counter the dispatch is reported under; dispatch order
// is the same for every placement. A zero delay fires on the next Step at
// the current time, after previously queued same-time events.
func (e *Engine) ScheduleIn(dom DomainID, delay Duration, fn func()) {
	e.AtIn(dom, e.now+delay, fn)
}

// AtIn queues fn to run at absolute time t in the given domain. A queued
// event cannot be withdrawn: it fires, or a Reset drops it. Scheduling in
// the past is a programming error and panics: it would silently reorder
// causality.
func (e *Engine) AtIn(dom DomainID, t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: scheduling nil event function")
	}
	if dom < 0 || int(dom) >= len(e.domains) {
		panic(fmt.Sprintf("sim: scheduling into unregistered domain %d", dom))
	}
	ev := event{at: t, key: e.seq<<domainBits | uint64(dom), fn: fn}
	e.seq++
	if !e.ringInsert(ev) {
		e.heap = append(e.heap, ev)
		siftUp(e.heap, len(e.heap)-1)
	}
}

// Step fires the earliest queued event and advances the clock to it. It
// returns false when the queue is empty. The event leaves its container
// before its callback runs, so the callback may schedule, even when that
// moves the ring or the heap.
func (e *Engine) Step() bool {
	var ev event
	switch {
	case e.ringFirst():
		head := &e.ring[e.ringHead]
		ev = *head
		*head = event{} // drop the callback reference
		e.ringHead = (e.ringHead + 1) & (len(e.ring) - 1)
		e.ringLen--
	case len(e.heap) > 0:
		ev = e.popHead()
	default:
		return false
	}
	e.now = ev.at
	e.dispatched++
	e.domains[ev.dom()].dispatched++
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
	for !e.halted && e.Pending() > 0 && e.nextAt() <= t {
		e.Step()
	}
	if e.halted {
		return
	}
	if t > e.now {
		e.now = t
	}
}

// ringReach is how far from each end of the ring AtIn looks for a new
// event's place before it gives the event to the heap. It bounds what an
// insert scans and shifts; a population that arrives in near time order —
// the request path's pipeline stages — lands within it.
const ringReach = 8

// ringAt returns the ring's i-th event from its head, 0 <= i < ringLen.
func (e *Engine) ringAt(i int) *event {
	return &e.ring[(e.ringHead+i)&(len(e.ring)-1)]
}

// ringFirst reports whether the earliest queued event is the ring's head:
// the ring holds one, and the heap is empty or its root fires later.
func (e *Engine) ringFirst() bool {
	return e.ringLen > 0 &&
		(len(e.heap) == 0 || e.ring[e.ringHead].less(&e.heap[0]) != 0)
}

// nextAt returns the time of the earliest queued event; something must be
// queued.
func (e *Engine) nextAt() Time {
	if e.ringFirst() {
		return e.ring[e.ringHead].at
	}
	return e.heap[0].at
}

// ringPlace returns the slot, counted from the ring's head, that a new event
// at time at belongs in, if it lies within ringReach slots of either end. A
// new event's key is the largest yet, so its place is after every event at
// its time or earlier. The ring is sorted, so one probe at each end decides
// whether the place is in reach: the tail is tried first, since a new event
// rarely fires before everything queued.
func (e *Engine) ringPlace(at Time) (int, bool) {
	n := e.ringLen
	if n <= ringReach || e.ringAt(n-ringReach).at <= at {
		p := n
		for p > 0 && e.ringAt(p-1).at > at {
			p--
		}
		return p, true
	}
	if e.ringAt(ringReach-1).at > at {
		p := 0
		for e.ringAt(p).at <= at {
			p++
		}
		return p, true
	}
	return 0, false
}

// ringInsert places ev in the ring if ringPlace finds its slot, and reports
// whether it did.
func (e *Engine) ringInsert(ev event) bool {
	p, ok := e.ringPlace(ev.at)
	if !ok {
		return false
	}
	n := e.ringLen
	if n == len(e.ring) {
		e.growRing()
	}
	// Open slot p by shifting the shorter side, at most ringReach events.
	if n-p <= p {
		for i := n; i > p; i-- {
			*e.ringAt(i) = *e.ringAt(i - 1)
		}
	} else {
		e.ringHead = (e.ringHead - 1) & (len(e.ring) - 1)
		for i := range p {
			*e.ringAt(i) = *e.ringAt(i + 1)
		}
	}
	*e.ringAt(p) = ev
	e.ringLen++
	return true
}

// growRing doubles the ring and unwraps it, so its head is slot 0.
func (e *Engine) growRing() {
	ring := make([]event, max(2*len(e.ring), 2*ringReach))
	for i := range e.ringLen {
		ring[i] = *e.ringAt(i)
	}
	e.ring, e.ringHead = ring, 0
}

// The heap is 4-ary: the children of node i are 4i+1..4i+4.

// siftUp moves the event at index i toward the root until its parent fires
// no later than it does.
func siftUp(heap []event, i int) {
	ev := heap[i]
	for i > 0 {
		parent := (i - 1) / 4
		if ev.less(&heap[parent]) == 0 {
			break
		}
		heap[i] = heap[parent]
		i = parent
	}
	heap[i] = ev
}

// popHead removes and returns the earliest event, restoring heap order by
// sinking the last event from the root.
func (e *Engine) popHead() event {
	heap := e.heap
	head := heap[0]
	n := len(heap) - 1
	ev := heap[n]
	heap[n] = event{} // drop the callback reference
	heap = heap[:n]
	e.heap = heap
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
			best += (c - best) & -heap[c].less(&heap[best]) // best = c if c is earlier
		}
		if heap[best].less(&ev) == 0 {
			break
		}
		heap[i] = heap[best]
		i = best
	}
	heap[i] = ev
	return head
}
