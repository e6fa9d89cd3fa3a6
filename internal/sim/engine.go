package sim

import (
	"fmt"
	"math/bits"
)

// DomainID names one scheduling domain of an Engine: a label an event is
// scheduled under and counted by. The zero value is the default domain every
// event lands in unless the caller schedules with ScheduleIn/AtIn.
type DomainID int32

// DefaultDomain is the domain Schedule and At use.
const DefaultDomain DomainID = 0

// domainBits is the width of the domain label in an event's key.
const domainBits = 16

// event is one queued callback. Events live inline in the engine's heap and
// nowhere else: scheduling appends one, dispatch pops it, and nothing
// outside the engine can name it. key packs seq<<domainBits | domain: the
// sequence counter is engine-global and unique, so at equal times keys
// compare as sequence numbers (FIFO; the domain bits never decide) and the
// label rides along in a 24-byte event. The packing caps an engine at 65536
// domains and 2^48 events per Reset, both far beyond any simulation.
type event struct {
	at  Time
	key uint64
	fn  func()
}

// less is 1 when ev fires ahead of o and 0 otherwise: by time, FIFO among
// equal times. (at, key) is compared as one 128-bit number by subtracting
// with borrow, so the answer is a value and popHead can pick the earliest of
// four children without a branch the data decides.
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
// steady state: every queued event sits inline in one 4-ary min-heap ordered
// by (time, sequence) whose backing array is reused (doc.go has the
// rationale). A scheduling domain is a label: it decides which counter a
// dispatch bumps, never when an event fires.
type Engine struct {
	now        Time
	seq        uint64
	dispatched uint64

	heap    []event // 4-ary min-heap ordered by (at, key)
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

// NumDomains returns the number of registered domains (including the
// default one).
func (e *Engine) NumDomains() int { return len(e.domains) }

// DomainName returns the name of a registered domain.
func (e *Engine) DomainName(dom DomainID) string { return e.domains[dom].name }

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
	for i := range e.heap {
		out[e.heap[i].dom()].Pending++
	}
	return out
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of queued events across all domains.
func (e *Engine) Pending() int { return len(e.heap) }

// Dispatched returns the total number of events fired so far. It is used by
// the simulation-speed experiment (Fig. 16) as the work metric.
func (e *Engine) Dispatched() uint64 { return e.dispatched }

// Reset drops all queued events and rewinds the clock to zero, keeping the
// heap's storage and the registered domains so a reused engine schedules
// without reallocating. The dispatched counters (global and per-domain)
// are preserved: they track lifetime work for the simulation-speed metric.
func (e *Engine) Reset() {
	clear(e.heap) // drop the callback references
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

// Schedule queues fn to run after delay in the default domain. A zero
// delay fires on the next Step at the current time, after previously
// queued same-time events.
func (e *Engine) Schedule(delay Duration, fn func()) {
	e.AtIn(DefaultDomain, e.now+delay, fn)
}

// ScheduleIn queues fn to run after delay in the given domain. The domain
// only selects the counter the dispatch is reported under; dispatch order
// is the same for every placement.
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
	if dom < 0 || int(dom) >= len(e.domains) {
		panic(fmt.Sprintf("sim: scheduling into unregistered domain %d", dom))
	}
	e.heap = append(e.heap, event{at: t, key: e.seq<<domainBits | uint64(dom), fn: fn})
	e.seq++
	siftUp(e.heap, len(e.heap)-1)
}

// Step fires the earliest queued event and advances the clock to it. It
// returns false when the queue is empty. The event leaves the heap before
// its callback runs, so the callback may schedule, even when that append
// moves the heap.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := e.popHead()
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
	for !e.halted && len(e.heap) > 0 && e.heap[0].at <= t {
		e.Step()
	}
	if e.halted {
		return
	}
	if t > e.now {
		e.now = t
	}
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
