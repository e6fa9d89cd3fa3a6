package sim

import (
	"fmt"
	"testing"
)

// orderDriver runs one Engine and the single-queue refScheduler of
// sharded_test.go in lock step. Every engine callback pops the reference
// itself and checks that it is the event the reference fires next, so the
// comparison also covers what a callback does: schedule again, or halt the
// engine. check holds the engine's counters to the driver's own books after
// every operation, per-domain DomainStats included.
type orderDriver struct {
	t    *testing.T
	e    *Engine
	ref  *refScheduler
	doms []DomainID

	tags       int
	names      []string
	pending    []int // per domain, by the driver's count
	dispatched []uint64
	halted     bool
}

func newOrderDriver(t *testing.T) *orderDriver {
	d := &orderDriver{t: t, e: NewEngine(), ref: &refScheduler{},
		doms: []DomainID{DefaultDomain}, names: []string{"default"}, pending: []int{0}, dispatched: []uint64{0}}
	for i := 0; i < 7; i++ {
		d.register()
	}
	return d
}

// register adds one scheduling domain, whatever is queued at the time. Ids
// count up from DefaultDomain, so they index the driver's books.
func (d *orderDriver) register() {
	name := fmt.Sprintf("dom%d", len(d.doms))
	d.doms = append(d.doms, d.e.Domain(name))
	d.names = append(d.names, name)
	d.pending = append(d.pending, 0)
	d.dispatched = append(d.dispatched, 0)
}

func (d *orderDriver) dom(b byte) DomainID { return d.doms[int(b)%len(d.doms)] }

// schedule queues one event in the engine and the reference. When it fires
// it runs then, if there is one, at the instant and from inside the callback.
func (d *orderDriver) schedule(dom DomainID, delay Duration, then func()) {
	tag := d.tags
	d.tags++
	d.pending[dom]++
	d.ref.schedule(delay, tag)
	d.e.ScheduleIn(dom, delay, func() {
		at, want, ok := d.ref.step()
		if !ok || want != tag || at != d.e.Now() {
			d.t.Fatalf("engine fired tag %d (domain %d) at %v; reference next is tag %d at %v (queued: %v)",
				tag, dom, d.e.Now(), want, at, ok)
		}
		d.pending[dom]--
		d.dispatched[dom]++
		if then != nil {
			then()
		}
	})
}

// check compares every counter the engine exposes with the driver's books.
func (d *orderDriver) check(op string) {
	d.t.Helper()
	e := d.e
	if e.Pending() != len(d.ref.evts) || e.Now() != d.ref.now || e.Halted() != d.halted {
		d.t.Fatalf("after %s: Pending %d Now %v Halted %v; reference %d, %v, %v",
			op, e.Pending(), e.Now(), e.Halted(), len(d.ref.evts), d.ref.now, d.halted)
	}
	st := e.DomainStats()
	if len(st) != len(d.doms) {
		d.t.Fatalf("after %s: %d DomainStats rows, %d domains registered", op, len(st), len(d.doms))
	}
	pending, dispatched := 0, uint64(0)
	for i, s := range st {
		if s.ID != d.doms[i] || s.Name != d.names[i] || s.Pending != d.pending[i] || s.Dispatched != d.dispatched[i] {
			d.t.Fatalf("after %s: DomainStats[%d] = %+v, want pending %d dispatched %d", op, i, s, d.pending[i], d.dispatched[i])
		}
		pending += s.Pending
		dispatched += s.Dispatched
	}
	if pending != e.Pending() || dispatched != e.Dispatched() {
		d.t.Fatalf("after %s: per-domain pending %d and dispatched %d; engine totals %d and %d",
			op, pending, dispatched, e.Pending(), e.Dispatched())
	}
	d.checkRing(op)
}

// checkRing holds the ring to its shape: a power-of-two buffer whose
// occupied slots are in (at, key) order from the head and whose other slots
// hold nothing.
func (d *orderDriver) checkRing(op string) {
	d.t.Helper()
	e := d.e
	if n := len(e.ring); n&(n-1) != 0 || e.ringLen > n || (n > 0 && (e.ringHead < 0 || e.ringHead >= n)) {
		d.t.Fatalf("after %s: ring of %d slots, head %d, %d queued", op, n, e.ringHead, e.ringLen)
	}
	for i := 1; i < e.ringLen; i++ {
		if e.ringAt(i).less(e.ringAt(i-1)) != 0 {
			d.t.Fatalf("after %s: ring events %d and %d out of order", op, i-1, i)
		}
	}
	for i := e.ringLen; i < len(e.ring); i++ {
		if e.ringAt(i).fn != nil {
			d.t.Fatalf("after %s: free ring slot %d holds a callback", op, i)
		}
	}
}

// runUntil sweeps the engine to the horizon; the callbacks have stepped the
// reference, which must be left with nothing due. A halted engine returns at
// once and keeps its clock.
func (d *orderDriver) runUntil(horizon Time) {
	d.e.RunUntil(horizon)
	if d.halted {
		return
	}
	if late := d.ref.runUntil(horizon); len(late) > 0 {
		d.t.Fatalf("RunUntil(%v) left %d due events queued, first tag %d at %v", horizon, len(late), late[0].tag, late[0].at)
	}
}

// drive decodes data into operations, one opcode byte and up to four
// argument bytes each, and stops where the bytes do; what is still queued
// is then drained event by event.
func (d *orderDriver) drive(data []byte) {
	next := func() byte {
		b := data[0]
		data = data[1:]
		return b
	}
	for len(data) >= 5 {
		switch op := next() % 16; {
		case op < 5: // schedule into a domain after a short delay: many time ties
			d.schedule(d.dom(next()), Duration(next()%50), nil)
			d.check("schedule")
		case op == 5: // a burst spread far wider than the queue: places beyond ringReach of both ring ends
			count, a, b, c := 16+int(next()%25), next(), next(), next()
			rng := NewRNG(uint64(a)<<16 | uint64(b)<<8 | uint64(c))
			for range count {
				d.schedule(d.dom(byte(rng.Intn(256))), Duration(rng.Intn(10_001)), nil)
			}
			d.check("burst")
		case op < 8: // an event that schedules another from inside its callback
			dom, delay := d.dom(next()), Duration(next()%50)
			childDom, childDelay := d.dom(next()), Duration(next()%50)
			d.schedule(dom, delay, func() { d.schedule(childDom, childDelay, nil) })
			d.check("nested schedule")
		case op < 12: // dispatch one event
			queued := len(d.ref.evts)
			if d.e.Step() != (queued > 0) {
				d.t.Fatalf("Step = %v with %d events in the reference", queued == 0, queued)
			}
			d.check("Step")
		case op == 12: // sweep to a nearby horizon
			d.runUntil(d.e.Now() + Duration(next()%30))
			d.check("RunUntil")
		case op == 13: // an event that halts the engine, then a drain into it
			d.schedule(d.dom(next()), Duration(next()%50), func() {
				d.e.Halt()
				d.halted = true
			})
			d.e.Run()
			d.check("Run into Halt")
		case op == 14: // full reset; lifetime dispatch counts survive it
			d.e.Reset()
			d.ref.reset()
			clear(d.pending)
			d.halted = false
			d.check("Reset")
		default: // register a domain while events are queued
			if len(d.doms) < 40 {
				d.register()
			}
			d.check("Domain")
		}
	}
	for d.e.Step() {
		d.check("drain")
	}
	if len(d.ref.evts) != 0 {
		d.t.Fatalf("engine drained with %d events left in the reference", len(d.ref.evts))
	}
}

// Opcodes of drive, for hand-built corpus entries; an operation's argument
// bytes follow its opcode.
const (
	opSchedule = 0  // domain, delay
	opBurst    = 5  // count, three seed bytes
	opStep     = 8  // none
	opReset    = 14 // none
)

// ops encodes a hand-built operation string, padded so drive decodes its last
// operation and stops there.
func ops(parts ...[]byte) []byte {
	var data []byte
	for _, p := range parts {
		data = append(data, p...)
	}
	return append(data, 0, 0, 0, 0)
}

// scheduleRun encodes one schedule per delay, into domains taken in turn.
func scheduleRun(delays ...byte) []byte {
	var data []byte
	for i, d := range delays {
		data = append(data, opSchedule, byte(i), d)
	}
	return data
}

// repeat encodes op n times.
func repeat(n int, op ...byte) []byte {
	var data []byte
	for range n {
		data = append(data, op...)
	}
	return data
}

// FuzzEngineOrder holds the engine to the single-queue reference through any
// interleaving of scheduling (from outside and from inside callbacks, short
// delays and wide bursts), Step, RunUntil, Run, Halt, Reset and domain
// registration, and the ring to its shape after every operation. The corpus
// starts from TestEngineGoldenDispatchEquivalence's four seeds, as random
// operation strings, and three hand-built strings that reach the ring's
// edges; go test runs those, the fuzzer mutates them.
func FuzzEngineOrder(f *testing.F) {
	for _, seed := range []uint64{1, 7, 42, 1234} {
		rng := NewRNG(seed)
		data := make([]byte, 2048)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		f.Add(data)
	}
	// Wrap the ring's head and regrow the ring while it is wrapped: four
	// events at 20..23, one at 5 in front of them (the head wraps to the
	// last slot), twelve more at the tail (sixteen: full), one past it
	// (growth unwraps). Then step some, refill across the end of the
	// doubled ring and overflow it again with its head mid-buffer.
	f.Add(ops(
		scheduleRun(20, 21, 22, 23, 5, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35),
		repeat(9, opStep),
		scheduleRun(30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 49, 49, 49),
		repeat(3, opStep),
		scheduleRun(0, 0, 1, 49, 49),
	))
	// Equal times on both sides of the ring/heap split: ten events at 10,
	// ten at 25 and ten at 45 fill the ring; more at 25 and 10 find their
	// places beyond ringReach of both ends and go to the heap, while later
	// ones at 45 join the ring's tail. Twenty steps leave three of the
	// ring's 25s in front, so two more at 25 land in the ring behind them:
	// at 25 the ring's head, then the heap's root, then the ring's head
	// again must fire, each by sequence.
	f.Add(ops(
		repeat(10, opSchedule, 1, 10),
		repeat(10, opSchedule, 2, 25),
		repeat(10, opSchedule, 3, 45),
		repeat(3, opSchedule, 4, 25),
		repeat(3, opSchedule, 5, 10),
		repeat(2, opSchedule, 6, 45),
		repeat(2, opSchedule, 7, 25),
		repeat(20, opStep),
		repeat(2, opSchedule, 7, 0),
		repeat(2, opSchedule, 0, 20),
	))
	// Bursts into a queued population, a reset with both containers full,
	// and bursts again into the storage the reset kept.
	f.Add(ops(
		scheduleRun(3, 9, 27, 40),
		[]byte{opBurst, 24, 1, 2, 3}, repeat(6, opStep),
		[]byte{opBurst, 9, 4, 5, 6}, repeat(20, opStep),
		[]byte{opReset},
		[]byte{opBurst, 0, 7, 8, 9}, []byte{opBurst, 30, 10, 11, 12}, repeat(10, opStep),
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		newOrderDriver(t).drive(data)
	})
}
