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
		case op < 6: // schedule into a domain after a short delay: many time ties
			d.schedule(d.dom(next()), Duration(next()%50), nil)
			d.check("schedule")
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

// FuzzEngineOrder holds the engine to the single-queue reference through any
// interleaving of scheduling (from outside and from inside callbacks), Step,
// RunUntil, Run, Halt, Reset and domain registration. The corpus starts
// from TestEngineGoldenDispatchEquivalence's four seeds, as random operation
// strings; go test runs those, the fuzzer mutates them.
func FuzzEngineOrder(f *testing.F) {
	for _, seed := range []uint64{1, 7, 42, 1234} {
		rng := NewRNG(seed)
		data := make([]byte, 2048)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		newOrderDriver(t).drive(data)
	})
}
