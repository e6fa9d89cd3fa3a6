package sim

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// --- Reference single-heap oracle -----------------------------------------
//
// refScheduler is an independent reference implementation of the engine's
// dispatch contract: one flat queue kept sorted by (at, seq) with stable
// insertion. The sharded engine must stay byte-identical to it — same
// (time, dispatch-sequence, tag) order — through any interleaving of
// Schedule, Step, RunUntil and Reset.

type refEvent struct {
	at  Time
	seq uint64
	tag int
}

type refScheduler struct {
	now  Time
	seq  uint64
	evts []refEvent
}

func (r *refScheduler) schedule(d Duration, tag int) {
	at := r.now + d
	seq := r.seq
	r.seq++
	i := sort.Search(len(r.evts), func(i int) bool {
		e := r.evts[i]
		return e.at > at || (e.at == at && e.seq > seq)
	})
	r.evts = append(r.evts, refEvent{})
	copy(r.evts[i+1:], r.evts[i:])
	r.evts[i] = refEvent{at: at, seq: seq, tag: tag}
}

func (r *refScheduler) step() (Time, int, bool) {
	if len(r.evts) == 0 {
		return 0, 0, false
	}
	ev := r.evts[0]
	r.evts = r.evts[1:]
	r.now = ev.at
	return ev.at, ev.tag, true
}

func (r *refScheduler) runUntil(t Time) []refEvent {
	var fired []refEvent
	for len(r.evts) > 0 && r.evts[0].at <= t {
		at, tag, _ := r.step()
		fired = append(fired, refEvent{at: at, tag: tag})
	}
	if t > r.now {
		r.now = t
	}
	return fired
}

func (r *refScheduler) reset() {
	r.evts = r.evts[:0]
	r.now = 0
	r.seq = 0
}

// --- Golden dispatch-order equivalence ------------------------------------

// TestEngineGoldenDispatchEquivalence drives the sharded engine and the
// single-queue reference through the same seeded random workload —
// schedules spread across many domains, single steps, RunUntil sweeps and
// full Resets — and asserts the dispatch
// sequences (time, callback tag) are identical. This is the cross-check
// that sharding plus the tournament tree is a pure data-structure change:
// the global (time, seq) order, including FIFO among equal times across
// different shards, is exactly the single-heap order.
func TestEngineGoldenDispatchEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1234} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			e := NewEngine()
			doms := []DomainID{DefaultDomain}
			for i := 0; i < 7; i++ {
				doms = append(doms, e.Domain(fmt.Sprintf("shard%d", i)))
			}
			ref := &refScheduler{}
			rng := NewRNG(seed)

			var gotAt, wantAt []Time
			var gotTag, wantTag []int
			tag := 0

			record := func(tg int) func() {
				return func() {
					gotAt = append(gotAt, e.Now())
					gotTag = append(gotTag, tg)
				}
			}

			stepBoth := func() {
				at, tg, ok := ref.step()
				stepped := e.Step()
				if stepped != ok {
					t.Fatalf("Step=%v, reference=%v (pending %d vs %d)",
						stepped, ok, e.Pending(), len(ref.evts))
				}
				if ok {
					wantAt = append(wantAt, at)
					wantTag = append(wantTag, tg)
				}
			}

			for op := 0; op < 20000; op++ {
				switch r := rng.Intn(100); {
				case r < 60: // schedule into a random domain
					d := Duration(rng.Intn(50)) // small range: many time ties
					dom := doms[rng.Intn(len(doms))]
					tg := tag
					tag++
					e.ScheduleIn(dom, d, record(tg))
					ref.schedule(d, tg)
				case r < 90: // dispatch one event
					stepBoth()
				case r < 97: // RunUntil a nearby horizon
					horizon := e.Now() + Duration(rng.Intn(30))
					fired := ref.runUntil(horizon)
					for _, f := range fired {
						wantAt = append(wantAt, f.at)
						wantTag = append(wantTag, f.tag)
					}
					e.RunUntil(horizon)
					if e.Now() != ref.now {
						t.Fatalf("RunUntil(%v): now %v vs reference %v", horizon, e.Now(), ref.now)
					}
				default: // full reset
					e.Reset()
					ref.reset()
				}
				if e.Pending() != len(ref.evts) {
					t.Fatalf("op %d: Pending %d vs reference %d", op, e.Pending(), len(ref.evts))
				}
			}
			// Drain what's left.
			for e.Pending() > 0 {
				stepBoth()
			}

			if len(gotAt) != len(wantAt) {
				t.Fatalf("dispatched %d events, reference %d", len(gotAt), len(wantAt))
			}
			for i := range gotAt {
				if gotAt[i] != wantAt[i] || gotTag[i] != wantTag[i] {
					t.Fatalf("dispatch %d: got (t=%v tag=%d), want (t=%v tag=%d)",
						i, gotAt[i], gotTag[i], wantAt[i], wantTag[i])
				}
			}
		})
	}
}

// --- Domain semantics ------------------------------------------------------

func TestEngineDomainRegistration(t *testing.T) {
	e := NewEngine()
	if st := e.DomainStats(); len(st) != 1 || st[0].ID != DefaultDomain || st[0].Name != "default" {
		t.Fatalf("fresh engine's domains: %+v", st)
	}
	a := e.Domain("nand.ch0")
	b := e.Domain("nand.ch1")
	if a == DefaultDomain || b == DefaultDomain || a == b {
		t.Fatalf("domain ids not distinct: %d %d", a, b)
	}
	if e.Domain("nand.ch0") != a {
		t.Fatal("re-registration must be idempotent")
	}
	if e.Domain("default") != DefaultDomain {
		t.Fatal("\"default\" must name the default domain")
	}
	if st := e.DomainStats(); len(st) != 3 || st[a].Name != "nand.ch0" || st[b].Name != "nand.ch1" {
		t.Fatalf("DomainStats = %+v, want default, nand.ch0, nand.ch1", st)
	}
}

// TestEngineFIFOAcrossDomains locks in the cross-shard tie rule: events at
// the same instant fire in schedule order no matter which domains they
// landed in, because the sequence counter is engine-global.
func TestEngineFIFOAcrossDomains(t *testing.T) {
	e := NewEngine()
	d1 := e.Domain("a")
	d2 := e.Domain("b")
	var order []int
	for i := 0; i < 30; i++ {
		i := i
		dom := DefaultDomain
		switch i % 3 {
		case 1:
			dom = d1
		case 2:
			dom = d2
		}
		e.ScheduleIn(dom, 5*Nanosecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time cross-domain dispatch out of FIFO: %v", order)
		}
	}
}

// TestEngineDomainRegisteredWhileQueued: registering a new domain (which
// regrows the tournament tree) must not disturb already-queued events.
func TestEngineDomainRegisteredWhileQueued(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.ScheduleIn(DefaultDomain, Duration(10+i)*Nanosecond, func() { order = append(order, i) })
	}
	// Force tree growth past the next power of two with events in flight.
	var doms []DomainID
	for i := 0; i < 9; i++ {
		doms = append(doms, e.Domain(fmt.Sprintf("late%d", i)))
	}
	for i := 5; i < 10; i++ {
		i := i
		e.ScheduleIn(doms[i-5], Duration(10+i)*Nanosecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("dispatch disturbed by mid-flight domain registration: %v", order)
		}
	}
}

func TestEngineDomainStats(t *testing.T) {
	e := NewEngine()
	d := e.Domain("nand.ch0")
	e.ScheduleIn(d, Nanosecond, func() {})
	e.ScheduleIn(d, 2*Nanosecond, func() {})
	e.ScheduleIn(DefaultDomain, 3*Nanosecond, func() {})
	st := e.DomainStats()
	if len(st) != 2 {
		t.Fatalf("DomainStats has %d entries", len(st))
	}
	if st[d].Pending != 2 || st[DefaultDomain].Pending != 1 {
		t.Fatalf("pending counts: %+v", st)
	}
	e.Run()
	st = e.DomainStats()
	if st[d].Dispatched != 2 || st[DefaultDomain].Dispatched != 1 {
		t.Fatalf("dispatched counts: %+v", st)
	}
	if st[d].Name != "nand.ch0" {
		t.Fatalf("name = %q", st[d].Name)
	}
	// Reset keeps lifetime dispatch counts, drops queues.
	e.ScheduleIn(d, Nanosecond, func() {})
	e.Reset()
	st = e.DomainStats()
	if st[d].Dispatched != 2 || st[d].Pending != 0 {
		t.Fatalf("after Reset: %+v", st[d])
	}
}

// TestEngineCallbackSchedulesIntoOwnShard dispatches the head of a container
// filled exactly to its capacity, from a callback that schedules two more
// events into that same container: the first takes the slot the pop freed,
// the second makes it grow while its former head is still running. The heap
// leg fills the heap with events the ring cannot place (five times repeated
// over and over), so append moves the heap; the ring leg fills the ring in
// time order, so it doubles and unwraps. Dispatch order and Pending — read
// inside the callback too — must match the reference, which holds only if
// the engine takes the event out of its container before calling it and
// keeps no pointer into the old array.
func TestEngineCallbackSchedulesIntoOwnShard(t *testing.T) {
	for _, leg := range []struct {
		name  string
		store func(*Engine) []event // the container's occupied slots, its capacity as cap
		delay func(tag int) Duration
	}{
		{"heap", func(e *Engine) []event { return e.heap }, func(tag int) Duration { return Duration(2 + tag%5) }},
		{"ring", func(e *Engine) []event { return e.ring[:e.ringLen] }, func(tag int) Duration { return Duration(2 + tag) }},
	} {
		t.Run(leg.name, func(t *testing.T) {
			e := NewEngine()
			dom := e.Domain("a")
			ref := &refScheduler{}
			var got, want []int
			tag := 0
			schedule := func(d Duration, then func()) {
				tg := tag
				tag++
				ref.schedule(d, tg)
				e.ScheduleIn(dom, d, func() {
					got = append(got, tg)
					if then != nil {
						then()
					}
				})
			}
			checkPending := func(when string) {
				t.Helper()
				if e.Pending() != len(ref.evts) {
					t.Fatalf("%s: Pending %d vs reference %d", when, e.Pending(), len(ref.evts))
				}
			}
			schedule(1, func() {
				checkPending("entering the head callback")
				schedule(0, nil) // same instant, later sequence: fires next
				schedule(3, nil) // one past capacity: the container moves mid-dispatch
				checkPending("leaving the head callback")
			})
			for s := leg.store(e); len(s) < 8 || len(s) < cap(s); s = leg.store(e) {
				schedule(leg.delay(tag), nil)
			}
			full := cap(leg.store(e))
			for {
				_, tg, ok := ref.step()
				if stepped := e.Step(); stepped != ok {
					t.Fatalf("Step=%v, reference=%v", stepped, ok)
				}
				if !ok {
					break
				}
				want = append(want, tg)
				checkPending("after a step")
			}
			if c := cap(leg.store(e)); c <= full {
				t.Fatalf("%s capacity %d never grew past %d: the callback did not force a reallocation", leg.name, c, full)
			}
			if !reflect.DeepEqual(got, want) || len(got) != tag {
				t.Fatalf("dispatch order %v, reference %v (%d scheduled)", got, want, tag)
			}
		})
	}
}

// TestEngineHotLoopAllocFree is the multi-domain counterpart of
// TestEngineScheduleStepAllocFree: schedule/step churn across many shards
// at steady queue depth must not allocate.
func TestEngineHotLoopAllocFree(t *testing.T) {
	e := NewEngine()
	doms := make([]DomainID, 13)
	doms[0] = DefaultDomain
	for i := 1; i < len(doms); i++ {
		doms[i] = e.Domain(fmt.Sprintf("nand.ch%d", i-1))
	}
	fn := func() {}
	// Warm the shard heaps to steady depth.
	for i := 0; i < 64*len(doms); i++ {
		e.ScheduleIn(doms[i%len(doms)], Duration(i%97)*Nanosecond, fn)
	}
	e.Run()
	for i := 0; i < 48*len(doms); i++ {
		e.ScheduleIn(doms[i%len(doms)], Duration(i%97)*Nanosecond, fn)
	}
	if e.ringLen == 0 || len(e.heap) == 0 {
		t.Fatalf("warm-up left %d events in the ring and %d in the heap, want both used", e.ringLen, len(e.heap))
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		e.ScheduleIn(doms[i%len(doms)], Duration(50+i%13)*Nanosecond, fn)
		e.Step()
		i++
	})
	if allocs != 0 {
		t.Fatalf("sharded schedule/step allocated %.1f objects per run, want 0", allocs)
	}
}
