package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// parallelHarness is a miniature system shaped like the real simulator: a
// few cross-domain "firmware" shards whose events mutate shared state and
// schedule bursts of domain-local events, plus local shards whose events
// touch only their own domain's state. It exists to compare Run,
// RunParallel(1) and RunParallel(N) for byte-identical behavior.
type parallelHarness struct {
	e       *Engine
	locals  []DomainID
	crossA  DomainID
	crossB  DomainID
	neutral DomainID // channel-neutral cross shard (horizon batching)

	localLog   [][]uint64 // per-local-domain (time<<16|tag) records
	localSum   []uint64   // per-local-domain counters
	crossLog   []uint64   // horizon snapshots: sum over localSum at each driver
	neutralLog []uint64   // per-neutral-event (time, counter) records
	rngState   uint64
	rounds     int
}

func (h *parallelHarness) rng() uint64 {
	h.rngState = h.rngState*6364136223846793005 + 1442695040888963407
	return h.rngState >> 17
}

// drive is the cross-domain driver: it snapshots the (cross-visible) local
// counters, schedules a burst of local events before its next firing, and
// reschedules itself. Local events may tie the driver's time exactly, which
// is the horizon edge case the strict (time, seq) bound must get right.
func (h *parallelHarness) drive() {
	var sum uint64
	for _, v := range h.localSum {
		sum += v
	}
	h.crossLog = append(h.crossLog, sum)
	if h.rounds <= 0 {
		return
	}
	h.rounds--
	period := Duration(1000 + h.rng()%1000)
	for i := 0; i < 40; i++ {
		d := int(h.rng()) % len(h.locals)
		dom := h.locals[d]
		tag := h.rng() & 0xffff
		// Delays 0..period inclusive: some land exactly on the next driver
		// firing and must still dispatch before it (smaller sequence).
		delay := Duration(h.rng() % uint64(period+1))
		at := h.e.Now() + delay // captured: local callbacks must not call e.Now()
		h.e.ScheduleIn(dom, delay, func() {
			h.localLog[d] = append(h.localLog[d], uint64(at)<<16|tag)
			h.localSum[d] += tag
		})
	}
	// A second cross shard interleaves mid-window horizons.
	h.e.ScheduleIn(h.crossB, period/2, func() { h.crossLog = append(h.crossLog, ^uint64(0)) })
	// Channel-neutral events land between the local bursts: they must not
	// read local state (that is the neutrality promise), so they log only
	// their own time and may schedule — including a follow-up neutral event,
	// exercising scheduling from inside the batched fast path.
	for i := 0; i < 3; i++ {
		delay := Duration(h.rng() % uint64(period+1))
		h.e.ScheduleIn(h.neutral, delay, func() {
			h.neutralLog = append(h.neutralLog, uint64(h.e.Now()))
			if len(h.neutralLog)%5 == 0 {
				h.e.ScheduleIn(h.neutral, 7, func() {
					h.neutralLog = append(h.neutralLog, uint64(h.e.Now())|1<<62)
				})
			}
		})
	}
	h.e.ScheduleIn(h.crossA, period, h.drive)
}

func newParallelHarness(nLocal, rounds int, seed uint64) *parallelHarness {
	h := &parallelHarness{e: NewEngine(), rngState: seed, rounds: rounds}
	h.crossA = h.e.Domain("cross.a")
	h.crossB = h.e.Domain("cross.b")
	h.neutral = h.e.Domain("cross.neutral")
	h.e.MarkChannelNeutral(h.neutral)
	for i := 0; i < nLocal; i++ {
		dom := h.e.Domain(fmt.Sprintf("local.%d", i))
		h.e.MarkDomainLocal(dom)
		h.locals = append(h.locals, dom)
	}
	h.localLog = make([][]uint64, nLocal)
	h.localSum = make([]uint64, nLocal)
	h.e.ScheduleIn(h.crossA, 100, h.drive)
	return h
}

func (h *parallelHarness) fingerprint() string {
	return fmt.Sprintf("now=%v dispatched=%d pending=%d doms=%+v cross=%v local=%v sums=%v neutral=%v",
		h.e.Now(), h.e.Dispatched(), h.e.Pending(), h.e.DomainStats(), h.crossLog, h.localLog, h.localSum, h.neutralLog)
}

// TestRunParallelEquivalence locks in the horizon-synchronization
// contract: serial Run, the horizon loop on one goroutine, and the horizon
// loop over several workers must leave identical state — per-domain event
// logs, cross-domain snapshots of local state, clock, dispatch counters.
func TestRunParallelEquivalence(t *testing.T) {
	const nLocal, rounds, seed = 8, 50, 12345
	serial := newParallelHarness(nLocal, rounds, seed)
	serial.e.Run()

	one := newParallelHarness(nLocal, rounds, seed)
	st1 := one.e.RunParallel(1)

	many := newParallelHarness(nLocal, rounds, seed)
	stN := many.e.RunParallel(4)

	want := serial.fingerprint()
	if got := one.fingerprint(); got != want {
		t.Fatalf("RunParallel(1) diverged:\nserial: %s\ngot:    %s", want, got)
	}
	if got := many.fingerprint(); got != want {
		t.Fatalf("RunParallel(4) diverged:\nserial: %s\ngot:    %s", want, got)
	}
	if st1.LocalEvents == 0 || st1.CrossEvents == 0 {
		t.Fatalf("degenerate run: %+v", st1)
	}
	// The horizon structure itself is deterministic: only the fan-out
	// (ParallelHorizons) may differ between worker counts.
	st1.ParallelHorizons, stN.ParallelHorizons = 0, 0
	if !reflect.DeepEqual(st1, stN) {
		t.Fatalf("horizon structure differs: %+v vs %+v", st1, stN)
	}
	if m := st1.MeanLocalPerHorizon(); m <= 0 {
		t.Fatalf("MeanLocalPerHorizon = %v", m)
	}
}

// TestRunParallelNoLocals: with no local domain every event is a cross
// event, dispatched in order with no window.
func TestRunParallelNoLocals(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Duration(i*10), func() { n++ })
	}
	st := e.RunParallel(8)
	if n != 10 || st.CrossEvents != 10 || st.Horizons != 0 {
		t.Fatalf("n=%d stats=%+v", n, st)
	}
}

// TestNextCrossDomainTime verifies the horizon scan ignores local shards
// and reports the earliest cross-domain (time, seq) key.
func TestNextCrossDomainTime(t *testing.T) {
	e := NewEngine()
	loc := e.Domain("local")
	e.MarkDomainLocal(loc)
	if _, _, ok := e.NextCrossDomainTime(); ok {
		t.Fatal("empty engine reported a cross-domain event")
	}
	e.ScheduleIn(loc, 5, func() {})
	if _, _, ok := e.NextCrossDomainTime(); ok {
		t.Fatal("local-only population reported a cross-domain event")
	}
	e.Schedule(50, func() {})
	cross := e.Domain("cross")
	e.ScheduleIn(cross, 20, func() {})
	at, seq, ok := e.NextCrossDomainTime()
	if !ok || at != 20 || seq != 2 {
		t.Fatalf("NextCrossDomainTime = (%v, %d, %v), want (20ps, 2, true)", at, seq, ok)
	}
}

// TestHorizonBatching verifies the channel-neutral fast path: neutral cross
// events dispatch without draining pending local work (BatchedCross counts
// them), the barrier count drops accordingly, and the final state still
// matches the serial dispatch (covered by the equivalence harness, which
// carries a neutral shard).
func TestHorizonBatching(t *testing.T) {
	h := newParallelHarness(8, 50, 999)
	st := h.e.RunParallel(4)
	if st.BatchedCross == 0 {
		t.Fatalf("harness with a neutral shard batched nothing: %+v", st)
	}
	if st.Barriers() != st.Horizons {
		t.Fatalf("Barriers() = %d, want Horizons = %d", st.Barriers(), st.Horizons)
	}
	if got, want := st.BarriersWithoutBatching(), st.Horizons+st.BatchedCross; got != want {
		t.Fatalf("BarriersWithoutBatching() = %d, want %d", got, want)
	}

	// The same engine shape with the neutral mark withheld must pay a
	// barrier for every one of those events and still finish identically.
	plain := newParallelHarness(8, 50, 999)
	plain.e.shards[plain.neutral].neutral = false
	st2 := plain.e.RunParallel(4)
	if st2.BatchedCross != 0 {
		t.Fatalf("unmarked run batched %d events", st2.BatchedCross)
	}
	if st2.Horizons <= st.Horizons {
		t.Fatalf("batching did not reduce windows: %d (batched) vs %d (plain)", st.Horizons, st2.Horizons)
	}
	if got, want := plain.fingerprint(), h.fingerprint(); got != want {
		t.Fatalf("batched and unbatched runs diverged:\nbatched: %s\nplain:   %s", want, got)
	}
}

// TestBatchLimit verifies the horizon-batching backstop: with a tiny batch
// limit, neutral cross heads stop skipping the drain once the eligible
// local shards' queue depth exceeds the limit (LimitBarriers counts the
// forced windows), and the final state still matches the unbounded run —
// the limit only decides when barriers are paid, never what dispatches.
func TestBatchLimit(t *testing.T) {
	const nLocal, rounds, seed = 8, 50, 4242
	free := newParallelHarness(nLocal, rounds, seed)
	stFree := free.e.RunParallel(4)

	tight := newParallelHarness(nLocal, rounds, seed)
	tight.e.batchLimit = 4
	stTight := tight.e.RunParallel(4)

	if got, want := tight.fingerprint(), free.fingerprint(); got != want {
		t.Fatalf("batch limit changed observable state:\nfree:  %s\ntight: %s", want, got)
	}
	if stTight.LimitBarriers == 0 {
		t.Fatalf("limit 4 forced no windows: %+v", stTight)
	}
	if stTight.Horizons <= stFree.Horizons {
		t.Fatalf("tight limit did not add windows: %d vs %d", stTight.Horizons, stFree.Horizons)
	}
	if stTight.BatchedCross >= stFree.BatchedCross {
		t.Fatalf("tight limit did not reduce batching: %d vs %d", stTight.BatchedCross, stFree.BatchedCross)
	}
	// Totals are invariant: every event dispatches exactly once either way.
	if la, lb := stTight.LocalEvents, stFree.LocalEvents; la != lb {
		t.Fatalf("local event totals differ: %d vs %d", la, lb)
	}
	if ca, cb := stTight.CrossEvents, stFree.CrossEvents; ca != cb {
		t.Fatalf("cross event totals differ: %d vs %d", ca, cb)
	}
}

// TestMarkChannelNeutralGuards verifies the classification is exclusive:
// a domain cannot be both domain-local and channel-neutral, and marking an
// unregistered domain panics.
func TestMarkChannelNeutralGuards(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	e := NewEngine()
	loc := e.Domain("local")
	e.MarkDomainLocal(loc)
	neu := e.Domain("neutral")
	e.MarkChannelNeutral(neu)
	e.MarkChannelNeutral(neu) // idempotent
	if !e.IsChannelNeutral(neu) || e.IsChannelNeutral(loc) {
		t.Fatal("IsChannelNeutral misreports")
	}
	mustPanic("neutral mark on local domain", func() { e.MarkChannelNeutral(loc) })
	mustPanic("local mark on neutral domain", func() { e.MarkDomainLocal(neu) })
	mustPanic("neutral mark on unregistered domain", func() { e.MarkChannelNeutral(DomainID(99)) })
}

// TestWindowGuards verifies the serial-call guards: engine mutation during
// an open window panics, as does stepping a cross-domain shard or stepping
// outside a window.
func TestWindowGuards(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}

	e := NewEngine()
	loc := e.Domain("local")
	e.MarkDomainLocal(loc)
	e.ScheduleIn(loc, 10, func() {})

	mustPanic("StepDomainUntil outside window", func() { e.StepDomainUntil(loc, MaxTime, ^uint64(0)) })

	e.BeginWindow()
	mustPanic("AtIn during window", func() { e.At(100, func() {}) })
	mustPanic("Step during window", func() { e.Step() })
	mustPanic("Reset during window", func() { e.Reset() })
	mustPanic("nested BeginWindow", func() { e.BeginWindow() })
	mustPanic("StepDomainUntil on cross shard", func() { e.StepDomainUntil(DefaultDomain, MaxTime, ^uint64(0)) })
	if n := e.StepDomainUntil(loc, MaxTime, ^uint64(0)); n != 1 {
		t.Fatalf("StepDomainUntil dispatched %d events, want 1", n)
	}
	e.EndWindow()
	mustPanic("EndWindow without BeginWindow", func() { e.EndWindow() })

	if e.Pending() != 0 || e.Dispatched() != 1 || e.Now() != 10 {
		t.Fatalf("post-window state: pending=%d dispatched=%d now=%v", e.Pending(), e.Dispatched(), e.Now())
	}
}
