package host

import (
	"bytes"
	"testing"

	"amber/internal/cpu"
	"amber/internal/sim"
	"amber/internal/snap"
)

func TestConfigValidate(t *testing.T) {
	if err := PC().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Mobile().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := PC()
	bad.CPUs = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero CPUs accepted")
	}
	bad = PC()
	bad.MemBytes = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero memory accepted")
	}
}

func TestPlatformContrast(t *testing.T) {
	pc, mob := PC(), Mobile()
	if pc.FreqMHz <= mob.FreqMHz {
		t.Fatal("PC must be faster than mobile (Table II)")
	}
	if pc.MemBandwidth <= mob.MemBandwidth {
		t.Fatal("PC memory must be faster")
	}
}

func TestSchedulerCosts(t *testing.T) {
	mk := func(k SchedulerKind) *Host {
		cfg := PC()
		cfg.Scheduler = k
		h, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	cfq, bfq, noop := mk(CFQ), mk(BFQ), mk(NoopSched)
	// CFQ submission burns the most CPU (§V-C).
	tc := cfq.Submit(0, false, 9000)
	tb := bfq.Submit(0, false, 9000)
	tn := noop.Submit(0, false, 9000)
	if !(tc > tb && tb > tn) {
		t.Fatalf("submit times: cfq=%v bfq=%v noop=%v", tc, tb, tn)
	}
	// BFQ merges sequential requests cheaply.
	seq := mk(BFQ).Submit(0, true, 9000)
	if seq >= tb {
		t.Fatal("BFQ sequential merge should be cheaper")
	}
	// CFQ's dispatch window is capped; BFQ's is not.
	if cfq.DepthCap() != 8 || bfq.DepthCap() < 1024 {
		t.Fatalf("depth caps: cfq=%d bfq=%d", cfq.DepthCap(), bfq.DepthCap())
	}
	if CFQ.String() != "cfq" || BFQ.String() != "bfq" || NoopSched.String() != "noop" {
		t.Fatal("names wrong")
	}
}

func TestCompleteChargesISR(t *testing.T) {
	h, err := New(PC())
	if err != nil {
		t.Fatal(err)
	}
	end := h.Complete(0, 7000)
	if end == 0 {
		t.Fatal("ISR took no time")
	}
	if h.CPU.BusyTime() == 0 {
		t.Fatal("ISR not charged to CPU")
	}
}

func TestMemoryAccounting(t *testing.T) {
	h, err := New(PC())
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Alloc(1 << 30); err != nil {
		t.Fatal(err)
	}
	if h.MemUsed() != 1<<30 {
		t.Fatalf("MemUsed = %d", h.MemUsed())
	}
	if err := h.Alloc(64 << 30); err == nil {
		t.Fatal("over-allocation accepted")
	}
	h.Free(1 << 30)
	if h.MemUsed() != 0 {
		t.Fatal("free did not release")
	}
	if err := h.Alloc(-1); err == nil {
		t.Fatal("negative alloc accepted")
	}
}

func TestFreeTooMuchPanics(t *testing.T) {
	h, _ := New(PC())
	defer func() {
		if recover() == nil {
			t.Fatal("over-free should panic")
		}
	}()
	h.Free(1)
}

// refSubmit and refComplete are the unmemoized kernel paths Submit and
// Complete are held equal to: the mix rebuilt from the arguments and priced
// on every call. They exist only here.
func refSubmit(h *Host, now sim.Time, sequential bool, driverInstr uint64) sim.Time {
	_, end := h.CPU.ExecuteAny(now, "kernel.submit", cpu.Mix(driverInstr+h.schedulerInstr(sequential)))
	return end
}

func refComplete(h *Host, now sim.Time, isrInstr uint64) sim.Time {
	_, end := h.CPU.ExecuteAny(now, "kernel.isr", cpu.Mix(isrInstr))
	return end
}

// TestKernelChargesMatchUnmemoized drives Submit and Complete with the
// budgets a real system passes (one driver budget; the ISR budget and the
// passive path's half of it) and with budgets that change from call to call
// — alternating, repeating, zero — under each scheduler, a twin host taking
// the same calls through the unmemoized reference. Times must agree call by
// call and the CPU images after each, across a state round trip too.
func TestKernelChargesMatchUnmemoized(t *testing.T) {
	image := func(h *Host) []byte {
		c := snap.Encoding()
		_ = h.State(c) // encoding cannot fail
		return c.Bytes()
	}
	for _, k := range []SchedulerKind{NoopSched, CFQ, BFQ} {
		t.Run(k.String(), func(t *testing.T) {
			cfg := Mobile()
			cfg.Scheduler = k
			got, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, _ := New(cfg)
			rng := sim.NewRNG(uint64(k) + 3)
			driver := []uint64{9000, 11000, 0, 14000}
			isr := []uint64{7000, 3500, 0, 11000}
			var now sim.Time
			for step := 0; step < 4000; step++ {
				now += sim.Time(rng.Intn(2_000_000))
				// Long runs of one budget, then stretches where every call
				// brings another one.
				pick := 0
				if step/200%2 == 1 {
					pick = rng.Intn(4)
				}
				var g, w sim.Time
				switch rng.Intn(3) {
				case 0:
					seq := rng.Intn(2) == 0
					g, w = got.Submit(now, seq, driver[pick]), refSubmit(ref, now, seq, driver[pick])
				case 1:
					g, w = got.Complete(now, isr[pick]), refComplete(ref, now, isr[pick])
				default:
					// The two ISR budgets of one protocol, back to back.
					g, w = got.Complete(now, isr[step%2]), refComplete(ref, now, isr[step%2])
				}
				if g != w {
					t.Fatalf("step %d: end %d, reference %d", step, g, w)
				}
				if step%97 == 0 {
					if err := got.State(snap.Decoding(image(got))); err != nil {
						t.Fatal(err)
					}
				}
				if !bytes.Equal(image(got), image(ref)) {
					t.Fatalf("step %d: host images differ (energy %v vs %v)", step,
						got.CPU.EnergyJoules(), ref.CPU.EnergyJoules())
				}
			}
		})
	}
}
