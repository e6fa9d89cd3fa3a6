package cpu

import (
	"testing"
	"testing/quick"

	"amber/internal/sim"
)

func newTestComplex(t *testing.T) *Complex {
	t.Helper()
	c, err := New(Config{Cores: 3, FrequencyMHz: 500, IPC: 1.0}, DefaultPower())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	for i, cfg := range []Config{
		{Cores: 0, FrequencyMHz: 500, IPC: 1},
		{Cores: 1, FrequencyMHz: 0, IPC: 1},
		{Cores: 1, FrequencyMHz: 500, IPC: 0},
	} {
		if _, err := New(cfg, Power{}); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestInstrMixArithmetic(t *testing.T) {
	m := InstrMix{Branch: 1, Load: 2, Store: 3, Arith: 4, FP: 5, Other: 6}
	if m.Total() != 21 {
		t.Fatalf("Total = %d", m.Total())
	}
	s := m.Add(m)
	if s.Total() != 42 || s.Load != 4 {
		t.Fatalf("Add = %+v", s)
	}
	k := m.Scale(3)
	if k.Total() != 63 || k.FP != 15 {
		t.Fatalf("Scale = %+v", k)
	}
}

func TestMixWithFractions(t *testing.T) {
	m := MixWith(1000, 0.1, 0.3, 0.3, 0.2, 0.05)
	if m.Total() != 1000 {
		t.Fatalf("MixWith total = %d, want 1000", m.Total())
	}
	if m.Branch != 100 || m.Load != 300 || m.Store != 300 || m.Arith != 200 || m.FP != 50 {
		t.Fatalf("MixWith = %+v", m)
	}
	if m.Other != 50 {
		t.Fatalf("Other = %d", m.Other)
	}
}

// Property: MixWith always produces exactly the requested total.
func TestMixTotalsProperty(t *testing.T) {
	f := func(n uint32) bool {
		return Mix(uint64(n)).Total() == uint64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultMixLoadStoreDominant(t *testing.T) {
	// The paper reports loads+stores ~60% of firmware instructions.
	frac := Mix(100000).LoadStoreFraction()
	if frac < 0.55 || frac > 0.65 {
		t.Fatalf("load/store fraction = %v, want ~0.6", frac)
	}
}

func TestExecTime(t *testing.T) {
	c := newTestComplex(t)
	// 500 instructions at IPC 1, 500 MHz => 1us.
	got := c.ExecTime(Mix(500))
	if got != sim.Microsecond {
		t.Fatalf("ExecTime = %v, want 1us", got)
	}
}

func TestExecutePinnedQueues(t *testing.T) {
	c := newTestComplex(t)
	mix := Mix(500) // 1us each
	_, end1 := c.Execute(0, 1, "hil", mix)
	start2, end2 := c.Execute(0, 1, "hil", mix)
	if start2 != end1 || end2 != 2*sim.Microsecond {
		t.Fatalf("pinned work must queue: start2=%v end2=%v", start2, end2)
	}
	// A different core is free.
	start3, _ := c.Execute(0, 2, "ftl", mix)
	if start3 != 0 {
		t.Fatalf("other core should start immediately, got %v", start3)
	}
}

func TestExecuteAnyBalances(t *testing.T) {
	c := newTestComplex(t)
	mix := Mix(500)
	for i := 0; i < 3; i++ {
		start, _ := c.ExecuteAny(0, "gc", mix)
		if start != 0 {
			t.Fatalf("claim %d should start at 0 with 3 cores", i)
		}
	}
	start4, _ := c.ExecuteAny(0, "gc", mix)
	if start4 == 0 {
		t.Fatal("fourth concurrent claim must wait")
	}
}

func TestExecuteOutOfRangeCoreClamped(t *testing.T) {
	c := newTestComplex(t)
	// Out-of-range cores fall back to core 0 rather than panicking.
	_, end := c.Execute(0, 99, "x", Mix(500))
	if end == 0 {
		t.Fatal("execution did not happen")
	}
	_, end2 := c.Execute(0, -1, "x", Mix(500))
	if end2 <= end {
		t.Fatal("clamped core should queue behind earlier work on core 0")
	}
}

func TestAccounting(t *testing.T) {
	c := newTestComplex(t)
	c.Execute(0, 0, "hil", Mix(1000))
	c.Execute(0, 1, "ftl", Mix(2000))
	c.Execute(0, 0, "hil", Mix(1000))
	if got := c.Instructions().Total(); got != 4000 {
		t.Fatalf("total instructions = %d", got)
	}
	if got := c.ModuleInstructions("hil").Total(); got != 2000 {
		t.Fatalf("hil instructions = %d", got)
	}
	mods := c.Modules()
	if len(mods) != 2 || mods[0] != "ftl" || mods[1] != "hil" {
		t.Fatalf("Modules = %v", mods)
	}
}

func TestEnergyAndPower(t *testing.T) {
	c := newTestComplex(t)
	c.Execute(0, 0, "hil", Mix(1_000_000))
	p := DefaultPower()
	wantDyn := p.EnergyPerInstrJ * 1e6
	if got := c.EnergyJoules(); !approx(got, wantDyn, 1e-9) {
		t.Fatalf("EnergyJoules = %v, want %v", got, wantDyn)
	}
	tot := c.TotalEnergyJoules(sim.Second)
	wantTot := wantDyn + 3*p.LeakageWPerCore
	if !approx(tot, wantTot, 1e-9) {
		t.Fatalf("TotalEnergyJoules = %v, want %v", tot, wantTot)
	}
}

func TestUtilizationAndMIPS(t *testing.T) {
	c := newTestComplex(t)
	// 1500 instructions = 3us on one core; over 9us of 3 cores => 3/27.
	c.Execute(0, 0, "hil", Mix(1500))
	if u := float64(c.BusyTime()) / float64(3*9*sim.Microsecond); !approx(u, 3.0/27.0, 1e-9) {
		t.Fatalf("utilization = %v", u)
	}
	// 1500 instructions over the 3us they took => 500 MIPS.
	if m := float64(c.Instructions().Total()) / c.BusyTime().Seconds() / 1e6; !approx(m, 500, 1e-6) {
		t.Fatalf("MIPS = %v", m)
	}
}

func TestNVMePathCostsMoreThanHType(t *testing.T) {
	// The structural reason NVMe firmware executes more instructions
	// (Fig. 13c): queue/doorbell handling per request.
	nvme := MixHILParseNVMe.Total() + MixDoorbell.Total()
	htype := MixHILParseHType.Total()
	if nvme <= 2*htype {
		t.Fatalf("NVMe per-request path (%d) should be well above h-type (%d)", nvme, htype)
	}
}

func approx(a, b, eps float64) bool {
	d := a - b
	return d < eps && d > -eps
}
