package dram

import (
	"testing"
	"testing/quick"

	"amber/internal/sim"
)

func newTestDRAM(t *testing.T, policy PagePolicy) *DRAM {
	t.Helper()
	cfg := DDR3L1600(1 << 30)
	cfg.Policy = policy
	d, err := New(cfg, DefaultPower())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidate(t *testing.T) {
	cfg := DDR3L1600(1 << 30)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.CapacityBytes = 0 },
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.BusWidthBits = 12 },
		func(c *Config) { c.ClockMHz = 0 },
		func(c *Config) { c.BurstLength = 0 },
		func(c *Config) { c.CL = 0 },
		func(c *Config) { c.RowBytes = 0 },
	}
	for i, mutate := range cases {
		c := DDR3L1600(1 << 30)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestDerivedQuantities(t *testing.T) {
	cfg := DDR3L1600(1 << 30)
	if got := cfg.BurstBytes(); got != 32 {
		t.Fatalf("BurstBytes = %d, want 32", got)
	}
	if cfg.TotalBanks() != 8 {
		t.Fatalf("TotalBanks = %d", cfg.TotalBanks())
	}
	// Burst time: 4 cycles at 1.25ns = 5ns.
	if got := cfg.BurstTime(); got != 5*sim.Nanosecond {
		t.Fatalf("BurstTime = %v", got)
	}
}

func TestOpenPageHitFasterThanMiss(t *testing.T) {
	d := newTestDRAM(t, OpenPage)
	// First access: row miss (activate).
	t0 := sim.Time(0)
	done1 := d.Access(t0, 0, 32, false)
	// Second access to the same row far in the future: row hit.
	t1 := sim.FromMicroseconds(10)
	done2 := d.Access(t1, 32, 32, false)
	missLat := done1 - t0
	hitLat := done2 - t1
	if hitLat >= missLat {
		t.Fatalf("row hit (%v) should be faster than miss (%v)", hitLat, missLat)
	}
	s := d.Stats()
	if s.RowHits != 1 || s.RowMisses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestClosePageConstantLatency(t *testing.T) {
	d := newTestDRAM(t, ClosePage)
	l1 := d.Access(0, 0, 32, false) - 0
	t1 := sim.FromMicroseconds(10)
	l2 := d.Access(t1, 0, 32, false) - t1
	if l1 != l2 {
		t.Fatalf("close-page latencies differ: %v vs %v", l1, l2)
	}
	if d.Stats().RowHits != 0 {
		t.Fatal("close-page should record no row hits")
	}
}

func TestLargeAccessUsesMultipleBursts(t *testing.T) {
	d := newTestDRAM(t, OpenPage)
	small := d.Access(0, 0, 32, false) - 0
	d2 := newTestDRAM(t, OpenPage)
	big := d2.Access(0, 0, 4096, false) - 0
	if big <= small {
		t.Fatalf("4KB access (%v) should take longer than one burst (%v)", big, small)
	}
	if d2.Stats().BytesRead != 4096 {
		t.Fatalf("BytesRead = %d", d2.Stats().BytesRead)
	}
}

func TestBankInterleavingParallelism(t *testing.T) {
	// Two row-missing accesses to different banks overlap their activates;
	// to the same bank they serialize.
	cfg := DDR3L1600(1 << 30)
	d, _ := New(cfg, DefaultPower())
	rowBytes := int64(cfg.RowBytes)
	// addr 0 -> bank 0 row 0; addr rowBytes -> bank 1.
	doneA := d.Access(0, 0, 32, false)
	doneB := d.Access(0, rowBytes, 32, false)
	gap := doneB - doneA
	if gap > cfg.BurstTime() {
		t.Fatalf("different banks should overlap: gap %v", gap)
	}

	d2, _ := New(cfg, DefaultPower())
	// Same bank, different rows: serialized row cycles.
	doneC := d2.Access(0, 0, 32, false)
	doneD := d2.Access(0, rowBytes*int64(cfg.TotalBanks()), 32, false)
	if doneD <= doneC {
		t.Fatal("same-bank conflicting rows must serialize")
	}
}

func TestReserveRelease(t *testing.T) {
	d := newTestDRAM(t, OpenPage)
	if err := d.Reserve(1 << 29); err != nil {
		t.Fatal(err)
	}
	if err := d.Reserve(1 << 29); err != nil {
		t.Fatal(err)
	}
	// The two reservations fill the 1 GiB exactly.
	if err := d.Reserve(1); err == nil {
		t.Fatal("over-capacity reservation accepted")
	}
	if err := d.Reserve(-1); err == nil {
		t.Fatal("negative reservation accepted")
	}
}

func TestEnergyAccounting(t *testing.T) {
	d := newTestDRAM(t, OpenPage)
	d.Access(0, 0, 32, false)                      // 1 ACT + 1 RD burst
	d.Access(sim.FromMicroseconds(1), 0, 32, true) // row hit + 1 WR burst
	p := DefaultPower()
	want := p.ActEnergyJ + p.RdBurstEnergyJ + p.WrBurstEnergyJ
	if got := d.EnergyJoules(); !approx(got, want, 1e-15) {
		t.Fatalf("EnergyJoules = %v, want %v", got, want)
	}
	tot := d.TotalEnergyJoules(sim.Millisecond)
	if tot <= want {
		t.Fatal("total energy must include background power")
	}
}

func TestRowHitRate(t *testing.T) {
	d := newTestDRAM(t, OpenPage)
	d.Access(0, 0, 32, false)
	d.Access(sim.Microsecond, 0, 32, false)
	d.Access(2*sim.Microsecond, 0, 32, false)
	// The first read opens the row and the next two hit it.
	if st := d.Stats(); st.RowHits != 2 || st.RowMisses != 1 {
		t.Fatalf("row hits/misses = %d/%d, want 2/1", st.RowHits, st.RowMisses)
	}
}

func TestZeroByteAccessIsFree(t *testing.T) {
	d := newTestDRAM(t, OpenPage)
	if done := d.Access(5, 0, 0, false); done != 5 {
		t.Fatalf("zero-byte access advanced time to %v", done)
	}
	if d.Stats().Reads != 0 {
		t.Fatal("zero-byte access counted")
	}
}

// Property: completion time is never before submission and bytes accounting
// matches requests.
func TestAccessMonotonicProperty(t *testing.T) {
	d := newTestDRAM(t, OpenPage)
	f := func(addr uint32, n uint16, write bool, gap uint16) bool {
		now := d.busyUntil + sim.Time(gap)
		nb := int(n%8192) + 1
		before := d.Stats()
		done := d.Access(now, int64(addr), nb, write)
		after := d.Stats()
		if done < now {
			return false
		}
		if write {
			return after.BytesWritten-before.BytesWritten == uint64(nb)
		}
		return after.BytesRead-before.BytesRead == uint64(nb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func approx(a, b, eps float64) bool {
	d := a - b
	return d < eps && d > -eps
}

func BenchmarkAccess4K(b *testing.B) {
	d, err := New(DDR3L1600(1<<30), DefaultPower())
	if err != nil {
		b.Fatal(err)
	}
	now := sim.Time(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now = d.Access(now, int64(i)*4096, 4096, i%2 == 0)
	}
}
