package dram

import (
	"fmt"
	"math"
	"testing"

	"amber/internal/sim"
)

// refDRAM is the per-burst reference Access is held equal to: one bank claim
// and one bus claim per burst, energy accumulated event by event — the walk
// the closed form in Access replaced. It exists only here.
type refDRAM struct {
	cfg     Config
	pow     Power
	bus     []*sim.Resource
	banks   []*sim.Resource
	openRow []int64
	stats   Stats
	energyJ float64
	adds    int // float additions into energyJ
}

func newRefDRAM(cfg Config, pow Power) *refDRAM {
	r := &refDRAM{cfg: cfg, pow: pow}
	for i := 0; i < cfg.Channels; i++ {
		r.bus = append(r.bus, sim.NewResource("ref.ch"))
	}
	for i := 0; i < cfg.TotalBanks(); i++ {
		r.banks = append(r.banks, sim.NewResource("ref.bank"))
		r.openRow = append(r.openRow, -1)
	}
	return r
}

func (r *refDRAM) access(now sim.Time, addr int64, n int, write bool) sim.Time {
	if n <= 0 {
		return now
	}
	ct := r.cfg.CycleTime()
	burstBytes := int64(r.cfg.BurstBytes())
	bt := r.cfg.BurstTime()
	burstE := r.pow.RdBurstEnergyJ
	if write {
		burstE = r.pow.WrBurstEnergyJ
	}
	done := now
	bursts := (int64(n) + burstBytes - 1) / burstBytes
	for b := int64(0); b < bursts; b++ {
		// Burst b starts at addr + b·burstBytes and belongs to the row that
		// address is in (the controller does not realign an access).
		a := addr + b*burstBytes
		row := a / int64(r.cfg.RowBytes)
		bi := int(row % int64(len(r.banks)))
		row /= int64(len(r.banks))
		var access sim.Duration
		switch {
		case r.cfg.Policy == ClosePage:
			access = sim.Duration(r.cfg.RCD+r.cfg.CL) * ct
			r.stats.Activates++
			r.energyJ += r.pow.ActEnergyJ
			r.adds++
		case r.openRow[bi] == row:
			access = sim.Duration(r.cfg.CL) * ct
			r.stats.RowHits++
		default:
			access = sim.Duration(r.cfg.RP+r.cfg.RCD+r.cfg.CL) * ct
			r.stats.RowMisses++
			r.stats.Activates++
			r.energyJ += r.pow.ActEnergyJ
			r.adds++
			r.openRow[bi] = row
		}
		_, bankReady := r.banks[bi].Claim(now, access)
		_, burstDone := r.bus[bi%r.cfg.Channels].Claim(bankReady, bt)
		r.energyJ += burstE
		r.adds++
		if burstDone > done {
			done = burstDone
		}
	}
	if write {
		r.stats.Writes++
		r.stats.BytesWritten += uint64(n)
	} else {
		r.stats.Reads++
		r.stats.BytesRead += uint64(n)
	}
	return done
}

// compareToRef fails unless every observable of d equals the reference's.
func compareToRef(t *testing.T, step int, d *DRAM, r *refDRAM) {
	t.Helper()
	if d.Stats() != r.stats {
		t.Fatalf("step %d: stats %+v, reference %+v", step, d.Stats(), r.stats)
	}
	for i, b := range d.bus {
		if b.State() != r.bus[i].State() {
			t.Fatalf("step %d: bus %d %+v, reference %+v", step, i, b.State(), r.bus[i].State())
		}
	}
	for i := range d.banks {
		if d.banks[i].res.State() != r.banks[i].State() {
			t.Fatalf("step %d: bank %d %+v, reference %+v", step, i, d.banks[i].res.State(), r.banks[i].State())
		}
		if d.banks[i].openRow != r.openRow[i] {
			t.Fatalf("step %d: bank %d open row %d, reference %d", step, i, d.banks[i].openRow, r.openRow[i])
		}
	}
	// The reference's event-by-event float sum is the inexact side: n
	// additions of positive terms are off by at most n·2⁻⁵³ relative
	// (below 1e-12 up to 9 000 events), the counted product by 3 roundings.
	tol := float64(r.adds+4) * 0x1p-53
	if got, want := d.EnergyJoules(), r.energyJ; math.Abs(got-want) > tol*math.Abs(want) {
		t.Fatalf("step %d: energy %v, reference %v (tolerance %.2g relative)", step, got, want, tol)
	}
}

// TestAccessMatchesPerBurstReference drives random access streams — 1 B to
// two cache lines, unaligned addresses, reads and writes, idle gaps and
// pile-ups — through Access and the per-burst reference, for both page
// policies, one and two channels, bank service both slower and faster than
// the bus, and four organizations: the DDR3L one, and bank counts and row
// sizes that are no powers of two — 6 banks; 3 banks of 1000-byte rows, which
// bursts straddle; 5 banks of 24-byte rows, smaller than a burst, so a
// row-run is one burst and the next starts two rows on. The reference locates
// every burst by division; Access divides once and steps. Returned time,
// Stats, every bank and bus timeline, open rows and energy must agree after
// every access.
func TestAccessMatchesPerBurstReference(t *testing.T) {
	const lineBytes = 120 * 8192
	for _, org := range []struct{ banks, rowBytes int }{{8, 2048}, {6, 2048}, {3, 1000}, {5, 24}} {
		for _, policy := range []PagePolicy{OpenPage, ClosePage} {
			for _, channels := range []int{1, 2} {
				for _, cl := range []int{11, 2} { // CL 11: h > bt; CL 2: h < bt
					name, steps := fmt.Sprintf("%v/ch%d/cl%d", policy, channels, cl), 400
					if org.banks != 8 || org.rowBytes != 2048 {
						name, steps = name+fmt.Sprintf("/%dx%d", org.banks, org.rowBytes), 150
					}
					t.Run(name, func(t *testing.T) {
						cfg := DDR3L1600(1 << 30)
						cfg.BanksPerRank, cfg.RowBytes = org.banks, org.rowBytes
						cfg.Policy, cfg.Channels, cfg.CL = policy, channels, cl
						d, err := New(cfg, DefaultPower())
						if err != nil {
							t.Fatal(err)
						}
						ref := newRefDRAM(cfg, DefaultPower())
						rng := sim.NewRNG(uint64(7 + 31*channels + cl))
						now := sim.Time(0)
						for step := 0; step < steps; step++ {
							var n int
							switch rng.Intn(4) {
							case 0:
								n = 1 + rng.Intn(64)
							case 1:
								n = 1 + rng.Intn(8192)
							case 2:
								n = 4096
							default:
								n = 1 + rng.Intn(2*lineBytes)
							}
							addr := int64(rng.Intn(1<<30 - 2*lineBytes))
							if rng.Intn(3) == 0 {
								addr &^= 4095
							}
							write := rng.Intn(2) == 0
							// Mostly pile onto busy banks; sometimes let them drain.
							switch rng.Intn(4) {
							case 0:
								now += sim.Time(rng.Intn(2_000_000))
							case 1:
								now = sim.MaxOf(now, d.busyUntil) + sim.Time(rng.Intn(1000))
							}
							got := d.Access(now, addr, n, write)
							want := ref.access(now, addr, n, write)
							if got != want {
								t.Fatalf("step %d: Access(%d, %d, %d, %v) = %d, reference %d", step, now, addr, n, write, got, want)
							}
							compareToRef(t, step, d, ref)
						}
					})
				}
			}
		}
	}
}

func BenchmarkAccessLine(b *testing.B) {
	d, err := New(DDR3L1600(1<<30), DefaultPower())
	if err != nil {
		b.Fatal(err)
	}
	const lineBytes = 120 * 8192
	now := sim.Time(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now = d.Access(now, int64(i%512)*lineBytes, lineBytes, i%2 == 0)
	}
}
