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
		if r.openRow[bi] == row {
			access = sim.Duration(r.cfg.CL) * ct
			r.stats.RowHits++
		} else {
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

// accessBoth runs one access through Access and the reference and fails
// unless both return the same time and every observable agrees after it.
func accessBoth(t *testing.T, step int, d *DRAM, ref *refDRAM, now sim.Time, addr int64, n int, write bool) {
	t.Helper()
	got := d.Access(now, addr, n, write)
	want := ref.access(now, addr, n, write)
	if got != want {
		t.Fatalf("step %d: Access(%d, %d, %d, %v) = %d, reference %d", step, now, addr, n, write, got, want)
	}
	compareToRef(t, step, d, ref)
}

// TestAccessMatchesPerBurstReference drives random access streams — 1 B to
// two cache lines, unaligned addresses, reads and writes, idle gaps and
// pile-ups — through Access and the per-burst reference, for one and two
// channels, bank service both slower and faster than
// the bus, and six organizations: the DDR3L one, and bank counts and row
// sizes that are no powers of two — 6 banks; 3 banks of 1000-byte rows, which
// bursts straddle; 5 banks of 24-byte rows, smaller than a burst, so a
// row-run is one burst and the next starts two rows on; 5 banks of 2 KiB and
// 7 of 96-byte rows, odd bank counts whose rows are whole bursts. The
// reference locates every burst by division; Access divides once and steps.
// Returned time, Stats, every bank and bus timeline, open rows and energy
// must agree after every access.
//
// After the random stream comes the whole-pass size class: up to eight cache
// lines starting at every bank, once inside a row's first burst and once
// anywhere in the row, half of them in the row the bank has open — so Access
// settles many whole passes at once (passes), with the first pass hitting or
// missing, behind leading and trailing row-runs of every length.
func TestAccessMatchesPerBurstReference(t *testing.T) {
	const lineBytes = 120 * 8192
	for _, org := range []struct{ banks, rowBytes int }{{8, 2048}, {6, 2048}, {3, 1000}, {5, 24}, {5, 2048}, {7, 96}} {
		for _, channels := range []int{1, 2} {
			for _, cl := range []int{11, 2} { // CL 11: h > bt; CL 2: h < bt
				name, steps := fmt.Sprintf("open-page/ch%d/cl%d", channels, cl), 400
				if org.banks != 8 || org.rowBytes != 2048 {
					name, steps = name+fmt.Sprintf("/%dx%d", org.banks, org.rowBytes), 150
				}
				t.Run(name, func(t *testing.T) {
					cfg := DDR3L1600(1 << 30)
					cfg.BanksPerRank, cfg.RowBytes = org.banks, org.rowBytes
					cfg.Channels, cfg.CL = channels, cl
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
						accessBoth(t, step, d, ref, now, addr, n, write)
					}
					rowBytes, burst := int64(org.rowBytes), cfg.BurstBytes()
					for b := range d.banks {
						for _, off := range []int64{int64(rng.Intn(burst)) % rowBytes, int64(rng.Intn(org.rowBytes))} {
							row := int64(rng.Intn(1 << 12))
							if open := d.banks[b].openRow; open >= 0 && rng.Intn(2) == 0 {
								row = open
							}
							addr := (row*int64(len(d.banks))+int64(b))*rowBytes + off
							now += sim.Time(rng.Intn(1_000_000))
							accessBoth(t, steps+b, d, ref, now, addr, 1+rng.Intn(8*lineBytes), rng.Intn(2) == 0)
						}
					}
				})
			}
		}
	}
}

// FuzzAccessMatchesReference draws an organization — 1 to 9 banks a rank, 1
// to 3 channels, rows of whole bursts or not (24 to 2048 bytes), CL 1 to 16
// — and up to 64 accesses from the fuzz bytes, and holds
// Access to the per-burst reference after every one. Seven bytes an access:
// three of address over 64 rows a bank (rows come back, and with them open
// rows), three of length up to 16 whole passes and two rows, and one of
// direction, clock and "the previous address again" (re-reading a region
// whose rows are open: the first pass hits).
func FuzzAccessMatchesReference(f *testing.F) {
	f.Add([]byte{7, 0, 7, 10, 0, 0, 0, 0, 255, 255, 0, 0, 0, 0, 0, 0, 255, 255, 0, 8})
	f.Add([]byte{2, 1, 3, 1, 16, 0, 0, 1, 2, 3, 9, 8, 0, 9, 8, 7, 6, 5, 4, 2})
	f.Add([]byte{4, 0, 4, 3, 100, 0, 0, 0, 16, 0, 0, 200, 0, 0, 255, 255, 255, 10, 0, 0, 0, 1, 0, 0, 12})
	rowSizes := []int{24, 32, 64, 96, 100, 160, 1000, 2048}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		cfg := DDR3L1600(1 << 30)
		cfg.BanksPerRank = 1 + int(data[0]%9)
		cfg.Channels = 1 + int(data[1]%3)
		cfg.RowBytes = rowSizes[data[2]%8]
		cfg.CL = 1 + int(data[3]%16)
		d, err := New(cfg, DefaultPower())
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefDRAM(cfg, DefaultPower())
		rowBytes := int64(cfg.RowBytes)
		span := 64 * int64(cfg.TotalBanks()) * rowBytes
		maxN := 16*int64(cfg.TotalBanks())*rowBytes + 2*rowBytes
		now, addr := sim.Time(0), int64(0)
		data = data[4:]
		for step := 0; step < 64 && len(data) >= 7; step++ {
			a := int64(data[0]) | int64(data[1])<<8 | int64(data[2])<<16
			n := int64(data[3]) | int64(data[4])<<8 | int64(data[5])<<16
			op := data[6]
			data = data[7:]
			if op&8 == 0 {
				addr = a % span
			}
			switch op >> 4 & 3 {
			case 1:
				now += sim.Time(op>>6) * 1000
			case 2:
				now = sim.MaxOf(now, d.busyUntil)
			case 3:
				now += 10 * sim.Microsecond
			}
			accessBoth(t, step, d, ref, now, addr, int(1+n%maxN), op&1 != 0)
		}
	})
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
