// Package dram models the SSD's internal DRAM and memory controller: DDR
// timing (tCL/tRCD/tRP), per-bank row-buffer state with open-page and
// close-page policies, bank interleaving, data-bus contention, a
// DRAMPower-style energy model with active-standby and power-down
// states, and a capacity accountant used by the firmware for cached data,
// metadata and mapping tables (§III-B).
//
// Timing is per burst, computed per row-run. An access is a train of
// bursts; successive bursts stay in one (bank, row) until the address
// crosses a row boundary, and the k bursts of such a run all queue at the
// access time `now`: each claims its bank (the first for a — hit, miss or
// close-page latency — the others for h) and then the channel's data bus
// for the burst time bt. Access does not walk the bursts; per run it
// applies the walk's exact integer closed form (sim.Resource.ClaimRun):
//
//	bankReady₀ = max(now, bank.freeAt) + a
//	bank.freeAt = bankReady₀ + (k-1)·h
//	bus.freeAt = max(bus.freeAt + k·bt, bankReady₀ + k·bt, bankReady₀ + (k-1)·h + bt)
//
// with busy time and claim counts advanced by the same totals. Derivation:
// the bank is claimed k times at one arrival time, so it serves back to
// back and burst i leaves it at bankReady₀ + i·h. The bus then sees the
// max-plus recurrence busEnd_i = max(bankReady_i, busEnd_{i-1}) + bt, whose
// solution is the maximum of "the backlog never drains" (bus.freeAt + k·bt)
// and, over every j, "burst j starts on arrival and the rest follow back to
// back" (bankReady₀ + j·h + (k-j)·bt). Arrivals are linear in the burst
// index, hence so is that term, and its maximum sits at an end point: j = 0
// (bank faster than bus) or j = k-1 (bus faster than bank). Every burst's
// completion is below the last one's, so the access completes at the
// largest run end.
//
// Nor are runs located one by one: bankOf divides the first run's address
// into bank, row and offset, and every later run starts where the last ended
// — the next row, so the next bank, and the next row index once the banks
// wrap; further on only when a burst is larger than a row. The claims and
// their order are those of calling bankOf per run, at one division per
// access instead of two per row. Nor, in a long access, are the runs settled
// one by one: when rows are whole bursts, every pass over all banks after the
// first run repeats the one before a row on, and passes settles any number of
// them in O(banks) with the same max-plus argument. The per-burst walk, a
// division per burst, survives as the reference in reference_test.go, which
// holds every observable equal to it, bank counts and row sizes that are no
// powers of two included.
//
// Dynamic energy is counts times per-event energy — activates, read bursts
// and write bursts are integer counters and EnergyJoules multiplies them
// out — so it is exact, independent of event order and mergeable.
package dram

import (
	"fmt"
	"math"

	"amber/internal/sim"
)

// Domain names the sim.Engine scheduling domain that labels
// ICL/DRAM stage boundaries: events whose time was produced by cache-memory
// accesses and write-back completions.
const Domain = "icl.dram"

// PagePolicy selects the controller's row-buffer management policy.
type PagePolicy int

// Row-buffer policies.
const (
	// OpenPage keeps rows open after access, betting on locality: row hits
	// cost tCL, conflicts cost tRP+tRCD+tCL.
	OpenPage PagePolicy = iota
	// ClosePage precharges after every access: every access costs tRCD+tCL
	// with the precharge hidden.
	ClosePage
)

func (p PagePolicy) String() string {
	if p == ClosePage {
		return "close-page"
	}
	return "open-page"
}

// Config describes the DRAM organization and timing (Table I: 1 GB, one
// channel/rank, 8 banks, 4 chips, 8-bit chip bus → 32-bit channel).
type Config struct {
	CapacityBytes   int64
	Channels        int
	RanksPerChannel int
	BanksPerRank    int
	BusWidthBits    int     // total channel data width
	ClockMHz        float64 // I/O clock; DDR transfers on both edges
	BurstLength     int     // transfers per burst (DDR3: 8)
	CL, RCD, RP     int     // CAS latency, RAS-to-CAS, precharge, in cycles
	RowBytes        int     // row-buffer size per bank
	Policy          PagePolicy
}

// Validate reports descriptive configuration errors.
func (c Config) Validate() error {
	switch {
	case c.CapacityBytes <= 0:
		return fmt.Errorf("dram: capacity must be positive")
	case c.Channels <= 0 || c.RanksPerChannel <= 0 || c.BanksPerRank <= 0:
		return fmt.Errorf("dram: channels/ranks/banks must be positive")
	case c.BusWidthBits <= 0 || c.BusWidthBits%8 != 0:
		return fmt.Errorf("dram: bus width must be a positive multiple of 8 bits")
	case c.ClockMHz <= 0:
		return fmt.Errorf("dram: clock must be positive")
	case c.BurstLength <= 0:
		return fmt.Errorf("dram: burst length must be positive")
	case c.CL <= 0 || c.RCD <= 0 || c.RP <= 0:
		return fmt.Errorf("dram: CL/RCD/RP must be positive")
	case c.RowBytes <= 0:
		return fmt.Errorf("dram: row size must be positive")
	}
	return nil
}

// CycleTime returns one clock period.
func (c Config) CycleTime() sim.Duration {
	return sim.FromSeconds(1 / (c.ClockMHz * 1e6))
}

// BurstBytes returns the bytes moved by one burst.
func (c Config) BurstBytes() int {
	return c.BusWidthBits / 8 * c.BurstLength
}

// BurstTime returns data-bus occupancy of one burst (DDR: BL/2 cycles).
func (c Config) BurstTime() sim.Duration {
	return sim.FromSeconds(float64(c.BurstLength) / 2 / (c.ClockMHz * 1e6))
}

// TotalBanks returns the number of independently timed banks.
func (c Config) TotalBanks() int { return c.Channels * c.RanksPerChannel * c.BanksPerRank }

// Power is a DRAMPower-style state+event energy model.
type Power struct {
	ActStandbyW    float64 // background power while any bank is active
	PowerDownW     float64 // background power in power-down
	ActEnergyJ     float64 // per ACT+PRE pair
	RdBurstEnergyJ float64 // per read burst
	WrBurstEnergyJ float64 // per write burst
	RefreshEnergyJ float64 // per refresh interval, charged per tREFI
	TREFI          sim.Duration
}

// Stats aggregates DRAM controller activity.
type Stats struct {
	Reads        uint64
	Writes       uint64
	BytesRead    uint64
	BytesWritten uint64
	RowHits      uint64
	RowMisses    uint64
	Activates    uint64
}

type bank struct {
	res     *sim.Resource
	bus     *sim.Resource // the data bus of the bank's channel
	openRow int64         // -1 when precharged
}

// DRAM is the internal memory subsystem. Not safe for concurrent use.
type DRAM struct {
	cfg   Config
	pow   Power
	bus   []*sim.Resource // per-channel data bus
	banks []bank

	// Per-configuration constants, derived once in New.
	burstBytes int64
	rowBursts  int64 // bursts in a row-run that starts on a row boundary
	// passBursts is the bursts of one whole pass over every bank, one row-run
	// each, when rows are whole bursts; otherwise runs differ in length from
	// row to row and no pass repeats, and it is larger than any access.
	passBursts int64
	burstTime  sim.Duration // data-bus occupancy of one burst
	hitDur     sim.Duration // CL: column access to an open row
	missDur    sim.Duration // RP+RCD+CL: precharge, activate, column access
	closeDur   sim.Duration // RCD+CL: close-page access, precharge hidden

	used int64 // capacity accountant

	stats Stats
	// Burst counts per direction: with Stats.Activates, everything dynamic
	// energy is a function of (EnergyJoules).
	rdBursts, wrBursts uint64
	busyUntil          sim.Time // latest completion, for power-state accounting
}

// New constructs a DRAM model from a validated configuration.
func New(cfg Config, pow Power) (*DRAM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ct := cfg.CycleTime()
	d := &DRAM{
		cfg:        cfg,
		pow:        pow,
		burstBytes: int64(cfg.BurstBytes()),
		burstTime:  cfg.BurstTime(),
		rowBursts:  (int64(cfg.RowBytes) + int64(cfg.BurstBytes()) - 1) / int64(cfg.BurstBytes()),
		hitDur:     sim.Duration(cfg.CL) * ct,
		missDur:    sim.Duration(cfg.RP+cfg.RCD+cfg.CL) * ct,
		closeDur:   sim.Duration(cfg.RCD+cfg.CL) * ct,
	}
	d.passBursts = math.MaxInt64
	if int64(cfg.RowBytes)%d.burstBytes == 0 {
		d.passBursts = int64(cfg.TotalBanks()) * d.rowBursts
	}
	d.bus = make([]*sim.Resource, cfg.Channels)
	for i := range d.bus {
		d.bus[i] = sim.NewResource(fmt.Sprintf("dram.ch%d", i))
	}
	d.banks = make([]bank, cfg.TotalBanks())
	for i := range d.banks {
		d.banks[i] = bank{res: sim.NewResource(fmt.Sprintf("dram.bank%d", i)), bus: d.bus[i%cfg.Channels], openRow: -1}
	}
	return d, nil
}

// Config returns the configuration.
func (d *DRAM) Config() Config { return d.cfg }

// Stats returns a copy of activity counters.
func (d *DRAM) Stats() Stats { return d.stats }

// bankOf maps an address to its bank via row-interleaving: consecutive rows
// rotate across banks, the standard interleave for streaming firmware
// accesses.
func (d *DRAM) bankOf(addr int64) (bankIndex int, row int64) {
	row = addr / int64(d.cfg.RowBytes)
	n := int64(len(d.banks))
	return int(row % n), row / n
}

// Access performs a read or write of n bytes starting at addr, decomposed
// into bursts, and returns when the last burst completes. Row-buffer state
// and bank/bus contention determine the latency.
//
// An access is settled in three parts: its leading row-runs, one by one, up
// to where runs start less than a burst into their row; then, when rows are
// whole bursts, every whole pass over all banks at once (passes); then the
// trailing row-runs, one by one, the last possibly partial. A run costs O(1)
// (see the package comment) and the passes O(banks) however many there are,
// so a 960 KiB cache line over 8 banks of 2 KiB rows is a few runs and one
// call instead of 480 runs. The per-burst walk in reference_test.go is what
// all three parts are held equal to — returned time, Stats, every bank and
// bus timeline, open rows and energy — by TestAccessMatchesPerBurstReference
// (its whole-pass size class included) and FuzzAccessMatchesReference.
func (d *DRAM) Access(now sim.Time, addr int64, n int, write bool) sim.Time {
	if n <= 0 {
		return now
	}
	rowBytes := int64(d.cfg.RowBytes)
	bursts := (int64(n) + d.burstBytes - 1) / d.burstBytes
	if write {
		d.wrBursts += uint64(bursts)
	} else {
		d.rdBursts += uint64(bursts)
	}
	done := now
	bi, row := d.bankOf(addr)
	off := addr % rowBytes
	for bursts > 0 {
		if off < d.burstBytes && bursts >= d.passBursts {
			// Rows are whole bursts and this run starts in a row's first
			// burst: it and every run after it cover one row in rowBursts
			// bursts and step one bank on, so whole passes repeat until the
			// access has less than one left. They leave bank and offset where
			// they were, one row on per pass.
			p := bursts / d.passBursts
			if end := d.passes(now, bi, row, p); end > done {
				done = end
			}
			bursts -= p * d.passBursts
			row += p
			continue
		}
		bk := &d.banks[bi]
		k := d.rowBursts
		if off != 0 {
			k = (rowBytes - off + d.burstBytes - 1) / d.burstBytes
		}
		if k > bursts {
			k = bursts
		}
		// first is the run's first access, rest each of the k-1 that follow.
		first, rest := d.hitDur, d.hitDur
		switch {
		case d.cfg.Policy == ClosePage:
			// Every burst pays the activate; no row state to carry.
			first, rest = d.closeDur, d.closeDur
			d.stats.Activates += uint64(k)
		case bk.openRow == row:
			d.stats.RowHits += uint64(k)
		default:
			// The first burst resolves the row buffer; the remaining k-1
			// are hits by construction.
			first = d.missDur
			d.stats.RowMisses++
			d.stats.Activates++
			d.stats.RowHits += uint64(k - 1)
			bk.openRow = row
		}
		// All k bursts queue on the bank at now, so it serves them back to
		// back; burst i reaches the bus at ready + i·rest.
		_, ready := bk.res.Claim(now, first)
		bk.res.ClaimRun(now, 0, rest, int(k-1))
		if end := bk.bus.ClaimRun(ready, rest, d.burstTime, int(k)); end > done {
			done = end
		}
		bursts -= k
		// Unless the access ended, the run crossed into the next row — or
		// further, when a burst is larger than a row.
		for off += k * d.burstBytes; off >= rowBytes; off -= rowBytes {
			if bi++; bi == len(d.banks) {
				bi, row = 0, row+1
			}
		}
	}
	if write {
		d.stats.Writes++
		d.stats.BytesWritten += uint64(n)
	} else {
		d.stats.Reads++
		d.stats.BytesRead += uint64(n)
	}
	if done > d.busyUntil {
		d.busyUntil = done
	}
	return done
}

// passes settles the next p·banks row-runs of an access — p whole passes
// over every bank, each run a whole row of rowBursts bursts queued at now,
// the first at bank s in row row (the banks before s are one row further
// on) — and returns the last burst's completion: the state and result of
// running them one by one through Access's per-run code, in O(banks).
//
// Per bank, the first pass is a hit when its row is the open one and a miss
// otherwise; every later pass is one row on, so a miss and k−1 hits (close
// page: k activates each). Its claims all queue at now, so every one after
// the first finds the bank busy and adds: the bank's ready time in pass t is
// ready₀ + t·period, linear in t, and its busy time and claims are sums.
// Each bus sees its banks' runs in pass order, each run "end = max(end +
// k·bt, ready + runBus)" (sim.Resource.ClaimRun), so after N runs its end is
// the larger of "the backlog never drains" (freeAt + N·k·bt) and, over every
// run, "this run starts on arrival and the rest follow back to back" (its
// ready + runBus + the bursts of the bus's runs after it × bt). Per bank
// that term is linear in the pass index too, so its largest value is at the
// first pass or the last: two terms a bank instead of one a run.
func (d *DRAM) passes(now sim.Time, s int, row int64, p int64) sim.Time {
	k := sim.Duration(d.rowBursts)
	bt := d.burstTime
	// rest is every burst of a run after its first; again is the first of a
	// bank's every pass after its first.
	rest, again := d.hitDur, d.missDur
	if d.cfg.Policy == ClosePage {
		rest, again = d.closeDur, d.closeDur
	}
	n := sim.Duration(p)
	period := again + (k-1)*rest
	runBus := max(k*bt, (k-1)*rest+bt)
	nb, nch := len(d.banks), len(d.bus)
	m := nb / nch                       // banks per bus
	passBus := sim.Duration(m) * k * bt // one pass's occupancy of each bus
	done := now
	for c, bus := range d.bus {
		end := bus.FreeAt() + n*passBus
		// Bus c's banks sit at every nch-th pass position from j0; q counts
		// them, so m-1-q of the bus's runs follow each in its pass.
		j0 := ((c-s)%nch + nch) % nch
		for j, q := j0, 0; j < nb; j, q = j+nch, q+1 {
			i, r := s+j, row
			if i >= nb {
				i, r = i-nb, r+1
			}
			bk := &d.banks[i]
			first := again
			if d.cfg.Policy == ClosePage {
				d.stats.Activates += uint64(p) * uint64(k)
			} else {
				misses := uint64(p)
				if bk.openRow == r {
					first, misses = rest, misses-1
				}
				d.stats.RowHits += uint64(p)*uint64(k-1) + uint64(p) - misses
				d.stats.RowMisses += misses
				d.stats.Activates += misses
				bk.openRow = r + p - 1
			}
			_, ready := bk.res.Claim(now, first)
			bk.res.ClaimRun(now, 0, rest, int(p*int64(k-1)))
			bk.res.ClaimRun(now, 0, again, int(p-1))
			after := sim.Duration(m-1-q) * k * bt
			end = max(end, ready+runBus+(n-1)*passBus+after, ready+(n-1)*period+runBus+after)
		}
		st := bus.State()
		bus.SetState(sim.ResourceState{FreeAt: end, Busy: st.Busy + n*passBus, Claims: st.Claims + uint64(p)*uint64(m)*uint64(k)})
		if end > done {
			done = end
		}
	}
	return done
}

// Reserve accounts n bytes of capacity for a firmware consumer (cache
// lines, mapping tables). It fails when capacity would be exceeded, which
// back-pressures the ICL sizing logic.
func (d *DRAM) Reserve(n int64) error {
	if n < 0 {
		return fmt.Errorf("dram: negative reservation")
	}
	if d.used+n > d.cfg.CapacityBytes {
		return fmt.Errorf("dram: reservation of %d bytes exceeds capacity (%d of %d used)",
			n, d.used, d.cfg.CapacityBytes)
	}
	d.used += n
	return nil
}

// BusyTime returns aggregate data-bus busy time.
func (d *DRAM) BusyTime() sim.Duration {
	var t sim.Duration
	for _, b := range d.bus {
		t += b.BusyTime()
	}
	return t
}

// EnergyJoules returns dynamic energy so far: event counts times per-event
// energy (ACT/RD/WR), so the value does not depend on the order the events
// came in and two DRAMs' counts merge exactly.
func (d *DRAM) EnergyJoules() float64 {
	return float64(d.stats.Activates)*d.pow.ActEnergyJ +
		float64(d.rdBursts)*d.pow.RdBurstEnergyJ +
		float64(d.wrBursts)*d.pow.WrBurstEnergyJ
}

// TotalEnergyJoules returns dynamic plus state-dependent background energy
// over the elapsed window: busy time is charged at active-standby power,
// idle time at power-down power (the controller enters power-down when the
// command queue drains), plus refresh energy at tREFI.
func (d *DRAM) TotalEnergyJoules(elapsed sim.Duration) float64 {
	busy := d.BusyTime()
	if busy > elapsed {
		busy = elapsed
	}
	idle := elapsed - busy
	e := d.EnergyJoules()
	e += d.pow.ActStandbyW * busy.Seconds()
	e += d.pow.PowerDownW * idle.Seconds()
	if d.pow.TREFI > 0 {
		e += d.pow.RefreshEnergyJ * (elapsed.Seconds() / d.pow.TREFI.Seconds())
	}
	return e
}

// DDR3L1600 returns a representative DDR3L-1600 configuration of the given
// capacity, matching Table I's internal DRAM (1 channel, 1 rank, 8 banks).
func DDR3L1600(capacity int64) Config {
	return Config{
		CapacityBytes:   capacity,
		Channels:        1,
		RanksPerChannel: 1,
		BanksPerRank:    8,
		BusWidthBits:    32, // 4 chips x 8-bit
		ClockMHz:        800,
		BurstLength:     8,
		CL:              11, RCD: 11, RP: 11,
		RowBytes: 2048,
		Policy:   OpenPage,
	}
}

// DefaultPower returns representative DDR3L power/energy parameters.
func DefaultPower() Power {
	return Power{
		ActStandbyW:    0.35,
		PowerDownW:     0.05,
		ActEnergyJ:     12e-9,
		RdBurstEnergyJ: 4e-9,
		WrBurstEnergyJ: 4.4e-9,
		RefreshEnergyJ: 28e-9,
		TREFI:          sim.FromMicroseconds(7.8),
	}
}
