// Package cpu models the SSD's embedded processors: ARMv8-class cores that
// execute the flash firmware stack. Amber decomposes each firmware
// function into an instruction mix (branches, loads, stores, integer
// arithmetic, floating point, other), charges the execution time on the
// core the module is pinned to, and integrates a McPAT-style power model
// (dynamic energy-per-instruction plus per-core leakage). The same model
// doubles as the host CPU's kernel-path cost model (§III-B, Fig. 13c).
//
// # Compiled charges
//
// Almost every charge a request makes is the same (module, mix) pair as on
// the request before, so its cost is worked out once: Compile evaluates the
// duration (ExecTime's expression) and the dynamic energy
// (EnergyPerInstrJ * float64(mix.Total())) of one run, and Run / RunAny
// then claim a core for that duration and add — integers into the total and
// the module's counters, one float into the energy. Execute and ExecuteAny
// are Compile followed by Run on a value that lives for the call, so there
// is one accounting path. Three rules keep every simulated observable what
// per-call evaluation produced:
//
//   - Same expression, once. A compiled float is produced by the expression
//     and operands a per-call evaluation would use; nothing is refactored
//     algebraically (n runs are never priced as n * one run).
//   - Energy is summed per run, in run order. Float addition is not
//     associative and the energy is in snapshot images and golden tables:
//     each Run adds its own product to the accumulator, never a batch.
//   - The module slot is a hint. A Charge caches where its module's counters
//     sat, and every run checks that slot's name first: a decoding State replaces
//     the table in sorted order, so an index alone would go stale. Compile
//     itself registers nothing — a module exists once a charge of it ran.
package cpu

import (
	"fmt"
	"sort"

	"amber/internal/sim"
)

// Domain names the sim.Engine scheduling domain that labels
// firmware-execution stage boundaries: events whose time was produced by a
// device-CPU Execute claim.
const Domain = "cpu"

// InstrMix counts instructions by category, mirroring the breakdown Amber
// reports in Fig. 13c.
type InstrMix struct {
	Branch uint64
	Load   uint64
	Store  uint64
	Arith  uint64
	FP     uint64
	Other  uint64
}

// Total returns the instruction count across all categories.
func (m InstrMix) Total() uint64 {
	return m.Branch + m.Load + m.Store + m.Arith + m.FP + m.Other
}

// Add returns the categorical sum of two mixes.
func (m InstrMix) Add(o InstrMix) InstrMix {
	return InstrMix{
		Branch: m.Branch + o.Branch,
		Load:   m.Load + o.Load,
		Store:  m.Store + o.Store,
		Arith:  m.Arith + o.Arith,
		FP:     m.FP + o.FP,
		Other:  m.Other + o.Other,
	}
}

// add accumulates o into m in place.
func (m *InstrMix) add(o *InstrMix) {
	m.Branch += o.Branch
	m.Load += o.Load
	m.Store += o.Store
	m.Arith += o.Arith
	m.FP += o.FP
	m.Other += o.Other
}

// Scale returns the mix with every category multiplied by k.
func (m InstrMix) Scale(k uint64) InstrMix {
	return InstrMix{
		Branch: m.Branch * k,
		Load:   m.Load * k,
		Store:  m.Store * k,
		Arith:  m.Arith * k,
		FP:     m.FP * k,
		Other:  m.Other * k,
	}
}

// LoadStoreFraction returns the fraction of loads+stores, the dominant
// category (~60%) in the paper's firmware breakdown.
func (m InstrMix) LoadStoreFraction() float64 {
	t := m.Total()
	if t == 0 {
		return 0
	}
	return float64(m.Load+m.Store) / float64(t)
}

// Config describes the embedded complex: core count, clock and sustained
// IPC of the in-order ARM pipeline.
type Config struct {
	// Cores is the embedded core count. The firmware modules are pinned to
	// cores 0-2 (HIL, ICL/FTL, FIL; with fewer cores the later modules
	// share the last one), so cores beyond three add only leakage.
	Cores        int
	FrequencyMHz float64
	IPC          float64
}

// Validate reports descriptive configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Cores <= 0:
		return fmt.Errorf("cpu: need at least one core")
	case c.FrequencyMHz <= 0:
		return fmt.Errorf("cpu: frequency must be positive")
	case c.IPC <= 0:
		return fmt.Errorf("cpu: IPC must be positive")
	}
	return nil
}

// Power is the McPAT-style energy model.
type Power struct {
	EnergyPerInstrJ float64 // average dynamic energy per instruction
	LeakageWPerCore float64
}

// Complex is a set of embedded cores with instruction accounting. Firmware
// modules are pinned to cores (HIL, ICL/FTL, FIL each get a core in the
// default 3-core layout), reproducing the paper's observation that the
// NVMe-queue core saturates first.
type Complex struct {
	cfg   Config
	pow   Power
	cores *sim.Pool

	total InstrMix
	// perModule is a small append-only list (the firmware stack has ~10
	// module names, charged millions of times): a compiled Charge remembers
	// its index, a fresh one starts from the last index a scan found, and
	// either beats hashing the module string on every run.
	perModule []moduleMix
	lastMod   int
	energyJ   float64
}

// moduleMix is one module's cumulative instruction accounting.
type moduleMix struct {
	name string
	mix  InstrMix
}

// New constructs a Complex from a validated configuration.
func New(cfg Config, pow Power) (*Complex, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Complex{
		cfg:   cfg,
		pow:   pow,
		cores: sim.NewPool("cpu.cores", cfg.Cores),
	}, nil
}

// Config returns the configuration.
func (c *Complex) Config() Config { return c.cfg }

// ExecTime returns how long the mix takes on one core.
func (c *Complex) ExecTime(mix InstrMix) sim.Duration {
	cycles := float64(mix.Total()) / c.cfg.IPC
	return sim.FromSeconds(cycles / (c.cfg.FrequencyMHz * 1e6))
}

// Charge is one module's instruction mix compiled against a Complex: what
// a run of it costs, worked out once (see the package comment). The zero
// Charge is not usable; Compile makes them. A Charge belongs to the Complex
// that compiled it and, like the Complex, to one goroutine.
type Charge struct {
	module string
	mix    InstrMix
	dur    sim.Duration // ExecTime(mix)
	energy float64      // dynamic energy of one run
	slot   int          // where perModule held module last; checked by name on every run
}

// Compile prices mix for the named module. It registers nothing: a module
// first appears in Modules and in the state image when a charge of it runs.
func (c *Complex) Compile(module string, mix InstrMix) Charge {
	var ch Charge
	c.compile(&ch, module, &mix)
	return ch
}

// compile fills ch in place. Execute prices a mix on every call, and there
// handing the 88-byte Charge back by value costs more than the accounting
// it carries (BenchmarkCharge/Execute: a quarter slower through Compile).
func (c *Complex) compile(ch *Charge, module string, mix *InstrMix) {
	ch.module = module
	ch.mix = *mix
	ch.dur = c.ExecTime(*mix)
	ch.energy = c.pow.EnergyPerInstrJ * float64(mix.Total())
	ch.slot = c.lastMod
}

// Run executes the compiled charge on the given core (pinned; a core out of
// range is core 0), queueing behind earlier work on that core, and returns
// the service interval.
func (c *Complex) Run(now sim.Time, core int, ch *Charge) (start, end sim.Time) {
	if core < 0 || core >= c.cfg.Cores {
		core = 0
	}
	start, end = c.cores.ClaimServer(core, now, ch.dur)
	c.account(ch)
	return start, end
}

// RunAny executes the compiled charge on the earliest-free core, for work
// that is not pinned (e.g. the kernel paths).
func (c *Complex) RunAny(now sim.Time, ch *Charge) (start, end sim.Time) {
	start, end, _ = c.cores.Claim(now, ch.dur)
	c.account(ch)
	return start, end
}

// Execute compiles the mix for the named module and runs it once on the
// given core: the form for charges whose mix differs from call to call.
func (c *Complex) Execute(now sim.Time, core int, module string, mix InstrMix) (start, end sim.Time) {
	var ch Charge
	c.compile(&ch, module, &mix)
	return c.Run(now, core, &ch)
}

// ExecuteAny is Execute on the earliest-free core.
func (c *Complex) ExecuteAny(now sim.Time, module string, mix InstrMix) (start, end sim.Time) {
	var ch Charge
	c.compile(&ch, module, &mix)
	return c.RunAny(now, &ch)
}

func (c *Complex) account(ch *Charge) {
	c.total.add(&ch.mix)
	if ch.slot >= len(c.perModule) || c.perModule[ch.slot].name != ch.module {
		ch.slot = c.moduleSlot(ch.module)
	}
	c.perModule[ch.slot].mix.add(&ch.mix)
	c.energyJ += ch.energy
}

// moduleSlot returns (appending if new) the index of module's accounting
// slot.
func (c *Complex) moduleSlot(module string) int {
	for i := range c.perModule {
		if c.perModule[i].name == module {
			c.lastMod = i
			return i
		}
	}
	c.lastMod = len(c.perModule)
	c.perModule = append(c.perModule, moduleMix{name: module})
	return c.lastMod
}

// Instructions returns the cumulative instruction mix.
func (c *Complex) Instructions() InstrMix { return c.total }

// ModuleInstructions returns cumulative instructions for one module.
func (c *Complex) ModuleInstructions(module string) InstrMix {
	for i := range c.perModule {
		if c.perModule[i].name == module {
			return c.perModule[i].mix
		}
	}
	return InstrMix{}
}

// Modules returns module names sorted for deterministic reporting.
func (c *Complex) Modules() []string {
	out := make([]string, 0, len(c.perModule))
	for i := range c.perModule {
		out = append(out, c.perModule[i].name)
	}
	sort.Strings(out)
	return out
}

// BusyTime returns aggregate core busy time.
func (c *Complex) BusyTime() sim.Duration { return c.cores.BusyTime() }

// EnergyJoules returns dynamic energy so far.
func (c *Complex) EnergyJoules() float64 { return c.energyJ }

// TotalEnergyJoules adds leakage over the elapsed window.
func (c *Complex) TotalEnergyJoules(elapsed sim.Duration) float64 {
	return c.energyJ + c.pow.LeakageWPerCore*float64(c.cfg.Cores)*elapsed.Seconds()
}

// Mix builds an InstrMix from a total count and the firmware-typical
// category fractions: ~25% loads, ~35% stores is the paper's dominant
// load/store share; remaining instructions split across branches,
// arithmetic and other with negligible FP.
func Mix(total uint64) InstrMix {
	return MixWith(total, 0.15, 0.30, 0.30, 0.20, 0.0)
}

// MixWith builds an InstrMix of the given total with explicit fractions of
// branches, loads, stores and arithmetic; FP takes fpFrac and "other"
// absorbs the remainder.
func MixWith(total uint64, brFrac, ldFrac, stFrac, arFrac, fpFrac float64) InstrMix {
	m := InstrMix{
		Branch: uint64(float64(total) * brFrac),
		Load:   uint64(float64(total) * ldFrac),
		Store:  uint64(float64(total) * stFrac),
		Arith:  uint64(float64(total) * arFrac),
		FP:     uint64(float64(total) * fpFrac),
	}
	sum := m.Branch + m.Load + m.Store + m.Arith + m.FP
	if sum > total {
		// Rounding overshoot: trim from the largest bucket.
		m.Store -= sum - total
		sum = total
	}
	m.Other = total - sum
	return m
}

// Firmware-function instruction budgets (per event), calibrated so a
// 3-core 400-500 MHz complex adds single-digit-microsecond firmware
// latency per 4KB page, matching Amber's reported firmware overheads.
// The NVMe doorbell/queue path is deliberately the most expensive: the
// paper measures 5.45x more instructions under NVMe than UFS because a
// core is involved on every doorbell ring.
var (
	// MixHILParseHType: SATA/UFS command unpack (FIS/UPIU) at the device.
	MixHILParseHType = Mix(260)
	// MixHILParseNVMe: SQ-entry fetch, opcode decode, PRP setup.
	MixHILParseNVMe = Mix(420)
	// MixDoorbell: per-doorbell queue-state handling on the NVMe core.
	MixDoorbell = Mix(520)
	// MixHTypeQueue: NCQ/UTRD slot management per command (h-type).
	MixHTypeQueue = Mix(180)
	// MixICLLookup: cache tag walk per super-page line.
	MixICLLookup = Mix(160)
	// MixICLInsert: line allocation, metadata update.
	MixICLInsert = Mix(200)
	// MixICLEvict: victim selection and flush composition.
	MixICLEvict = Mix(220)
	// MixFTLTranslate: LPN->PPN map lookup/update per super-page.
	MixFTLTranslate = Mix(190)
	// MixFTLGCPerPage: valid-page migration bookkeeping during GC.
	MixFTLGCPerPage = Mix(280)
	// MixFILSchedule: transaction composition and die dispatch per flash op.
	MixFILSchedule = Mix(120)
	// MixCompletion: completion-path bookkeeping (CQ entry / FIS response).
	MixCompletion = Mix(300)
)

// DefaultPower returns representative embedded-core power parameters (a
// few hundred mW per active core at ~500 MHz), tuned so the NVMe firmware
// CPU dominates the SSD power budget as in Fig. 13b.
func DefaultPower() Power {
	return Power{
		EnergyPerInstrJ: 1.1e-9,
		LeakageWPerCore: 0.12,
	}
}
