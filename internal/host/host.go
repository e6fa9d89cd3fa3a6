// Package host models the host system Amber plugs its SSDs into: host CPU
// cores executing the kernel storage stack (reusing the instruction-mix
// machinery of package cpu), system memory bandwidth and capacity
// accounting, and the block-layer I/O scheduler models the OS-impact
// experiment (§V-C, Fig. 12) turns on — CFQ as shipped in Linux 4.4 and
// the refined per-process BFQ of 4.14, plus a noop/none passthrough.
package host

import (
	"fmt"

	"amber/internal/cpu"
	"amber/internal/sim"
)

// Domain names the sim.Engine scheduling domain that labels
// host-side events: request issue slots, kernel submission boundaries and
// completion/ISR events (the host/HIL traffic).
const Domain = "host"

// SchedulerKind selects the block-layer I/O scheduler model.
type SchedulerKind int

// Scheduler models.
const (
	// NoopSched is the passthrough (mq "none") scheduler.
	NoopSched SchedulerKind = iota
	// CFQ models Linux 4.4's Completely Fair Queuing: heavy per-request
	// accounting and a small per-process dispatch window that cannot keep
	// deep device queues fed (§V-C).
	CFQ
	// BFQ models Linux 4.14's refined Budget Fair Queueing: per-process
	// queues with budgets, a unified merge path that coalesces sequential
	// requests, and no artificial dispatch ceiling.
	BFQ
)

func (s SchedulerKind) String() string {
	switch s {
	case CFQ:
		return "cfq"
	case BFQ:
		return "bfq"
	default:
		return "noop"
	}
}

// Config describes the host platform (Table II).
type Config struct {
	CPUs         int
	FreqMHz      float64
	IPC          float64
	Scheduler    SchedulerKind
	MemBytes     int64
	MemBandwidth float64 // bytes/second
}

// Validate reports descriptive configuration errors.
func (c Config) Validate() error {
	switch {
	case c.CPUs <= 0:
		return fmt.Errorf("host: CPUs must be positive")
	case c.FreqMHz <= 0 || c.IPC <= 0:
		return fmt.Errorf("host: frequency and IPC must be positive")
	case c.MemBytes <= 0 || c.MemBandwidth <= 0:
		return fmt.Errorf("host: memory size and bandwidth must be positive")
	}
	return nil
}

// PC returns the Table II general-purpose platform (i7-4790K class):
// 4 cores at 4.4 GHz, DDR4-2400 x2 (~38.4 GB/s), 16 GiB.
func PC() Config {
	return Config{
		CPUs: 4, FreqMHz: 4400, IPC: 2.0,
		Scheduler: BFQ,
		MemBytes:  16 << 30, MemBandwidth: 38.4e9,
	}
}

// Mobile returns the Table II handheld platform (Jetson TX2 class):
// 4 cores at 2 GHz, LPDDR4-3733 x1 (~29.9 GB/s peak, derated), 8 GiB.
func Mobile() Config {
	return Config{
		CPUs: 4, FreqMHz: 2000, IPC: 1.2,
		Scheduler: BFQ,
		MemBytes:  8 << 30, MemBandwidth: 14.9e9,
	}
}

// Host is the host-system model. Not safe for concurrent use.
type Host struct {
	cfg Config
	// CPU is the host processor complex; the kernel storage stack and (for
	// OCSSD) pblk execute here.
	CPU *cpu.Complex
	// Mem is the system memory bandwidth resource shared by the DMA engine
	// and kernel copies.
	Mem *sim.Resource

	memUsed int64

	// Compiled kernel-path charges (cpu.Charge), each kept with the
	// instruction budget it was compiled for and recompiled when a call
	// asks for another: a submission's by whether it merges, the ISR's one.
	submit [2]kernelCharge
	isr    kernelCharge
}

// kernelCharge memoizes the compiled charge of one kernel path, keyed by its
// instruction total — callers pass the same budget on every request, but
// nothing holds them to it.
type kernelCharge struct {
	instr uint64
	ok    bool
	ch    cpu.Charge
}

func (k *kernelCharge) run(c *cpu.Complex, now sim.Time, module string, instr uint64) sim.Time {
	if !k.ok || k.instr != instr {
		*k = kernelCharge{instr: instr, ok: true, ch: c.Compile(module, cpu.Mix(instr))}
	}
	_, end := c.RunAny(now, &k.ch)
	return end
}

// New constructs a Host.
func New(cfg Config) (*Host, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c, err := cpu.New(cpu.Config{
		Cores:        cfg.CPUs,
		FrequencyMHz: cfg.FreqMHz,
		IPC:          cfg.IPC,
	}, cpu.Power{EnergyPerInstrJ: 0.4e-9, LeakageWPerCore: 1.5})
	if err != nil {
		return nil, err
	}
	return &Host{cfg: cfg, CPU: c, Mem: sim.NewResource("host.mem")}, nil
}

// MemBandwidth returns system memory bandwidth in bytes/second.
func (h *Host) MemBandwidth() float64 { return h.cfg.MemBandwidth }

// schedulerInstr returns the I/O scheduler's per-request instruction
// budget. sequential requests that merge with their predecessor are
// cheaper under BFQ's unified merge path.
func (h *Host) schedulerInstr(sequential bool) uint64 {
	switch h.cfg.Scheduler {
	case CFQ:
		// Per-process service trees, time-slice accounting, idling logic:
		// the cycles §V-C blames for CFQ "consuming CPU in I/O scheduling".
		return 52000
	case BFQ:
		if sequential {
			return 9000 // merged into the previous request's budget
		}
		return 17000
	default:
		return 3000
	}
}

// DepthCap returns the scheduler's effective outstanding-request ceiling:
// CFQ's per-process dispatch window cannot keep deep queues fed, which is
// the second half of the §V-C result.
func (h *Host) DepthCap() int {
	if h.cfg.Scheduler == CFQ {
		return 8
	}
	return 1 << 20
}

// BatchWindow bounds a vectored submission window by the scheduler's
// outstanding-request ceiling: a batch can defer per-request bookkeeping
// only across as many commands as the kernel would actually keep in
// flight. The protocol's hardware queue limit clamps further
// (proto.Params.EffectiveQueueDepth).
func (h *Host) BatchWindow(requested int) int {
	if cap := h.DepthCap(); requested > cap {
		return cap
	}
	if requested < 1 {
		return 1
	}
	return requested
}

// Submit charges the kernel submission path (block layer + scheduler +
// driver instructions) on a host core and returns its completion time.
func (h *Host) Submit(now sim.Time, sequential bool, driverInstr uint64) sim.Time {
	k := &h.submit[0]
	if sequential {
		k = &h.submit[1]
	}
	return k.run(h.CPU, now, "kernel.submit", driverInstr+h.schedulerInstr(sequential))
}

// Complete charges the interrupt service routine and completion path and
// returns its completion time.
func (h *Host) Complete(now sim.Time, isrInstr uint64) sim.Time {
	return h.isr.run(h.CPU, now, "kernel.isr", isrInstr)
}

// Alloc reserves host memory (driver pools, FIO buffers, pblk tables).
func (h *Host) Alloc(n int64) error {
	if n < 0 {
		return fmt.Errorf("host: negative allocation")
	}
	if h.memUsed+n > h.cfg.MemBytes {
		return fmt.Errorf("host: allocation of %d exceeds %d available",
			n, h.cfg.MemBytes-h.memUsed)
	}
	h.memUsed += n
	return nil
}

// Free releases host memory.
func (h *Host) Free(n int64) {
	if n < 0 || n > h.memUsed {
		panic("host: free does not match allocations")
	}
	h.memUsed -= n
}

// MemUsed returns currently allocated host memory in bytes.
func (h *Host) MemUsed() int64 { return h.memUsed }
