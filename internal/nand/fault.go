package nand

import (
	"errors"
	"fmt"

	"amber/internal/sim"
)

// Sentinel errors for the flash failure modes. They are wrapped with address
// context (FaultError or fmt.Errorf %w), so callers match with errors.Is and
// recover layer by layer: the FTL retires blocks on program/erase failures
// and drops data on uncorrectable reads, the FIL disarms its certified
// chain, the core bounds the retries.
var (
	// ErrProgramFail is an injected page-program failure: the page holds
	// garbage, the firmware must retire the block and re-place the data.
	ErrProgramFail = errors.New("nand: program failed")
	// ErrEraseFail is an injected block-erase failure: the block never
	// returns to a programmable state and must leave the free pool.
	ErrEraseFail = errors.New("nand: erase failed")
	// ErrUncorrectable is a read whose raw bit errors survived the whole
	// read-retry ladder: the page's data is lost.
	ErrUncorrectable = errors.New("nand: uncorrectable read error")
	// ErrUnwritten marks a read of a page that was never programmed since
	// its block's last erase.
	ErrUnwritten = errors.New("nand: read of unwritten page")
)

// FaultError wraps a sentinel fault with the faulting operation and address,
// so an error that crosses several firmware layers still names the physical
// page it happened at. Matches the sentinel via errors.Is.
type FaultError struct {
	Op   OpKind
	Addr Address
	Err  error
}

func (e *FaultError) Error() string { return fmt.Sprintf("%v at %v", e.Err, e.Addr) }

// Unwrap exposes the sentinel for errors.Is.
func (e *FaultError) Unwrap() error { return e.Err }

// IsInjectedFault reports whether err is (or wraps) one of the injected
// flash fault sentinels — the recoverable failure class, as opposed to
// structural errors like out-of-range addresses or ordering violations.
func IsInjectedFault(err error) bool {
	return errors.Is(err, ErrProgramFail) || errors.Is(err, ErrEraseFail) ||
		errors.Is(err, ErrUncorrectable)
}

// FaultConfig parameterizes the deterministic fault-injection model. The
// zero value disables injection entirely (and keeps the hot paths free of
// fault bookkeeping).
//
// Every draw is a pure function of (Seed, physical page or block index, the
// block's erase count, retry attempt) — no wall clock, no shared generator
// state — so the fault schedule is a property of the op sequence alone: a
// prevalidation probe and the later issue-time draw of the same read always
// agree (see sim/doc.go).
type FaultConfig struct {
	// Seed decorrelates fault schedules between runs/devices.
	Seed uint64
	// ProgramFailProb is the probability a page program fails, scaled by
	// the block's wear factor.
	ProgramFailProb float64
	// EraseFailProb is the probability a block erase fails, scaled by the
	// block's wear factor.
	EraseFailProb float64
	// ReadFailProb is the per-attempt probability a read returns
	// uncorrectable raw bit errors, scaled by the block's wear factor. Each
	// rung of the retry ladder draws independently; a read is lost only
	// when every rung fails.
	ReadFailProb float64
	// WearEraseLimit is the erase count at which the wear factor saturates
	// at 1 (probabilities below scale linearly with eraseCount/limit, so
	// fresh blocks are reliable and worn blocks degrade). Zero makes every
	// probability wear-independent.
	WearEraseLimit uint32
	// MaxReadRetries bounds the read-retry ladder; zero defaults to 3.
	MaxReadRetries int
}

// Enabled reports whether any fault class can fire.
func (c FaultConfig) Enabled() bool {
	return c.ProgramFailProb > 0 || c.EraseFailProb > 0 || c.ReadFailProb > 0
}

// Validate reports descriptive configuration errors.
func (c FaultConfig) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"ProgramFailProb", c.ProgramFailProb},
		{"EraseFailProb", c.EraseFailProb},
		{"ReadFailProb", c.ReadFailProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("nand: fault %s %v outside [0,1]", p.name, p.v)
		}
	}
	if c.MaxReadRetries < 0 {
		return fmt.Errorf("nand: MaxReadRetries must be >= 0, got %d", c.MaxReadRetries)
	}
	return nil
}

// FaultStats aggregates injected-fault activity.
type FaultStats struct {
	ProgramFails  uint64
	EraseFails    uint64
	Uncorrectable uint64 // reads that exhausted the retry ladder
	ReadRetries   uint64 // extra ladder rungs successful reads needed
}

// FaultSite records one injected fault for post-mortem inspection: what
// failed, where, and at what wear.
type FaultSite struct {
	Op         OpKind
	Addr       Address
	EraseCount uint32
}

// maxFaultSites bounds the fault-site log: enough for any diagnostic replay
// without letting a wear-out run grow it without limit.
const maxFaultSites = 1024

// Hash-domain separators per fault class, so the program, erase and read
// streams of one page/block are uncorrelated.
const (
	faultKindProgram uint64 = 0x70726f675f666169
	faultKindErase   uint64 = 0x65726173655f6661
	faultKindRead    uint64 = 0x726561645f666169
	faultKindTorn    uint64 = 0x746f726e5f706f77
)

// tornDraw resolves one in-flight program at a power cut: true means the
// interrupted array operation left the page torn (checksum-bad, payload
// lost), false means it latched enough charge to commit. Like every fault
// draw it is a pure function — of (seed, physical page, the program's
// write sequence number) — so the resolution depends only on where the cut
// lands in the issue stream. The split is even: an array operation
// interrupted at a uniformly random point is modeled as a coin flip.
func tornDraw(seed uint64, pageIdx int64, seq uint64) bool {
	h := mix64(seed ^ (faultKindTorn + uint64(pageIdx)*0x9e3779b97f4a7c15))
	h = mix64(h ^ seq)
	return h&1 == 1
}

// faultModel draws injected faults. All draws run at issue (claim paths and
// validation probes).
type faultModel struct {
	cfg      FaultConfig
	retries  int          // resolved MaxReadRetries
	retryLat sim.Duration // die occupancy per retry rung: the timing's ReadSlow
	stats    FaultStats
	sites    []FaultSite
}

func newFaultModel(cfg FaultConfig, tim Timing) *faultModel {
	m := &faultModel{cfg: cfg, retries: cfg.MaxReadRetries, retryLat: tim.ReadSlow}
	if m.retries == 0 {
		m.retries = 3
	}
	return m
}

// mix64 is the splitmix64 finalizer (same mixing as sim.NewRNG's seeding),
// used as a stateless hash: good enough avalanche that nearby (page, erase
// count, attempt) tuples give uncorrelated draws.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// wearFactor scales fault probabilities with the block's accumulated wear.
func (m *faultModel) wearFactor(ec uint32) float64 {
	if m.cfg.WearEraseLimit == 0 {
		return 1
	}
	if ec >= m.cfg.WearEraseLimit {
		return 1
	}
	return float64(ec) / float64(m.cfg.WearEraseLimit)
}

// hit is the pure draw: true when the op identified by (kind, idx, erase
// count, attempt) fails under base probability prob, scaled by the block's
// wear. Idempotent by construction — probing and issuing the same op always
// agree.
func (m *faultModel) hit(kind uint64, idx int64, ec uint32, attempt int, prob float64) bool {
	p := prob * m.wearFactor(ec)
	if p <= 0 {
		return false
	}
	h := mix64(m.cfg.Seed ^ (kind + uint64(idx)*0x9e3779b97f4a7c15))
	h = mix64(h ^ (uint64(ec) << 16) ^ uint64(attempt))
	return float64(h>>11)/(1<<53) < p
}

// readLadder draws the whole retry ladder for one read of pageIdx: rung k
// fails independently with ReadFailProb scaled by wear. It returns the extra
// rungs a successful read climbed, or ok=false when every rung failed (the
// data is uncorrectable until the block is erased — the draw depends only
// on (page, erase count), so re-reads keep failing, which is exactly how a
// degraded cell behaves, while a migration to a fresh page or an erase
// changes the key).
func (m *faultModel) readLadder(pageIdx int64, ec uint32) (retries int, ok bool) {
	attempts := m.retries + 1
	for k := 0; k < attempts; k++ {
		if !m.hit(faultKindRead, pageIdx, ec, k, m.cfg.ReadFailProb) {
			return k, true
		}
	}
	return attempts - 1, false
}

// record appends one fault to the bounded site log.
func (m *faultModel) record(op OpKind, addr Address, ec uint32) {
	if len(m.sites) < maxFaultSites {
		m.sites = append(m.sites, FaultSite{Op: op, Addr: addr, EraseCount: ec})
	}
}

// FaultsEnabled reports whether fault injection is active.
func (f *Flash) FaultsEnabled() bool { return f.faults != nil }

// ReadFaultsArmed reports whether read-fault draws are live: the injected
// read-retry ladder runs per read and can stretch die occupancy or fail
// the read, so any fast path that skips per-read validation must also
// verify this is false — otherwise it would skip a draw that affects
// timing and outcome.
func (f *Flash) ReadFaultsArmed() bool {
	return f.faults != nil && f.faults.cfg.ReadFailProb > 0
}

// FaultStats returns the injected-fault counters (zero when injection is
// disabled).
func (f *Flash) FaultStats() FaultStats {
	if f.faults == nil {
		return FaultStats{}
	}
	return f.faults.stats
}

// FaultSites returns a copy of the bounded fault-site log, in injection
// order.
func (f *Flash) FaultSites() []FaultSite {
	if f.faults == nil {
		return nil
	}
	out := make([]FaultSite, len(f.faults.sites))
	copy(out, f.faults.sites)
	return out
}

// readFaultExtra runs the issue-time read-retry ladder for addr: it returns
// the extra die occupancy the retries cost, or a wrapped ErrUncorrectable
// when the ladder is exhausted. Called before claimRead on every read path,
// so a faulting read claims nothing and schedules nothing.
func (f *Flash) readFaultExtra(addr Address) (sim.Duration, error) {
	m := f.faults
	if m == nil || m.cfg.ReadFailProb <= 0 {
		return 0, nil
	}
	ec := f.blocks[f.geo.BlockIndex(addr)].eraseCount
	retries, ok := m.readLadder(f.geo.PageIndex(addr), ec)
	if !ok {
		m.stats.Uncorrectable++
		m.record(OpRead, addr, ec)
		return 0, &FaultError{Op: OpRead, Addr: addr, Err: ErrUncorrectable}
	}
	if retries > 0 {
		m.stats.ReadRetries += uint64(retries)
		return sim.Duration(retries) * m.retryLat, nil
	}
	return 0, nil
}

// ProbeRead reports the error a read of addr would fail with right now:
// CheckRead's structural checks plus the injected-fault ladder. The fault
// draw is a pure function of (seed, page, erase count), so a passing probe
// guarantees the later issue-time draw of the same read also passes. A
// failing probe charges the uncorrectable (it is where the caller observes
// the loss); the issue that would double-charge it never happens.
func (f *Flash) ProbeRead(addr Address) error {
	if err := f.CheckRead(&addr); err != nil {
		return err
	}
	m := f.faults
	if m == nil || m.cfg.ReadFailProb <= 0 {
		return nil
	}
	ec := f.blocks[f.geo.BlockIndex(addr)].eraseCount
	if _, ok := m.readLadder(f.geo.PageIndex(addr), ec); !ok {
		m.stats.Uncorrectable++
		m.record(OpRead, addr, ec)
		return &FaultError{Op: OpRead, Addr: addr, Err: ErrUncorrectable}
	}
	return nil
}

// ProbeReadExtra is the authoritative-draw probe: CheckRead plus one full
// ladder draw for a read of addr, returning the extra die occupancy the
// retries will cost. The caller issues the read with ReadDeferredAddr,
// which reuses the returned extra instead of drawing the ladder a second
// time. Retry rungs are charged here (the probe IS the read's draw); a
// failing probe charges the uncorrectable.
func (f *Flash) ProbeReadExtra(addr Address) (sim.Duration, error) {
	if err := f.CheckRead(&addr); err != nil {
		return 0, err
	}
	return f.readFaultExtra(addr)
}

// ProbeErase reports the error an erase of addr's block would fail with
// right now: CheckErase's structural checks plus the injected fault draw.
// The draw is a pure function of (seed, block, erase count), so a passing
// probe guarantees the later issue-time draw of the same erase also
// passes. The FIL probes every plane of a super-block erase up front so a
// fault on ANY plane fails the whole op before ANY plane's cells are
// wiped — without the probe pass, planes issued before the faulting one
// would already be erased, breaking the error-⇒-no-mutation contract at
// the multi-plane op granularity the FTL recovers at. A failing probe
// charges the fault (the issue that would double-charge it never
// happens).
func (f *Flash) ProbeErase(addr Address) error {
	if err := f.CheckErase(addr); err != nil {
		return err
	}
	return f.drawEraseFault(addr)
}

// drawProgramFault draws the injected failure for a program of addr. Called
// before claimProgram on every program path, so a faulting program claims
// nothing, mutates nothing and schedules nothing.
// The draw keys on (page, erase count): firmware that retires the block
// never re-programs the same tuple, while a raw caller retrying the exact
// op deterministically observes the same failure.
func (f *Flash) drawProgramFault(addr Address) error {
	m := f.faults
	if m == nil || m.cfg.ProgramFailProb <= 0 {
		return nil
	}
	ec := f.blocks[f.geo.BlockIndex(addr)].eraseCount
	if m.hit(faultKindProgram, f.geo.PageIndex(addr), ec, 0, m.cfg.ProgramFailProb) {
		m.stats.ProgramFails++
		m.record(OpProgram, addr, ec)
		return &FaultError{Op: OpProgram, Addr: addr, Err: ErrProgramFail}
	}
	return nil
}

// drawEraseFault draws the injected failure for an erase of addr's block,
// keyed on (block, erase count). Same no-mutation placement as
// drawProgramFault.
func (f *Flash) drawEraseFault(addr Address) error {
	m := f.faults
	if m == nil || m.cfg.EraseFailProb <= 0 {
		return nil
	}
	bi := f.geo.BlockIndex(addr)
	ec := f.blocks[bi].eraseCount
	if m.hit(faultKindErase, int64(bi), ec, 0, m.cfg.EraseFailProb) {
		m.stats.EraseFails++
		m.record(OpErase, addr, ec)
		return &FaultError{Op: OpErase, Addr: addr, Err: ErrEraseFail}
	}
	return nil
}
