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
	// ErrOverwrite marks a program of an already-written page
	// (erase-before-write).
	ErrOverwrite = errors.New("nand: program of already-written page (erase-before-write)")
	// ErrOutOfOrder marks a program that skips its block's next in-order
	// page (MLC/TLC disturb management forbids it).
	ErrOutOfOrder = errors.New("nand: out-of-order program")
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
	// ReadRetryLatency is the extra die occupancy per retry rung; zero
	// defaults to the timing model's ReadSlow.
	ReadRetryLatency sim.Duration
	// ReadDisturbLimit is the per-block read count at which accumulated
	// read disturb alone contributes a full wear factor to the read-fault
	// probability: every read of a block bumps its disturb counter (reset
	// by erase), and read draws scale with disturb/limit on top of the
	// erase-count wear term. Zero disables disturb accumulation entirely
	// (no counter bump, no draw change — the schedule stays bit-identical
	// to a disturb-free configuration).
	ReadDisturbLimit uint32
	// RetentionLimit is the simulated data age at which retention loss
	// alone contributes a full wear factor to the read-fault probability:
	// read draws scale with (now - program completion)/limit, quantized
	// into 16 buckets so the draw stays a pure function of a small key.
	// Zero disables the retention term.
	RetentionLimit sim.Duration
}

// Enabled reports whether any fault class can fire or any degradation
// counter must accumulate.
func (c FaultConfig) Enabled() bool {
	return c.ProgramFailProb > 0 || c.EraseFailProb > 0 || c.ReadFailProb > 0 ||
		c.ReadDisturbLimit > 0 || c.RetentionLimit > 0
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
	if c.ReadRetryLatency < 0 {
		return fmt.Errorf("nand: ReadRetryLatency must be >= 0, got %v", c.ReadRetryLatency)
	}
	if c.RetentionLimit < 0 {
		return fmt.Errorf("nand: RetentionLimit must be >= 0, got %v", c.RetentionLimit)
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
	faultKindExt     uint64 = 0x64697374757262ff
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
	retryLat sim.Duration // resolved ReadRetryLatency
	stats    FaultStats
	sites    []FaultSite
}

func newFaultModel(cfg FaultConfig, tim Timing) *faultModel {
	m := &faultModel{cfg: cfg, retries: cfg.MaxReadRetries, retryLat: cfg.ReadRetryLatency}
	if m.retries == 0 {
		m.retries = 3
	}
	if m.retryLat == 0 {
		m.retryLat = tim.ReadSlow
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
// count, attempt) fails under base probability prob. Idempotent by
// construction — probing and issuing the same op always agree.
func (m *faultModel) hit(kind uint64, idx int64, ec uint32, attempt int, prob float64) bool {
	return m.hitP(kind, idx, ec, attempt, prob*m.wearFactor(ec), 0)
}

// hitP is the generalized pure draw: p is the final (already scaled)
// probability and ext an optional extra key term (disturb count, retention
// bucket) folded in with one more mix round. ext zero skips that round, so
// configurations without the extra terms draw bit-identically to the
// original two-round hash.
func (m *faultModel) hitP(kind uint64, idx int64, ec uint32, attempt int, p float64, ext uint64) bool {
	if p <= 0 {
		return false
	}
	h := mix64(m.cfg.Seed ^ (kind + uint64(idx)*0x9e3779b97f4a7c15))
	h = mix64(h ^ (uint64(ec) << 16) ^ uint64(attempt))
	if ext != 0 {
		h = mix64(h ^ ext)
	}
	return float64(h>>11)/(1<<53) < p
}

// readLadder draws the whole retry ladder for one read of pageIdx: rung k
// fails independently with probability p (the read probability already
// scaled by wear, disturb and retention; ext keys the disturb/retention
// state into the hash). It returns the extra rungs a successful read
// climbed, or ok=false when every rung failed (the data is uncorrectable
// until the block is erased — the draw depends only on (page, erase count,
// degradation state), so re-reads under the same state keep failing, which
// is exactly how a degraded cell behaves — while a scrub migration or
// further disturb changes the key, as refreshing or re-disturbing a real
// cell would).
func (m *faultModel) readLadder(pageIdx int64, ec uint32, p float64, ext uint64) (retries int, ok bool) {
	attempts := m.retries + 1
	for k := 0; k < attempts; k++ {
		if !m.hitP(faultKindRead, pageIdx, ec, k, p, ext) {
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

// readDrawParams computes the effective read-fault probability and the
// extra hash key for one read of addr at simulated time now: the base
// probability scales with the sum of the erase-count wear factor, the
// block's disturb fraction and the page's retention-age fraction, and the
// (disturb count, retention bucket) pair keys the draw so degradation
// changes the schedule. With neither limit configured ext is 0 and the
// probability reduces to the original wear-scaled form, so the draw stream
// is bit-identical to a disturb/retention-free model.
func (f *Flash) readDrawParams(now sim.Time, addr Address, bi int) (p float64, ext uint64) {
	m := f.faults
	factor := m.wearFactor(f.blocks[bi].eraseCount)
	var dPart, bucket uint64
	keyed := false
	if lim := m.cfg.ReadDisturbLimit; lim > 0 {
		d := f.blocks[bi].disturb
		factor += float64(d) / float64(lim)
		dPart = uint64(d)
		keyed = true
	}
	if lim := m.cfg.RetentionLimit; lim > 0 {
		// A page pending a deferred program can carry a completion stamp
		// past the read's issue time; its age is zero, not an underflow.
		var age sim.Duration
		if done := f.oob[f.slot(&addr)].doneAt; now > done {
			age = now - done
		}
		factor += float64(age) / float64(lim)
		step := lim / 16
		if step <= 0 {
			step = 1
		}
		bucket = uint64(age / step)
		keyed = true
	}
	p = m.cfg.ReadFailProb * factor
	if keyed {
		ext = mix64(faultKindExt ^ dPart*0x9e3779b97f4a7c15 ^ (bucket << 20))
	}
	return p, ext
}

// readFaultExtra runs the issue-time read-retry ladder for addr: it returns
// the extra die occupancy the retries cost, or a wrapped ErrUncorrectable
// when the ladder is exhausted. Called before claimRead on every read path,
// so a faulting read claims nothing and schedules nothing. now anchors the
// retention-age term (ignored when retention is disabled).
func (f *Flash) readFaultExtra(now sim.Time, addr Address) (sim.Duration, error) {
	m := f.faults
	if m == nil || m.cfg.ReadFailProb <= 0 {
		return 0, nil
	}
	bi := f.geo.BlockIndex(addr)
	ec := f.blocks[bi].eraseCount
	p, ext := f.readDrawParams(now, addr, bi)
	retries, ok := m.readLadder(f.geo.PageIndex(addr), ec, p, ext)
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

// ProbeRead reports the error a read of addr would fail with at time now:
// CheckRead's structural checks plus the injected-fault ladder. The fault
// draw is a pure function of (seed, page, erase count, disturb count,
// retention bucket), so a passing probe guarantees an issue-time draw of
// the same read under the same degradation state also passes. Callers that
// interleave probes with disturb-bumping issues must instead carry the
// probe's result to the issue (ProbeReadExtra + ReadDeferredAddr's extra),
// because the issues shift later draws' keys. A failing probe
// charges the uncorrectable (it is where the caller observes the loss);
// the issue that would double-charge it never happens.
func (f *Flash) ProbeRead(now sim.Time, addr Address) error {
	if err := f.CheckRead(&addr); err != nil {
		return err
	}
	m := f.faults
	if m == nil || m.cfg.ReadFailProb <= 0 {
		return nil
	}
	bi := f.geo.BlockIndex(addr)
	ec := f.blocks[bi].eraseCount
	p, ext := f.readDrawParams(now, addr, bi)
	if _, ok := m.readLadder(f.geo.PageIndex(addr), ec, p, ext); !ok {
		m.stats.Uncorrectable++
		m.record(OpRead, addr, ec)
		return &FaultError{Op: OpRead, Addr: addr, Err: ErrUncorrectable}
	}
	return nil
}

// ProbeReadExtra is the authoritative-draw probe: CheckRead plus one full
// ladder draw for a read of addr at time now, returning the extra die
// occupancy the retries will cost. The caller issues the read with
// ReadDeferredAddr, which reuses the returned extra instead of re-drawing —
// the pattern batching paths need once read disturb is enabled, because a
// batch's issues bump the disturb counters its later probes were keyed on,
// so re-drawing at issue could disagree with the probe and break the
// probe-pass ⇒ issue-pass contract. Retry rungs are charged here (the
// probe IS the read's draw); a failing probe charges the uncorrectable.
func (f *Flash) ProbeReadExtra(now sim.Time, addr Address) (sim.Duration, error) {
	if err := f.CheckRead(&addr); err != nil {
		return 0, err
	}
	return f.readFaultExtra(now, addr)
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
// after CheckProgram and before claimProgram on every program path, so a
// faulting program claims nothing, mutates nothing and schedules nothing.
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
