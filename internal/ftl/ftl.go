// Package ftl implements the flash translation layer of Amber's firmware
// stack (§II-B, §III-B): super-page-granular page-level mapping, reserved
// blocks with a configurable over-provisioning ratio, greedy garbage
// collection (the victim is the super-block with the fewest valid
// sub-pages), dynamic and static wear-leveling, and the §IV-C partial-update optimization that remaps
// sub-pages of a super-page individually instead of read-modify-writing the
// whole stripe.
//
// The FTL is a pure mapping machine: it returns a Plan of physical page
// operations (reads, programs, erases, in order) and the caller — the flash
// interface layer — schedules them onto the storage complex. This keeps
// the layer unit-testable against a model of the physical constraints.
package ftl

import (
	"errors"
	"fmt"
	"math"
	"unsafe"

	"amber/internal/nand"
	"amber/internal/sim"
)

// ErrReadOnly marks the device's graceful-degradation end state: grown bad
// blocks have exhausted the spare reserve, so new host writes are refused
// (wrapped with this sentinel) while reads keep working. Matched with
// errors.Is.
var ErrReadOnly = errors.New("ftl: device is read-only (grown bad blocks exhausted spare reserve)")

// gcFreeThreshold triggers GC when free super-blocks drop to or below it:
// at least 2 are needed so GC always has an open block to migrate into.
const gcFreeThreshold = 2

// Config parameterizes the FTL.
type Config struct {
	Geometry nand.Geometry
	// OPRatio is the fraction of super-blocks reserved as over-provisioning
	// (paper default 20%, Fig. 11 sweeps 5-20%).
	OPRatio float64
	// PartialUpdate enables the §IV-C super-page hashmap optimization:
	// sub-page writes are remapped individually rather than triggering a
	// read-modify-write of the whole super-page.
	PartialUpdate bool
	// WearLevelDelta triggers static wear-leveling when the spread between
	// max and min block erase counts exceeds it. Zero disables.
	WearLevelDelta uint32
	// SpareBlocks is the number of grown-bad-block retirements the device
	// absorbs before transitioning to read-only. Zero selects the default
	// reservation, max(1, super-blocks/16).
	SpareBlocks int
	// RAINWidth enables die-level RAIN parity: every RAINWidth data planes
	// form a stripe group with one additional parity plane, and each
	// completed stripe row gets a parity page (the XOR of the row's data
	// pages) programmed as part of the same certified plan. An uncorrectable
	// read of a data page then reconstructs from the surviving stripe
	// members instead of losing the sub-page. RAINWidth+1 must divide the
	// geometry's total planes; zero disables RAIN entirely.
	RAINWidth int
}

// Validate reports descriptive configuration errors.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	if c.OPRatio < 0.01 || c.OPRatio > 0.5 {
		return fmt.Errorf("ftl: OPRatio %v outside [0.01, 0.5]", c.OPRatio)
	}
	minSBs := gcFreeThreshold + 2
	if c.Geometry.BlocksPerPlane < minSBs {
		return fmt.Errorf("ftl: geometry has %d super-blocks, need >= %d", c.Geometry.BlocksPerPlane, minSBs)
	}
	if c.SpareBlocks < 0 {
		return fmt.Errorf("ftl: SpareBlocks must be >= 0, got %d", c.SpareBlocks)
	}
	if c.RAINWidth < 0 {
		return fmt.Errorf("ftl: RAINWidth must be >= 0, got %d", c.RAINWidth)
	}
	if c.RAINWidth > 0 {
		if c.RAINWidth > 32 {
			return fmt.Errorf("ftl: RAINWidth %d exceeds the 32-plane stripe mask", c.RAINWidth)
		}
		if stripe := c.RAINWidth + 1; c.Geometry.TotalPlanes()%stripe != 0 {
			return fmt.Errorf("ftl: RAIN stripe of %d planes does not divide %d total planes",
				stripe, c.Geometry.TotalPlanes())
		}
	}
	return nil
}

// PageLoc names one physical sub-page: page Page of plane Plane in
// super-block SB, holding logical sub-page Sub of its super-page. The
// allocator prefers Plane == Sub (channel-striped layout for maximum bus
// overlap) but may place a sub-page on another plane when the preferred
// plane's append point is full — the flexibility that keeps GC compaction
// from wedging under plane-skewed partial updates.
type PageLoc struct {
	SB    int
	Page  int
	Plane int
	Sub   int
}

// OpKind distinguishes plan operations. One byte: Op must fit a cache line.
type OpKind uint8

// Plan operation kinds.
const (
	OpRead OpKind = iota + 1
	OpWrite
	OpErase
)

// ParityTag is the OOB logical tag stamped on RAIN parity programs: not a
// forward-map index, so Mount never maps a parity page as data (the FI < 0
// skip), but distinguishable from raw untagged programs (-1).
const ParityTag int64 = -2

// Op is one physical operation in a plan, in causal order: a write may
// depend on the read of the same (LSPN, Sub) issued before it, and a write
// into a super-block erased earlier in the same plan must follow that
// erase.
//
// A Parity write carries no logical sub-page (LSPN is -1): the executor
// computes its payload as the XOR of the stripe row's data pages and stamps
// the page's OOB with Mask. Loc.Sub of a parity op holds the first data
// plane of its stripe group, so the op alone names every member: data
// planes [Loc.Sub, Loc.Plane), mask bit i covering plane Loc.Sub+i.
// Timing reads with LSPN -1 (reconstruction's stripe-member reads) are
// never paired with host data or mappings.
//
// Src is the plan link of a non-parity write: the 1-based index into the
// plan's Ops of the pre-read whose completion the write waits for and whose
// bytes it rewrites — by definition the last OpRead of the same (LSPN,
// Loc.Sub) preceding the write — or 0 when no such read exists (a pure host
// write). The FTL stamps it while building the plan (linkOps is the
// reference rule), and a plan's certificate vouches for it exactly as it
// vouches for addresses and program order; executors walking an uncertified
// plan derive the links themselves and ignore the field.
//
// The layout is a budget, not an accident: a GC plan runs to tens of
// thousands of ops that the executor streams through once, so an Op is
// exactly one 64-byte cache line (asserted below). A new field has to fit
// the seven spare bytes or displace something.
type Op struct {
	Loc    PageLoc // read/write target
	LSPN   int64   // owning logical super-page (read/write), -1 for parity/aux
	SB     int     // erase target super-block
	Mask   uint32  // parity: stripe membership mask (bit i = data plane Loc.Sub+i)
	Src    int32   // write: 1-based Ops index of the pre-read it consumes, 0 = none
	Kind   OpKind
	GC     bool // write: migration/RMW rewrite rather than host data
	Parity bool // write: RAIN parity program (payload = stripe XOR)
}

// Compile-time proof of the one-cache-line budget: any other size makes
// the constant index out of range.
var _ = [1]struct{}{}[unsafe.Sizeof(Op{})-64]

// Plan is the ordered physical work produced by one FTL call. Ops must be
// executed respecting their order-induced dependencies.
type Plan struct {
	Ops []Op
	// GCRuns counts garbage collections triggered by this call.
	GCRuns int
	// Migrated counts valid sub-pages moved by GC.
	Migrated int
	// WearLevelMoves counts static wear-leveling migrations.
	WearLevelMoves int
	// Cert is the construction-time certification (see Cert). The zero
	// value marks a hand-built plan, which executors must validate
	// themselves. Note a copied Plan keeps its certificate: what protects
	// executors from copies is the sequence check — the original and the
	// copy carry the same number, so at most one of them (whichever runs
	// first, unmodified) is honored and the other breaks the chain.
	Cert Cert
}

// push extends the plan by one op of the given kind, zero otherwise, for
// the caller to fill in place. The hot builders go through it instead of
// appending a composite literal: a 64-byte Op assembled field by field in a
// temporary and then copied into the slice is a wide load over narrow
// stores — a failed store-to-load forward per op.
func (p *Plan) push(kind OpKind) *Op {
	p.Ops = append(p.Ops, Op{})
	op := &p.Ops[len(p.Ops)-1]
	op.Kind = kind
	return op
}

// Cert certifies that a plan is valid by construction: the FTL knows the
// geometry bounds and every block's next-page pointer when it emits reads,
// writes and erases, so a plan it returns needs no second validation walk —
// provided the executor's flash is in lockstep with the FTL's model. The
// certificate binds the plan to its issuing FTL and to its position in that
// FTL's plan sequence; an executor (fil.FIL.AcceptCertified) honors it only
// while every certified plan has executed in issue order against a flash
// nothing else has mutated. Only the ftl package can mint a non-zero Cert,
// so hand-built plans always take the executor's slow validation path.
type Cert struct {
	issuer *FTL
	seq    uint64
}

// By reports whether the certificate was minted by f.
func (c Cert) By(f *FTL) bool { return f != nil && c.issuer == f }

// Seq returns the plan's position in the issuing FTL's plan sequence.
func (c Cert) Seq() uint64 { return c.seq }

// ReadCert certifies a LookupSubs result: while the FTL's mapping model is in
// lockstep with the flash (the same invariant the plan-side Cert chain
// maintains), "mapped ⇒ written" holds by construction — the FTL only maps
// a sub-page when it plans the program for it, and certified plans execute
// in issue order — so the per-address written-bit walk (nand.CheckRead) a
// reader would otherwise do is redundant. The certificate binds the lookup
// to its issuing FTL and to the flash mutation epoch it was read under; an
// executor honors it only while its certified chain with that issuer is
// armed and the flash epoch still matches. Only the ftl package can mint a
// non-zero ReadCert, so hand-built address lists always take the
// executor's validation walk.
type ReadCert struct {
	issuer *FTL
	epoch  uint64
}

// By reports whether the certificate was minted by f.
func (c ReadCert) By(f *FTL) bool { return f != nil && c.issuer == f }

// Epoch returns the flash mutation epoch the lookup was performed under.
func (c ReadCert) Epoch() uint64 { return c.epoch }

// Stats aggregates FTL activity.
type Stats struct {
	HostSubWrites  uint64 // sub-pages written on behalf of the host
	FlashSubWrites uint64 // total sub-pages programmed (host + GC + RMW)
	GCRuns         uint64
	GCMigrated     uint64
	Erases         uint64
	RMWReads       uint64 // pre-reads caused by partial writes without the optimization
	PartialRemaps  uint64 // sub-page writes served by the partial-update hashmap
	WearLevelMoves uint64
	Retirements    uint64 // super-blocks retired as grown bad blocks
	Replans        uint64 // recovery plans built after injected plan faults
	LostSubs       uint64 // sub-pages lost to flash faults: reads of them fail
	ParityWrites   uint64 // RAIN parity pages programmed
	// Reconstructions counts uncorrectable reads answered from RAIN parity
	// (data re-homed, a latency event instead of loss); DoubleFaults counts
	// the reconstructions that could not proceed — a stripe member torn,
	// unwritten or itself uncorrectable — and fell back to honest data loss.
	Reconstructions uint64
	DoubleFaults    uint64
	ScrubRuns       uint64 // patrol-scrub super-block refreshes
	ScrubMigrated   uint64 // sub-pages migrated by patrol scrub
}

// WAF returns the write-amplification factor.
func (s Stats) WAF() float64 {
	if s.HostSubWrites == 0 {
		return 0
	}
	return float64(s.FlashSubWrites) / float64(s.HostSubWrites)
}

type superBlock struct {
	nextPage   []int32 // per-plane append pointer
	validSubs  int32
	eraseCount uint32
	lastWrite  sim.Time
	closed     bool
	free       bool
	// retired marks a grown bad block: never erased, programmed or chosen
	// as a GC/wear-leveling victim again. Still-valid sub-pages stay
	// readable until recovery migrates them out.
	retired bool
	// recon counts RAIN reconstructions sourced from this block since its
	// last erase; at reconScrubThreshold the block is flagged for a forced
	// scrub (NoteReconstruct).
	recon uint32
}

// FTL is the page-level translator. Not safe for concurrent use.
type FTL struct {
	cfg        Config
	subCount   int // planes per super-page
	pagesPerSB int
	sbCount    int

	// rainW is the RAIN stripe width (data planes per parity group), zero
	// when RAIN is off; dataPlanes is the number of planes carrying data
	// per super-block (= subCount without RAIN).
	rainW      int
	dataPlanes int

	// fwd maps lspn*subCount+sub to the physical index (physIndex: packed
	// sb, page, plane) of the sub-page holding it, -1 unmapped, fwdLost for
	// acknowledged data a read fault destroyed (see loseSub); rev maps a
	// physical index back to its fwd index, -1 when the sub-page holds
	// nothing valid. A physical sub-page is valid iff its rev entry is >= 0:
	// every writer sets and clears both directions together, and
	// CheckInvariants walks both. 4 bytes an entry (New bounds the physical
	// sub-pages to int32; code widens an entry to int64 on load): 4 bytes
	// per physical sub-page plus 4 per user sub-page, the largest per-page
	// metadata after the flash's OOB stamps.
	fwd []int32
	rev []int32

	sbs    []superBlock
	freeSB []int // stack of free super-blocks
	openSB int   // current append super-block, -1 none

	userLSPNs int64
	stats     Stats
	inGC      bool // reentrancy guard: GC's own writes must not trigger GC

	// spares is the grown-bad-block budget; retireOrder lists retired
	// super-blocks in retirement order (deterministic, rendered by the
	// golden tests); readOnly latches once retirements exceed the budget
	// and gates new host writes (recovery and reads proceed).
	spares      int
	retireOrder []int
	readOnly    bool

	// onRetire, when set, is invoked once per super-block retirement with
	// the retired super-block. The core wires it to the flash's durable
	// bad-block table (nand.MarkBadBlock per plane block), which is what
	// makes retirement state survive power loss and rebuild at Mount.
	onRetire func(sb int)

	// planSeq numbers the plans this FTL has certified. The FTL mutates its
	// mapping and append-pointer state eagerly at Write time, so plan N is
	// valid against a flash that has executed exactly plans 0..N-1 — the
	// contract the sequence number lets executors enforce.
	planSeq uint64

	// epochSource, when set (core wires it to nand.Flash.StateEpoch), lets
	// LookupSubs stamp its results with the flash mutation epoch the
	// mapping was read under — the freshness half of a read certificate.
	epochSource func() uint64

	// scratchOps backs the Ops slice of the plan returned by Write, reused
	// across calls: the submit path executes each plan synchronously before
	// the next FTL call, so one growable buffer serves every request.
	scratchOps []Op

	// Plan-link scratch (Op.Src). linkLSPN is the super-page the running
	// Write call is writing (-1 outside Write) and lastRead[sub] the 1-based
	// plan index of the last read of (linkLSPN, sub) appended so far, 0 for
	// none: the RMW pre-reads, and any GC or wear-levelling migration that
	// happened to move a sub of that very super-page earlier in the plan.
	linkLSPN int64
	lastRead []int32

	allSubs []int // 0..subCount-1, read-only (AllSubs)
}

// New constructs an FTL over the given geometry.
func New(cfg Config) (*FTL, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := cfg.Geometry
	f := &FTL{
		cfg:        cfg,
		subCount:   g.TotalPlanes(),
		pagesPerSB: g.PagesPerBlock,
		sbCount:    g.BlocksPerPlane,
		openSB:     -1,
		linkLSPN:   -1,
	}
	f.lastRead = make([]int32, f.subCount)
	f.allSubs = make([]int, f.subCount)
	for i := range f.allSubs {
		f.allSubs[i] = i
	}
	f.dataPlanes = f.subCount
	if cfg.RAINWidth > 0 {
		f.rainW = cfg.RAINWidth
		f.dataPlanes = f.subCount / (f.rainW + 1) * f.rainW
	}
	totalSuperPages := int64(f.sbCount) * int64(f.pagesPerSB)
	// RAIN reserves one plane per stripe group for parity, shrinking the
	// physical sub-page budget by dataPlanes/subCount before the OP ratio
	// carves out its share.
	f.userLSPNs = int64(float64(totalSuperPages) * float64(f.dataPlanes) / float64(f.subCount) * (1 - cfg.OPRatio))
	// Regardless of the OP ratio, at least two super-blocks stay out of the
	// user capacity: one open append block and one block of GC headroom.
	// Without this floor a fully-valid device can strand GC with no free
	// block to migrate into.
	if maxUser := int64(f.sbCount-2) * int64(f.pagesPerSB) * int64(f.dataPlanes) / int64(f.subCount); f.userLSPNs > maxUser {
		f.userLSPNs = maxUser
	}
	if f.userLSPNs < 1 {
		return nil, fmt.Errorf("ftl: over-provisioning leaves no user capacity")
	}
	physSubs := int64(f.sbCount) * int64(f.pagesPerSB) * int64(f.subCount)
	if physSubs > math.MaxInt32 {
		return nil, fmt.Errorf("ftl: geometry has %d physical sub-pages, more than 32-bit maps can index", physSubs)
	}
	f.fwd = make([]int32, f.userLSPNs*int64(f.subCount))
	for i := range f.fwd {
		f.fwd[i] = -1
	}
	f.rev = make([]int32, physSubs)
	for i := range f.rev {
		f.rev[i] = -1
	}
	f.sbs = make([]superBlock, f.sbCount)
	f.freeSB = make([]int, 0, f.sbCount)
	for i := f.sbCount - 1; i >= 0; i-- {
		f.sbs[i] = superBlock{nextPage: make([]int32, f.subCount), free: true}
		f.freeSB = append(f.freeSB, i)
	}
	f.spares = cfg.SpareBlocks
	if f.spares == 0 {
		f.spares = f.sbCount / 16
		if f.spares < 1 {
			f.spares = 1
		}
	}
	return f, nil
}

// Config returns the configuration.
func (f *FTL) Config() Config { return f.cfg }

// UserSuperPages returns the exported logical capacity in super-pages.
func (f *FTL) UserSuperPages() int64 { return f.userLSPNs }

// SubPagesPerSuperPage returns the number of physical pages striped into
// one super-page (= total planes).
func (f *FTL) SubPagesPerSuperPage() int { return f.subCount }

// SuperPageBytes returns the byte size of one super-page.
func (f *FTL) SuperPageBytes() int { return f.subCount * f.cfg.Geometry.PageSize }

// Stats returns a copy of the counters.
func (f *FTL) Stats() Stats { return f.stats }

// ReadOnly reports whether grown bad blocks exhausted the spare reserve
// and the device now refuses new host writes.
func (f *FTL) ReadOnly() bool { return f.readOnly }

// ForceReadOnly latches the drive read-only immediately, exactly as if the
// grown-bad-block budget had just been exhausted: writes refuse with
// ErrReadOnly, reads keep serving, and the latch is permanent for the life
// of the FTL like the organic wear-out one. It lets a test latch the
// device at a chosen moment without real block retirements.
func (f *FTL) ForceReadOnly() { f.readOnly = true }

// SpareHeadroom returns how many more super-block retirements the device
// absorbs before going read-only (floored at zero).
func (f *FTL) SpareHeadroom() int {
	if h := f.spares - len(f.retireOrder); h > 0 {
		return h
	}
	return 0
}

// RetiredSuperBlocks returns the grown bad blocks in retirement order.
func (f *FTL) RetiredSuperBlocks() []int {
	out := make([]int, len(f.retireOrder))
	copy(out, f.retireOrder)
	return out
}

// SetRetireHook registers fn to be called once per super-block retirement.
// The core uses it to mirror retirements into the flash's durable
// bad-block table; Mount reads that table back to rebuild the retirement
// order after power loss.
func (f *FTL) SetRetireHook(fn func(sb int)) { f.onRetire = fn }

// PlanSeq returns the sequence number the next certified plan will carry.
// Executors binding to this FTL (fil.FIL.AcceptCertified) record it as the
// first certificate they will accept.
func (f *FTL) PlanSeq() uint64 { return f.planSeq }

// certify stamps a successfully constructed plan as pre-checked. Error
// paths never certify — and once plan construction may have mutated the
// mapping model, they must still consume a sequence number (see Write's
// burn defer): a partially built plan never executes, so the flash epoch
// alone cannot reveal the divergence, and only the sequence gap forces the
// executor's chain to break and every later plan to take the walk.
func (f *FTL) certify(p *Plan) {
	p.Cert = Cert{issuer: f, seq: f.planSeq}
	f.planSeq++
}

// linkOps is the reference rule for plan links, one walk with a map: every
// non-parity write's Src names the last OpRead of the same (LSPN, Loc.Sub)
// before it in ops, 1-based, 0 when there is none; every other op's Src is
// cleared. The hot builders (Write, GC, wear-levelling, scrub) stamp the
// same answer inline; the cold ones that hand-assemble or copy ops
// (RecoverPlanFault, MountSqueeze, PlanReconstruct) call this before
// certify, so certified ⇒ linked, and the tests hold the inline stamps to it.
func linkOps(ops []Op) {
	type key struct {
		lspn int64
		sub  int
	}
	last := make(map[key]int32)
	for i := range ops {
		op := &ops[i]
		op.Src = 0
		switch {
		case op.Kind == OpRead:
			last[key{op.LSPN, op.Loc.Sub}] = int32(i + 1)
		case op.Kind == OpWrite && !op.Parity:
			op.Src = last[key{op.LSPN, op.Loc.Sub}]
		}
	}
}

// physIndex is loc's index in the reverse map, super-block major. It is
// also how the forward map packs a location: a mapped sub's fwd entry is
// its physical index, and unpackLoc inverts it.
func (f *FTL) physIndex(loc PageLoc) int64 {
	return (int64(loc.SB)*int64(f.pagesPerSB)+int64(loc.Page))*int64(f.subCount) + int64(loc.Plane)
}

func (f *FTL) fwdIndex(lspn int64, sub int) int64 {
	return lspn*int64(f.subCount) + int64(sub)
}

// invalidate drops the physical sub-page pi — a forward-map entry as it is —
// from the valid set and its super-block's count, if it is still there.
func (f *FTL) invalidate(pi int64) {
	if f.rev[pi] >= 0 {
		f.rev[pi] = -1
		f.sbs[pi/(int64(f.pagesPerSB)*int64(f.subCount))].validSubs--
	}
}

func (f *FTL) unpackLoc(packed int64, sub int) PageLoc {
	plane := int(packed % int64(f.subCount))
	rest := packed / int64(f.subCount)
	return PageLoc{
		SB:    int(rest / int64(f.pagesPerSB)),
		Page:  int(rest % int64(f.pagesPerSB)),
		Plane: plane,
		Sub:   sub,
	}
}

// checkLSPN validates a logical super-page number.
func (f *FTL) checkLSPN(lspn int64) error {
	if lspn < 0 || lspn >= f.userLSPNs {
		return fmt.Errorf("ftl: LSPN %d out of range [0,%d)", lspn, f.userLSPNs)
	}
	return nil
}

// AllSubs returns 0..SubPagesPerSuperPage-1, the request for a whole
// super-page (LookupSubs, the core's prefetch fills). Shared: callers must
// not write to it.
func (f *FTL) AllSubs() []int { return f.allSubs }

// LookupCertified is LookupSubs over every sub-page of lspn, in sub order.
func (f *FTL) LookupCertified(dst []PageLoc, lspn int64) ([]PageLoc, ReadCert, error) {
	return f.LookupSubs(dst, lspn, f.allSubs)
}

// LookupSubs is the certified lookup, and costs what it is asked for: it
// reads the forward-map entries of the named subs of lspn only and appends
// the locations of the mapped ones to dst (pass dst[:0] to recycle a
// per-request buffer's capacity) in the order subs names them — callers
// that issue flash reads from the result pass ascending subs, the order
// every claim sequence so far was recorded in. An LSPN or sub out of range
// is an error, and so is a lost sub (one wrapping nand.ErrUncorrectable:
// its data is gone, and the read fails rather than serve zeroes); dst then
// comes back as it was. The result is stamped with a read certificate:
// every returned location is mapped, and while the issuing FTL's certified
// chain is armed, mapped ⇒ written — so an executor honoring the
// certificate may skip per-address read validation. The certificate is
// zero (uncertified) when no epoch source is wired.
func (f *FTL) LookupSubs(dst []PageLoc, lspn int64, subs []int) ([]PageLoc, ReadCert, error) {
	if err := f.checkLSPN(lspn); err != nil {
		return dst, ReadCert{}, err
	}
	row := f.fwd[f.fwdIndex(lspn, 0):f.fwdIndex(lspn+1, 0)]
	locs := dst
	for _, sub := range subs {
		if sub < 0 || sub >= len(row) {
			return dst, ReadCert{}, fmt.Errorf("ftl: sub-page %d outside super-page of %d", sub, len(row))
		}
		switch packed := row[sub]; {
		case packed >= 0:
			locs = append(locs, f.unpackLoc(int64(packed), sub))
		case packed == fwdLost:
			return dst, ReadCert{}, fmt.Errorf("ftl: sub-page %d of LSPN %d was lost: %w", sub, lspn, nand.ErrUncorrectable)
		}
	}
	var cert ReadCert
	if f.epochSource != nil {
		cert = ReadCert{issuer: f, epoch: f.epochSource()}
	}
	return locs, cert, nil
}

// LookupSub returns where sub-page sub of lspn lives and whether it is
// mapped at all — the single-sub form of LookupSubs, with a lost sub
// unmapped.
func (f *FTL) LookupSub(lspn int64, sub int) (PageLoc, bool) {
	if f.checkLSPN(lspn) != nil || sub < 0 || sub >= f.subCount {
		return PageLoc{}, false
	}
	packed := int64(f.fwd[f.fwdIndex(lspn, sub)])
	if packed < 0 {
		return PageLoc{}, false
	}
	return f.unpackLoc(packed, sub), true
}

// SetEpochSource wires the flash mutation-epoch source LookupSubs
// stamps into read certificates (the core passes nand.Flash.StateEpoch).
// Without a source, lookups return uncertified results and readers walk
// validation as before.
func (f *FTL) SetEpochSource(fn func() uint64) { f.epochSource = fn }

// Address converts a PageLoc to the NAND physical address.
func (f *FTL) Address(loc PageLoc) nand.Address {
	g := f.cfg.Geometry
	// The global plane index decomposes into (channel, package, die, plane)
	// with channel varying fastest, so consecutive planes stripe across
	// channels first — the layout that maximizes bus overlap.
	sub := loc.Plane
	ch := sub % g.Channels
	rest := sub / g.Channels
	pkg := rest % g.PackagesPerChannel
	rest /= g.PackagesPerChannel
	die := rest % g.DiesPerPackage
	plane := rest / g.DiesPerPackage
	return nand.Address{
		Channel: ch, Package: pkg, Die: die, Plane: plane,
		Block: loc.SB, Page: loc.Page,
	}
}

// allocOpen ensures an open super-block exists with room on at least one
// plane, running GC beforehand when the reserve is low. It appends any GC
// work to the plan.
func (f *FTL) allocOpen(now sim.Time, plan *Plan) error {
	if f.openSB >= 0 {
		sb := &f.sbs[f.openSB]
		for p, np := range sb.nextPage {
			if f.isParityPlane(p) {
				continue // parity planes never take data pages
			}
			if int(np) < f.pagesPerSB {
				return nil
			}
		}
		// Every data plane is full: top off the parity planes (the per-append
		// catch-up already did unless the block was reopened skewed at mount)
		// and close the block.
		if f.rainW > 0 {
			for g := 0; g < f.subCount/(f.rainW+1); g++ {
				f.parityCatchupGroup(f.openSB, g, plan)
			}
		}
		sb.closed = true
		f.openSB = -1
	}
	if !f.inGC && len(f.freeSB) <= gcFreeThreshold {
		f.inGC = true
		f.reserveStorm(plan)
		// Bounded collection: plane-skewed partial updates can make a single
		// collect net-zero (migration consumes a block as the erase frees
		// one), so cap the work per allocation instead of insisting the
		// reserve recovers fully here.
		for tries := 0; len(f.freeSB) <= gcFreeThreshold && tries < f.sbCount; tries++ {
			ok, err := f.collect(now, plan)
			if err != nil {
				f.inGC = false
				return err
			}
			if !ok {
				break // nothing reclaimable; dip into the OP reserve
			}
		}
		f.inGC = false
	}
	if len(f.freeSB) == 0 {
		if len(f.retireOrder) > 0 {
			// Retirements permanently shrank the pool: this exhaustion
			// cannot resolve (GC already found nothing reclaimable), so
			// the device latches read-only even if the spare budget was
			// not formally overrun — effective spare exhaustion.
			f.readOnly = true
		}
		return fmt.Errorf("%w: no free super-blocks (device full beyond OP)", ErrReadOnly)
	}
	f.openSB = f.popFreeSB()
	sb := &f.sbs[f.openSB]
	sb.free = false
	sb.closed = false
	return nil
}

// popFreeSB removes and returns the free super-block with the lowest erase
// count — dynamic wear-leveling by allocation order.
func (f *FTL) popFreeSB() int {
	best := 0
	for i := 1; i < len(f.freeSB); i++ {
		if f.sbs[f.freeSB[i]].eraseCount < f.sbs[f.freeSB[best]].eraseCount {
			best = i
		}
	}
	sb := f.freeSB[best]
	f.freeSB = append(f.freeSB[:best], f.freeSB[best+1:]...)
	return sb
}

// appendSub programs the next page of the open super-block and installs
// the mapping lspn/sub -> there. The preferred plane is sub's stripe slot;
// when that plane's append point is full the least-filled plane takes the
// page instead. Any previous mapping is invalidated. The write is appended
// to the plan.
//
// src is the write's plan link (Op.Src) as the caller knows it: a
// migration passes the index of the read it just appended, everyone else 0.
// A write of the super-page under Write takes lastRead's answer instead —
// looked up only now, after allocOpen, because the GC allocOpen may run can
// migrate the very sub about to be written, and that migration's read is
// then the last one preceding this write. For the same reason old, where
// the sub is valid now, is read from the forward map after allocOpen — unless
// the caller passes it (old >= 0): a migration holds its victim's physical
// index, and nothing allocOpen runs moves a victim's subs (collection is
// suspended, or the victim is retired and never collectable).
func (f *FTL) appendSub(now sim.Time, lspn int64, sub int, gc bool, src int32, old int64, plan *Plan) error {
	if err := f.allocOpen(now, plan); err != nil {
		return err
	}
	if lspn == f.linkLSPN {
		src = f.lastRead[sub]
	}
	sb := &f.sbs[f.openSB]
	plane := sub % f.subCount
	if f.rainW > 0 {
		plane = f.dataPlane(sub % f.dataPlanes)
	}
	if int(sb.nextPage[plane]) >= f.pagesPerSB {
		best := -1
		for p := 0; p < f.subCount; p++ {
			if f.isParityPlane(p) {
				continue
			}
			if int(sb.nextPage[p]) < f.pagesPerSB && (best < 0 || sb.nextPage[p] < sb.nextPage[best]) {
				best = p
			}
		}
		plane = best // allocOpen guaranteed at least one open data plane
	}
	op := plan.push(OpWrite)
	op.Loc.SB, op.Loc.Page, op.Loc.Plane, op.Loc.Sub = f.openSB, int(sb.nextPage[plane]), plane, sub
	op.LSPN, op.GC, op.Src = lspn, gc, src
	pi := f.physIndex(op.Loc)
	sb.nextPage[plane]++
	sb.lastWrite = now

	fi := f.fwdIndex(lspn, sub)
	if old < 0 {
		old = int64(f.fwd[fi])
	}
	if old >= 0 {
		f.invalidate(old)
	}
	f.fwd[fi] = int32(pi)
	f.rev[pi] = int32(fi)
	sb.validSubs++

	f.stats.FlashSubWrites++
	if f.rainW > 0 {
		// Parity rides the same plan as the data: once this append completed
		// a stripe row (every data plane of the group past it), its parity
		// program is emitted right here, after the row's data writes.
		f.parityCatchupGroup(f.openSB, plane/(f.rainW+1), plan)
	}
	return nil
}

// Write maps a host write of lspn covering the sub-pages set in dirty
// (nil means the full super-page) and returns the physical plan. Without
// the partial-update optimization, a partial write triggers a
// read-modify-write: the untouched mapped sub-pages are read and rewritten
// so the whole super-page stays physically contiguous.
//
// The returned plan's Ops slice aliases a per-FTL scratch buffer valid
// until the next Write call; execute (or copy) it before writing again.
// A successfully constructed plan — host writes, RMW, GC migrations and
// wear-leveling alike — is stamped as certified (see Cert): every address
// is in bounds and every program lands on its block's next in-order page
// by construction, so a lockstep executor may skip revalidation.
func (f *FTL) Write(now sim.Time, lspn int64, dirty []bool) (Plan, error) {
	plan := Plan{Ops: f.scratchOps[:0]}
	defer func() {
		f.scratchOps = plan.Ops[:0]
		f.linkLSPN = -1
	}()
	if f.readOnly {
		return plan, fmt.Errorf("%w: write of LSPN %d refused", ErrReadOnly, lspn)
	}
	if err := f.checkLSPN(lspn); err != nil {
		return plan, err
	}
	if dirty != nil && len(dirty) != f.subCount {
		return plan, fmt.Errorf("ftl: dirty mask has %d entries, want %d", len(dirty), f.subCount)
	}
	full := dirty == nil
	if !full {
		full = true
		any := false
		for _, d := range dirty {
			if d {
				any = true
			} else {
				full = false
			}
		}
		if !any {
			f.certify(&plan)
			return plan, nil
		}
	}

	// From here on plan construction mutates the mapping model (appendSub
	// installs mappings and advances append pointers before a later sub can
	// fail), so a mid-plan error leaves the model ahead of the flash. Two
	// defenses keep that from ever being observable. First, every mutation
	// appends its op to the plan before the next mutation can fail, so the
	// partial plan returned alongside the error replays exactly the
	// mutations made — the caller (core.flushEviction) executes it to
	// restore lockstep before surfacing the error; this matters on a
	// degrading device, where allocation failures (ErrReadOnly) are
	// survivable outcomes the host keeps running past, not run-enders.
	// Second, burn this plan's sequence number on every error return: the
	// gap breaks the executor's chain at its sequence check, so every later
	// plan takes the validation walk instead of a certified fast path.
	// certify() consumes the number on success and clears the burn.
	burn := true
	defer func() {
		if burn {
			f.planSeq++
		}
	}()
	f.linkLSPN = lspn
	clear(f.lastRead)

	writeSub := func(sub int, gc bool) error {
		if !gc {
			f.stats.HostSubWrites++
		}
		return f.appendSub(now, lspn, sub, gc, 0, -1, &plan)
	}

	switch {
	case full:
		for sub := 0; sub < f.subCount; sub++ {
			if err := writeSub(sub, false); err != nil {
				return plan, err
			}
		}
	case f.cfg.PartialUpdate:
		// §IV-C: remap only the dirty sub-pages via the super-page hashmap
		// (here: the per-sub forward map), leaving clean sub-pages where
		// they are.
		for sub := 0; sub < f.subCount; sub++ {
			if dirty[sub] {
				f.stats.PartialRemaps++
				if err := writeSub(sub, false); err != nil {
					return plan, err
				}
			}
		}
	default:
		// Read-modify-write: pre-read mapped clean sub-pages, then rewrite
		// the full stripe.
		for sub := 0; sub < f.subCount; sub++ {
			if !dirty[sub] {
				if packed := f.fwd[f.fwdIndex(lspn, sub)]; packed >= 0 {
					plan.Ops = append(plan.Ops, Op{Kind: OpRead, Loc: f.unpackLoc(int64(packed), sub), LSPN: lspn})
					f.lastRead[sub] = int32(len(plan.Ops))
					f.stats.RMWReads++
				}
			}
		}
		for sub := 0; sub < f.subCount; sub++ {
			gcWrite := !dirty[sub] // rewrites of clean data amplify writes
			if !gcWrite {
				f.stats.HostSubWrites++
			}
			if err := f.appendSub(now, lspn, sub, gcWrite, 0, -1, &plan); err != nil {
				return plan, err
			}
		}
	}

	if f.cfg.WearLevelDelta > 0 {
		f.maybeWearLevel(now, &plan)
	}
	f.certify(&plan)
	burn = false
	return plan, nil
}

// Mapped reports whether any sub-page of lspn is mapped.
func (f *FTL) Mapped(lspn int64) bool {
	for sub := 0; sub < f.subCount; sub++ {
		if f.fwd[f.fwdIndex(lspn, sub)] >= 0 {
			return true
		}
	}
	return false
}

// MaxEraseSpread returns max-min erase counts across super-blocks.
func (f *FTL) MaxEraseSpread() uint32 {
	if len(f.sbs) == 0 {
		return 0
	}
	min, max := f.sbs[0].eraseCount, f.sbs[0].eraseCount
	for i := range f.sbs {
		c := f.sbs[i].eraseCount
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	return max - min
}

// ValidSubs returns the valid sub-page count of a super-block (testing and
// GC-scoring aid).
func (f *FTL) ValidSubs(sb int) int { return int(f.sbs[sb].validSubs) }

// CheckInvariants verifies internal consistency in both directions: every
// mapped forward entry names a physical sub-page whose reverse entry names
// it back, every valid physical sub-page (reverse entry >= 0) is mapped back
// by the forward entry it names, and per-super-block valid counts equal the
// valid sub-pages in the block. The forward map is injective by the first
// walk alone: a physical sub-page's one reverse entry names one forward
// entry. It is used by property tests and is cheap enough to call after
// every operation on small geometries.
func (f *FTL) CheckInvariants() error {
	for fi, packed := range f.fwd {
		if packed < 0 {
			continue
		}
		if int(packed) >= len(f.rev) {
			return fmt.Errorf("ftl: forward entry %d maps to physical sub %d, past %d", fi, packed, len(f.rev))
		}
		if f.rev[packed] != int32(fi) {
			loc := f.unpackLoc(int64(packed), fi%f.subCount)
			return fmt.Errorf("ftl: reverse map of %v is %d, want %d", loc, f.rev[packed], fi)
		}
	}
	perSB := f.pagesPerSB * f.subCount
	for sb := range f.sbs {
		var valid int32
		for pi := sb * perSB; pi < (sb+1)*perSB; pi++ {
			fi := f.rev[pi]
			if fi < 0 {
				continue
			}
			if int(fi) >= len(f.fwd) || f.fwd[fi] != int32(pi) {
				return fmt.Errorf("ftl: physical sub %v names forward entry %d, which does not map it back",
					f.unpackLoc(int64(pi), int(fi)%f.subCount), fi)
			}
			valid++
		}
		if valid != f.sbs[sb].validSubs {
			return fmt.Errorf("ftl: SB %d valid count %d, recomputed %d", sb, f.sbs[sb].validSubs, valid)
		}
	}
	return nil
}
