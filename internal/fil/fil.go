// Package fil implements the flash interface layer: the bottom firmware
// module that schedules flash transactions produced by the FTL onto the
// storage complex, exploiting channel/way/die/plane parallelism (§III-B).
// Dependency order within a plan is preserved — a GC or read-modify-write
// rewrite cannot program before its source page has been read, and an
// erase cannot start before the victim's migrations complete — while
// independent transactions overlap freely, bounded only by the per-channel
// and per-die resource contention modeled inside package nand.
package fil

import (
	"fmt"

	"amber/internal/ftl"
	"amber/internal/nand"
	"amber/internal/sim"
)

// AddrFunc converts an FTL page location to a NAND physical address.
type AddrFunc func(ftl.PageLoc) nand.Address

// PublishDomain names the domain where the core places the continuation of a
// flash-backed cache fill: the cache install, memory charge and waiter
// wakeups. Its line buffer was complete (ReadSubsStaged) when the publish was
// scheduled, so it waits on no flash event (sim/doc.go).
const PublishDomain = "fil.publish"

// Stats aggregates FIL activity.
type Stats struct {
	Reads     uint64
	Programs  uint64
	Erases    uint64
	PlanCount uint64
	DepStalls uint64 // programs that had to wait for a source read
	// CertifiedPlans counts plans executed through the certified fast path:
	// construction-time certification honored, prevalidation walk skipped.
	CertifiedPlans uint64
	// PlanFaults counts plans stopped mid-execution by an injected flash
	// fault (reported as *PlanFault, recovered by ftl.RecoverPlanFault).
	PlanFaults uint64
	// CertifiedReads counts reads executed through the certified read fast
	// path: a ReadCert honored, the per-address CheckRead walk skipped.
	CertifiedReads uint64
	// CertDisarms counts armed→disarmed transitions of the certified-chain
	// binding, whatever broke it (sequence gap, foreign epoch bump, plan
	// fault, power loss, explicit AcceptCertified(nil)).
	CertDisarms uint64
}

// PlanFault reports a plan stopped mid-execution by an injected flash
// fault. Unlike a structural error (which prevalidation guarantees arrives
// with nothing issued), a fault interrupts real work: the plan's first
// Executed ops claimed resources, transitioned block state, were counted and
// landed their tracked data — only the op at index Executed (and
// everything after it) did not happen. The executor disarms its certified
// chain before returning one: the issuing FTL's model and the flash have
// diverged, and no later certificate can be trusted until recovery
// completes and AcceptCertified re-arms the binding. Err wraps the nand
// sentinel (ErrProgramFail, ErrEraseFail, ErrUncorrectable) with address
// context.
type PlanFault struct {
	Executed int    // plan ops fully executed before the fault
	Op       ftl.Op // the faulting op
	Plane    int    // faulting plane for erases, -1 otherwise
	Err      error  // wrapped nand fault sentinel
}

func (p *PlanFault) Error() string {
	return fmt.Sprintf("fil: plan fault after %d ops: %v", p.Executed, p.Err)
}

// Unwrap exposes the underlying fault for errors.Is.
func (p *PlanFault) Unwrap() error { return p.Err }

// Result reports the timing of one executed plan.
type Result struct {
	// ReadsDone is when the last pre-read finished (zero if none).
	ReadsDone sim.Time
	// HostWritesDone is when the last host-data program finished.
	HostWritesDone sim.Time
	// Done is when everything, including GC migrations and erases,
	// finished.
	Done sim.Time
}

// FIL schedules flash transactions. Not safe for concurrent use.
type FIL struct {
	flash *nand.Flash
	stats Stats

	// planes is the address table: the AddrFunc's answer for page zero of
	// block zero of every plane, filled once by New. A page location then
	// translates with one load — planes[Plane] with Block = SB and Page =
	// Page — instead of the function's six integer divisions per op.
	planes []nand.Address

	// Per-plan scratch state, reused across calls so plan execution is
	// allocation-free in steady state. readDone is the dense pre-read table,
	// indexed by plan position: the read at Ops[i] stores its completion in
	// readDone[i] and the rewrite linked to it (ftl.Op.Src) loads it back —
	// the FTL names the dependency, so nothing is looked up, and an entry is
	// only read after the same plan wrote it (a certificate or the walk
	// proves Src names an earlier read), so nothing is cleared between
	// plans. It is 8 bytes an op of the plan's capacity,
	// which a GC storm's reservation makes a few hundred thousand. The
	// super-block ordering slots are dense too, one per super-block, each
	// stamped with the number of the plan that last wrote it: a plan starts
	// by counting planNo up, which leaves every slot stale, and sbSlot zeroes
	// a stale slot at its first touch, so nothing is cleared or searched.
	//
	// readBufs[:readBufN] holds the page bytes of the running plan's
	// pre-reads that no rewrite has taken yet (tracked data only): each is a
	// nand staging buffer, borrowed at the read and handed on at the rewrite
	// the plan links to it, so a plan holds as many pages as it has reads in
	// flight towards their rewrites — not one per pre-read — and the table
	// itself is 24 bytes a slot. readBuf, indexed like readDone and allocated
	// on a tracked flash only, says where a pre-read's bytes are: i >= 0,
	// still in readBufs[i]; ^w < 0, the write at Ops[w] took the buffer, and
	// the bytes are the page it programmed. What is still in readBufs when
	// the plan ends (a pre-read nothing consumed) goes back to the flash
	// then.
	readDone []sim.Time
	readBuf  []int32
	sbTimes  []sbTime // by super-block: erase completion / latest touch in plan planNo
	planNo   uint64   // the running plan's number
	readBufs [][]byte
	readBufN int

	// addrScratch carries the translated addresses of one walked
	// ReadSubsStaged call from its validation pass to its issue pass, reused
	// across calls.
	// extraScratch carries each read's probe-time fault-retry latency beside
	// it: the probe IS the draw, and the issue pass replays it
	// (nand.Flash.ReadDeferredAddr's extra), so each read's ladder is drawn
	// and its retries charged once.
	addrScratch  []nand.Address
	extraScratch []sim.Duration

	// parityBuf/parityTmp back RAIN parity payload assembly (the stripe
	// XOR), reused across plans.
	parityBuf []byte
	parityTmp []byte

	// Plan prevalidation scratch, reused across calls: a per-block overlay
	// of in-plan state transitions — pvNext[block] is the simulated in-order
	// program pointer plus one (zero = untouched), a lazily sized
	// direct-indexed array, with pvTouched resetting only the dirtied slots
	// after the walk. The flash invariant "written pages are exactly [0,
	// next)" (in-order programs, whole-block erases) makes the pointer
	// sufficient to answer both the written-page and the next-program checks
	// against in-plan mutations. The walk only checks: it leaves nothing
	// behind for the issue pass.
	pvNext    []int32
	pvTouched []int32

	// Certified-plan state (AcceptCertified): the one FTL whose
	// certificates this FIL honors, the sequence number of the next plan it
	// expects from it, and the flash state epoch recorded after the last
	// plan executed here. A certificate is honored only while all three
	// line up — issuer identity, exact sequence continuity, untouched epoch
	// — which together prove the flash is byte-for-byte in the state the
	// FTL's model assumed when it built the plan. Any break permanently
	// disarms the binding (until AcceptCertified is called again): a
	// diverged model cannot be re-trusted just because one later plan
	// happens to pass the walk.
	certIssuer *ftl.FTL
	certNext   uint64
	certEpoch  uint64
	// forceWalk routes certified plans and reads through the walk anyway
	// while keeping the certificate chain advancing — set by in-package
	// tests only, to hold the walked path to the certified one on identical
	// executions. It is not device state: no image records it.
	forceWalk bool
}

// sbTime tracks in-plan per-super-block ordering state.
type sbTime struct {
	plan    uint64   // the plan that last wrote the slot; another plan's reads zero
	erased  sim.Time // completion of an in-plan erase, zero if none
	touched sim.Time // latest op completion touching the super-block
}

// New constructs a FIL over the storage complex. addrOf is called once per
// plane to build the translation table, so it must be separable: the plane
// picks channel, package, die and plane, and the location's super-block and
// page pass through as block and page. New probes a few locations and
// refuses a function of any other shape.
func New(flash *nand.Flash, addrOf AddrFunc) (*FIL, error) {
	if flash == nil || addrOf == nil {
		return nil, fmt.Errorf("fil: flash and address function are required")
	}
	g := flash.Geometry()
	f := &FIL{flash: flash, planes: make([]nand.Address, g.TotalPlanes()), sbTimes: make([]sbTime, g.BlocksPerPlane)}
	for p := range f.planes {
		a := addrOf(ftl.PageLoc{Plane: p, Sub: p})
		if err := g.CheckAddress(a); err != nil {
			return nil, fmt.Errorf("fil: address function maps plane %d outside the geometry: %w", p, err)
		}
		if a.Block != 0 || a.Page != 0 {
			return nil, fmt.Errorf("fil: address function maps plane %d page 0 of super-block 0 to %v", p, a)
		}
		f.planes[p] = a
	}
	last := len(f.planes) - 1
	for _, loc := range []ftl.PageLoc{
		{SB: g.BlocksPerPlane - 1, Page: g.PagesPerBlock - 1, Plane: last, Sub: 0},
		{SB: g.BlocksPerPlane / 2, Page: g.PagesPerBlock / 2, Plane: last / 2, Sub: last},
		{SB: g.BlocksPerPlane - 1, Page: 0, Plane: 0, Sub: last / 2},
		{SB: 0, Page: g.PagesPerBlock - 1, Plane: last, Sub: last},
	} {
		if got, want := addrOf(loc), f.addr(&loc); got != want {
			return nil, fmt.Errorf("fil: address function is not plane-separable: %+v maps to %v, the plane table says %v", loc, got, want)
		}
	}
	return f, nil
}

// addrInto translates a page location through the plane table into *a. The
// plane must be in range: certified locations are by construction, the rest
// go through translate. Field by field on purpose: on the per-op path a
// 48-byte struct copied right after two of its fields were patched is a
// wide load over narrow stores — a failed store-to-load forward per op.
func (f *FIL) addrInto(a *nand.Address, loc *ftl.PageLoc) {
	p := &f.planes[loc.Plane]
	a.Channel, a.Package, a.Die, a.Plane = p.Channel, p.Package, p.Die, p.Plane
	a.Block, a.Page = loc.SB, loc.Page
}

// addr is addrInto by value, for the paths that run once per request.
func (f *FIL) addr(loc *ftl.PageLoc) nand.Address {
	var a nand.Address
	f.addrInto(&a, loc)
	return a
}

// translate is addr for locations nobody vouched for: a plane outside the
// table, or a block or page outside the geometry, is an error.
func (f *FIL) translate(loc ftl.PageLoc) (nand.Address, error) {
	if loc.Plane < 0 || loc.Plane >= len(f.planes) {
		return nand.Address{}, fmt.Errorf("fil: plane %d out of range [0,%d)", loc.Plane, len(f.planes))
	}
	a := f.addr(&loc)
	return a, f.flash.Geometry().CheckAddress(a)
}

// Stats returns a copy of the counters.
func (f *FIL) Stats() Stats { return f.stats }

// AcceptCertified binds the FIL to issuer's plan certificates: the caller
// asserts that the flash and the issuer's mapping model are in lockstep
// right now (typically both freshly constructed, as core.NewSystem wires
// them). From then on, a plan stamped by issuer with the exact next
// sequence number executes without the prevalidation walk, as long as
// nothing but this FIL's plan chain has mutated the flash (checked against
// nand.Flash.StateEpoch). Raw OCSSD traffic, a skipped or replayed plan, or
// a plan from another FTL breaks the lockstep and disarms the binding;
// every plan then takes the slow path until AcceptCertified re-asserts it.
// A nil issuer disarms explicitly.
func (f *FIL) AcceptCertified(issuer *ftl.FTL) error {
	if issuer == nil {
		f.disarm()
		return nil
	}
	if issuer.Config().Geometry != f.flash.Geometry() {
		return fmt.Errorf("fil: certifying FTL geometry %+v does not match flash geometry %+v",
			issuer.Config().Geometry, f.flash.Geometry())
	}
	f.certIssuer = issuer
	f.certNext = issuer.PlanSeq()
	f.certEpoch = f.flash.StateEpoch()
	return nil
}

// certCheck reports whether the plan's certificate is honored right now:
// bound issuer, exact sequence continuity, untouched flash epoch. A
// sequence or epoch break disarms the binding — the FTL model and the
// flash have diverged, so no later certificate can be trusted. An
// uncertified or foreign plan returns false without disarming (executing
// it will advance the epoch past certEpoch, so the next certified plan
// disarms then).
func (f *FIL) certCheck(plan ftl.Plan) bool {
	if f.certIssuer == nil || !plan.Cert.By(f.certIssuer) {
		return false
	}
	if plan.Cert.Seq() != f.certNext || f.flash.StateEpoch() != f.certEpoch {
		f.disarm()
		return false
	}
	return true
}

// disarm breaks the certified-chain binding, counting only real
// armed→disarmed transitions (repeat disarms are free and common: every
// uncertified plan after a break re-confirms the chain is down).
func (f *FIL) disarm() {
	if f.certIssuer != nil {
		f.certIssuer = nil
		f.stats.CertDisarms++
	}
}

// readCertOK reports whether a lookup's read certificate is honored right
// now: the chain with the minting FTL is armed, the flash epoch still
// matches both the chain's recorded epoch (nothing but certified plans has
// mutated the flash — a foreign bump is the same lockstep break certCheck
// disarms on, so it disarms here too) and the certificate's own epoch (the
// lookup is not stale relative to the chain position), and read-fault
// draws are disabled (the injected retry ladder runs per read and affects
// timing, so it must not be skipped). A certificate failing only the
// staleness check leaves the chain armed: the model is still trusted, that
// one lookup just predates its current state, so the read walks.
func (f *FIL) readCertOK(cert ftl.ReadCert) bool {
	if f.certIssuer == nil || !cert.By(f.certIssuer) || f.forceWalk {
		return false
	}
	if f.flash.StateEpoch() != f.certEpoch {
		f.disarm()
		return false
	}
	if cert.Epoch() != f.certEpoch || f.flash.ReadFaultsArmed() {
		return false
	}
	return true
}

// certAdvance moves the certificate chain past a successfully executed
// in-sequence plan: the next certificate expected and the flash epoch that
// execution left behind.
func (f *FIL) certAdvance() {
	f.certNext++
	f.certEpoch = f.flash.StateEpoch()
}

// SubKey identifies one logical sub-page for data pairing inside a plan.
type SubKey struct {
	LSPN int64
	Sub  int
}

// PlanData supplies host payload bytes for a plan's writes: the dirty subs
// of one logical super-page backed by a line-layout buffer. The zero value
// means "no payload" (timing-only execution). It replaces a per-call
// map[SubKey][]byte so assembling it is allocation-free.
type PlanData struct {
	LSPN    int64
	Dirty   []bool
	Data    []byte // line buffer sliced per sub; may be nil with Dirty set
	SubSize int
}

// Bytes returns the payload for key k and whether the plan data covers it.
// A covered key may still carry nil bytes (data tracking off).
func (d PlanData) Bytes(k SubKey) ([]byte, bool) {
	if k.LSPN != d.LSPN || d.Dirty == nil || k.Sub < 0 || k.Sub >= len(d.Dirty) || !d.Dirty[k.Sub] {
		return nil, false
	}
	if d.Data == nil {
		return nil, true
	}
	return d.Data[k.Sub*d.SubSize : (k.Sub+1)*d.SubSize], true
}

// HostData builds the PlanData for ExecuteOn from a line-layout buffer: each
// dirty sub of lspn maps to its slice of data (which may be nil). Only the
// dirty subs of data are ever read — an icl.Eviction's Data qualifies as is.
func HostData(lspn int64, dirty []bool, data []byte, subSize int) PlanData {
	return PlanData{LSPN: lspn, Dirty: dirty, Data: data, SubSize: subSize}
}

// sbSlot returns the running plan's ordering slot for sb, zero at the
// plan's first touch of sb.
func (f *FIL) sbSlot(sb int) *sbTime {
	t := &f.sbTimes[sb]
	if t.plan != f.planNo {
		*t = sbTime{plan: f.planNo}
	}
	return t
}

// parityPayload assembles the RAIN parity payload of op — the XOR of the
// stripe row's covered data pages — into a pooled page buffer. Member
// bytes come through nand.Flash.PagePayload (no timing or accounting): the
// controller accumulates parity in RAM as the row's data
// programs issue, so the parity program carries the stripe's only flash
// cost. Returns nil when data tracking is off (timing-only execution).
// The op names its own stripe: data planes [Loc.Sub, Loc.Plane), mask bit
// i covering plane Loc.Sub+i.
func (f *FIL) parityPayload(op *ftl.Op) []byte {
	if !f.flash.TrackData() {
		return nil
	}
	if f.parityBuf == nil {
		ps := f.flash.Geometry().PageSize
		f.parityBuf = make([]byte, ps)
		f.parityTmp = make([]byte, ps)
	}
	buf := f.parityBuf
	for i := range buf {
		buf[i] = 0
	}
	for i := 0; op.Loc.Sub+i < op.Loc.Plane; i++ {
		if op.Mask&(uint32(1)<<uint(i)) == 0 {
			continue
		}
		p := op.Loc.Sub + i
		peer := ftl.PageLoc{SB: op.Loc.SB, Page: op.Loc.Page, Plane: p, Sub: p}
		f.flash.PagePayload(f.addr(&peer), f.parityTmp)
		for j := range buf {
			buf[j] ^= f.parityTmp[j]
		}
	}
	return buf
}

// stageRead borrows a staging buffer from the flash for a plan pre-read and
// parks it in the next readBufs slot.
func (f *FIL) stageRead() (slot int32, buf []byte) {
	buf = f.flash.StagingBuf()
	if f.readBufN == len(f.readBufs) {
		f.readBufs = append(f.readBufs, nil)
	}
	f.readBufs[f.readBufN] = buf
	f.readBufN++
	return int32(f.readBufN - 1), buf
}

// takeRead hands the page bytes of the pre-read at ops[r] to the write at
// ops[w], in a staging buffer the caller now owns (the program takes it over
// or the caller releases it). The first taker gets the buffer the read
// filled — no copy. A pre-read can feed a second rewrite: a sub-page
// migrated by the GC a read-modify-write triggered is rewritten again by that
// write, from the migration's read. By then the buffer is the page the first
// rewrite programmed, so the bytes are fetched back from that page.
func (f *FIL) takeRead(r int, ops []ftl.Op, w int) []byte {
	var buf []byte
	if i := f.readBuf[r]; i >= 0 {
		buf = f.readBufs[i]
		f.readBufs[i] = nil
	} else {
		buf = f.flash.StagingBuf()
		f.flash.PagePayload(f.addr(&ops[^i].Loc), buf)
	}
	f.readBuf[r] = ^int32(w)
	return buf
}

// releaseReads returns the pre-read buffers no rewrite took — every exit of
// execute passes through here, so no plan leaves a buffer parked.
func (f *FIL) releaseReads() {
	for i, buf := range f.readBufs[:f.readBufN] {
		if buf != nil {
			f.flash.ReleaseStagingBuf(buf)
			f.readBufs[i] = nil
		}
	}
	f.readBufN = 0
}

// pvReset clears the overlay slots the last prevalidation dirtied.
func (f *FIL) pvReset() {
	for _, b := range f.pvTouched {
		f.pvNext[b] = 0
	}
	f.pvTouched = f.pvTouched[:0]
}

// pvNextOf returns the overlay's in-order program pointer for the block
// containing addr, seeding it from the flash on first touch. The stored
// value is pointer+1 so zero means untouched.
func (f *FIL) pvNextOf(block int32, addr nand.Address) int32 {
	v := f.pvNext[block]
	if v == 0 {
		v = int32(f.flash.NextProgramPage(addr)) + 1
		f.pvNext[block] = v
		f.pvTouched = append(f.pvTouched, block)
	}
	return v - 1
}

// prevalidatePlan walks the whole plan before anything claims or schedules,
// and only checks: every read's and write's location and every erase's
// super-block lies in the geometry, every read finds its page written and
// every program is the next page of its block — against the overlay of the
// program pointers the plan's earlier ops move, so overwrites, out-of-order
// programs and reads of unwritten pages are caught up front — and every
// non-zero Src names an earlier OpRead of the same (LSPN, Sub). A plan that
// fails therefore returns with nothing claimed, counted or scheduled and no
// flash state mutated, and one that passes issues exactly as a certified
// plan does: its links are the Src the FTL stamped (ftl.Op.Src; recovery
// plans are re-linked before they leave the ftl package), so the walk
// proves them rather than deriving its own.
func (f *FIL) prevalidatePlan(plan ftl.Plan) error {
	g := f.flash.Geometry()
	if f.pvNext == nil {
		f.pvNext = make([]int32, g.TotalBlocks())
	}
	defer f.pvReset()
	for i := range plan.Ops {
		op := &plan.Ops[i]
		switch op.Kind {
		case ftl.OpRead:
			addr, err := f.translate(op.Loc)
			if err != nil {
				return fmt.Errorf("fil: plan read %v: %w", op.Loc, err)
			}
			block := int32(g.BlockIndex(addr))
			if int32(addr.Page) >= f.pvNextOf(block, addr) {
				return fmt.Errorf("fil: plan read %v: page %v unwritten", op.Loc, addr)
			}

		case ftl.OpWrite:
			addr, err := f.translate(op.Loc)
			if err != nil {
				return fmt.Errorf("fil: plan program %v: %w", op.Loc, err)
			}
			block := int32(g.BlockIndex(addr))
			next := f.pvNextOf(block, addr)
			if int32(addr.Page) != next {
				return fmt.Errorf("fil: plan program %v: page %d out of order (next is %d)", op.Loc, addr.Page, next)
			}
			f.pvNext[block] = next + 2 // stored as pointer+1
			if src := op.Src; src != 0 {
				if src < 0 || int(src) > i {
					return fmt.Errorf("fil: plan program %v: link %d names no earlier op", op.Loc, src)
				}
				if r := &plan.Ops[src-1]; r.Kind != ftl.OpRead || r.LSPN != op.LSPN || r.Loc.Sub != op.Loc.Sub {
					return fmt.Errorf("fil: plan program %v: link %d names no read of LSPN %d sub %d", op.Loc, src, op.LSPN, op.Loc.Sub)
				}
			}

		case ftl.OpErase:
			for plane := range f.planes {
				addr := f.planes[plane]
				addr.Block = op.SB
				if err := g.CheckAddress(addr); err != nil {
					return fmt.Errorf("fil: plan erase SB %d plane %d: %w", op.SB, plane, err)
				}
				block := int32(g.BlockIndex(addr))
				if f.pvNext[block] == 0 {
					f.pvTouched = append(f.pvTouched, block)
				}
				f.pvNext[block] = 1 // erased: pointer 0, stored as 1
			}

		default:
			return fmt.Errorf("fil: unknown plan op kind %d", op.Kind)
		}
	}
	return nil
}

// planRun is the state of one plan execution, kept on ExecuteOn's stack so
// the op loop's helpers are plain method calls: no closure per op.
type planRun struct {
	f *FIL
	// batch issues every op: opened on ExecuteOn's engine, or engine-less.
	batch *nand.PlanBatch
	res   Result
}

// touch records an op completing at t against super-block sb.
func (k *planRun) touch(sb int, t sim.Time) {
	slot := k.f.sbSlot(sb)
	if t > slot.touched {
		slot.touched = t
	}
	if t > k.res.Done {
		k.res.Done = t
	}
}

// fail ends the plan on the error of op i. An injected fault is a
// recoverable runtime event: the executed prefix stands (those transactions
// really happened), the certified chain is disarmed, and the typed report is
// built for the recovery orchestration. Nothing else can fail at issue —
// the certificate or the walk proved every structural fact before the first
// op — so any other error means that proof itself broke, and continuing (or
// returning with the valid prefix claimed) would corrupt state silently.
func (k *planRun) fail(i int, op *ftl.Op, plane int, what string, err error) error {
	f := k.f
	f.releaseReads()
	k.batch.Commit()
	if nand.IsInjectedFault(err) {
		f.disarm()
		f.stats.PlanFaults++
		return &PlanFault{Executed: i, Op: *op, Plane: plane, Err: err}
	}
	if plane >= 0 {
		err = fmt.Errorf("fil: plan %s SB %d plane %d: %w", what, op.SB, plane, err)
	} else {
		err = fmt.Errorf("fil: plan %s %v: %w", what, op.Loc, err)
	}
	panic("fil: validated plan failed mid-execution (certificate or walk broken): " + err.Error())
}

// ExecuteOn runs an FTL plan against the flash synchronously, in one
// sequential pass over its causal op order through a nand.PlanBatch with no
// hashing, no division and no wide by-value struct per op: every
// transaction's timing, counters, energy and tracked-data effects apply at
// issue, in op order, and nothing is scheduled. hostData supplies payload
// bytes for host writes (the zero PlanData when data tracking is off or the
// plan has no host writes). e is the engine the caller runs, nil for none:
// under an engine the plan's erases stay undoable by a power cut until e's
// dispatch clock passes their start, and a certified plan is counted in
// Stats.CertifiedPlans, which counts engine executions only. chDoms is
// unused (bench/replay.go calls this signature).
//
// Dependency timing: every op starts no earlier than `now`; a GC/RMW
// rewrite additionally waits for the completion of the pre-read it is
// linked to (ftl.Op.Src: the last preceding read of the same (LSPN, Sub));
// a write into a super-block erased earlier in the plan waits for that
// erase; an erase waits for every earlier op touching the same super-block
// (its migration reads). Everything else overlaps, bounded only by the
// channel/die contention modeled inside package nand.
//
// A plan nobody vouches for is walked whole (prevalidatePlan) before any
// transaction claims resources, so a structural error returns with no state
// mutated. A plan whose construction-time certificate is honored
// (AcceptCertified: bound issuer, in-sequence, flash epoch untouched) skips
// the walk — the FTL already proved every address in bounds, every program
// in order and every rewrite linked to its pre-read when it built the plan,
// so the walk would re-derive the same answer from the same state. Either
// way the plan then issues through the one loop below, with no structural
// check per op: an injected fault is the only error an issue can return,
// and anything else means the proof broke, which panics rather than
// returning with state the error-⇒-no-mutation contract forbids.
func (f *FIL) ExecuteOn(e *sim.Engine, chDoms []sim.DomainID, now sim.Time, plan ftl.Plan, hostData PlanData) (Result, error) {
	k := planRun{f: f, res: Result{Done: now}}
	// The chain advances with or without an engine, so a caller mixing both
	// (core's Flush) keeps the fast path armed for the engine executions
	// around it.
	inSeq := f.certCheck(plan)
	trusted := inSeq && !f.forceWalk
	if !trusted {
		if err := f.prevalidatePlan(plan); err != nil {
			return k.res, err
		}
	}
	if trusted && e != nil {
		// Counted on the engine path only, as it always was: the counter is
		// part of every golden digest.
		f.stats.CertifiedPlans++
	}
	k.batch = f.flash.BeginPlan(e, chDoms)

	n := len(plan.Ops)
	trackData := f.flash.TrackData()
	if cap(f.readDone) < n {
		// As large as the plan's own buffer, which the FTL sizes once for a
		// whole GC storm: the tables grow when that buffer does, not with
		// every plan a few ops longer than the last.
		f.readDone = make([]sim.Time, cap(plan.Ops))
		if trackData {
			f.readBuf = make([]int32, cap(plan.Ops))
		}
	}
	readDone := f.readDone[:n]
	f.planNo++
	planes := int64(len(f.planes))
	var addr nand.Address

	for i := range plan.Ops {
		op := &plan.Ops[i]
		switch op.Kind {
		case ftl.OpRead:
			f.addrInto(&addr, &op.Loc)
			start := sim.MaxOf(now, f.sbSlot(op.Loc.SB).erased)
			var buf []byte
			if trackData {
				f.readBuf[i], buf = f.stageRead()
			}
			r, err := k.batch.ReadAddr(start, &addr, buf)
			if err != nil {
				return k.res, k.fail(i, op, -1, "read", err)
			}
			f.stats.Reads++
			readDone[i] = r.Done
			if r.Done > k.res.ReadsDone {
				k.res.ReadsDone = r.Done
			}
			k.touch(op.Loc.SB, r.Done)

		case ftl.OpWrite:
			f.addrInto(&addr, &op.Loc)
			start := sim.MaxOf(now, f.sbSlot(op.Loc.SB).erased)
			if op.Parity {
				// RAIN parity: payload is the XOR of the stripe row's data
				// pages, accumulated in controller RAM as the row programmed
				// — the parity program itself is the only flash cost. The
				// membership mask stamps the page's OOB in this same serial
				// section (a torn cut clears both).
				r, err := k.batch.ProgramAddr(start, &addr, f.parityPayload(op), false, planTag(op, planes))
				if err != nil {
					return k.res, k.fail(i, op, -1, "parity program", err)
				}
				f.flash.SetPageStripe(addr, op.Mask)
				f.stats.Programs++
				k.touch(op.Loc.SB, r.Done)
				continue
			}
			var data []byte
			if op.LSPN == hostData.LSPN {
				data, _ = hostData.Bytes(SubKey{op.LSPN, op.Loc.Sub})
			}
			src := op.Src
			srcSB := -1
			staged := false
			if src > 0 {
				// Rewrite of data sourced from flash: wait for the read. The
				// rewrite touches the read's super-block with its completion
				// too, so the victim's erase waits for the migration to land.
				if d := readDone[src-1]; d > start {
					start = d
					f.stats.DepStalls++
				}
				if data == nil && trackData {
					data, staged = f.takeRead(int(src-1), plan.Ops, i), true
				}
				srcSB = plan.Ops[src-1].Loc.SB
			}
			r, err := k.batch.ProgramAddr(start, &addr, data, staged, planTag(op, planes))
			if err != nil {
				return k.res, k.fail(i, op, -1, "program", err)
			}
			f.stats.Programs++
			if !op.GC && r.Done > k.res.HostWritesDone {
				k.res.HostWritesDone = r.Done
			}
			k.touch(op.Loc.SB, r.Done)
			if srcSB >= 0 && srcSB != op.Loc.SB {
				// Crash consistency: the source block must not erase until
				// the data moved off it has physically landed — otherwise a
				// power cut between the erase and the migration program
				// destroys the only durable copy.
				k.touch(srcSB, r.Done)
			}

		case ftl.OpErase:
			// The erase wipes the same block index on every plane, after
			// all earlier plan ops touching this super-block (the
			// migration reads) completed.
			start := sim.MaxOf(now, f.sbSlot(op.SB).touched)
			// Probe the fault draw for every plane before wiping any: the
			// op must fail atomically or the planes issued ahead of a
			// faulting one would already be erased when the FTL recovers
			// under the assumption the whole erase never happened.
			for plane := range f.planes {
				addr = f.planes[plane]
				addr.Block = op.SB
				if err := f.flash.ProbeErase(addr); err != nil {
					return k.res, k.fail(i, op, plane, "erase", err)
				}
			}
			var done sim.Time
			for plane := range f.planes {
				addr = f.planes[plane]
				addr.Block = op.SB
				r, err := k.batch.Erase(start, addr)
				if err != nil {
					return k.res, k.fail(i, op, plane, "erase", err)
				}
				f.stats.Erases++
				if r.Done > done {
					done = r.Done
				}
			}
			f.sbSlot(op.SB).erased = done
			k.touch(op.SB, done)

		default:
			// Unreachable: the walk rejects unknown kinds up front, and
			// certified plans only carry kinds the FTL emits.
			return k.res, k.fail(i, op, -1, "op", fmt.Errorf("unknown kind %d", op.Kind))
		}
	}
	k.batch.Commit()
	f.releaseReads()
	f.stats.PlanCount++
	if inSeq {
		f.certAdvance()
	}
	return k.res, nil
}

// Key constructs a SubKey; exported for callers assembling payload lookups
// sub by sub.
func Key(lspn int64, sub int) SubKey { return SubKey{lspn, sub} }

// ReadSubsStaged reads the given locations in parallel (subject to physical
// contention) and returns the last completion; it is FIL's one way to read
// sub-pages. When dsts is non-nil it must have one buffer per location. Each
// read's page bytes are delivered into its dst and its counters and energy
// charged at issue time (nand.Flash.ReadDeferredAddr), and nothing is
// scheduled, so every dst is complete when this call returns, and the
// completion time is the one nand.PlanBatch.ReadAddr would give. This
// is the precopy stage of the core's fill installs: the caller's buffer is
// complete when the fill's publish continuation (PublishDomain) is
// scheduled. Every address is validated before any read claims, so an error
// leaves nothing claimed and no dst written. The engine and domain arguments
// are unused; bench/replay.go calls this signature.
//
// cert is the read certificate stamped on locs by ftl.LookupSubs;
// while it is honored (readCertOK: chain armed, epochs matched, read-fault
// draws off), the per-address validation walk is skipped entirely —
// mapped ⇒ written holds by construction, so the walk could not have
// changed outcome or timing. Claims, accounting and delivered bytes are
// identical on both paths. Pass the zero ReadCert for hand-built location
// lists; they always walk.
func (f *FIL) ReadSubsStaged(_ *sim.Engine, _ []sim.DomainID, now sim.Time, locs []ftl.PageLoc, dsts [][]byte, cert ftl.ReadCert) (sim.Time, error) {
	addrs := f.addrScratch[:0]
	extras := f.extraScratch[:0]
	if f.readCertOK(cert) {
		for i := range locs {
			addrs = append(addrs, nand.Address{})
			f.addrInto(&addrs[i], &locs[i])
			extras = append(extras, 0)
		}
		f.stats.CertifiedReads += uint64(len(locs))
	} else {
		for _, loc := range locs {
			addr, err := f.translate(loc)
			// ProbeReadExtra covers the structural checks AND the injected
			// read-fault ladder, returning the drawn retry latency: the draw is
			// a pure function of (page, erase count), which no read changes, so
			// a batch whose every probe passes cannot fault at issue — an
			// uncorrectable read surfaces here, with nothing claimed and no dst
			// written, same contract as a structural failure. The issue pass
			// replays the probe's draw instead of drawing and charging the
			// retries a second time.
			var extra sim.Duration
			if err == nil {
				extra, err = f.flash.ProbeReadExtra(addr)
			}
			if err != nil {
				f.addrScratch, f.extraScratch = addrs, extras
				return now, fmt.Errorf("fil: read %v: %w", loc, err)
			}
			addrs = append(addrs, addr)
			extras = append(extras, extra)
		}
	}
	f.addrScratch, f.extraScratch = addrs, extras
	done := now
	for i := range addrs {
		var dst []byte
		if dsts != nil {
			dst = dsts[i]
		}
		addr := &addrs[i]
		r := f.flash.ReadDeferredAddr(now, addr, dst, extras[i])
		f.stats.Reads++
		if r.Done > done {
			done = r.Done
		}
	}
	return done, nil
}
