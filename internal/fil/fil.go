// Package fil implements the flash interface layer: the bottom firmware
// module that schedules flash transactions produced by the FTL onto the
// storage complex, exploiting channel/way/die/plane parallelism (§III-B).
// Dependency order within a plan is preserved — a GC or read-modify-write
// rewrite cannot program before its source page has been read, and an
// erase cannot start before the victim's migrations complete — while
// independent transactions overlap freely, bounded only by the per-channel
// and per-die resource contention modeled inside package nand.
//
// The FIL also exposes raw per-page access used by the OCSSD path, where
// the host-side FTL (pblk) addresses physical pages directly.
package fil

import (
	"fmt"

	"amber/internal/ftl"
	"amber/internal/nand"
	"amber/internal/sim"
)

// AddrFunc converts an FTL page location to a NAND physical address.
type AddrFunc func(ftl.PageLoc) nand.Address

// Domain names the cross-domain scheduling shard (sim.Engine) where the
// core places flash-completion continuations: the cache installs, waiter
// wakeups and pipeline advances that follow a flash fetch. Those read and
// write state spanning channels (ICL lines, MSHR maps, DRAM timing), so —
// unlike the per-channel bookkeeping events in nand.ChannelDomain shards —
// they must never ride in a domain-local shard: the engine's horizon
// computation assumes every cross-channel effect lives in a cross-domain
// shard. This shard stays barrier-forcing: its continuations consume line
// buffers that pending channel events write (the legacy one-stage fill
// path, ReadSubsOn).
const Domain = "fil"

// PublishDomain names the cross-domain shard for the publish stage of
// two-stage fill installs: the cache install, memory charge and waiter
// wakeups of a fill whose page bytes were staged at issue (ReadSubsStaged).
// Unlike Domain, a publish event reads no state that pending domain-local
// events write — its line buffer was complete before the fill's channel
// bookkeeping was even scheduled — so the core marks this shard
// channel-neutral in the active architecture and the engine batches
// consecutive publishes past pending channel work instead of paying a
// barrier per fill (sim.Engine.MarkChannelNeutral, sim/doc.go).
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
// Executed ops claimed resources, transitioned block state and scheduled
// their bookkeeping — only the op at index Executed (and everything after
// it) did not happen. The executor disarms its certified chain before
// returning one: the issuing FTL's model and the flash have diverged, and
// no later certificate can be trusted until recovery completes and
// AcceptCertified re-arms the binding. Err wraps the nand sentinel
// (ErrProgramFail, ErrEraseFail, ErrUncorrectable) with address context.
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
	flash  *nand.Flash
	addrOf AddrFunc
	stats  Stats

	// Per-Execute scratch state, reused across calls so plan execution is
	// allocation-free in steady state. The pre-read index is a persistent
	// map (GC plans can carry thousands of migration reads, so lookups
	// must stay O(1)); the super-block ordering slots are a small linear
	// list (a plan touches few distinct super-blocks), scanned directly —
	// a map index would pay a hash per op for a handful of entries.
	reads    map[SubKey]planRead // completed pre-reads of this plan
	sbTimes  []sbTime            // per-super-block erase completion / latest touch
	readBufs [][]byte            // pooled page buffers backing planRead.data
	readBufN int                 // buffers handed out for the current plan

	// addrScratch carries the translated addresses of one ReadSubsOn call
	// from its validation pass to its issue pass, reused across calls.
	// extraScratch carries each read's probe-time fault-retry latency beside
	// it: with read-disturb accumulation armed, every issued read bumps its
	// block's disturb counter, so a batch that re-drew at issue could
	// disagree with its own probe — the probe IS the draw, and the issue
	// pass replays it (nand.Flash.ReadDeferredPredrawn).
	addrScratch  []nand.Address
	extraScratch []sim.Duration

	// parityBuf/parityTmp back RAIN parity payload assembly (the stripe
	// XOR), reused across plans.
	parityBuf []byte
	parityTmp []byte

	// Plan prevalidation scratch (ExecuteOn): the translated address of
	// every op in plan order (erases contribute one address per plane) and
	// a per-block overlay of in-plan state transitions — pvNext[block] is
	// the simulated in-order program pointer plus one (zero = untouched),
	// a lazily sized direct-indexed array (GC plans run thousands of ops,
	// so the overlay lookup must cost an array load, not a map probe),
	// with pvTouched resetting only the dirtied slots after the pass. The
	// flash invariant "written pages are exactly [0, next)" (in-order
	// programs, whole-block erases) makes the pointer sufficient to answer
	// both the written-page and the next-program checks against in-plan
	// mutations. Reused across calls.
	planAddrs []nand.Address
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
	// forceWalk routes certified plans through prevalidatePlan anyway while
	// keeping the certificate chain advancing — the benchmark and test hook
	// for measuring the walk's cost on identical executions.
	forceWalk bool
}

// planRead records one completed pre-read: its completion time, (when
// data is tracked) the page contents, and the super-block it read from —
// a rewrite consuming it touches that source block with the program's
// completion, so the victim's erase waits for the migration to land.
type planRead struct {
	done  sim.Time
	data  []byte
	srcSB int
}

// sbTime tracks in-plan per-super-block ordering state.
type sbTime struct {
	sb      int
	erased  sim.Time // completion of an in-plan erase, zero if none
	touched sim.Time // latest op completion touching the super-block
}

// New constructs a FIL over the storage complex.
func New(flash *nand.Flash, addrOf AddrFunc) (*FIL, error) {
	if flash == nil || addrOf == nil {
		return nil, fmt.Errorf("fil: flash and address function are required")
	}
	return &FIL{flash: flash, addrOf: addrOf}, nil
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

// ForcePrevalidate routes every plan — certified or not — through the
// prevalidation walk while still advancing the certificate chain, so a
// later ForcePrevalidate(false) resumes the fast path seamlessly. It exists
// for benchmarks (measuring the walk's cost against identical executions)
// and for equivalence tests; production callers never need it.
func (f *FIL) ForcePrevalidate(v bool) { f.forceWalk = v }

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

// HostData builds the PlanData for Execute from a line-layout buffer: each
// dirty sub of lspn maps to its slice of data (which may be nil). Only the
// dirty subs of data are ever read — an icl.Eviction's Data qualifies as is.
func HostData(lspn int64, dirty []bool, data []byte, subSize int) PlanData {
	return PlanData{LSPN: lspn, Dirty: dirty, Data: data, SubSize: subSize}
}

// sbSlot returns (allocating if needed) the ordering slot for sb. The
// returned pointer is valid until the next sbSlot call (the slice may
// grow); callers must not hold it across calls.
func (f *FIL) sbSlot(sb int) *sbTime {
	for i := range f.sbTimes {
		if f.sbTimes[i].sb == sb {
			return &f.sbTimes[i]
		}
	}
	f.sbTimes = append(f.sbTimes, sbTime{sb: sb})
	return &f.sbTimes[len(f.sbTimes)-1]
}

// planFault finalizes a mid-plan injected fault: the executed prefix's
// batched bookkeeping is committed (those transactions really happened —
// aborting would discard real claims and installs), the certified chain is
// disarmed, and the typed report is built for the recovery orchestration.
// batch is nil on the synchronous path, whose bookkeeping already applied.
func (f *FIL) planFault(batch *nand.PlanBatch, executed int, op ftl.Op, plane int, err error) *PlanFault {
	if batch != nil {
		batch.Commit()
	}
	f.disarm()
	f.stats.PlanFaults++
	return &PlanFault{Executed: executed, Op: op, Plane: plane, Err: err}
}

// parityPayload assembles the RAIN parity payload of op — the XOR of the
// stripe row's covered data pages — into a pooled page buffer. Member
// bytes come through nand.Flash.PagePayload (pending-aware, no timing or
// accounting): the controller accumulates parity in RAM as the row's data
// programs issue, so the parity program carries the stripe's only flash
// cost. Returns nil when data tracking is off (timing-only execution).
// The op names its own stripe: data planes [Loc.Sub, Loc.Plane), mask bit
// i covering plane Loc.Sub+i.
func (f *FIL) parityPayload(op ftl.Op) []byte {
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
		f.flash.PagePayload(f.addrOf(peer), f.parityTmp)
		for j := range buf {
			buf[j] ^= f.parityTmp[j]
		}
	}
	return buf
}

// readBuf hands out a pooled page buffer for a plan pre-read.
func (f *FIL) readBuf() []byte {
	if f.readBufN == len(f.readBufs) {
		f.readBufs = append(f.readBufs, make([]byte, f.flash.Geometry().PageSize))
	}
	buf := f.readBufs[f.readBufN]
	f.readBufN++
	return buf
}

// Execute runs an FTL plan against the flash, walking the plan's causal
// op order. hostData supplies payload bytes for host writes (the zero
// PlanData when data tracking is off or the plan has no host writes).
//
// Dependency timing: every op starts no earlier than `now`; a GC/RMW
// rewrite additionally waits for the completion of the pre-read of the
// same (LSPN, Sub); a write into a super-block erased earlier in the plan
// waits for that erase; an erase waits for every earlier op touching the
// same super-block (its migration reads). Everything else overlaps, bounded
// only by the channel/die contention modeled inside package nand.
func (f *FIL) Execute(now sim.Time, plan ftl.Plan, hostData PlanData) (Result, error) {
	var res Result
	res.Done = now
	// The synchronous path validates per op inside the flash calls, so the
	// certificate buys no skipped work here; the chain still advances so a
	// mixed Execute/ExecuteOn caller (core's Flush) keeps the fast path
	// armed for the deferred executions around it.
	inSeq := f.certCheck(plan)
	g := f.flash.Geometry()

	if f.reads == nil {
		f.reads = make(map[SubKey]planRead)
	} else {
		clear(f.reads)
	}
	f.sbTimes = f.sbTimes[:0]
	f.readBufN = 0
	trackData := f.flash.TrackData()

	touch := func(sb int, t sim.Time) {
		slot := f.sbSlot(sb)
		if t > slot.touched {
			slot.touched = t
		}
		if t > res.Done {
			res.Done = t
		}
	}

	for i, op := range plan.Ops {
		switch op.Kind {
		case ftl.OpRead:
			start := sim.MaxOf(now, f.sbSlot(op.Loc.SB).erased)
			var buf []byte
			if trackData {
				buf = f.readBuf()
			}
			r, err := f.flash.Read(start, f.addrOf(op.Loc), buf)
			if err != nil {
				if nand.IsInjectedFault(err) {
					return res, f.planFault(nil, i, op, -1, err)
				}
				return res, fmt.Errorf("fil: plan read %v: %w", op.Loc, err)
			}
			f.stats.Reads++
			f.reads[SubKey{op.LSPN, op.Loc.Sub}] = planRead{done: r.Done, data: buf, srcSB: op.Loc.SB}
			if r.Done > res.ReadsDone {
				res.ReadsDone = r.Done
			}
			touch(op.Loc.SB, r.Done)

		case ftl.OpWrite:
			if op.Parity {
				// RAIN parity: payload is the XOR of the stripe row's data
				// pages, accumulated in controller RAM as the row programmed
				// — the parity program itself is the only flash cost. The
				// membership mask stamps the page's OOB in the same serial
				// section as the program (a torn cut clears both).
				start := sim.MaxOf(now, f.sbSlot(op.Loc.SB).erased)
				addr := f.addrOf(op.Loc)
				r, err := f.flash.ProgramTagged(start, addr, f.parityPayload(op), planTag(op, g))
				if err != nil {
					if nand.IsInjectedFault(err) {
						return res, f.planFault(nil, i, op, -1, err)
					}
					return res, fmt.Errorf("fil: plan parity program %v: %w", op.Loc, err)
				}
				f.flash.SetPageStripe(addr, op.Mask)
				f.stats.Programs++
				touch(op.Loc.SB, r.Done)
				continue
			}
			k := SubKey{op.LSPN, op.Loc.Sub}
			start := sim.MaxOf(now, f.sbSlot(op.Loc.SB).erased)
			data, _ := hostData.Bytes(k)
			srcSB := -1
			if pr, ok := f.reads[k]; ok {
				// Rewrite of data sourced from flash: wait for the read.
				if pr.done > start {
					start = pr.done
					f.stats.DepStalls++
				}
				if data == nil {
					data = pr.data
				}
				srcSB = pr.srcSB
			}
			r, err := f.flash.ProgramTagged(start, f.addrOf(op.Loc), data, planTag(op, g))
			if err != nil {
				if nand.IsInjectedFault(err) {
					return res, f.planFault(nil, i, op, -1, err)
				}
				return res, fmt.Errorf("fil: plan program %v: %w", op.Loc, err)
			}
			f.stats.Programs++
			if !op.GC && r.Done > res.HostWritesDone {
				res.HostWritesDone = r.Done
			}
			touch(op.Loc.SB, r.Done)
			if srcSB >= 0 && srcSB != op.Loc.SB {
				// Crash consistency: the source block must not erase until
				// the data moved off it has physically landed — otherwise a
				// power cut between the erase and the migration program
				// destroys the only durable copy.
				touch(srcSB, r.Done)
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
			for plane := 0; plane < g.TotalPlanes(); plane++ {
				addr := f.addrOf(ftl.PageLoc{SB: op.SB, Page: 0, Plane: plane, Sub: plane})
				if err := f.flash.ProbeErase(addr); err != nil {
					if nand.IsInjectedFault(err) {
						return res, f.planFault(nil, i, op, plane, err)
					}
					return res, fmt.Errorf("fil: plan erase SB %d plane %d: %w", op.SB, plane, err)
				}
			}
			var done sim.Time
			for plane := 0; plane < g.TotalPlanes(); plane++ {
				addr := f.addrOf(ftl.PageLoc{SB: op.SB, Page: 0, Plane: plane, Sub: plane})
				r, err := f.flash.Erase(start, addr)
				if err != nil {
					return res, fmt.Errorf("fil: plan erase SB %d plane %d: %w", op.SB, plane, err)
				}
				f.stats.Erases++
				if r.Done > done {
					done = r.Done
				}
			}
			f.sbSlot(op.SB).erased = done
			touch(op.SB, done)

		default:
			return res, fmt.Errorf("fil: unknown plan op kind %d", op.Kind)
		}
	}
	f.stats.PlanCount++
	if inSeq {
		f.certAdvance()
	}
	return res, nil
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

// prevalidatePlan walks the whole plan before anything claims or schedules:
// it translates every op's address (erases contribute one per plane, all
// cached in f.planAddrs for the issue pass), checks geometry bounds, and
// simulates the in-order program pointer of every touched block so
// overwrites, out-of-order programs and reads of unwritten pages are caught
// up front. A mid-plan error therefore leaves no completion events queued
// and no flash state mutated — the batching contract ExecuteOn promises.
func (f *FIL) prevalidatePlan(plan ftl.Plan) error {
	g := f.flash.Geometry()
	if f.pvNext == nil {
		f.pvNext = make([]int32, g.TotalBlocks())
	}
	defer f.pvReset()
	addrs := f.planAddrs[:0]
	defer func() { f.planAddrs = addrs }()
	for _, op := range plan.Ops {
		switch op.Kind {
		case ftl.OpRead:
			addr := f.addrOf(op.Loc)
			if err := g.CheckAddress(addr); err != nil {
				return fmt.Errorf("fil: plan read %v: %w", op.Loc, err)
			}
			block := int32(g.BlockIndex(addr))
			if int32(addr.Page) >= f.pvNextOf(block, addr) {
				return fmt.Errorf("fil: plan read %v: page %v unwritten", op.Loc, addr)
			}
			addrs = append(addrs, addr)

		case ftl.OpWrite:
			addr := f.addrOf(op.Loc)
			if err := g.CheckAddress(addr); err != nil {
				return fmt.Errorf("fil: plan program %v: %w", op.Loc, err)
			}
			block := int32(g.BlockIndex(addr))
			next := f.pvNextOf(block, addr)
			if int32(addr.Page) != next {
				return fmt.Errorf("fil: plan program %v: page %d out of order (next is %d)", op.Loc, addr.Page, next)
			}
			f.pvNext[block] = next + 2 // stored as pointer+1
			addrs = append(addrs, addr)

		case ftl.OpErase:
			for plane := 0; plane < g.TotalPlanes(); plane++ {
				addr := f.addrOf(ftl.PageLoc{SB: op.SB, Page: 0, Plane: plane, Sub: plane})
				addr.Page = 0
				if err := g.CheckAddress(addr); err != nil {
					return fmt.Errorf("fil: plan erase SB %d plane %d: %w", op.SB, plane, err)
				}
				block := int32(g.BlockIndex(addr))
				if f.pvNext[block] == 0 {
					f.pvTouched = append(f.pvTouched, block)
				}
				f.pvNext[block] = 1 // erased: pointer 0, stored as 1
				addrs = append(addrs, addr)
			}

		default:
			return fmt.Errorf("fil: unknown plan op kind %d", op.Kind)
		}
	}
	return nil
}

// ExecuteOn is Execute with every flash transaction's per-channel
// bookkeeping — counters, energy, tracked-data installs and presence
// clears — deferred into the owning channel's scheduling domain through a
// nand.PlanBatch: chDoms[channel] is the channel's domain-local shard, and
// the whole plan schedules one batched completion event per touched die
// (not per op), keeping the deferred path's engine traffic negligible even
// for thousand-op GC plans. Plan pre-reads deliver their bytes at issue (a
// dependent rewrite consumes them within this same call). Timing,
// dependency ordering, data and every integer counter are identical to
// Execute — per-channel float energy is the one exception: the same
// values accumulate in per-die-batch grouped order rather than Execute's
// op-issue order, so the sums may differ in the last ulp between the two
// paths (each path is individually deterministic and byte-identical at
// any worker count). The deferred events let an intra-parallel engine run the
// channels' completion work concurrently between horizons, extending PR 3's
// read-only windows to writes and GC.
//
// An uncertified plan is prevalidated whole before any transaction claims
// resources or schedules, so an error returns with no events queued and no
// state mutated. A plan whose construction-time certificate is honored
// (AcceptCertified: bound issuer, in-sequence, flash epoch untouched) skips
// the walk and the overlay reset entirely — the FTL already proved every
// address in bounds and every program in order when it built the plan, so
// revalidating would re-derive the same answer from the same state. The
// error-⇒-no-mutation contract holds on that path by construction: a
// certified plan cannot fail, and a per-op check tripping anyway means the
// certification invariant itself was broken, which panics rather than
// returning with state the contract forbids.
func (f *FIL) ExecuteOn(e *sim.Engine, chDoms []sim.DomainID, now sim.Time, plan ftl.Plan, hostData PlanData) (Result, error) {
	var res Result
	res.Done = now
	inSeq := f.certCheck(plan)
	certified := inSeq && !f.forceWalk
	if certified {
		f.stats.CertifiedPlans++
	} else if err := f.prevalidatePlan(plan); err != nil {
		return res, err
	}
	g := f.flash.Geometry()
	batch := f.flash.BeginPlan(e, chDoms)

	if f.reads == nil {
		f.reads = make(map[SubKey]planRead)
	} else {
		clear(f.reads)
	}
	f.sbTimes = f.sbTimes[:0]
	f.readBufN = 0
	trackData := f.flash.TrackData()

	touch := func(sb int, t sim.Time) {
		slot := f.sbSlot(sb)
		if t > slot.touched {
			slot.touched = t
		}
		if t > res.Done {
			res.Done = t
		}
	}

	// fail abandons the batch on a mid-plan structural error. On the
	// certified path no structural check can fail by construction — the
	// skipped walk is precisely what would have caught it — so tripping a
	// per-op check there means the lockstep invariant itself broke, and
	// continuing (or returning with the valid prefix already claimed)
	// would corrupt state silently. Injected faults never reach here:
	// recoverable runtime events on either path, they route through
	// planFault, which commits the executed prefix and disarms the chain.
	fail := func(err error) error {
		batch.Abort()
		if certified {
			panic("fil: certified plan failed mid-execution (certification invariant broken): " + err.Error())
		}
		return err
	}

	// addrFor resolves one op's physical address: translated inline on the
	// certified path, consumed from the prevalidation cache (which walked
	// the plan in this same op order, erases contributing one address per
	// plane) otherwise. One definition keeps the two paths' address
	// sequences structurally identical.
	ai := 0
	addrFor := func(loc ftl.PageLoc) nand.Address {
		if certified {
			return f.addrOf(loc)
		}
		a := f.planAddrs[ai]
		ai++
		return a
	}
	for i, op := range plan.Ops {
		switch op.Kind {
		case ftl.OpRead:
			addr := addrFor(op.Loc)
			start := sim.MaxOf(now, f.sbSlot(op.Loc.SB).erased)
			var buf []byte
			if trackData {
				buf = f.readBuf()
			}
			var r nand.Result
			var err error
			if certified {
				// The walk this path skipped is exactly what the per-op
				// precheck would re-derive; only the fault draw remains live.
				r, err = batch.ReadTrusted(start, addr, buf)
			} else {
				r, err = batch.Read(start, addr, buf)
			}
			if err != nil {
				if nand.IsInjectedFault(err) {
					return res, f.planFault(batch, i, op, -1, err)
				}
				return res, fail(fmt.Errorf("fil: plan read %v: %w", op.Loc, err))
			}
			f.stats.Reads++
			f.reads[SubKey{op.LSPN, op.Loc.Sub}] = planRead{done: r.Done, data: buf, srcSB: op.Loc.SB}
			if r.Done > res.ReadsDone {
				res.ReadsDone = r.Done
			}
			touch(op.Loc.SB, r.Done)

		case ftl.OpWrite:
			addr := addrFor(op.Loc)
			if op.Parity {
				// RAIN parity: see Execute's parity branch. Claims, OOB
				// stamping and the stripe mask apply in this serial section;
				// only the program's bookkeeping defers into the channel
				// domain, like any other batched program.
				start := sim.MaxOf(now, f.sbSlot(op.Loc.SB).erased)
				pdata := f.parityPayload(op)
				var r nand.Result
				var err error
				if certified {
					r, err = batch.ProgramTaggedTrusted(start, addr, pdata, planTag(op, g))
				} else {
					r, err = batch.ProgramTagged(start, addr, pdata, planTag(op, g))
				}
				if err != nil {
					if nand.IsInjectedFault(err) {
						return res, f.planFault(batch, i, op, -1, err)
					}
					return res, fail(fmt.Errorf("fil: plan parity program %v: %w", op.Loc, err))
				}
				f.flash.SetPageStripe(addr, op.Mask)
				f.stats.Programs++
				touch(op.Loc.SB, r.Done)
				continue
			}
			k := SubKey{op.LSPN, op.Loc.Sub}
			start := sim.MaxOf(now, f.sbSlot(op.Loc.SB).erased)
			data, _ := hostData.Bytes(k)
			srcSB := -1
			if pr, ok := f.reads[k]; ok {
				// Rewrite of data sourced from flash: wait for the read.
				if pr.done > start {
					start = pr.done
					f.stats.DepStalls++
				}
				if data == nil {
					data = pr.data
				}
				srcSB = pr.srcSB
			}
			var r nand.Result
			var err error
			if certified {
				r, err = batch.ProgramTaggedTrusted(start, addr, data, planTag(op, g))
			} else {
				r, err = batch.ProgramTagged(start, addr, data, planTag(op, g))
			}
			if err != nil {
				if nand.IsInjectedFault(err) {
					return res, f.planFault(batch, i, op, -1, err)
				}
				return res, fail(fmt.Errorf("fil: plan program %v: %w", op.Loc, err))
			}
			f.stats.Programs++
			if !op.GC && r.Done > res.HostWritesDone {
				res.HostWritesDone = r.Done
			}
			touch(op.Loc.SB, r.Done)
			if srcSB >= 0 && srcSB != op.Loc.SB {
				// Crash consistency: the source block must not erase until
				// the data moved off it has physically landed — otherwise a
				// power cut between the erase and the migration program
				// destroys the only durable copy.
				touch(srcSB, r.Done)
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
			// Translated inline, NOT via addrFor: the prevalidation cache
			// holds one address per plane for the issue loop below, and
			// consuming them here would shift every later op's address.
			for plane := 0; plane < g.TotalPlanes(); plane++ {
				addr := f.addrOf(ftl.PageLoc{SB: op.SB, Page: 0, Plane: plane, Sub: plane})
				if err := f.flash.ProbeErase(addr); err != nil {
					if nand.IsInjectedFault(err) {
						return res, f.planFault(batch, i, op, plane, err)
					}
					return res, fail(fmt.Errorf("fil: plan erase SB %d plane %d: %w", op.SB, plane, err))
				}
			}
			var done sim.Time
			for plane := 0; plane < g.TotalPlanes(); plane++ {
				addr := addrFor(ftl.PageLoc{SB: op.SB, Page: 0, Plane: plane, Sub: plane})
				r, err := batch.Erase(start, addr)
				if err != nil {
					return res, fail(fmt.Errorf("fil: plan erase SB %d plane %d: %w", op.SB, plane, err))
				}
				f.stats.Erases++
				if r.Done > done {
					done = r.Done
				}
			}
			f.sbSlot(op.SB).erased = done
			touch(op.SB, done)

		default:
			// Unreachable: the walk rejects unknown kinds up front, and
			// certified plans only carry kinds the FTL emits.
			return res, fail(fmt.Errorf("fil: unknown plan op kind %d", op.Kind))
		}
	}
	batch.Commit()
	f.stats.PlanCount++
	if inSeq {
		f.certAdvance()
	}
	return res, nil
}

// Key constructs a SubKey; exported for callers assembling payload lookups
// sub by sub.
func Key(lspn int64, sub int) SubKey { return SubKey{lspn, sub} }

// ReadSubs reads the given locations in parallel (subject to physical
// contention) and returns the last completion. When dsts is non-nil it
// must have one buffer per location.
func (f *FIL) ReadSubs(now sim.Time, locs []ftl.PageLoc, dsts [][]byte) (sim.Time, error) {
	done := now
	for i, loc := range locs {
		var dst []byte
		if dsts != nil {
			dst = dsts[i]
		}
		r, err := f.flash.Read(now, f.addrOf(loc), dst)
		if err != nil {
			return done, fmt.Errorf("fil: read %v: %w", loc, err)
		}
		f.stats.Reads++
		if r.Done > done {
			done = r.Done
		}
	}
	return done, nil
}

// ReadSubsOn is ReadSubs with each read's per-channel bookkeeping (counters,
// energy, tracked-data copy into its dst) deferred into the owning channel's
// scheduling domain via nand.Flash.ReadDeferred: chDoms[channel] is the
// channel's domain-local shard. Timing is identical to ReadSubs; the
// deferred events let an intra-parallel engine run the channels' completion
// work concurrently between horizons. Every address is validated before any
// read claims or schedules, so an error leaves no completion events queued
// against the caller's buffers.
func (f *FIL) ReadSubsOn(e *sim.Engine, chDoms []sim.DomainID, now sim.Time, locs []ftl.PageLoc, dsts [][]byte) (sim.Time, error) {
	return f.readSubsDeferred(e, chDoms, now, locs, dsts, false, ftl.ReadCert{})
}

// ReadSubsStaged is ReadSubsOn with each read's page bytes delivered into
// its dst at issue time (nand.Flash.ReadDeferredEager) instead of inside
// the channel's completion event: when this call returns, every dst already
// holds the bytes a synchronous ReadSubs would have produced, and the
// channel shards carry only the reads' counters and energy. Timing is
// identical to ReadSubs/ReadSubsOn. This is the precopy stage of two-stage
// fill installs: because the caller's buffer is complete before any
// completion event exists, the fill's publish continuation depends on no
// pending channel work and may ride a channel-neutral shard
// (PublishDomain), letting the engine batch consecutive publishes past
// pending channel bookkeeping instead of paying one barrier per fill. Every
// address is validated before any read claims or schedules, so an error
// leaves no completion events queued and no dst written.
//
// cert is the read certificate stamped on locs by ftl.LookupCertified;
// while it is honored (readCertOK: chain armed, epochs matched, read-fault
// draws off), the per-address validation walk is skipped entirely —
// mapped ⇒ written holds by construction, so the walk could not have
// changed outcome or timing. Pass the zero ReadCert for hand-built
// location lists; they always walk.
func (f *FIL) ReadSubsStaged(e *sim.Engine, chDoms []sim.DomainID, now sim.Time, locs []ftl.PageLoc, dsts [][]byte, cert ftl.ReadCert) (sim.Time, error) {
	return f.readSubsDeferred(e, chDoms, now, locs, dsts, true, cert)
}

// readSubsDeferred is the shared body of ReadSubsOn and ReadSubsStaged:
// prevalidate every address (so a mid-batch failure leaves no completion
// events queued), then issue each read on the deferred path — eager
// delivers the bytes at issue, otherwise the channel event copies them.
// A certified eager batch skips prevalidation wholesale and issues on the
// trusted path; claims, accounting and delivered bytes are identical.
func (f *FIL) readSubsDeferred(e *sim.Engine, chDoms []sim.DomainID, now sim.Time, locs []ftl.PageLoc, dsts [][]byte, eager bool, cert ftl.ReadCert) (sim.Time, error) {
	if eager && f.readCertOK(cert) {
		done := now
		for i, loc := range locs {
			var dst []byte
			if dsts != nil {
				dst = dsts[i]
			}
			addr := f.addrOf(loc)
			r := f.flash.ReadDeferredEagerTrusted(e, chDoms[addr.Channel], now, addr, dst)
			f.stats.Reads++
			if r.Done > done {
				done = r.Done
			}
		}
		f.stats.CertifiedReads += uint64(len(locs))
		return done, nil
	}
	addrs := f.addrScratch[:0]
	extras := f.extraScratch[:0]
	for _, loc := range locs {
		addr := f.addrOf(loc)
		// ProbeReadExtra covers the structural checks AND the injected
		// read-fault ladder, returning the drawn retry latency: the draw is
		// pure in state that cannot change before the issue pass below (the
		// disturb bump lands at claim, after each read's draw), so a batch
		// whose every probe passes cannot fault at issue — an uncorrectable
		// read surfaces here, with no completion events queued and no dst
		// written, same contract as a structural failure. The issue pass
		// replays the probe's draw instead of re-drawing: issued reads bump
		// their block's disturb counter, and a later read of the same block
		// in this batch must not see its batchmate's bump mid-flight.
		extra, err := f.flash.ProbeReadExtra(now, addr)
		if err != nil {
			f.addrScratch = addrs
			f.extraScratch = extras
			return now, fmt.Errorf("fil: read %v: %w", loc, err)
		}
		addrs = append(addrs, addr)
		extras = append(extras, extra)
	}
	f.addrScratch = addrs
	f.extraScratch = extras
	done := now
	for i, addr := range addrs {
		var dst []byte
		if dsts != nil {
			dst = dsts[i]
		}
		var r nand.Result
		if eager {
			r = f.flash.ReadDeferredEagerPredrawn(e, chDoms[addr.Channel], now, addr, dst, extras[i])
		} else {
			r = f.flash.ReadDeferredPredrawn(e, chDoms[addr.Channel], now, addr, dst, extras[i])
		}
		f.stats.Reads++
		if r.Done > done {
			done = r.Done
		}
	}
	return done, nil
}

// ReadPage performs a raw physical page read (OCSSD path).
func (f *FIL) ReadPage(now sim.Time, addr nand.Address, dst []byte) (nand.Result, error) {
	r, err := f.flash.Read(now, addr, dst)
	if err == nil {
		f.stats.Reads++
	}
	return r, err
}

// ProgramPage performs a raw physical page program (OCSSD path).
func (f *FIL) ProgramPage(now sim.Time, addr nand.Address, data []byte) (nand.Result, error) {
	r, err := f.flash.Program(now, addr, data)
	if err == nil {
		f.stats.Programs++
	}
	return r, err
}

// EraseBlock performs a raw physical block erase (OCSSD path).
func (f *FIL) EraseBlock(now sim.Time, addr nand.Address) (nand.Result, error) {
	r, err := f.flash.Erase(now, addr)
	if err == nil {
		f.stats.Erases++
	}
	return r, err
}

// Flash exposes the underlying storage complex for stats/energy queries.
func (f *FIL) Flash() *nand.Flash { return f.flash }
