// Package sim provides the discrete-event simulation core used by every
// Amber subsystem: a picosecond-resolution clock, an event queue,
// time-reservation resources that model contention on buses, dies,
// controllers and CPU cores, and a deterministic RNG.
//
// All of Amber is single-threaded and deterministic: components reserve
// spans of simulated time on shared resources and schedule completion
// events; the engine dispatches events in non-decreasing time order, with
// FIFO ordering among events at the same instant.
//
// # Engine design: a sorted ring, an overflow heap, events inline
//
// The engine is the innermost loop of every experiment — the Fig. 16
// simulation-speed claim lives or dies here — so it stores what it
// dispatches and nothing else, laid out to make ScheduleIn/AtIn/Step
// allocation-free and cache-friendly in steady state:
//
//   - An event is {time, key, callback}, 24 bytes, and it lives inline in
//     one of the engine's two arrays, a sorted ring and a heap — there is
//     no separate record, handle or free list. Dispatch takes the earliest
//     event out, clearing the slot it leaves so the closure stays
//     collectable, and only then calls it — by value, with no pointer into
//     either array — so a callback may schedule even when that moves the
//     ring or the heap (TestEngineCallbackSchedulesIntoOwnShard, one leg
//     each). The arrays only grow, so a workload with bounded in-flight
//     events reaches fixed capacities and never allocates again. Nothing
//     outside the engine can name a queued event, so there is no cancel: an
//     event fires, or a Reset drops it, and a timeout whose guarded event
//     already happened tests a flag in its callback.
//
//   - Most events arrive in time order: a request's pipeline stages each
//     schedule the next a fixed latency on, so a new event nearly always
//     fires after everything queued (a heap took 0.00 sift-up steps per
//     insert on hotread4k_cached, yet sank every pop 2.46 levels). The ring
//     is built for that: a power-of-two circular buffer of events sorted by
//     (time, sequence). A new key is the largest yet, so a new event's
//     place is after every event at its time or earlier. AtIn looks for it
//     within ringReach (8) slots of the ring's tail, then of its head; the
//     ring is sorted, so one probe at each end says whether it is in reach.
//     Found, the event goes there, shifting at most ringReach events on the
//     shorter side, and a full ring doubles and unwraps first; dispatch
//     from the ring is taking its head. Not found, the event goes to the
//     heap. On bench/'s workloads, which keep at most 47 events queued, the
//     ring takes 91 % (randread4k_miss) to 100 % (hotread4k_cached,
//     batch_rw8k_data) of inserts.
//
//   - The heap is the overflow: a 4-ary min-heap ordered by (time,
//     sequence), so an out-of-order population costs what it did before
//     the ring. Compared to the pointer-based binary container/heap it
//     needs no per-event heap object, no interface boxing on push/pop,
//     walks half the levels per sift, and compares keys that sit in the
//     array being sifted, a node's four children in at most two cache
//     lines. The comparison is one subtract-with-borrow over (time, key)
//     taken as a 128-bit number: which of four children fires first is
//     decided by the data, and a branch on it mispredicts.
//
//   - Two containers do not change the order. (time, key) is a total
//     order and each container hands out its minimum, so Step, firing the
//     earlier of the ring's head and the heap's root by that comparison,
//     fires exactly the event one queue would; RunUntil reads the same
//     head. Which container an event lands in depends only on what is
//     queued, and nothing can set the reach: there is no option, flag or
//     config field. FuzzEngineOrder's bursts and hand-built seeds place
//     events on both sides of the split, equal times included, wrap the
//     ring's head and grow it while it is wrapped.
//
//   - A scheduling domain (registered with Engine.Domain, targeted with
//     ScheduleIn/AtIn: host, cpu, icl.dram, dma, fil.publish and one per
//     NAND channel in a full system) is a label, not a queue. key packs
//     sequence<<16 | domain: the sequence counter is engine-global and
//     unique, so the low bits never decide a comparison and FIFO among equal
//     times holds across domains, while dispatch reads the label back to
//     bump that domain's counter — the per-domain traffic DomainStats
//     reports and every run digest covers. What is pending per domain is
//     counted from the queue when DomainStats asks, not kept per event. The
//     golden equivalence test and FuzzEngineOrder hold the order, and the
//     counters after every operation, to an independent single-queue
//     reference through random ScheduleIn/Step/RunUntil/Run/Halt/Reset
//     interleavings, scheduling from inside callbacks and domains registered
//     with events queued.
//
//   - Reset rewinds the clock and empties the ring and the heap, keeping
//     their storage, the registered domains and the lifetime per-domain
//     dispatch counters. It clears only occupied slots, so it costs what
//     was queued, not the capacity. The synchronous core.Submit wrapper
//     reuses one engine this way for its per-request private simulation.
//
// # Determinism: one total (time, sequence) order
//
// Engine.Run is the only way events fire, and it fires them one at a time
// on the calling goroutine, in the order of their (time, sequence) keys. The
// sequence counter is engine-global and every event gets its number when it
// is scheduled, so a run is a pure function of the seed, the configuration
// and the request stream: there is no second dispatcher, no worker count and
// no window structure for a result to depend on. Every argument below is an
// argument about that one order.
//
// Scheduling domains say what an event is for, never when it fires. In a
// full system host/HIL, CPU, ICL/DRAM, DMA and the fill-publish domain carry
// the firmware stage boundaries, cache installs, GC, transfers and request
// completions. The per-NAND-channel domains are registered and carry
// nothing: every flash transaction takes effect when it is issued, tracked
// page bytes included (below). Per-channel float accumulators add in issue
// order and are summed in channel order, and costs worked out ahead of time
// fall under the same rule:
// package cpu's compiled charges evaluate each float once, by the
// expression a per-call evaluation uses, and still add energy one run at a
// time in run order (cpu's package comment).
//
// Concurrency exists one level up only: exp.Options.Parallel / ambersim
// -parallel run whole Systems, each with its own engine, on separate
// goroutines (below).
//
// # Flash transactions take effect at issue
//
// A flash transaction's resource claims, block-state transition, fault
// draw, counters, energy and tracked page bytes all land when it is issued
// (nand.PlanBatch), so the flash schedules no event and every later issue —
// CheckRead, plan prevalidation, any read of the arena — sees exactly the
// state the transactions issued before it left. A program's
// payload is copied into a staging buffer (a plan rewrite's already sits in
// one, the buffer its pre-read filled), which becomes the page, and the
// buffer the page held before returns to the staging pool; an erase takes
// its block's page buffers into its undo record (power-loss rule 2 below).
// A read delivers its page bytes at its own issue, so an in-flight read is
// immune to a later GC erase + reprogram of its page
// (TestReadDeferredSnapshotsAtIssue, TestDeferredGCReprogramOrdering).
//
// # Fill installs: precopy at issue, publish as an event
//
// The fill continuation — the cache install, memory charge and waiter
// wakeup that follow a flash-backed fetch — consumes page bytes a channel
// produced. The install is split in two stages. The precopy stage fixes
// the page bytes at issue time: a demand fill's reads deliver them into its
// line buffer (nand.Flash.ReadDeferredAddr through fil.ReadSubsStaged), and
// a prefetch's reads deliver nothing while the fill pins each page read, in
// the same serial call (nand.Flash.Pin: the pinned buffer's bytes never
// change until it is unpinned). Either way the bytes are those of the arena,
// where every program issued before has landed; the reads' counters and
// energy are charged with them, and nothing is scheduled. The publish stage
// (core's fil.publish domain) installs the line buffer, or hands the cache
// the pins (icl.Cache.FillPinned), at the fetch's completion time; both were
// finished at issue, so it waits on no other event.
//
// Payload granularity. The bytes of the datapath move at the granularity the
// cache is valid at, the sub-page, and none of the arguments here depend on
// how big the buffers around them are. A host write's payload is the cache's
// source directly (icl.Cache.WriteAt, at its true in-line offset); an
// eviction clears only the subs the outgoing line had valid; a demand read
// stages through a line buffer recycled from a free list on core.System,
// uncleared, and a prefetch copies nothing, holding pins instead. What
// changed against the line-sized scheme is buffer ownership only: page
// bytes are still fixed at issue in buffers nothing else touches until the
// publish that consumes them (a demand read's buffer returns to the list at
// the request's completion; a pin is released when its cache sub lets go of
// it), and sub-pages a demand fill finds unmapped are zeroed at issue as
// well, since a recycled buffer is not (a prefetch's read as zeroes in the
// cache).
// One new reader of flash bytes exists: a write that covers part of an
// uncached sub-page merges the sub's current contents under the payload
// (core's widenPartialWrite, nand.Flash.PagePayload). It runs inside the
// write-ops event, copies from the arena like a plan pre-read, and makes no
// claim, draw or counter update, so simulated time cannot tell it from
// zero-padding.
//
// # Fault-schedule determinism
//
// The nand fault-injection subsystem (nand.FaultConfig) draws a fault
// schedule — which operations fail, in which order, with which recovery
// consequences — that is a pure function of the seed and the request
// stream, independent of wall-clock. Three properties make it so:
//
//  1. Draws happen at issue time. Every fault decision — program, erase,
//     and the read-retry ladder — is evaluated when the transaction is
//     issued (after the walk, certificate or Check* call that validated
//     it, before any claim or functional mutation). So the set of draws and their interleaving is fixed by the
//     order of issues, which is the engine's one total order.
//
//  2. Draws are stateless. A draw is a pure hash of (seed, operation
//     kind, physical index, the block's erase count, retry attempt) — no
//     shared RNG stream whose cursor position could depend on draw
//     order, no wall-clock, no global counter. Two consequences: probing
//     an operation's outcome is idempotent (the FIL's deferred
//     prevalidation probe and the later issue draw agree by
//     construction, so a fault surfaces at probe time, claims nothing
//     and queues nothing — the same error-implies-no-mutation contract
//     prevalidation already provides), and the schedule depends only on
//     each operation's own history (the erase count its block has
//     reached), which is functional state mutated at issue.
//
//  3. Fault accounting happens at issue too. FaultStats increments and
//     fault-site records happen inside the issue draw.
//
// The recovery path inherits determinism from the same argument: a plan
// fault surfaces from an issue, the FIL commits the executed prefix and
// disarms the certified chain there and then, and the FTL's recovery replan
// is a pure function of its mapping state. core's
// TestFaultScheduleGoldenEquivalence pins the whole chain: a GC-heavy run
// with faults enabled renders its fault sites, retirement order, stats and
// payload bytes to a committed digest.
//
// # Power-loss determinism: the durable/volatile split
//
// The durability subsystem (nand.Flash.PowerLoss, ftl Mount/recovery,
// core snapshot/restore) gives the same guarantee: an emulated power cut at
// simulated time T produces one post-recovery device. Four rules make that
// hold:
//
//  1. The cut is an event. core schedules PowerLossAt in its own domain,
//     registered before any workload event, and its callback halts the
//     engine: every event with a key before the cut's has run, every one
//     after it has not. The volatile/durable classification of every byte
//     of simulator state is therefore fixed by the engine's total order.
//
//  2. Durable state is exactly what reached NAND. The cut discards all
//     volatile firmware state — ICL cache lines and flush buffers,
//     in-flight plans — and keeps only the arena pages and per-page OOB
//     stamps (logical tag, device-wide write sequence, checksum) that
//     programs physically completed. Which programs had not completed is
//     told by a journal of their completion times, kept only while a cut
//     can still land before them: no cut lands before the latest prune
//     time, so a Run refuses a cut before the system clock. The activity
//     counters and energy are
//     the simulator's record of what was issued, not device state: charged
//     at issue, they count an op issued before the cut even when it would
//     have completed after it, so the flash and the FIL always agree. A
//     program in flight at T resolves torn-or-committed by a stateless
//     seeded draw keyed on (seed,
//     physical page, write sequence) — the same draw discipline as fault
//     injection: no shared RNG cursor, so the resolution is a pure
//     function of the cut time and the issue stream. Claimed-but-unstarted
//     erases are undone from per-block snapshots taken at claim time
//     (functional state mutates at issue, far ahead of dispatch, so a cut
//     can land between claim and start), page bytes included: the erase
//     took its block's buffers into the snapshot, and they displace what
//     programs issued after the claim installed, which would have completed
//     after the erase, so after the cut.
//
//  3. Mount rebuilds from OOB alone. ftl.Mount scans every block's OOB
//     stamps in fixed physical order, keeps the highest-sequence valid
//     copy of each logical page, discards torn tails by checksum, and
//     reconstructs mapping, valid counts, append pointers and retirement
//     state with no reference to any volatile structure. Because the
//     durable image is deterministic (rules 1-2) and the scan order is
//     fixed, the mounted FTL is too — including the post-mount free-
//     reserve recovery (cleanup erases of fully-stale blocks, and the
//     emergency squeeze compaction when a cut undoes every claimed erase
//     and leaves no erased block at all).
//
//  4. Snapshots serialize only functional state. core.Snapshot encodes
//     the drained system — clocks, resources' next-free times, FTL
//     mapping, cache contents, arena pages, the flash's in-flight journals
//     (a drained system's erases may not have started), stats — into a checksummed,
//     versioned, config-fingerprinted image (package snap); Restore
//     decodes into a fresh system and swaps only on full success, so a
//     corrupt or skewed image fails with a typed error and an untouched
//     target. A drained system has no pending events, so
//     restore(snapshot(S)) continues byte-identical to S.
//
// The golden tests pin the chain end to end: the power-loss recovery
// trajectory and a five-cut sweep render to committed digests, and the
// snapshot round-trip asserts re-snapshot byte-equality plus a continuation
// identical to the original's and to its committed digest.
//
// # Read certificates: mapped implies written while the chain is armed
//
// The certified-plan chain (ftl/fil) extends to the read side. While the
// chain is armed, every mapping the FTL publishes was installed by a plan
// the FIL executed to completion: a lookup that returns a physical
// location is therefore proof the location was programmed, and the
// per-address nand.CheckRead walk a staged read would pay re-derives
// exactly that fact. ftl.FTL.LookupSubs — the one lookup body, indexed by
// the sub-pages asked for, so a one-sub fill reads one forward-map entry;
// LookupCertified is its all-subs wrapper — stamps its result with a
// ReadCert naming the issuer and the nand.Flash.StateEpoch it observed;
// fil.ReadSubsStaged (and the core fill path above it, which asks for the
// missing subs in ascending order and issues the reads in the order
// answered) honor the cert and skip the walk, counting
// fil.Stats.CertifiedReads. The cert is advisory,
// never load-bearing for safety: a stale epoch (cert observed an older
// flash state) silently falls back to the walked path, and anything that
// could break the invariant — a raw OCSSD channel op, an injected plan
// fault, a power cut, a mount — disarms the chain exactly as on the write
// side (fil.Stats.CertDisarms), after which every read walks until
// AcceptCertified re-arms. Injected read faults keep their draws on the
// certified path: the certificate trusts the model, not the silicon, so
// readFaultExtra and the retry ladder stay live while only the structural
// bounds/presence re-validation is skipped.
//
// # Plan links: the certificate also vouches for read→rewrite dependencies
//
// A GC or read-modify-write rewrite must wait for the pre-read that feeds
// it, and program that read's bytes. Which read that is has one definition
// — the last OpRead of the same (LSPN, Sub) preceding the write in the plan
// — and one holder: ftl.Op.Src, the 1-based plan index of that read (0 for
// a write no read feeds). The FTL knows the answer while it builds the
// plan, so it stamps it there: a migration write takes the index of the
// read appended just before it, and a write of the super-page under
// ftl.Write consults a per-sub "last read" note that migrations of that
// same super-page also update — read only after allocation, because the GC
// an allocation may run can migrate the very sub about to be written. The
// certificate may vouch for Src for the same reason it vouches for
// addresses and program order: the field is a pure function of the op
// sequence the certificate already covers, computed by the issuer, and
// ftl's unexported linkOps (one walk with a map) is the reference the
// tests hold every builder to (TestPlanLinksMatchReference). So the
// certified kernel touches no map per op: a read fills a dense record at
// its own plan position, and its rewrite loads recs[Src-1].
//
// A walked plan issues through the same loop and the same links; its walk
// (fil.prevalidatePlan) only checks, and checking Src is one more check: a
// non-zero Src must name an earlier OpRead of the same (LSPN, Sub). Every
// plan the ftl package can mint is linked: ftl.RecoverPlanFault assembles
// its plan from ops copied out of the faulted one, whose Src values are
// indices into THAT plan, so it re-links the whole result before
// returning, as do the other cold builders whose reads and rewrites are
// not adjacent (MountSqueeze: all reads, the erase, then the rewrites;
// PlanReconstruct). A hand-built plan that leaves Src zero runs its
// rewrites unlinked — no dependency wait, the payload its PlanData gives.
// A forced walk of a certified plan must run exactly as the certified
// one (TestCertifiedPlanEquivalence, TestWalkedVsCertifiedPlanByPlan), and
// FuzzPlanWalk holds the walk to rejecting each broken link, out-of-order
// program, unwritten read and out-of-range address with the device
// untouched.
//
// # Batch windows: amortized bookkeeping with serial semantics
//
// core.System.SubmitBatch is the vectored entry over the same machinery: it
// runs each request through the identical inline or evented path a Submit
// loop would use, but drains the shared engine once per window — min(host
// scheduler dispatch window, protocol queue depth, core.DefaultBatchWindow)
// requests — instead of once per request. A window's inline writes schedule
// nothing (flash transactions take effect at issue), so the window boundary
// decides only how often the engine is reset. The one subtlety is
// the engine clock: the drain rewinds it (Engine.Reset), so maintenance that
// prunes by engine time — the power-loss erase-undo and program journals —
// is pruned explicitly against the host clock instead
// (nand.Flash.PruneEraseUndo),
// which is sound because SubmitBatch is synchronous: no power cut can land
// before the call returns, so the host clock lower-bounds every future cut
// time. The golden equivalence test locks the contract in: SubmitBatch
// against a Submit loop over a GC-heavy mixed stream, byte-identical
// payloads, stats and completion times.
//
// # Scrub-domain determinism: patrol ticks as their own event domain
//
// The patrol scrubber (core.RunConfig.ScrubEvery) follows the power-loss
// playbook for background machinery: its ticks live in a dedicated engine
// domain ("scrub", like "pwr"), so where in the request stream each tick
// lands is decided by its (time, sequence) key — a property of the event
// multiset alone. At that point the scrubber takes the next super-block
// reconstruction pressure queued (pure model state) and emits its migration
// plan through the same certified path host writes use. That is what makes
// "scrub strictly defers the read-only latch" a testable claim instead of a
// tendency.
//
// # RAIN reconstruction: the XOR identity is a property of durable state
//
// Die-level RAIN (ftl/rain.go) stripes each page row of a plane group as
// W data pages plus one parity page XOR-ing them, emitted in the same
// certified plan as the data write that completes the row. Flash pages
// program exactly once per erase cycle and a stripe erases atomically
// (the super-block erase wipes all planes), so from the parity program
// until the erase, the XOR identity over the row's physical contents is
// invariant — reconstruction reads no firmware RAM, only pages whose OOB
// stamps (tag, sequence, checksum verdict, stripe mask) prove membership.
// That is what makes an uncorrectable read's recovery deterministic:
// core.System reassembles the page inside the event that issued the
// faulted plan (stripe peers resolved from the mapping model, payloads
// XOR-ed from tracked flash state), executes a certified re-homing plan,
// and the repaired mapping is a pure function of the op sequence. A
// missing or torn member is a double fault and degrades to the honest
// loss path (unmap, counted), never to serving reassembled-wrong bytes;
// parity membership itself survives power loss because the stripe mask
// rides the parity page's OOB stamp and ftl.Mount rebuilds it in the
// fixed scan order, with ftl.ParityCatchup re-emitting parity the cut
// stranded.
//
// # Whole systems in parallel
//
// Whole Systems may run on separate goroutines, each with its own engine;
// nothing in this package is shared between them. exp.ForEach does so:
// every task owns its Systems and writes an index-addressed slot, and
// exp's TestParallelDeterminism proves the assembled output does not
// depend on the worker count.
//
// # Resources
//
// Resource and Pool model FCFS servers by time reservation: Claim(now, dur)
// returns the [start, end) service interval, queueing behind the previous
// reservation, and ClaimRun books k evenly spaced claims in closed form.
// Every reservation queues: nothing starts before the server is free. This
// is exact for FCFS disciplines and removes any explicit queue processes
// from the hot path.
//
// # Related arenas
//
// The same pooling discipline extends up the stack: package nand stores
// tracked page contents in a chunked arena indexed by physical page number
// (256 pages per chunk, presence bitmap; page buffers circulate through the
// staging pool and erase undo records without freeing chunks), and package
// core recycles its per-request submit and fill op
// structs through free lists with their event callbacks bound once. See
// those packages for details; together they make the submit path
// zero-allocation in steady state.
package sim
