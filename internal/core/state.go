package core

import (
	"fmt"

	"amber/internal/fil"
	"amber/internal/ftl"
	"amber/internal/nand"
	"amber/internal/sim"
	"amber/internal/snap"
)

// SnapshotVersion is the image format version Snapshot writes and Restore
// accepts. TestSnapshotImageStable holds the layout to it: the images of
// three fixed scenarios must hash to constants recorded when this version
// was frozen, so an edit to any module's State walk that changes a byte
// fails there until the version is bumped and the constants re-recorded.
// Version 2: RAIN parity + scrub (nand read-disturb counters and stripe OOB,
// ftl per-SB reconstruction pressure and rain/scrub stats, core pending
// scrub queue). Version 3: dram stores its read- and write-burst counts
// where version 2 stored a float energy accumulator (dynamic energy is now
// counts × per-event energy), and icl refuses an image whose frames its LSPN
// index cannot mirror (a line in the wrong set, in two frames, or stamped
// ahead of the replacement clock). Version 4: the payload checksum in every
// page's OOB stamp is nand's word-parallel pageSum where version 3 stored a
// byte-serial FNV-1a — same field, different value, so an older image's
// tracked pages would all fail VerifyPage. Version 5: the system header lost
// its two per-fill-path install counters when the fill paths became one.
// Version 6: the icl section lost its set and way counts, its replacement
// RNG and every frame's insertion stamp when the cache became
// fully-associative LRU only. Version 7: the nand section lost every
// block's read-disturb count when read-fault draws stopped depending on
// anything but (seed, page, erase count). Version 8: the nand section
// lost every written page's completion time and gained the journal of
// programs still in flight and the erase-undo records, so a cut after a
// restore undoes the erases the original would. Version 9: the fil section
// lost the walk switch fil's tests set, which is not device state. Images
// of versions 2 to 8 are refused with snap.ErrVersion.
const SnapshotVersion = 9

// configFingerprint hashes the full system configuration: an image restores
// only onto a device built from byte-identical knobs, because every decoder
// sizes its collections from the live configuration.
func (s *System) configFingerprint() uint64 {
	return snap.Fingerprint([]byte(fmt.Sprintf("%+v", s.cfg)))
}

// quiescedForSnapshot reports why the system cannot snapshot right now:
// snapshots capture states between Runs, with the engine drained — no
// in-flight fills, no waiters parked on them, no half-open plan batches.
func (s *System) quiescedForSnapshot() error {
	if err := s.Flash.QuiescedForSnapshot(); err != nil {
		return err
	}
	if n := s.fillsInFlight(); n != 0 {
		return fmt.Errorf("core: snapshot with %d fills in flight", n)
	}
	return nil
}

// state walks the whole image in its one order: the system header, then
// each module's State (nand, ftl, icl, fil, dram, cpu, host, dma).
func (s *System) state(c *snap.Codec) error {
	for _, walk := range []func(*snap.Codec) error{
		s.header, s.Flash.State, s.FTL.State, s.ICL.State,
		func(c *snap.Codec) error { return s.FIL.State(c, s.FTL) },
		s.DevDRAM.State, s.DevCPU.State, s.Host.State, s.DMA.State,
	} {
		if err := walk(c); err != nil {
			return err
		}
	}
	return nil
}

// header walks the system header, which precedes the modules' images: the
// clock, the request counters, the pending scrub queue (no super-block
// queues twice), and the link, HBA and flush-buffer reservations.
func (s *System) header(c *snap.Codec) error {
	snap.I(c, &s.now)
	snap.I(c, &s.lastEnd)
	snap.U(c, &s.reqs)
	snap.U(c, &s.bytesRead)
	snap.U(c, &s.bytesWritten)
	snap.Slice(c, &s.scrubPending, s.cfg.Device.Geometry.BlocksPerPlane)
	for i := range s.scrubPending {
		snap.U(c, &s.scrubPending[i])
	}
	s.link.Snap(c)
	if err := c.SameBool(s.hba != nil, "hba presence"); err != nil {
		return err
	}
	if s.hba != nil {
		s.hba.Snap(c)
	}
	return s.flushBuf.Snap(c)
}

// Snapshot serializes the system's complete functional state — FTL tables,
// cache contents, NAND pages with their OOB stamps and erase counts, fault
// cursors, every stats and energy accumulator — into a checksummed,
// versioned image. The system must be quiescent (between Runs, engine
// drained). restore(snapshot(S)) continues byte-identical to S.
func (s *System) Snapshot() ([]byte, error) {
	if err := s.quiescedForSnapshot(); err != nil {
		return nil, err
	}
	c := snap.Encoding()
	_ = s.state(c) // encoding cannot fail
	return snap.Seal(SnapshotVersion, s.configFingerprint(), c.Bytes()), nil
}

// Restore reinstalls a Snapshot image into s. The image must carry the
// supported format version and the fingerprint of s's configuration; a
// truncated, corrupted, version-skewed or mismatched image returns a typed
// snap error with s untouched — the decode targets a freshly constructed
// system and s is replaced only after every module decoded cleanly.
func (s *System) Restore(img []byte) error {
	body, err := snap.Open(img, SnapshotVersion, s.configFingerprint())
	if err != nil {
		return err
	}
	s2, err := NewSystem(s.cfg)
	if err != nil {
		return err
	}
	c := snap.Decoding(body)
	if err := s2.state(c); err != nil {
		return err
	}
	if err := c.Done(); err != nil {
		return err
	}
	if s2.FTL.ReadOnly() {
		s2.ICL.SetPreferCleanVictims(true)
	}
	*s = *s2
	return nil
}

// PowerLossReport summarizes a full device power cut.
type PowerLossReport struct {
	// Flash is the storage complex's in-flight program resolution.
	Flash nand.PowerLossReport
	// DirtyLinesLost counts cache lines holding unflushed writes at the cut
	// — data that was never acknowledged durable and is legitimately gone.
	DirtyLinesLost int
}

// PowerLoss cuts power to the device at simulated time now: the NAND
// resolves its in-flight programs torn-or-committed by the seeded draw
// (nand.Flash.PowerLoss), the cache drops every line (DRAM is volatile),
// the FIL drops its scratch and disarms the certified chain, the flush
// buffer and fill trackers empty. The caller must have stopped dispatching
// events first (the cut event halts the engine); Mount rebuilds a servable
// FTL afterwards.
func (s *System) PowerLoss(now sim.Time) PowerLossReport {
	var rep PowerLossReport
	rep.DirtyLinesLost = s.ICL.DirtyLines()
	seed := s.cfg.Device.Faults.Seed
	if seed == 0 {
		seed = s.cfg.Device.Seed
	}
	// The cache lets go of its pins before the flash drops the rest, those
	// of the prefetches whose completions the cut discards.
	s.ICL.Invalidate()
	rep.Flash = s.Flash.PowerLoss(now, seed)
	s.FIL.PowerLoss()
	s.flushBuf = sim.NewPool("flushbuf", s.cfg.Device.Geometry.TotalPlanes())
	clear(s.fillSlot)
	clear(s.fills) // parked readers die with the engine's events
	s.fills, s.fillsFree = s.fills[:0], s.fillsFree[:0]
	s.lastEnd = -1
	if now > s.now {
		s.now = now
	}
	return rep
}

// Mount runs mount-time FTL recovery after a power cut: a fresh FTL is
// rebuilt from the flash's OOB stamps alone (ftl.Mount), rewired into the
// firmware stack — retire hook re-attached, certified chain re-armed,
// degraded-mode cache policy re-derived — and the simulated clock advances
// past the scan. Every write acknowledged durable before the cut is
// readable afterwards; no torn page is ever served.
func (s *System) Mount() (ftl.MountReport, error) {
	mounted, rep, err := ftl.Mount(ftlConfigOf(s.cfg.Device), s.Flash)
	if err != nil {
		return rep, err
	}
	if err := s.bindFTL(mounted); err != nil {
		return rep, err
	}
	s.now += rep.ScanTime
	// Post-mount cleanup: erase blocks whose pages are all stale or torn,
	// restoring the free reserve a mid-GC cut may have drained (the victim
	// erase was undone, so its block came back closed and empty of valid
	// data). Without this the first post-mount flush can find no free block
	// and no GC destination, wedging a healthy device read-only.
	if plan, n := mounted.MountCleanup(); n > 0 {
		rep.CleanupErases = n
		if cerr := s.mountRun(plan); cerr != nil {
			return rep, cerr
		}
	}
	// Emergency compaction: when the cut undid every claimed erase the
	// durable image can hold no erased block at all, leaving GC without a
	// bootstrap destination. The squeeze reads a victim's valid pages into
	// controller RAM, erases it, and rewrites them compactly — a no-op
	// whenever the free reserve already clears the GC threshold.
	plan, sqBlocks, sqSubs, serr := mounted.MountSqueeze(s.now)
	if serr != nil {
		return rep, serr
	}
	if sqBlocks > 0 || len(plan.Ops) > 0 {
		rep.SqueezedSBs = sqBlocks
		rep.SqueezedSubs = sqSubs
		if cerr := s.mountRun(plan); cerr != nil {
			return rep, cerr
		}
	}
	// RAIN parity catch-up: rows completed right before the cut whose
	// parity program never started get their parity re-emitted, so every
	// surviving stripe is reconstructable again. (A torn parity page stays
	// dead until its block erases — strict in-order programming forbids
	// reprogramming it — and its rows ride without parity until then.)
	if plan, n := mounted.ParityCatchup(); n > 0 {
		rep.ParityReemitted = n
		if cerr := s.mountRun(plan); cerr != nil {
			return rep, cerr
		}
	}
	s.ICL.SetPreferCleanVictims(mounted.ReadOnly())
	return rep, nil
}

// mountRun executes a mount-time maintenance plan through runPlan, the
// datapath's bounded replan loop: on a device whose error model keeps
// drawing, a mount must degrade — lose the faulted page, retire the block,
// replan the rest — rather than fail outright and leave the device
// unmountable. The RAIN repairs the recovery queued run next, as after a
// flush, and the clock advances past the work. The plans are certified:
// the chain bindFTL armed advances through them, and runPlan re-arms it
// after a recovered plan lands.
func (s *System) mountRun(plan ftl.Plan) error {
	res, err, pending := s.runPlan(nil, s.now, plan, fil.PlanData{}, nil)
	if err == nil {
		err = pending
	}
	if err != nil {
		return err
	}
	s.now = s.drainRainRepairs(nil, max(s.now, res.Done))
	return nil
}
