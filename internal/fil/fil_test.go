package fil

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"amber/internal/ftl"
	"amber/internal/nand"
	"amber/internal/sim"
)

var testTiming = nand.Timing{
	ReadFast: sim.FromMicroseconds(60), ReadSlow: sim.FromMicroseconds(105),
	ProgFast: sim.FromMicroseconds(820), ProgSlow: sim.FromMicroseconds(2250),
	Erase: sim.FromMicroseconds(3000), BusMTps: 333, CmdCycles: sim.FromNanoseconds(100),
}

// rawOp issues one flash transaction outside any FTL plan the way fil's
// walked plans issue theirs: the structural check, then the transaction on
// an engine-less plan (an erase is committed at claim). kind is ftl.OpRead
// (into buf), ftl.OpWrite (buf, untagged) or ftl.OpErase (addr's block).
func rawOp(flash *nand.Flash, kind ftl.OpKind, now sim.Time, addr nand.Address, buf []byte) error {
	var err error
	switch kind {
	case ftl.OpRead:
		err = flash.CheckRead(&addr)
	case ftl.OpWrite:
		if err = flash.Geometry().CheckAddress(addr); err == nil && (flash.PageWritten(addr) || addr.Page != flash.NextProgramPage(addr)) {
			err = fmt.Errorf("program of %v out of order (next is %d)", addr, flash.NextProgramPage(addr))
		}
	default:
		err = flash.CheckErase(addr)
	}
	if err != nil {
		return err
	}
	b := flash.BeginPlan(nil, nil)
	defer b.Commit()
	switch kind {
	case ftl.OpRead:
		_, err = b.ReadAddr(now, &addr, buf)
	case ftl.OpWrite:
		_, err = b.ProgramAddr(now, &addr, buf, false, -1)
	default:
		_, err = b.Erase(now, addr)
	}
	return err
}

func newStack(t *testing.T, trackData bool) (*FIL, *ftl.FTL, *nand.Flash) {
	t.Helper()
	g := nand.Geometry{
		Channels: 2, PackagesPerChannel: 1, DiesPerPackage: 1, PlanesPerDie: 2,
		BlocksPerPlane: 8, PagesPerBlock: 4, PageSize: 512,
	}
	fl, err := nand.New(g, testTiming, nand.Power{}, nand.MLC, nand.Options{TrackData: trackData})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ftl.New(ftl.Config{
		Geometry: g, OPRatio: 0.25, PartialUpdate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(fl, tr.Address)
	if err != nil {
		t.Fatal(err)
	}
	return f, tr, fl
}

func TestNewRequiresArgs(t *testing.T) {
	if _, err := New(nil, nil); err == nil {
		t.Fatal("nil args accepted")
	}
}

func TestExecuteFullWritePlan(t *testing.T) {
	f, tr, fl := newStack(t, true)
	payload := make([]byte, 4*512)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	dirty := []bool{true, true, true, true}
	plan, err := tr.Write(0, 9, dirty)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.ExecuteOn(nil, nil, 0, plan, HostData(9, dirty, payload, 512))
	if err != nil {
		t.Fatal(err)
	}
	if res.HostWritesDone == 0 || res.Done < res.HostWritesDone {
		t.Fatalf("result = %+v", res)
	}
	if fl.Stats().Programs != 4 {
		t.Fatalf("programs = %d", fl.Stats().Programs)
	}
	// Read back through the FIL and verify contents.
	locs, _, err := tr.LookupCertified(nil, 9)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4*512)
	dsts := make([][]byte, len(locs))
	for i, l := range locs {
		dsts[i] = got[l.Sub*512 : (l.Sub+1)*512]
	}
	if _, err := f.ReadSubsStaged(nil, nil, sim.FromMicroseconds(10000), locs, dsts, ftl.ReadCert{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read-back bytes differ")
	}
}

func TestWritesAcrossPlanesOverlap(t *testing.T) {
	f, tr, _ := newStack(t, false)
	plan, err := tr.Write(0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.ExecuteOn(nil, nil, 0, plan, PlanData{})
	if err != nil {
		t.Fatal(err)
	}
	// 4 programs across 4 planes (2 channels): wall-clock must be far less
	// than 4 serial programs.
	serial := 4 * sim.FromMicroseconds(820)
	if res.Done >= serial {
		t.Fatalf("no parallelism: done=%v, serial=%v", res.Done, serial)
	}
}

func TestGCPlanSurvivesDataIntegrity(t *testing.T) {
	f, tr, _ := newStack(t, true)
	now := sim.Time(0)
	content := map[int64][]byte{}
	write := func(lspn int64) {
		t.Helper()
		payload := make([]byte, 4*512)
		for i := range payload {
			payload[i] = byte(int64(i) + lspn*7)
		}
		dirty := []bool{true, true, true, true}
		plan, err := tr.Write(now, lspn, dirty)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.ExecuteOn(nil, nil, now, plan, HostData(lspn, dirty, payload, 512))
		if err != nil {
			t.Fatal(err)
		}
		content[lspn] = payload
		now = res.Done + sim.Microsecond
	}
	// Fill sequentially, then overwrite in random order: random
	// invalidation leaves victims partially valid, forcing migrations.
	for lspn := int64(0); lspn < tr.UserSuperPages(); lspn++ {
		write(lspn)
	}
	rng := sim.NewRNG(12)
	for i := int64(0); i < 3*tr.UserSuperPages(); i++ {
		write(int64(rng.Uint64n(uint64(tr.UserSuperPages()))))
	}
	if tr.Stats().GCMigrated == 0 {
		t.Fatal("GC never migrated; test is vacuous")
	}
	// All data must be intact after migrations.
	for lspn, want := range content {
		locs, _, err := tr.LookupCertified(nil, lspn)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 4*512)
		dsts := make([][]byte, len(locs))
		for i, l := range locs {
			dsts[i] = got[l.Sub*512 : (l.Sub+1)*512]
		}
		if _, err := f.ReadSubsStaged(nil, nil, now, locs, dsts, ftl.ReadCert{}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("LSPN %d corrupted after GC", lspn)
		}
	}
}

func TestDepStallsCounted(t *testing.T) {
	f, tr, _ := newStack(t, false)
	now := sim.Time(0)
	rng := sim.NewRNG(5)
	write := func(lspn int64) {
		t.Helper()
		plan, err := tr.Write(now, lspn, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.ExecuteOn(nil, nil, now, plan, PlanData{})
		if err != nil {
			t.Fatal(err)
		}
		now = res.Done + sim.Microsecond
	}
	for lspn := int64(0); lspn < tr.UserSuperPages(); lspn++ {
		write(lspn)
	}
	for i := int64(0); i < 3*tr.UserSuperPages(); i++ {
		write(int64(rng.Uint64n(uint64(tr.UserSuperPages()))))
	}
	if f.Stats().DepStalls == 0 {
		t.Fatal("GC rewrites never waited on their source reads")
	}
	if f.Stats().Erases == 0 {
		t.Fatal("no erases executed")
	}
}

// chDomsFor registers one scheduling domain per NAND channel on e, the shape
// core.domainsFor builds for a full system.
func chDomsFor(t *testing.T, e *sim.Engine, fl *nand.Flash) []sim.DomainID {
	t.Helper()
	doms := make([]sim.DomainID, fl.Geometry().Channels)
	for ch := range doms {
		doms[ch] = e.Domain(nand.ChannelDomain(ch))
	}
	return doms
}

// TestExecuteOnEquivalence drives the same GC-heavy write trajectory
// through the synchronous Execute and the deferred ExecuteOn and demands
// identical plan timings, identical flash/FIL counters and identical
// read-back bytes — the sync-vs-deferred semantic bar under plans that mix
// migration reads, rewrites and erases.
func TestExecuteOnEquivalence(t *testing.T) {
	fSync, trSync, flSync := newStack(t, true)
	fDef, trDef, flDef := newStack(t, true)
	e := sim.NewEngine()
	doms := chDomsFor(t, e, flDef)

	nowS, nowD := sim.Time(0), sim.Time(0)
	rng := sim.NewRNG(12)
	write := func(lspn int64) {
		t.Helper()
		payload := make([]byte, 4*512)
		for i := range payload {
			payload[i] = byte(int64(i)*3 + lspn)
		}
		dirty := []bool{true, true, true, true}

		planS, err := trSync.Write(nowS, lspn, dirty)
		if err != nil {
			t.Fatal(err)
		}
		resS, err := fSync.ExecuteOn(nil, nil, nowS, planS, HostData(lspn, dirty, payload, 512))
		if err != nil {
			t.Fatal(err)
		}
		nowS = resS.Done + sim.Microsecond

		planD, err := trDef.Write(nowD, lspn, dirty)
		if err != nil {
			t.Fatal(err)
		}
		resD, err := fDef.ExecuteOn(e, doms, nowD, planD, HostData(lspn, dirty, payload, 512))
		if err != nil {
			t.Fatal(err)
		}
		nowD = resD.Done + sim.Microsecond

		if resS != resD {
			t.Fatalf("lspn %d: deferred result %+v != sync %+v", lspn, resD, resS)
		}
	}
	for lspn := int64(0); lspn < trSync.UserSuperPages(); lspn++ {
		write(lspn)
	}
	for i := int64(0); i < 3*trSync.UserSuperPages(); i++ {
		write(int64(rng.Uint64n(uint64(trSync.UserSuperPages()))))
	}
	if trDef.Stats().GCMigrated == 0 {
		t.Fatal("GC never migrated; equivalence is vacuous")
	}
	if flSync.Stats() != flDef.Stats() {
		t.Fatalf("flash stats diverged: sync %+v deferred %+v", flSync.Stats(), flDef.Stats())
	}
	// Both paths charge energy at issue, in op order: the float sums match
	// to the bit.
	if flSync.EnergyJoules() != flDef.EnergyJoules() {
		t.Fatalf("flash energy diverged: sync %v deferred %v", flSync.EnergyJoules(), flDef.EnergyJoules())
	}
	if fSync.Stats() != fDef.Stats() {
		t.Fatalf("fil stats diverged: sync %+v deferred %+v", fSync.Stats(), fDef.Stats())
	}
	// Byte-for-byte read-back of every mapped super-page.
	for lspn := int64(0); lspn < trSync.UserSuperPages(); lspn++ {
		locs, _, err := trSync.LookupCertified(nil, lspn)
		if err != nil {
			t.Fatal(err)
		}
		read := func(f *FIL, at sim.Time) []byte {
			got := make([]byte, 4*512)
			dsts := make([][]byte, len(locs))
			for i, l := range locs {
				dsts[i] = got[l.Sub*512 : (l.Sub+1)*512]
			}
			if _, err := f.ReadSubsStaged(nil, nil, at, locs, dsts, ftl.ReadCert{}); err != nil {
				t.Fatal(err)
			}
			return got
		}
		locsD, _, err := trDef.LookupCertified(nil, lspn)
		if err != nil {
			t.Fatal(err)
		}
		gotS := read(fSync, nowS)
		dstsD := make([][]byte, len(locsD))
		gotD := make([]byte, 4*512)
		for i, l := range locsD {
			dstsD[i] = gotD[l.Sub*512 : (l.Sub+1)*512]
		}
		if _, err := fDef.ReadSubsStaged(nil, nil, nowD, locsD, dstsD, ftl.ReadCert{}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotS, gotD) {
			t.Fatalf("LSPN %d bytes diverged between sync and deferred execution", lspn)
		}
	}
}

// TestCertifiedPlanEquivalence drives the same GC-heavy write trajectory
// through two certified-bound stacks, one with the certificate honored
// (prevalidation skipped) and one force-routed through the walk, and
// demands identical plan timings, identical flash/FIL counters and
// identical read-back bytes. It is the semantic bar for the certified fast
// path: skipping the walk must change nothing but the work done.
func TestCertifiedPlanEquivalence(t *testing.T) {
	fFast, trFast, flFast := newStack(t, true)
	fWalk, trWalk, flWalk := newStack(t, true)
	if err := fFast.AcceptCertified(trFast); err != nil {
		t.Fatal(err)
	}
	if err := fWalk.AcceptCertified(trWalk); err != nil {
		t.Fatal(err)
	}
	fWalk.forceWalk = true
	eF, eW := sim.NewEngine(), sim.NewEngine()
	domsF := chDomsFor(t, eF, flFast)
	domsW := chDomsFor(t, eW, flWalk)

	nowF, nowW := sim.Time(0), sim.Time(0)
	rng := sim.NewRNG(12)
	write := func(lspn int64) {
		t.Helper()
		payload := make([]byte, 4*512)
		for i := range payload {
			payload[i] = byte(int64(i)*5 + lspn)
		}
		dirty := []bool{true, true, true, true}

		planF, err := trFast.Write(nowF, lspn, dirty)
		if err != nil {
			t.Fatal(err)
		}
		resF, err := fFast.ExecuteOn(eF, domsF, nowF, planF, HostData(lspn, dirty, payload, 512))
		if err != nil {
			t.Fatal(err)
		}
		nowF = resF.Done + sim.Microsecond

		planW, err := trWalk.Write(nowW, lspn, dirty)
		if err != nil {
			t.Fatal(err)
		}
		resW, err := fWalk.ExecuteOn(eW, domsW, nowW, planW, HostData(lspn, dirty, payload, 512))
		if err != nil {
			t.Fatal(err)
		}
		nowW = resW.Done + sim.Microsecond

		if resF != resW {
			t.Fatalf("lspn %d: certified result %+v != walked %+v", lspn, resF, resW)
		}
	}
	for lspn := int64(0); lspn < trFast.UserSuperPages(); lspn++ {
		write(lspn)
	}
	for i := int64(0); i < 3*trFast.UserSuperPages(); i++ {
		write(int64(rng.Uint64n(uint64(trFast.UserSuperPages()))))
	}
	if trFast.Stats().GCMigrated == 0 {
		t.Fatal("GC never migrated; equivalence is vacuous")
	}
	eF.Run()
	eW.Run()

	sf, sw := fFast.Stats(), fWalk.Stats()
	if sf.CertifiedPlans != sf.PlanCount {
		t.Fatalf("certified leg fast-pathed %d of %d plans; the chain broke", sf.CertifiedPlans, sf.PlanCount)
	}
	if sw.CertifiedPlans != 0 {
		t.Fatalf("forced-walk leg fast-pathed %d plans", sw.CertifiedPlans)
	}
	sf.CertifiedPlans, sw.CertifiedPlans = 0, 0
	if sf != sw {
		t.Fatalf("fil stats diverged: certified %+v walked %+v", sf, sw)
	}
	if flFast.Stats() != flWalk.Stats() {
		t.Fatalf("flash stats diverged: certified %+v walked %+v", flFast.Stats(), flWalk.Stats())
	}
	// Byte-for-byte read-back of every mapped super-page.
	for lspn := int64(0); lspn < trFast.UserSuperPages(); lspn++ {
		read := func(f *FIL, tr *ftl.FTL, at sim.Time) []byte {
			t.Helper()
			locs, _, err := tr.LookupCertified(nil, lspn)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 4*512)
			dsts := make([][]byte, len(locs))
			for i, l := range locs {
				dsts[i] = got[l.Sub*512 : (l.Sub+1)*512]
			}
			if _, err := f.ReadSubsStaged(nil, nil, at, locs, dsts, ftl.ReadCert{}); err != nil {
				t.Fatal(err)
			}
			return got
		}
		if !bytes.Equal(read(fFast, trFast, nowF), read(fWalk, trWalk, nowW)) {
			t.Fatalf("LSPN %d bytes diverged between certified and walked execution", lspn)
		}
	}
}

// TestCertificationInvalidation locks in the slow-path fallbacks: a raw
// flash mutation behind the FIL's back (epoch break) and a replayed plan
// (sequence break) must both disarm the certificate chain, and an
// invalidated plan that then fails mid-way must be rejected by the walk
// with no events queued, no counters moved and no block state touched —
// the error-⇒-no-mutation contract survives certification.
func TestCertificationInvalidation(t *testing.T) {
	f, tr, fl := newStack(t, true)
	if err := f.AcceptCertified(tr); err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	doms := chDomsFor(t, e, fl)
	dirty := []bool{true, true, true, true}
	payload := make([]byte, 4*512)
	for i := range payload {
		payload[i] = byte(i * 7)
	}

	// Plan 1 rides the fast path.
	plan1, err := tr.Write(0, 0, dirty)
	if err != nil {
		t.Fatal(err)
	}
	// Keep a private copy: replaying the scratch-backed plan later needs
	// ops that survive the next Write call.
	replay := plan1
	replay.Ops = append([]ftl.Op(nil), plan1.Ops...)
	if _, err := f.ExecuteOn(e, doms, 0, plan1, HostData(0, dirty, payload, 512)); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().CertifiedPlans; got != 1 {
		t.Fatalf("CertifiedPlans = %d, want 1", got)
	}
	e.Run()

	// A raw OCSSD program into the FTL's open super-block: the flash epoch
	// moves without the certificate chain, and the raw page collides with
	// the next page the FTL will allocate there.
	rawLoc := plan1.Ops[0].Loc
	rawLoc.Page = fl.NextProgramPage(tr.Address(rawLoc))
	if err := rawOp(f.flash, ftl.OpWrite, sim.FromMicroseconds(50000), tr.Address(rawLoc), payload[:512]); err != nil {
		t.Fatal(err)
	}

	// Plan 2 carries a valid-looking certificate, but the lockstep is
	// broken: the walk must run, catch the collision mid-plan and reject
	// with nothing queued and nothing mutated.
	plan2, err := tr.Write(sim.FromMicroseconds(60000), 1, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if !plan2.Cert.By(tr) {
		t.Fatal("FTL did not certify plan 2")
	}
	statsBefore, flashBefore := f.Stats(), fl.Stats()
	if _, err := f.ExecuteOn(e, doms, sim.FromMicroseconds(60000), plan2, HostData(1, dirty, payload, 512)); err == nil {
		t.Fatal("stale-certified colliding plan accepted")
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events queued by a rejected plan", e.Pending())
	}
	// The epoch break disarms the chain — the one counter a rejection is
	// allowed to move.
	wantAfter := statsBefore
	wantAfter.CertDisarms++
	if got := f.Stats(); got != wantAfter {
		t.Fatalf("fil counters moved on rejection: %+v -> %+v", statsBefore, got)
	}
	if got := fl.Stats(); got != flashBefore {
		t.Fatalf("flash counters moved on rejection: %+v -> %+v", flashBefore, got)
	}
	for _, op := range plan2.Ops {
		if op.Kind == ftl.OpWrite && op.Loc != rawLoc && fl.PageWritten(tr.Address(op.Loc)) {
			t.Fatalf("rejected plan programmed %v", op.Loc)
		}
	}

	// Replaying an already-executed plan is a sequence break: slow path,
	// and the walk rejects the duplicate programs.
	if _, err := f.ExecuteOn(e, doms, sim.FromMicroseconds(70000), replay, HostData(0, dirty, payload, 512)); err == nil {
		t.Fatal("replayed plan accepted")
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events queued by a replayed plan", e.Pending())
	}
	if got := f.Stats().CertifiedPlans; got != 1 {
		t.Fatalf("CertifiedPlans = %d after invalidation, want 1", got)
	}

	// Re-binding is explicit: a fresh lockstep assertion re-arms nothing
	// here because the flash genuinely diverged from the model, so even a
	// hand re-bound chain walks (seq mismatch) — only a fresh stack pair
	// earns the fast path again. A hand-built (uncertified) plan also
	// walks.
	var bare ftl.Plan
	bare.Ops = append(bare.Ops, ftl.Op{Kind: ftl.OpRead, Loc: plan1.Ops[0].Loc, LSPN: 0})
	if _, err := f.ExecuteOn(e, doms, sim.FromMicroseconds(80000), bare, PlanData{}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if got := f.Stats().CertifiedPlans; got != 1 {
		t.Fatalf("uncertified plan took the fast path (CertifiedPlans = %d)", got)
	}
}

// TestExecuteOnPrevalidates verifies the batching contract: a plan that
// fails mid-way (an out-of-order program after valid ops) must be rejected
// before anything claims, mutates or schedules — no events queued, no
// counters moved, no block state touched.
func TestExecuteOnPrevalidates(t *testing.T) {
	f, tr, fl := newStack(t, true)
	e := sim.NewEngine()
	doms := chDomsFor(t, e, fl)

	// A handcrafted plan: one valid write, then an out-of-order program.
	plan, err := tr.Write(0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := plan
	bad.Ops = append(append([]ftl.Op{}, plan.Ops...), ftl.Op{
		Kind: ftl.OpWrite,
		Loc:  ftl.PageLoc{SB: plan.Ops[0].Loc.SB, Page: 3, Plane: plan.Ops[0].Loc.Plane, Sub: 0},
		LSPN: 1,
	})
	if _, err := f.ExecuteOn(e, doms, 0, bad, PlanData{}); err == nil {
		t.Fatal("mid-plan invalid program accepted")
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events queued by a rejected plan", e.Pending())
	}
	if s := fl.Stats(); s != (nand.Stats{}) {
		t.Fatalf("flash counters moved: %+v", s)
	}
	if s := f.Stats(); s != (Stats{}) {
		t.Fatalf("fil counters moved: %+v", s)
	}
	// The valid prefix must not have transitioned any block state either.
	for _, op := range plan.Ops {
		if op.Kind == ftl.OpWrite && fl.PageWritten(tr.Address(op.Loc)) {
			t.Fatalf("rejected plan programmed %v", op.Loc)
		}
	}
	// The same plan without the poison op still executes.
	if _, err := f.ExecuteOn(e, doms, 0, plan, PlanData{}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if f.Stats().Programs == 0 {
		t.Fatal("valid plan did not execute")
	}
}

// TestStatsSingleCountAcrossPaths is the double-count regression for mixed
// traffic: a stack mixing deferred plan execution with raw (OCSSD-style)
// synchronous page operations on the flash underneath must count every
// transaction exactly once, matching a serial reference that runs the same
// sequence through the synchronous paths.
func TestStatsSingleCountAcrossPaths(t *testing.T) {
	fDef, trDef, flDef := newStack(t, true)
	fRef, trRef, flRef := newStack(t, true)
	e := sim.NewEngine()
	doms := chDomsFor(t, e, flDef)

	dirty := []bool{true, true, true, true}
	payload := make([]byte, 4*512)
	for i := range payload {
		payload[i] = byte(i)
	}
	for lspn := int64(0); lspn < 3; lspn++ {
		planD, err := trDef.Write(0, lspn, dirty)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fDef.ExecuteOn(e, doms, 0, planD, HostData(lspn, dirty, payload, 512)); err != nil {
			t.Fatal(err)
		}
		planR, err := trRef.Write(0, lspn, dirty)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fRef.ExecuteOn(nil, nil, 0, planR, HostData(lspn, dirty, payload, 512)); err != nil {
			t.Fatal(err)
		}
	}

	// Raw OCSSD traffic on a block with in-order program room (both stacks
	// ran identical plans, so one scan serves both), same sequence each.
	g := flDef.Geometry()
	raw := nand.Address{Channel: 1}
	for raw.Block = 0; raw.Block < g.BlocksPerPlane; raw.Block++ {
		if next := flDef.NextProgramPage(raw); next < g.PagesPerBlock {
			raw.Page = next
			break
		}
	}
	if raw.Block == g.BlocksPerPlane {
		t.Fatal("no block with program room")
	}
	for _, f := range []*FIL{fDef, fRef} {
		at := sim.FromMicroseconds(500000)
		if err := rawOp(f.flash, ftl.OpWrite, at, raw, payload[:512]); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 512)
		if err := rawOp(f.flash, ftl.OpRead, at+sim.FromMicroseconds(5000), raw, got); err != nil {
			t.Fatal(err)
		}
		if err := rawOp(f.flash, ftl.OpErase, at+sim.FromMicroseconds(10000), raw, nil); err != nil {
			t.Fatal(err)
		}
	}

	if fDef.Stats() != fRef.Stats() {
		t.Fatalf("fil stats diverged: mixed %+v reference %+v", fDef.Stats(), fRef.Stats())
	}
	if flDef.Stats() != flRef.Stats() {
		t.Fatalf("flash stats diverged: mixed %+v reference %+v", flDef.Stats(), flRef.Stats())
	}
	if got, want := flDef.Stats().Programs, uint64(3*4+1); got != want {
		t.Fatalf("Programs = %d, want %d (12 plan + 1 raw, each exactly once)", got, want)
	}
}

func TestRawOCSSDPath(t *testing.T) {
	f, _, _ := newStack(t, true)
	addr := nand.Address{Channel: 1, Page: 0}
	data := make([]byte, 512)
	data[7] = 0x77
	if err := rawOp(f.flash, ftl.OpWrite, 0, addr, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 512)
	if err := rawOp(f.flash, ftl.OpRead, sim.FromMicroseconds(5000), addr, got); err != nil {
		t.Fatal(err)
	}
	if got[7] != 0x77 {
		t.Fatal("raw path lost data")
	}
	if err := rawOp(f.flash, ftl.OpErase, sim.FromMicroseconds(9000), addr, nil); err != nil {
		t.Fatal(err)
	}
	if err := rawOp(f.flash, ftl.OpRead, sim.FromMicroseconds(13000), addr, got); err == nil {
		t.Fatal("read after erase should fail")
	}
}

func TestHostDataHelper(t *testing.T) {
	buf := make([]byte, 4*512)
	buf[512] = 0xEE
	d := HostData(3, []bool{false, true, false, false}, buf, 512)
	p, ok := d.Bytes(Key(3, 1))
	if !ok || p == nil || p[0] != 0xEE {
		t.Fatal("payload slice wrong")
	}
	if _, ok := d.Bytes(Key(3, 0)); ok {
		t.Fatal("clean sub reported as covered")
	}
	if _, ok := d.Bytes(Key(4, 1)); ok {
		t.Fatal("foreign LSPN reported as covered")
	}
	// Nil data gives nil payloads but still covers dirty subs.
	d2 := HostData(3, []bool{true, true, false, false}, nil, 512)
	p2, ok := d2.Bytes(Key(3, 0))
	if !ok || p2 != nil {
		t.Fatal("nil-data coverage wrong")
	}
	// The zero value covers nothing.
	if _, ok := (PlanData{}).Bytes(Key(0, 0)); ok {
		t.Fatal("zero PlanData covered a key")
	}
}

// newFaultStack is newStack with deterministic fault injection armed on the
// flash and a spare-block reserve on the FTL.
func newFaultStack(t *testing.T, faults nand.FaultConfig) (*FIL, *ftl.FTL, *nand.Flash) {
	t.Helper()
	g := nand.Geometry{
		Channels: 2, PackagesPerChannel: 1, DiesPerPackage: 1, PlanesPerDie: 2,
		BlocksPerPlane: 8, PagesPerBlock: 4, PageSize: 512,
	}
	fl, err := nand.New(g, testTiming, nand.Power{}, nand.MLC, nand.Options{TrackData: true, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ftl.New(ftl.Config{
		Geometry: g, OPRatio: 0.25, PartialUpdate: true,
		SpareBlocks: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(fl, tr.Address)
	if err != nil {
		t.Fatal(err)
	}
	return f, tr, fl
}

// TestCertifiedChainFaultDisarm proves the certified fast path and fault
// injection compose safely: an injected program failure mid-plan surfaces
// as *PlanFault, disarms the certified chain (so every later plan —
// including the recovery plan and fresh certified plans — takes the
// walking slow path), and only an explicit AcceptCertified after clean
// recovery re-arms the fast path.
func TestCertifiedChainFaultDisarm(t *testing.T) {
	f, tr, fl := newFaultStack(t, nand.FaultConfig{Seed: 5, ProgramFailProb: 0.02})
	if err := f.AcceptCertified(tr); err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	doms := chDomsFor(t, e, fl)
	dirty := []bool{true, true, true, true}
	payload := make([]byte, 4*512)
	for i := range payload {
		payload[i] = byte(i * 7)
	}

	// Overwrite the volume until a plan draws a program fault. Every clean
	// plan before it must ride the certified fast path.
	var (
		pf        *PlanFault
		faulty    ftl.Plan
		faultLSPN int64
		now       sim.Time
	)
	user := tr.UserSuperPages()
	for i := 0; i < 10000; i++ {
		lspn := int64(i) % user
		plan, err := tr.Write(now, lspn, dirty)
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Cert.By(tr) {
			t.Fatalf("write %d: plan not certified", i)
		}
		certBefore := f.Stats().CertifiedPlans
		_, err = f.ExecuteOn(e, doms, now, plan, HostData(lspn, dirty, payload, 512))
		e.Run()
		if err == nil {
			if got := f.Stats().CertifiedPlans; got != certBefore+1 {
				t.Fatalf("write %d: clean certified plan walked (CertifiedPlans %d -> %d)", i, certBefore, got)
			}
			now += sim.FromMicroseconds(5000)
			continue
		}
		if !errors.As(err, &pf) {
			t.Fatalf("write %d: non-fault error: %v", i, err)
		}
		// The plan's ops live in the FTL's scratch buffer; recovery below
		// must see them as the fault left them.
		faulty = plan
		faultLSPN = lspn
		break
	}
	if pf == nil {
		t.Fatal("no program fault drawn in 10000 writes; raise ProgramFailProb")
	}
	if !errors.Is(pf.Err, nand.ErrProgramFail) {
		t.Fatalf("fault cause = %v, want ErrProgramFail", pf.Err)
	}
	if pf.Executed < 0 || pf.Executed >= len(faulty.Ops) {
		t.Fatalf("Executed %d outside plan of %d ops", pf.Executed, len(faulty.Ops))
	}
	if got := f.Stats().PlanFaults; got != 1 {
		t.Fatalf("PlanFaults = %d, want 1", got)
	}

	// Recovery: the FTL retires the bad block and re-places the stranded
	// suffix into an uncertified plan — which must walk.
	certAtFault := f.Stats().CertifiedPlans
	rplan, err := tr.RecoverPlanFault(now, faulty, pf.Executed, pf.Err)
	if err != nil {
		t.Fatal(err)
	}
	if rplan.Cert.By(tr) {
		t.Fatal("recovery plan carries a certificate")
	}
	if _, err := f.ExecuteOn(e, doms, now, rplan, HostData(faultLSPN, dirty, payload, 512)); err != nil {
		t.Fatalf("recovery plan rejected: %v", err)
	}
	e.Run()
	if tr.Stats().Retirements == 0 {
		t.Fatal("program fault retired no block")
	}

	// The chain is still disarmed: a fresh, validly-certified plan walks.
	now += sim.FromMicroseconds(5000)
	plan, err := tr.Write(now, 0, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Cert.By(tr) {
		t.Fatal("post-recovery plan not certified")
	}
	if _, err := f.ExecuteOn(e, doms, now, plan, HostData(0, dirty, payload, 512)); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if got := f.Stats().CertifiedPlans; got != certAtFault {
		t.Fatalf("disarmed chain took the fast path (CertifiedPlans %d -> %d)", certAtFault, got)
	}

	// AcceptCertified re-arms: the next certified plan rides fast again.
	if err := f.AcceptCertified(tr); err != nil {
		t.Fatal(err)
	}
	now += sim.FromMicroseconds(5000)
	plan, err = tr.Write(now, 1, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ExecuteOn(e, doms, now, plan, HostData(1, dirty, payload, 512)); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if got := f.Stats().CertifiedPlans; got != certAtFault+1 {
		t.Fatalf("re-armed chain did not take the fast path (CertifiedPlans %d -> %d)", certAtFault, got)
	}
}

// TestSBSlotCacheFindsTheSlot walks sbSlot through random super-block
// sequences — long alternations between two, as a migration makes them, and
// jumps among many — across plan boundaries that empty the table under the
// two cached indices: the slot returned is always the one for the
// super-block asked for, and still holds what was last stored in it.
func TestSBSlotCacheFindsTheSlot(t *testing.T) {
	f := &FIL{}
	rng := sim.NewRNG(5)
	var stored map[int]sim.Time
	for step := 0; step < 20000; step++ {
		if step%500 == 0 {
			f.sbTimes = f.sbTimes[:0] // a new plan; the cache is left as it is
			stored = make(map[int]sim.Time)
		}
		sb := rng.Intn(2)
		if rng.Intn(4) == 0 {
			sb = rng.Intn(9)
		}
		slot := f.sbSlot(sb)
		if slot.sb != sb || slot.touched != stored[sb] {
			t.Fatalf("step %d: sbSlot(%d) = %+v, last stored %d", step, sb, *slot, stored[sb])
		}
		slot.touched = sim.Time(step + 1)
		stored[sb] = slot.touched
	}
	if len(f.sbTimes) > 9 {
		t.Fatalf("%d slots for 9 super-blocks", len(f.sbTimes))
	}
}
