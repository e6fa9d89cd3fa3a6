package fil

import (
	"bytes"
	"errors"
	"testing"

	"amber/internal/ftl"
	"amber/internal/nand"
	"amber/internal/sim"
)

// certStack is newStack plus the read-certificate wiring core.NewSystem
// does: the FTL stamps lookups with the flash epoch and the FIL honors the
// write-side chain.
func certStack(t *testing.T, trackData bool) (*FIL, *ftl.FTL, *nand.Flash) {
	t.Helper()
	f, tr, fl := newStack(t, trackData)
	tr.SetEpochSource(fl.StateEpoch)
	if err := f.AcceptCertified(tr); err != nil {
		t.Fatal(err)
	}
	return f, tr, fl
}

// writeSuper writes every sub of lspn through a certified plan on the
// deferred path and returns the payload.
func writeSuper(t *testing.T, f *FIL, tr *ftl.FTL, e *sim.Engine, doms []sim.DomainID, now sim.Time, lspn int64) []byte {
	t.Helper()
	payload := make([]byte, 4*512)
	for i := range payload {
		payload[i] = byte(int64(i)*5 + lspn*11)
	}
	dirty := []bool{true, true, true, true}
	plan, err := tr.Write(now, lspn, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ExecuteOn(e, doms, now, plan, HostData(lspn, dirty, payload, 512)); err != nil {
		t.Fatal(err)
	}
	e.Run()
	return payload
}

// readStaged reads lspn's mapped subs through ReadSubsStaged with the
// lookup's certificate and returns the delivered bytes.
func readStaged(t *testing.T, f *FIL, tr *ftl.FTL, e *sim.Engine, doms []sim.DomainID, now sim.Time, lspn int64) []byte {
	t.Helper()
	locs, cert, err := tr.LookupCertified(nil, lspn)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4*512)
	dsts := make([][]byte, len(locs))
	for i, l := range locs {
		dsts[i] = got[l.Sub*512 : (l.Sub+1)*512]
	}
	if _, err := f.ReadSubsStaged(e, doms, now, locs, dsts, cert); err != nil {
		t.Fatal(err)
	}
	e.Run()
	return got
}

// TestReadCertFastPath proves the steady-state contract: while the chain is
// armed, a certified lookup's reads skip the validation walk (counted by
// CertifiedReads), deliver the same bytes, and a later lookup re-certifies.
func TestReadCertFastPath(t *testing.T) {
	f, tr, fl := certStack(t, true)
	e := sim.NewEngine()
	doms := chDomsFor(t, e, fl)
	payload := writeSuper(t, f, tr, e, doms, 0, 9)

	got := readStaged(t, f, tr, e, doms, sim.FromMicroseconds(10000), 9)
	if !bytes.Equal(got, payload) {
		t.Fatal("certified read-back bytes differ")
	}
	if got := f.Stats().CertifiedReads; got != 4 {
		t.Fatalf("CertifiedReads = %d, want 4", got)
	}
	if got := f.Stats().CertDisarms; got != 0 {
		t.Fatalf("CertDisarms = %d, want 0", got)
	}
	// The zero certificate (hand-built address lists) always walks.
	locs, _, err := tr.LookupCertified(nil, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadSubsStaged(e, doms, sim.FromMicroseconds(20000), locs, nil, ftl.ReadCert{}); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if got := f.Stats().CertifiedReads; got != 4 {
		t.Fatalf("uncertified read took the fast path: CertifiedReads = %d", got)
	}
}

// TestReadCertStaleWalks proves a certificate that predates the chain's
// current position walks without breaking the chain: the model is still
// trusted, so the next fresh lookup fast-paths again.
func TestReadCertStaleWalks(t *testing.T) {
	f, tr, fl := certStack(t, true)
	e := sim.NewEngine()
	doms := chDomsFor(t, e, fl)
	writeSuper(t, f, tr, e, doms, 0, 3)

	locs, stale, err := tr.LookupCertified(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Another certified plan moves the epoch past the stale certificate.
	writeSuper(t, f, tr, e, doms, sim.FromMicroseconds(5000), 4)

	if _, err := f.ReadSubsStaged(e, doms, sim.FromMicroseconds(10000), locs, nil, stale); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if got := f.Stats().CertifiedReads; got != 0 {
		t.Fatalf("stale certificate fast-pathed: CertifiedReads = %d", got)
	}
	if got := f.Stats().CertDisarms; got != 0 {
		t.Fatalf("stale certificate disarmed the chain: CertDisarms = %d", got)
	}
	// A fresh lookup is honored — the chain never broke.
	readStaged(t, f, tr, e, doms, sim.FromMicroseconds(20000), 3)
	if got := f.Stats().CertifiedReads; got != 4 {
		t.Fatalf("fresh certificate did not fast-path: CertifiedReads = %d", got)
	}
}

// TestReadCertRawOpDisarm proves a raw OCSSD program — the flash mutating
// outside the certified chain — disarms the read certificate exactly like
// the write side: the next certified read detects the foreign epoch, breaks
// the binding, and walks until AcceptCertified re-arms it.
func TestReadCertRawOpDisarm(t *testing.T) {
	f, tr, fl := certStack(t, true)
	e := sim.NewEngine()
	doms := chDomsFor(t, e, fl)
	payload := writeSuper(t, f, tr, e, doms, 0, 2)

	// Raw traffic into a block the FTL doesn't manage.
	rawLoc := ftl.PageLoc{SB: 7, Page: 0, Plane: 0, Sub: 0}
	rawAddr := tr.Address(rawLoc)
	rawAddr.Page = fl.NextProgramPage(rawAddr)
	if _, err := f.flash.Program(sim.FromMicroseconds(5000), rawAddr, payload[:512]); err != nil {
		t.Fatal(err)
	}

	got := readStaged(t, f, tr, e, doms, sim.FromMicroseconds(10000), 2)
	if !bytes.Equal(got, payload) {
		t.Fatal("walked read-back bytes differ")
	}
	if got := f.Stats().CertifiedReads; got != 0 {
		t.Fatalf("read after raw op fast-pathed: CertifiedReads = %d", got)
	}
	if got := f.Stats().CertDisarms; got != 1 {
		t.Fatalf("CertDisarms = %d, want 1", got)
	}
	// Repeat reads keep walking — the break is latched, not re-drawn.
	readStaged(t, f, tr, e, doms, sim.FromMicroseconds(20000), 2)
	if got := f.Stats().CertifiedReads; got != 0 {
		t.Fatalf("read while disarmed fast-pathed: CertifiedReads = %d", got)
	}
	// AcceptCertified re-asserts lockstep; the fast path resumes.
	if err := f.AcceptCertified(tr); err != nil {
		t.Fatal(err)
	}
	readStaged(t, f, tr, e, doms, sim.FromMicroseconds(30000), 2)
	if got := f.Stats().CertifiedReads; got != 4 {
		t.Fatalf("re-armed read did not fast-path: CertifiedReads = %d", got)
	}
}

// TestReadCertPowerLossDisarm proves the cut drops the binding: reads walk
// after PowerLoss until AcceptCertified re-arms against a recovered FTL.
func TestReadCertPowerLossDisarm(t *testing.T) {
	f, tr, fl := certStack(t, true)
	e := sim.NewEngine()
	doms := chDomsFor(t, e, fl)
	writeSuper(t, f, tr, e, doms, 0, 5)

	f.PowerLoss()
	if got := f.Stats().CertDisarms; got != 1 {
		t.Fatalf("CertDisarms = %d, want 1", got)
	}
	readStaged(t, f, tr, e, doms, sim.FromMicroseconds(10000), 5)
	if got := f.Stats().CertifiedReads; got != 0 {
		t.Fatalf("read after power loss fast-pathed: CertifiedReads = %d", got)
	}
	if err := f.AcceptCertified(tr); err != nil {
		t.Fatal(err)
	}
	readStaged(t, f, tr, e, doms, sim.FromMicroseconds(20000), 5)
	if got := f.Stats().CertifiedReads; got != 4 {
		t.Fatalf("re-armed read did not fast-path: CertifiedReads = %d", got)
	}
}

// TestReadCertInjectedReadFaultsWalk proves armed read-fault draws suppress
// the fast path: the retry ladder runs per read and affects die occupancy,
// so a certified read must still walk — and the chain stays armed while it
// does.
func TestReadCertInjectedReadFaultsWalk(t *testing.T) {
	f, tr, fl := newFaultStack(t, nand.FaultConfig{Seed: 3, ReadFailProb: 0.01})
	tr.SetEpochSource(fl.StateEpoch)
	if err := f.AcceptCertified(tr); err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	doms := chDomsFor(t, e, fl)
	payload := writeSuper(t, f, tr, e, doms, 0, 1)

	got := readStaged(t, f, tr, e, doms, sim.FromMicroseconds(10000), 1)
	if !bytes.Equal(got, payload) {
		t.Fatal("read-back bytes differ under read faults")
	}
	if got := f.Stats().CertifiedReads; got != 0 {
		t.Fatalf("read with fault draws armed fast-pathed: CertifiedReads = %d", got)
	}
	if got := f.Stats().CertDisarms; got != 0 {
		t.Fatalf("read-fault walk disarmed the chain: CertDisarms = %d", got)
	}
}

// TestReadCertProgramFaultDisarm proves an injected program fault
// (*PlanFault) disarms the read side along with the write side: reads walk
// from the fault until recovery re-arms the chain.
func TestReadCertProgramFaultDisarm(t *testing.T) {
	f, tr, fl := newFaultStack(t, nand.FaultConfig{Seed: 5, ProgramFailProb: 0.02})
	tr.SetEpochSource(fl.StateEpoch)
	if err := f.AcceptCertified(tr); err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	doms := chDomsFor(t, e, fl)

	payload := make([]byte, 4*512)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	dirty := []bool{true, true, true, true}
	var (
		pf        *PlanFault
		faulty    ftl.Plan
		faultLSPN int64
		otherLSPN int64 = -1 // last lspn written cleanly before the fault
	)
	now := sim.Time(0)
	for i := 0; pf == nil && i < 10000; i++ {
		lspn := int64(i % 8)
		plan, err := tr.Write(now, lspn, dirty)
		if err != nil {
			t.Fatal(err)
		}
		_, err = f.ExecuteOn(e, doms, now, plan, HostData(lspn, dirty, payload, 512))
		now += sim.FromMicroseconds(3000)
		if err == nil {
			otherLSPN = lspn
			continue
		}
		if !errors.As(err, &pf) {
			t.Fatalf("write %d: non-fault error: %v", i, err)
		}
		faulty = plan
		faultLSPN = lspn
	}
	if pf == nil {
		t.Fatal("no program fault drawn in 10000 writes; raise ProgramFailProb")
	}
	if otherLSPN < 0 {
		t.Fatal("fault on the very first write; no intact super-page to read")
	}
	e.Run()
	disarmsAtFault := f.Stats().CertDisarms
	if disarmsAtFault == 0 {
		t.Fatal("plan fault did not count a disarm")
	}

	// Reads of an intact, earlier super-page walk while disarmed.
	readStaged(t, f, tr, e, doms, now, otherLSPN)
	if got := f.Stats().CertifiedReads; got != 0 {
		t.Fatalf("read after plan fault fast-pathed: CertifiedReads = %d", got)
	}

	// Recover, re-arm, and the read fast path resumes with the chain.
	rplan, err := tr.RecoverPlanFault(now, faulty, pf.Executed, pf.Err)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ExecuteOn(e, doms, now, rplan, HostData(faultLSPN, dirty, payload, 512)); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if err := f.AcceptCertified(tr); err != nil {
		t.Fatal(err)
	}
	readStaged(t, f, tr, e, doms, now+sim.FromMicroseconds(10000), otherLSPN)
	if got := f.Stats().CertifiedReads; got != 4 {
		t.Fatalf("re-armed read did not fast-path: CertifiedReads = %d", got)
	}
}

// TestReadCertDisarmedMidBatchNoMutation proves the error contract survives
// the certificate plumbing: with the chain disarmed, a batch whose last
// address is invalid walks, fails up front, queues no completion events,
// writes no dst byte and moves no counter.
func TestReadCertDisarmedMidBatchNoMutation(t *testing.T) {
	f, tr, fl := certStack(t, true)
	e := sim.NewEngine()
	doms := chDomsFor(t, e, fl)
	writeSuper(t, f, tr, e, doms, 0, 6)

	locs, cert, err := tr.LookupCertified(nil, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.AcceptCertified(nil); err != nil {
		t.Fatal(err)
	}
	if got := f.Stats().CertDisarms; got != 1 {
		t.Fatalf("CertDisarms = %d, want 1", got)
	}
	// An unwritten page at the end of the batch: the walk must catch it
	// before any earlier read issues.
	locs = append(locs, ftl.PageLoc{SB: 7, Page: 3, Plane: 0, Sub: 0})
	got := make([]byte, 4*512)
	dsts := make([][]byte, len(locs))
	for i, l := range locs[:len(locs)-1] {
		dsts[i] = got[l.Sub*512 : (l.Sub+1)*512]
	}
	dsts[len(locs)-1] = make([]byte, 512)
	statsBefore, flashBefore := f.Stats(), fl.Stats()
	if _, err := f.ReadSubsStaged(e, doms, sim.FromMicroseconds(10000), locs, dsts, cert); err == nil {
		t.Fatal("batch with unwritten page accepted")
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events queued by a rejected batch", e.Pending())
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("dst byte %d written by a rejected batch", i)
		}
	}
	if got := f.Stats(); got != statsBefore {
		t.Fatalf("fil counters moved on rejection: %+v -> %+v", statsBefore, got)
	}
	if got := fl.Stats(); got != flashBefore {
		t.Fatalf("flash counters moved on rejection: %+v -> %+v", flashBefore, got)
	}
}
