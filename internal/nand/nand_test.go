package nand

import (
	"bytes"
	"testing"
	"testing/quick"

	"amber/internal/sim"
)

func testGeometry() Geometry {
	return Geometry{
		Channels:           4,
		PackagesPerChannel: 2,
		DiesPerPackage:     1,
		PlanesPerDie:       2,
		BlocksPerPlane:     8,
		PagesPerBlock:      16,
		PageSize:           4096,
	}
}

func testTiming() Timing {
	return Timing{
		ReadFast:  sim.FromMicroseconds(60),
		ReadSlow:  sim.FromMicroseconds(105),
		ProgFast:  sim.FromMicroseconds(820),
		ProgSlow:  sim.FromMicroseconds(2250),
		Erase:     sim.FromMicroseconds(3000),
		BusMTps:   333,
		CmdCycles: sim.FromNanoseconds(100),
	}
}

func newTestFlash(t *testing.T, opt Options) *Flash {
	t.Helper()
	f, err := New(testGeometry(), testTiming(), Power{
		ReadEnergyJ:        50e-9,
		ProgEnergyJ:        400e-9,
		EraseEnergyJ:       1500e-9,
		XferEnergyJPerByte: 1e-12,
		LeakageWPerDie:     1e-3,
	}, MLC, opt)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// The single-op helpers issue one transaction the way fil's walked plans
// do: the structural check, then the transaction on an engine-less plan
// (an erase is committed at claim), then Commit.

func readPage(f *Flash, now sim.Time, addr Address, dst []byte) (Result, error) {
	if err := f.CheckRead(&addr); err != nil {
		return Result{}, err
	}
	b := f.BeginPlan(nil, nil)
	defer b.Commit()
	return b.ReadAddr(now, &addr, dst)
}

func programPage(f *Flash, now sim.Time, addr Address, data []byte) (Result, error) {
	return programTagged(f, now, addr, data, -1)
}

func programTagged(f *Flash, now sim.Time, addr Address, data []byte, tag int64) (Result, error) {
	if err := f.CheckProgram(&addr); err != nil {
		return Result{}, err
	}
	b := f.BeginPlan(nil, nil)
	defer b.Commit()
	return b.ProgramAddr(now, &addr, data, false, tag)
}

func eraseBlock(f *Flash, now sim.Time, addr Address) (Result, error) {
	b := f.BeginPlan(nil, nil)
	defer b.Commit()
	return b.Erase(now, addr)
}

// addressOfBlock is the inverse of BlockIndex with Page zero.
func addressOfBlock(g Geometry, blockIndex int) Address {
	a := Address{Block: blockIndex % g.BlocksPerPlane}
	rest := blockIndex / g.BlocksPerPlane
	a.Plane = rest % g.PlanesPerDie
	rest /= g.PlanesPerDie
	a.Die = rest % g.DiesPerPackage
	rest /= g.DiesPerPackage
	a.Package = rest % g.PackagesPerChannel
	a.Channel = rest / g.PackagesPerChannel
	return a
}

// addressOfPage is the inverse of PageIndex.
func addressOfPage(g Geometry, pageIndex int64) Address {
	a := addressOfBlock(g, int(pageIndex/int64(g.PagesPerBlock)))
	a.Page = int(pageIndex % int64(g.PagesPerBlock))
	return a
}

func TestGeometryValidate(t *testing.T) {
	g := testGeometry()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g.Channels = 0
	if err := g.Validate(); err == nil {
		t.Fatal("zero channels should fail validation")
	}
}

func TestGeometryCounts(t *testing.T) {
	g := testGeometry()
	if got := g.TotalDies(); got != 8 {
		t.Fatalf("TotalDies = %d, want 8", got)
	}
	if got := g.TotalPlanes(); got != 16 {
		t.Fatalf("TotalPlanes = %d, want 16", got)
	}
	if got := g.TotalBlocks(); got != 128 {
		t.Fatalf("TotalBlocks = %d, want 128", got)
	}
	if got := g.TotalPages(); got != 2048 {
		t.Fatalf("TotalPages = %d, want 2048", got)
	}
}

func TestAddressRoundTrip(t *testing.T) {
	g := testGeometry()
	f := func(block uint16, page uint8) bool {
		bi := int(block) % g.TotalBlocks()
		pi := int64(bi)*int64(g.PagesPerBlock) + int64(int(page)%g.PagesPerBlock)
		a := addressOfPage(g, pi)
		if err := g.CheckAddress(a); err != nil {
			return false
		}
		return g.PageIndex(a) == pi && g.BlockIndex(addressOfBlock(g, bi)) == bi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckAddressBounds(t *testing.T) {
	g := testGeometry()
	bad := []Address{
		{Channel: 4}, {Package: 2}, {Die: 1}, {Plane: 2},
		{Block: 8}, {Page: 16}, {Channel: -1},
	}
	for _, a := range bad {
		if err := g.CheckAddress(a); err == nil {
			t.Errorf("address %v should be rejected", a)
		}
	}
	if err := g.CheckAddress(Address{Channel: 3, Package: 1, Plane: 1, Block: 7, Page: 15}); err != nil {
		t.Errorf("valid address rejected: %v", err)
	}
}

func TestEraseBeforeWrite(t *testing.T) {
	f := newTestFlash(t, Options{})
	addr := Address{Page: 0}
	if _, err := programPage(f, 0, addr, nil); err != nil {
		t.Fatalf("first program failed: %v", err)
	}
	if _, err := programPage(f, 0, addr, nil); err == nil {
		t.Fatal("overwrite without erase must fail")
	}
	if _, err := eraseBlock(f, 0, addr); err != nil {
		t.Fatalf("erase failed: %v", err)
	}
	if _, err := programPage(f, 0, addr, nil); err != nil {
		t.Fatalf("program after erase failed: %v", err)
	}
}

func TestInOrderProgramEnforced(t *testing.T) {
	f := newTestFlash(t, Options{})
	if _, err := programPage(f, 0, Address{Page: 3}, nil); err == nil {
		t.Fatal("out-of-order program (page 3 first) must fail")
	}
	for p := 0; p < 4; p++ {
		if _, err := programPage(f, 0, Address{Page: p}, nil); err != nil {
			t.Fatalf("in-order program of page %d failed: %v", p, err)
		}
	}
	if _, err := programPage(f, 0, Address{Page: 6}, nil); err == nil {
		t.Fatal("skipping page 4 must fail")
	}
}

func TestReadUnwrittenFails(t *testing.T) {
	f := newTestFlash(t, Options{})
	if _, err := readPage(f, 0, Address{Page: 0}, nil); err == nil {
		t.Fatal("read of unwritten page must fail")
	}
}

func TestDataIntegrity(t *testing.T) {
	f := newTestFlash(t, Options{TrackData: true})
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	addr := Address{Channel: 1, Block: 2}
	if _, err := programPage(f, 0, addr, payload); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if _, err := readPage(f, 0, addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read-back bytes differ from programmed bytes")
	}
	// Erase clears content.
	if _, err := eraseBlock(f, 0, addr); err != nil {
		t.Fatal(err)
	}
	if f.PageWritten(addr) {
		t.Fatal("page still marked written after erase")
	}
}

func TestProgramCopiesPayload(t *testing.T) {
	f := newTestFlash(t, Options{TrackData: true})
	payload := make([]byte, 4096)
	payload[0] = 0xAA
	addr := Address{}
	if _, err := programPage(f, 0, addr, payload); err != nil {
		t.Fatal(err)
	}
	payload[0] = 0xBB // mutate caller buffer after program
	got := make([]byte, 4096)
	if _, err := readPage(f, 0, addr, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAA {
		t.Fatal("flash must store a copy of the programmed data")
	}
}

func TestReadTimingComposition(t *testing.T) {
	f := newTestFlash(t, Options{})
	tm := testTiming()
	if _, err := programPage(f, 0, Address{Page: 0}, nil); err != nil {
		t.Fatal(err)
	}
	// Use a quiet moment well after the program completes.
	start := sim.FromMicroseconds(10000)
	res, err := readPage(f, start, Address{Page: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantReady := start + tm.CmdCycles + tm.ReadFast // page 0 is the fast class
	if res.Ready != wantReady {
		t.Fatalf("Ready = %v, want %v", res.Ready, wantReady)
	}
	wantDone := wantReady + tm.XferTime(4096)
	if res.Done != wantDone {
		t.Fatalf("Done = %v, want %v", res.Done, wantDone)
	}
}

func TestMLCPageClassLatencies(t *testing.T) {
	f := newTestFlash(t, Options{})
	tm := testTiming()
	// Page 0 (LSB, fast) vs page 1 (MSB, slow).
	if got := f.readLatency(0); got != tm.ReadFast {
		t.Fatalf("page 0 tR = %v, want %v", got, tm.ReadFast)
	}
	if got := f.readLatency(1); got != tm.ReadSlow {
		t.Fatalf("page 1 tR = %v, want %v", got, tm.ReadSlow)
	}
	if got := f.progLatency(0); got != tm.ProgFast {
		t.Fatalf("page 0 tPROG = %v, want %v", got, tm.ProgFast)
	}
	if got := f.progLatency(1); got != tm.ProgSlow {
		t.Fatalf("page 1 tPROG = %v, want %v", got, tm.ProgSlow)
	}
}

func TestTLCThreeClasses(t *testing.T) {
	f, err := New(testGeometry(), testTiming(), Power{}, TLC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tm := testTiming()
	l0, l1, l2 := f.readLatency(0), f.readLatency(1), f.readLatency(2)
	if l0 != tm.ReadFast || l2 != tm.ReadSlow {
		t.Fatalf("TLC extremes wrong: %v %v", l0, l2)
	}
	if !(l0 < l1 && l1 < l2) {
		t.Fatalf("TLC classes not ordered: %v %v %v", l0, l1, l2)
	}
	if f.readLatency(3) != l0 {
		t.Fatal("classes should repeat every 3 pages")
	}
}

func TestISPPJitterBounded(t *testing.T) {
	tm := testTiming()
	tm.ISPPJitter = 0.1
	f, err := New(testGeometry(), tm, Power{}, MLC, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lo := sim.FromSeconds(tm.ProgFast.Seconds() * 0.9)
	hi := sim.FromSeconds(tm.ProgFast.Seconds() * 1.1)
	varied := false
	first := f.progLatency(0)
	for i := 0; i < 100; i++ {
		l := f.progLatency(0)
		if l < lo || l > hi {
			t.Fatalf("jittered tPROG %v outside [%v,%v]", l, lo, hi)
		}
		if l != first {
			varied = true
		}
	}
	if !varied {
		t.Fatal("ISPP jitter produced constant latencies")
	}
}

func TestChannelContentionSerializes(t *testing.T) {
	f := newTestFlash(t, Options{})
	// Two programs to different dies on the SAME channel: data transfers
	// must serialize on the bus.
	a1 := Address{Channel: 0, Package: 0, Page: 0}
	a2 := Address{Channel: 0, Package: 1, Page: 0}
	r1, err := programPage(f, 0, a1, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := programPage(f, 0, a2, nil)
	if err != nil {
		t.Fatal(err)
	}
	tm := testTiming()
	xfer := tm.CmdCycles + tm.XferTime(4096)
	if r2.Start != sim.Time(xfer) {
		t.Fatalf("second transfer should start after first bus occupancy: start=%v want=%v", r2.Start, xfer)
	}
	// But the array programs overlap: both Ready well before 2*tPROG.
	if r2.Ready >= r1.Ready+tm.ProgFast {
		t.Fatal("programs on different dies should overlap")
	}
}

func TestDifferentChannelsParallel(t *testing.T) {
	f := newTestFlash(t, Options{})
	r1, err := programPage(f, 0, Address{Channel: 0, Page: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := programPage(f, 0, Address{Channel: 1, Page: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Start != r2.Start {
		t.Fatalf("different channels should start together: %v vs %v", r1.Start, r2.Start)
	}
}

func TestDieContentionSerializesArrayOps(t *testing.T) {
	f := newTestFlash(t, Options{})
	a1 := Address{Page: 0}
	a2 := Address{Page: 1}
	r1, err := programPage(f, 0, a1, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := programPage(f, 0, a2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Ready < r1.Ready {
		t.Fatal("same-die programs cannot complete out of order")
	}
	tm := testTiming()
	if r2.Ready-r1.Ready < tm.ProgSlow {
		t.Fatalf("second program should wait for the die: gap %v", r2.Ready-r1.Ready)
	}
}

func TestEraseResetsWear(t *testing.T) {
	f := newTestFlash(t, Options{})
	addr := Address{Block: 3}
	for i := 0; i < 5; i++ {
		if _, err := eraseBlock(f, 0, addr); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.EraseCount(addr); got != 5 {
		t.Fatalf("EraseCount = %d, want 5", got)
	}
	if got := f.EraseCount(Address{Block: 2}); got != 0 {
		t.Fatalf("untouched block's EraseCount = %d, want 0", got)
	}
}

func TestStatsAndEnergy(t *testing.T) {
	f := newTestFlash(t, Options{})
	if _, err := programPage(f, 0, Address{Page: 0}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := readPage(f, sim.FromMicroseconds(5000), Address{Page: 0}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := eraseBlock(f, sim.FromMicroseconds(9000), Address{}); err != nil {
		t.Fatal(err)
	}
	s := f.Stats()
	if s.Reads != 1 || s.Programs != 1 || s.Erases != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.BytesRead != 4096 || s.BytesWritten != 4096 {
		t.Fatalf("bytes = %+v", s)
	}
	wantDyn := 50e-9 + 400e-9 + 1500e-9 + 2*4096*1e-12
	if diff := f.EnergyJoules() - wantDyn; diff > 1e-15 || diff < -1e-15 {
		t.Fatalf("EnergyJoules = %v, want %v", f.EnergyJoules(), wantDyn)
	}
	// Leakage: 8 dies * 1mW * 1s = 8 mJ.
	tot := f.TotalEnergyJoules(sim.Second)
	if diff := tot - (wantDyn + 8e-3); diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("TotalEnergyJoules = %v", tot)
	}
}

// Property: the flash never loses or corrupts data across arbitrary valid
// program/read sequences within one block.
func TestBlockDataProperty(t *testing.T) {
	f := newTestFlash(t, Options{TrackData: true})
	g := f.Geometry()
	rng := sim.NewRNG(77)
	now := sim.Time(0)
	written := map[int][]byte{}
	for round := 0; round < 3; round++ {
		for p := 0; p < g.PagesPerBlock; p++ {
			buf := make([]byte, g.PageSize)
			for i := range buf {
				buf[i] = byte(rng.Uint64())
			}
			now += sim.FromMicroseconds(5000)
			if _, err := programPage(f, now, Address{Page: p}, buf); err != nil {
				t.Fatal(err)
			}
			written[p] = buf
		}
		for p := 0; p < g.PagesPerBlock; p++ {
			got := make([]byte, g.PageSize)
			now += sim.FromMicroseconds(500)
			if _, err := readPage(f, now, Address{Page: p}, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, written[p]) {
				t.Fatalf("round %d page %d corrupted", round, p)
			}
		}
		now += sim.FromMicroseconds(5000)
		if _, err := eraseBlock(f, now, Address{}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCellTypeStrings(t *testing.T) {
	if SLC.String() != "SLC" || MLC.String() != "MLC" || TLC.String() != "TLC" {
		t.Fatal("cell type names wrong")
	}
	if SLC.LatencyClasses() != 1 || MLC.LatencyClasses() != 2 || TLC.LatencyClasses() != 3 {
		t.Fatal("latency class counts wrong")
	}
	if OpRead.String() != "read" || OpProgram.String() != "program" || OpErase.String() != "erase" {
		t.Fatal("op kind names wrong")
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	g := testGeometry()
	tm := testTiming()
	if _, err := New(Geometry{}, tm, Power{}, MLC, Options{}); err == nil {
		t.Fatal("empty geometry accepted")
	}
	bad := tm
	bad.BusMTps = 0
	if _, err := New(g, bad, Power{}, MLC, Options{}); err == nil {
		t.Fatal("zero bus rate accepted")
	}
	bad = tm
	bad.ReadSlow = tm.ReadFast / 2
	if _, err := New(g, bad, Power{}, MLC, Options{}); err == nil {
		t.Fatal("slow < fast accepted")
	}
	bad = tm
	bad.ISPPJitter = 1.5
	if _, err := New(g, bad, Power{}, MLC, Options{}); err == nil {
		t.Fatal("jitter >= 1 accepted")
	}
	// An unset or unknown cell type is refused, not modelled as MLC.
	for _, cell := range []CellType{0, TLC + 1} {
		if _, err := New(g, tm, Power{}, cell, Options{}); err == nil {
			t.Fatalf("cell type %v accepted", cell)
		}
	}
}

func BenchmarkProgramReadErase(b *testing.B) {
	f, err := New(testGeometry(), testTiming(), Power{}, MLC, Options{})
	if err != nil {
		b.Fatal(err)
	}
	g := f.Geometry()
	now := sim.Time(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blk := Address{Block: i % g.BlocksPerPlane}
		for p := 0; p < g.PagesPerBlock; p++ {
			blk.Page = p
			if _, err := programPage(f, now, blk, nil); err != nil {
				b.Fatal(err)
			}
		}
		now += sim.FromMicroseconds(100000)
		if _, err := eraseBlock(f, now, blk); err != nil {
			b.Fatal(err)
		}
	}
}

// readDeferred issues one staged read the way fil's walked path does: the
// probe validates and draws, the issue replays the draw.
func readDeferred(t *testing.T, f *Flash, now sim.Time, addr Address, dst []byte) Result {
	t.Helper()
	extra, err := f.ProbeReadExtra(addr)
	if err != nil {
		t.Fatal(err)
	}
	return f.ReadDeferredAddr(now, &addr, dst, extra)
}

// onePlan runs op as a one-transaction PlanBatch on e: the program and
// erase paths on an engine, one op at a time.
func onePlan(t *testing.T, f *Flash, e *sim.Engine, dom sim.DomainID, ch int, op func(b *PlanBatch) (Result, error)) Result {
	t.Helper()
	doms := make([]sim.DomainID, f.Geometry().Channels)
	doms[ch] = dom
	b := f.BeginPlan(e, doms)
	r, err := op(b)
	if err != nil {
		b.Abort()
		t.Fatal(err)
	}
	b.Commit()
	return r
}

func programDeferred(t *testing.T, f *Flash, e *sim.Engine, dom sim.DomainID, now sim.Time, addr Address, data []byte) Result {
	t.Helper()
	if err := f.CheckProgram(&addr); err != nil {
		t.Fatal(err)
	}
	return onePlan(t, f, e, dom, addr.Channel, func(b *PlanBatch) (Result, error) {
		return b.ProgramAddr(now, &addr, data, false, -1)
	})
}

func eraseDeferred(t *testing.T, f *Flash, e *sim.Engine, dom sim.DomainID, now sim.Time, addr Address) Result {
	t.Helper()
	return onePlan(t, f, e, dom, addr.Channel, func(b *PlanBatch) (Result, error) {
		return b.Erase(now, addr)
	})
}

// checkDeferredRead holds one way of issuing a staged read to the path's
// contract: timing identical to the synchronous Read, the page bytes
// delivered and the counters and energy charged at issue, nothing scheduled
// on the engine, and no allocation.
func checkDeferredRead(t *testing.T, issue func(f *Flash, e *sim.Engine, dom sim.DomainID, now sim.Time, addr Address, dst []byte) Result) {
	fSync := newTestFlash(t, Options{TrackData: true, Seed: 1})
	fDef := newTestFlash(t, Options{TrackData: true, Seed: 1})
	addr := Address{Channel: 2, Page: 0}
	payload := bytes.Repeat([]byte{0xa5}, 4096)
	for _, f := range []*Flash{fSync, fDef} {
		if _, err := programPage(f, 0, addr, payload); err != nil {
			t.Fatal(err)
		}
	}
	now := sim.FromMicroseconds(5000)
	want, err := readPage(fSync, now, addr, make([]byte, 4096))
	if err != nil {
		t.Fatal(err)
	}

	e := sim.NewEngine()
	dom := e.Domain(ChannelDomain(addr.Channel))
	dst := make([]byte, 4096)
	if got := issue(fDef, e, dom, now, addr, dst); got != want {
		t.Fatalf("staged timing %+v != sync %+v", got, want)
	}
	// The consumer-side contract: bytes are complete at issue, so a
	// continuation reading dst depends on no channel event.
	if !bytes.Equal(dst, payload) {
		t.Fatal("staged read did not deliver the page contents at issue")
	}
	if n := e.Pending(); n != 0 {
		t.Fatalf("staged read scheduled %d events", n)
	}
	if fDef.Stats() != fSync.Stats() {
		t.Fatalf("stats at issue %+v != sync %+v", fDef.Stats(), fSync.Stats())
	}
	if fDef.EnergyJoules() != fSync.EnergyJoules() {
		t.Fatalf("energy at issue %v != sync %v", fDef.EnergyJoules(), fSync.EnergyJoules())
	}

	allocs := testing.AllocsPerRun(100, func() {
		issue(fDef, e, dom, now, addr, dst)
	})
	if allocs != 0 {
		t.Fatalf("staged read allocated %v per op", allocs)
	}
}

// TestReadDeferred verifies the staged read path issued the way fil's
// walked path does, probe then replay.
func TestReadDeferred(t *testing.T) {
	checkDeferredRead(t, func(f *Flash, _ *sim.Engine, _ sim.DomainID, now sim.Time, addr Address, dst []byte) Result {
		return readDeferred(t, f, now, addr, dst)
	})
}

// TestReadDeferredEager holds the by-value certified wrapper to the same
// contract: no probe, no drawn retry cost, and its engine left untouched.
func TestReadDeferredEager(t *testing.T) {
	checkDeferredRead(t, (*Flash).ReadDeferredEagerTrusted)
}

// TestProgramDeferred verifies the program path on an engine (a one-op
// PlanBatch): timing, functional block state, counters, energy and page
// bytes identical to the synchronous Program at issue, no event on a tracked
// or a timing-only flash, and pooled buffers that make steady state
// allocation-free.
func TestProgramDeferred(t *testing.T) {
	fSync := newTestFlash(t, Options{TrackData: true, Seed: 1})
	fDef := newTestFlash(t, Options{TrackData: true, Seed: 1})
	addr := Address{Channel: 3, Page: 0}
	payload := bytes.Repeat([]byte{0x5c}, 4096)

	want, err := programPage(fSync, 0, addr, payload)
	if err != nil {
		t.Fatal(err)
	}

	e := sim.NewEngine()
	dom := e.Domain(ChannelDomain(addr.Channel))
	if got := programDeferred(t, fDef, e, dom, 0, addr, payload); got != want {
		t.Fatalf("deferred timing %+v != sync %+v", got, want)
	}
	if !fDef.PageWritten(addr) || fDef.NextProgramPage(addr) != 1 {
		t.Fatal("functional block state must transition at issue")
	}
	if fDef.Stats() != fSync.Stats() || fDef.EnergyJoules() != fSync.EnergyJoules() {
		t.Fatalf("stats at issue %+v (%v J) != sync %+v (%v J)", fDef.Stats(), fDef.EnergyJoules(), fSync.Stats(), fSync.EnergyJoules())
	}
	if n := e.Pending(); n != 0 {
		t.Fatalf("a tracked program scheduled %d events", n)
	}
	// The bytes landed at issue: a read issued right after observes them.
	staged := make([]byte, 4096)
	readDeferred(t, fDef, 0, addr, staged)
	if !bytes.Equal(staged, payload) {
		t.Fatal("a read issued after the program missed its bytes")
	}
	rb := make([]byte, 4096)
	if _, err := readPage(fDef, sim.FromMicroseconds(50000), addr, rb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rb, payload) {
		t.Fatal("install did not land the programmed bytes")
	}

	// Steady state reuses pooled buffers: no allocations.
	next := Address{Channel: 3, Block: 1}
	doms := make([]sim.DomainID, fDef.Geometry().Channels)
	doms[next.Channel] = dom
	allocs := testing.AllocsPerRun(14, func() {
		b := fDef.BeginPlan(e, doms)
		if _, err := b.ProgramAddr(e.Now(), &next, payload, false, -1); err != nil {
			t.Fatal(err)
		}
		b.Commit()
		next.Page++
	})
	if allocs != 0 {
		t.Fatalf("deferred program allocated %v per op", allocs)
	}

	// Timing-only: counted at issue, nothing scheduled.
	fTiming := newTestFlash(t, Options{Seed: 1})
	if got := programDeferred(t, fTiming, e, dom, 0, addr, payload); got != want {
		t.Fatalf("timing-only timing %+v != sync %+v", got, want)
	}
	if n := e.Pending(); n != 0 {
		t.Fatalf("timing-only program scheduled %d events", n)
	}
	if fTiming.Stats() != fSync.Stats() || fTiming.EnergyJoules() != fSync.EnergyJoules() {
		t.Fatalf("timing-only stats %+v != sync %+v", fTiming.Stats(), fSync.Stats())
	}
}

// TestEraseDeferred verifies the erase path on an engine (a one-op
// PlanBatch): functional reset, counters and energy at issue, byte-identical
// totals versus the synchronous path, no event on a tracked or a timing-only
// flash, and undo records recycled once the engine's clock passes their
// start.
func TestEraseDeferred(t *testing.T) {
	fSync := newTestFlash(t, Options{TrackData: true, Seed: 1})
	fDef := newTestFlash(t, Options{TrackData: true, Seed: 1})
	fTiming := newTestFlash(t, Options{Seed: 1})
	addr := Address{Channel: 1, Page: 0}
	payload := bytes.Repeat([]byte{0x77}, 4096)
	for _, f := range []*Flash{fSync, fDef, fTiming} {
		if _, err := programPage(f, 0, addr, payload); err != nil {
			t.Fatal(err)
		}
	}
	now := sim.FromMicroseconds(10000)
	want, err := eraseBlock(fSync, now, addr)
	if err != nil {
		t.Fatal(err)
	}

	e := sim.NewEngine()
	dom := e.Domain(ChannelDomain(addr.Channel))
	if got := eraseDeferred(t, fDef, e, dom, now, addr); got != want {
		t.Fatalf("deferred timing %+v != sync %+v", got, want)
	}
	if fDef.PageWritten(addr) || fDef.NextProgramPage(addr) != 0 {
		t.Fatal("functional reset must apply at issue")
	}
	if fDef.Stats() != fSync.Stats() || fDef.EnergyJoules() != fSync.EnergyJoules() {
		t.Fatalf("stats at issue %+v (%v J) != sync %+v (%v J)", fDef.Stats(), fDef.EnergyJoules(), fSync.Stats(), fSync.EnergyJoules())
	}
	if n := e.Pending(); n != 0 {
		t.Fatalf("a tracked erase scheduled %d events", n)
	}
	if fDef.EraseCount(addr) != 1 {
		t.Fatalf("EraseCount = %d", fDef.EraseCount(addr))
	}

	if got := eraseDeferred(t, fTiming, e, dom, now, addr); got != want {
		t.Fatalf("timing-only timing %+v != sync %+v", got, want)
	}
	if n := e.Pending(); n != 0 {
		t.Fatalf("timing-only erase scheduled %d events", n)
	}
	if fTiming.Stats() != fSync.Stats() || fTiming.EnergyJoules() != fSync.EnergyJoules() {
		t.Fatalf("timing-only stats %+v != sync %+v", fTiming.Stats(), fSync.Stats())
	}

	doms := make([]sim.DomainID, fDef.Geometry().Channels)
	doms[addr.Channel] = dom
	allocs := testing.AllocsPerRun(20, func() {
		b := fDef.BeginPlan(e, doms)
		r, err := b.Erase(e.Now(), addr)
		if err != nil {
			t.Fatal(err)
		}
		b.Commit()
		e.RunUntil(r.Done) // the next erase prunes this one's undo record
	})
	if allocs != 0 {
		t.Fatalf("deferred erase allocated %v per op", allocs)
	}
}

// TestPlanBatchSchedulesNothing holds a plan on an engine to issue-time
// effects: a tracked plan that reads, programs two dies and erases leaves no
// event behind and its page bytes readable before the engine runs, and a
// timing-only flash counts exactly what the tracked one counts.
func TestPlanBatchSchedulesNothing(t *testing.T) {
	plan := func(f *Flash, e *sim.Engine) {
		t.Helper()
		src := Address{Channel: 0, Page: 0}
		if _, err := programPage(f, 0, src, nil); err != nil {
			t.Fatal(err)
		}
		b := f.BeginPlan(e, testChannelDomains(e, f))
		now := sim.FromMicroseconds(1000)
		if _, err := b.ReadAddr(now, &src, nil); err != nil {
			t.Fatal(err)
		}
		a := Address{Channel: 1}
		for pg := 0; pg < 2; pg++ {
			a.Page = pg
			if _, err := b.ProgramAddr(now, &a, []byte{byte(pg + 1)}, false, -1); err != nil {
				t.Fatal(err)
			}
		}
		c := Address{Channel: 2, Package: 1}
		r, err := b.ProgramAddr(now, &c, []byte{9}, false, -1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err = b.Erase(r.Done, Address{Channel: 2, Package: 1, Block: 1}); err != nil {
			t.Fatal(err)
		}
		b.Commit()
	}
	fTracked := newTestFlash(t, Options{TrackData: true, Seed: 1})
	e := sim.NewEngine()
	plan(fTracked, e)
	if n := e.Pending(); n != 0 {
		t.Fatalf("tracked plan scheduled %d events", n)
	}
	got := make([]byte, 2)
	fTracked.PagePayload(Address{Channel: 1, Page: 1}, got)
	if !bytes.Equal(got, []byte{2, 0}) {
		t.Fatalf("page bytes %x right after Commit, want 0200", got)
	}

	fTiming := newTestFlash(t, Options{Seed: 1})
	eTiming := sim.NewEngine()
	plan(fTiming, eTiming)
	if n := eTiming.Pending(); n != 0 {
		t.Fatalf("timing-only plan scheduled %d events", n)
	}
	if fTiming.Stats() != fTracked.Stats() || fTiming.EnergyJoules() != fTracked.EnergyJoules() {
		t.Fatalf("timing-only stats %+v != tracked %+v", fTiming.Stats(), fTracked.Stats())
	}
}

// TestDeferredGCReprogramOrdering is the golden ordering test for writes on
// an engine against in-flight reads: a read is issued, then a GC-style
// erase + reprogram of the same physical page runs on the engine path. The
// in-flight read must return the pre-erase bytes (delivered at issue), the
// arena must hold the new bytes, and the counters must match a synchronous
// reference executing the same sequence.
func TestDeferredGCReprogramOrdering(t *testing.T) {
	fSync := newTestFlash(t, Options{TrackData: true, Seed: 1})
	fDef := newTestFlash(t, Options{TrackData: true, Seed: 1})
	addr := Address{Channel: 2, Page: 0}
	old := bytes.Repeat([]byte{0x11}, 4096)
	new_ := bytes.Repeat([]byte{0xee}, 4096)

	// Synchronous reference.
	if _, err := programPage(fSync, 0, addr, old); err != nil {
		t.Fatal(err)
	}
	syncDst := make([]byte, 4096)
	if _, err := readPage(fSync, 0, addr, syncDst); err != nil {
		t.Fatal(err)
	}
	if _, err := eraseBlock(fSync, 0, addr); err != nil {
		t.Fatal(err)
	}
	if _, err := programPage(fSync, 0, addr, new_); err != nil {
		t.Fatal(err)
	}

	// Engine run: the same sequence.
	e := sim.NewEngine()
	dom := e.Domain(ChannelDomain(addr.Channel))
	programDeferred(t, fDef, e, dom, 0, addr, old)
	dst := make([]byte, 4096)
	readDeferred(t, fDef, 0, addr, dst)
	eraseDeferred(t, fDef, e, dom, 0, addr)
	programDeferred(t, fDef, e, dom, 0, addr, new_)

	if !bytes.Equal(dst, old) {
		t.Fatalf("in-flight deferred read observed post-erase contents: %x...", dst[:4])
	}
	if !bytes.Equal(dst, syncDst) {
		t.Fatal("deferred read bytes diverge from synchronous reference")
	}
	got := make([]byte, 4096)
	if _, err := readPage(fDef, sim.FromMicroseconds(100000), addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, new_) {
		t.Fatalf("arena did not converge to the reprogrammed bytes: %x...", got[:4])
	}
	ds, ss := fDef.Stats(), fSync.Stats()
	// The verification read above is extra; discount it.
	ds.Reads--
	ds.BytesRead -= uint64(len(got))
	if ds != ss {
		t.Fatalf("deferred stats %+v != sync %+v", ds, ss)
	}
}

// TestReadDeferredSnapshotsAtIssue locks in the data semantics of the
// staged path: the bytes a read returns are fixed when it is issued (the
// array read latches them), so an erase + reprogram of the same physical
// page issued before the read completes must not leak the new contents into
// the in-flight read — exactly what the synchronous Read guarantees by
// copying immediately.
func TestReadDeferredSnapshotsAtIssue(t *testing.T) {
	f := newTestFlash(t, Options{TrackData: true})
	addr := Address{Page: 0}
	old := bytes.Repeat([]byte{0x11}, 4096)
	if _, err := programPage(f, 0, addr, old); err != nil {
		t.Fatal(err)
	}

	dst := make([]byte, 4096)
	readDeferred(t, f, 0, addr, dst)

	// A GC cycle recycles the block before the read completes.
	if _, err := eraseBlock(f, 0, addr); err != nil {
		t.Fatal(err)
	}
	if _, err := programPage(f, 0, addr, bytes.Repeat([]byte{0xee}, 4096)); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(dst, old) {
		t.Fatalf("in-flight read observed post-erase contents: got %x... want %x...", dst[:4], old[:4])
	}
}
