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
	if got := g.CapacityBytes(); got != 2048*4096 {
		t.Fatalf("CapacityBytes = %d", got)
	}
}

func TestAddressRoundTrip(t *testing.T) {
	g := testGeometry()
	f := func(block uint16, page uint8) bool {
		bi := int(block) % g.TotalBlocks()
		pi := int64(bi)*int64(g.PagesPerBlock) + int64(int(page)%g.PagesPerBlock)
		a := g.AddressOfPage(pi)
		if err := g.CheckAddress(a); err != nil {
			return false
		}
		return g.PageIndex(a) == pi && g.BlockIndex(g.AddressOfBlock(bi)) == bi
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
	if _, err := f.Program(0, addr, nil); err != nil {
		t.Fatalf("first program failed: %v", err)
	}
	if _, err := f.Program(0, addr, nil); err == nil {
		t.Fatal("overwrite without erase must fail")
	}
	if _, err := f.Erase(0, addr); err != nil {
		t.Fatalf("erase failed: %v", err)
	}
	if _, err := f.Program(0, addr, nil); err != nil {
		t.Fatalf("program after erase failed: %v", err)
	}
}

func TestInOrderProgramEnforced(t *testing.T) {
	f := newTestFlash(t, Options{})
	if _, err := f.Program(0, Address{Page: 3}, nil); err == nil {
		t.Fatal("out-of-order program (page 3 first) must fail")
	}
	for p := 0; p < 4; p++ {
		if _, err := f.Program(0, Address{Page: p}, nil); err != nil {
			t.Fatalf("in-order program of page %d failed: %v", p, err)
		}
	}
	if _, err := f.Program(0, Address{Page: 6}, nil); err == nil {
		t.Fatal("skipping page 4 must fail")
	}
}

func TestReadUnwrittenFails(t *testing.T) {
	f := newTestFlash(t, Options{})
	if _, err := f.Read(0, Address{Page: 0}, nil); err == nil {
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
	if _, err := f.Program(0, addr, payload); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if _, err := f.Read(0, addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read-back bytes differ from programmed bytes")
	}
	// Erase clears content.
	if _, err := f.Erase(0, addr); err != nil {
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
	if _, err := f.Program(0, addr, payload); err != nil {
		t.Fatal(err)
	}
	payload[0] = 0xBB // mutate caller buffer after program
	got := make([]byte, 4096)
	if _, err := f.Read(0, addr, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAA {
		t.Fatal("flash must store a copy of the programmed data")
	}
}

func TestReadTimingComposition(t *testing.T) {
	f := newTestFlash(t, Options{})
	tm := testTiming()
	if _, err := f.Program(0, Address{Page: 0}, nil); err != nil {
		t.Fatal(err)
	}
	// Use a quiet moment well after the program completes.
	start := sim.FromMicroseconds(10000)
	res, err := f.Read(start, Address{Page: 0}, nil)
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
	r1, err := f.Program(0, a1, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := f.Program(0, a2, nil)
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
	r1, err := f.Program(0, Address{Channel: 0, Page: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := f.Program(0, Address{Channel: 1, Page: 0}, nil)
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
	r1, err := f.Program(0, a1, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := f.Program(0, a2, nil)
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
		if _, err := f.Erase(0, addr); err != nil {
			t.Fatal(err)
		}
	}
	if got := f.EraseCount(addr); got != 5 {
		t.Fatalf("EraseCount = %d, want 5", got)
	}
	if f.MaxEraseCount() != 5 || f.MinEraseCount() != 0 {
		t.Fatalf("Max/Min erase = %d/%d", f.MaxEraseCount(), f.MinEraseCount())
	}
}

func TestStatsAndEnergy(t *testing.T) {
	f := newTestFlash(t, Options{})
	if _, err := f.Program(0, Address{Page: 0}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(sim.FromMicroseconds(5000), Address{Page: 0}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Erase(sim.FromMicroseconds(9000), Address{}); err != nil {
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
	if p := f.AveragePowerW(sim.Second); p <= 0 {
		t.Fatalf("AveragePowerW = %v", p)
	}
}

func TestUtilizationVectors(t *testing.T) {
	f := newTestFlash(t, Options{})
	if _, err := f.Program(0, Address{Channel: 2, Page: 0}, nil); err != nil {
		t.Fatal(err)
	}
	cu := f.ChannelUtilization(sim.FromMicroseconds(1000))
	if cu[2] == 0 {
		t.Fatal("used channel shows zero utilization")
	}
	if cu[0] != 0 {
		t.Fatal("unused channel shows utilization")
	}
	du := f.DieUtilization(sim.FromMicroseconds(10000))
	nonzero := 0
	for _, u := range du {
		if u > 0 {
			nonzero++
		}
	}
	if nonzero != 1 {
		t.Fatalf("want exactly 1 busy die, got %d", nonzero)
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
			if _, err := f.Program(now, Address{Page: p}, buf); err != nil {
				t.Fatal(err)
			}
			written[p] = buf
		}
		for p := 0; p < g.PagesPerBlock; p++ {
			got := make([]byte, g.PageSize)
			now += sim.FromMicroseconds(500)
			if _, err := f.Read(now, Address{Page: p}, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, written[p]) {
				t.Fatalf("round %d page %d corrupted", round, p)
			}
		}
		now += sim.FromMicroseconds(5000)
		if _, err := f.Erase(now, Address{}); err != nil {
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
			if _, err := f.Program(now, blk, nil); err != nil {
				b.Fatal(err)
			}
		}
		now += sim.FromMicroseconds(100000)
		if _, err := f.Erase(now, blk); err != nil {
			b.Fatal(err)
		}
	}
}

// readDeferred issues one deferred read the way fil's walked path does: the
// probe validates and draws, the issue replays the draw.
func readDeferred(t *testing.T, f *Flash, e *sim.Engine, dom sim.DomainID, now sim.Time, addr Address, dst []byte) Result {
	t.Helper()
	extra, err := f.ProbeReadExtra(now, addr)
	if err != nil {
		t.Fatal(err)
	}
	return f.ReadDeferredAddr(e, dom, now, &addr, dst, extra)
}

// onePlan runs op as a one-transaction PlanBatch in addr's channel domain:
// the deferred program and erase paths, one op at a time.
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

// checkDeferredRead holds one way of issuing a deferred read to the path's
// contract: timing identical to the synchronous Read, the page bytes
// delivered at issue, counters and energy landing only when the completion
// event dispatches, and a channel-pooled carrier that makes steady-state
// deferred reads allocation-free.
func checkDeferredRead(t *testing.T, issue func(f *Flash, e *sim.Engine, dom sim.DomainID, now sim.Time, addr Address, dst []byte) Result) {
	fSync := newTestFlash(t, Options{TrackData: true, Seed: 1})
	fDef := newTestFlash(t, Options{TrackData: true, Seed: 1})
	addr := Address{Channel: 2, Page: 0}
	payload := bytes.Repeat([]byte{0xa5}, 4096)
	for _, f := range []*Flash{fSync, fDef} {
		if _, err := f.Program(0, addr, payload); err != nil {
			t.Fatal(err)
		}
	}
	now := sim.FromMicroseconds(5000)
	want, err := fSync.Read(now, addr, make([]byte, 4096))
	if err != nil {
		t.Fatal(err)
	}

	e := sim.NewEngine()
	dom := e.Domain(ChannelDomain(addr.Channel))
	dst := make([]byte, 4096)
	if got := issue(fDef, e, dom, now, addr, dst); got != want {
		t.Fatalf("deferred timing %+v != sync %+v", got, want)
	}
	// The consumer-side contract: bytes are complete at issue, so a
	// continuation reading dst depends on no pending channel event.
	if !bytes.Equal(dst, payload) {
		t.Fatal("deferred read did not deliver the page contents at issue")
	}
	if n := fDef.Stats().Reads; n != 0 {
		t.Fatalf("stats counted before completion: %d reads", n)
	}
	e.Run()
	if fDef.Stats() != fSync.Stats() {
		t.Fatalf("stats after completion %+v != sync %+v", fDef.Stats(), fSync.Stats())
	}
	if fDef.EnergyJoules() != fSync.EnergyJoules() {
		t.Fatalf("energy %v != %v", fDef.EnergyJoules(), fSync.EnergyJoules())
	}
	if !bytes.Equal(dst, payload) {
		t.Fatal("dst changed after the accounting event")
	}

	// Steady state reuses the pooled completion carrier: no allocations.
	allocs := testing.AllocsPerRun(100, func() {
		issue(fDef, e, dom, e.Now(), addr, dst)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("deferred read allocated %v per op", allocs)
	}
}

// TestReadDeferred verifies the deferred read path issued the way fil's
// walked path does, probe then replay.
func TestReadDeferred(t *testing.T) {
	checkDeferredRead(t, func(f *Flash, e *sim.Engine, dom sim.DomainID, now sim.Time, addr Address, dst []byte) Result {
		return readDeferred(t, f, e, dom, now, addr, dst)
	})
}

// TestReadDeferredEager holds the by-value certified wrapper to the same
// contract: no probe, no drawn retry cost, everything else ReadDeferredAddr.
func TestReadDeferredEager(t *testing.T) {
	checkDeferredRead(t, (*Flash).ReadDeferredEagerTrusted)
}

// TestProgramDeferred verifies the deferred program path (a one-op
// PlanBatch): timing and functional block state identical to the
// synchronous Program, counters, energy and the tracked-data install landing
// only when the completion event dispatches, and pooled carriers that make
// steady state allocation-free.
func TestProgramDeferred(t *testing.T) {
	fSync := newTestFlash(t, Options{TrackData: true, Seed: 1})
	fDef := newTestFlash(t, Options{TrackData: true, Seed: 1})
	addr := Address{Channel: 3, Page: 0}
	payload := bytes.Repeat([]byte{0x5c}, 4096)

	want, err := fSync.Program(0, addr, payload)
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
	if n := fDef.Stats().Programs; n != 0 {
		t.Fatalf("stats counted before completion: %d programs", n)
	}
	// A read staged before the install event must already observe the
	// latched bytes (the pending-install index), like the synchronous path.
	staged := make([]byte, 4096)
	readDeferred(t, fDef, e, dom, 0, addr, staged)
	if !bytes.Equal(staged, payload) {
		t.Fatal("read staged before install missed the pending program bytes")
	}
	e.Run()
	if fDef.Stats().Programs != 1 || fDef.Stats().BytesWritten != 4096 {
		t.Fatalf("stats after completion: %+v", fDef.Stats())
	}
	rb := make([]byte, 4096)
	if _, err := fDef.Read(sim.FromMicroseconds(50000), addr, rb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rb, payload) {
		t.Fatal("install did not land the programmed bytes")
	}

	// Steady state reuses the pooled carrier: no allocations.
	next := Address{Channel: 3, Block: 1}
	doms := make([]sim.DomainID, fDef.Geometry().Channels)
	doms[next.Channel] = dom
	allocs := testing.AllocsPerRun(14, func() {
		b := fDef.BeginPlan(e, doms)
		if _, err := b.ProgramAddr(e.Now(), &next, payload, false, -1); err != nil {
			t.Fatal(err)
		}
		b.Commit()
		e.Run()
		next.Page++
	})
	if allocs != 0 {
		t.Fatalf("deferred program allocated %v per op", allocs)
	}
}

// TestEraseDeferred verifies the deferred erase path (a one-op PlanBatch):
// functional reset at issue, counters/energy/presence-clear at completion,
// byte-identical totals versus the synchronous path.
func TestEraseDeferred(t *testing.T) {
	fSync := newTestFlash(t, Options{TrackData: true, Seed: 1})
	fDef := newTestFlash(t, Options{TrackData: true, Seed: 1})
	addr := Address{Channel: 1, Page: 0}
	payload := bytes.Repeat([]byte{0x77}, 4096)
	for _, f := range []*Flash{fSync, fDef} {
		if _, err := f.Program(0, addr, payload); err != nil {
			t.Fatal(err)
		}
	}
	now := sim.FromMicroseconds(10000)
	want, err := fSync.Erase(now, addr)
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
	if n := fDef.Stats().Erases; n != 0 {
		t.Fatalf("stats counted before completion: %d erases", n)
	}
	e.Run()
	if fDef.Stats() != fSync.Stats() {
		t.Fatalf("stats after completion %+v != sync %+v", fDef.Stats(), fSync.Stats())
	}
	if fDef.EraseCount(addr) != 1 {
		t.Fatalf("EraseCount = %d", fDef.EraseCount(addr))
	}

	doms := make([]sim.DomainID, fDef.Geometry().Channels)
	doms[addr.Channel] = dom
	allocs := testing.AllocsPerRun(20, func() {
		b := fDef.BeginPlan(e, doms)
		if _, err := b.Erase(e.Now(), addr); err != nil {
			t.Fatal(err)
		}
		b.Commit()
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("deferred erase allocated %v per op", allocs)
	}
}

// TestDeferredGCReprogramOrdering is the golden ordering test for deferred
// writes against in-flight deferred reads: a read is issued, then a GC-style
// erase + reprogram of the same physical page runs entirely on the deferred
// path before any completion event dispatches. The in-flight read must
// return the pre-erase bytes (delivered at issue), the post-drain arena must
// hold the new bytes (installs and clears dispatch in channel (time, seq)
// order, which the die resource aligns with issue order), and the counters
// must match a synchronous reference executing the same sequence.
func TestDeferredGCReprogramOrdering(t *testing.T) {
	fSync := newTestFlash(t, Options{TrackData: true, Seed: 1})
	fDef := newTestFlash(t, Options{TrackData: true, Seed: 1})
	addr := Address{Channel: 2, Page: 0}
	old := bytes.Repeat([]byte{0x11}, 4096)
	new_ := bytes.Repeat([]byte{0xee}, 4096)

	// Synchronous reference.
	if _, err := fSync.Program(0, addr, old); err != nil {
		t.Fatal(err)
	}
	syncDst := make([]byte, 4096)
	if _, err := fSync.Read(0, addr, syncDst); err != nil {
		t.Fatal(err)
	}
	if _, err := fSync.Erase(0, addr); err != nil {
		t.Fatal(err)
	}
	if _, err := fSync.Program(0, addr, new_); err != nil {
		t.Fatal(err)
	}

	// Deferred run: same sequence, nothing dispatched until the end.
	e := sim.NewEngine()
	dom := e.Domain(ChannelDomain(addr.Channel))
	programDeferred(t, fDef, e, dom, 0, addr, old)
	dst := make([]byte, 4096)
	readDeferred(t, fDef, e, dom, 0, addr, dst)
	eraseDeferred(t, fDef, e, dom, 0, addr)
	programDeferred(t, fDef, e, dom, 0, addr, new_)
	e.Run()

	if !bytes.Equal(dst, old) {
		t.Fatalf("in-flight deferred read observed post-erase contents: %x...", dst[:4])
	}
	if !bytes.Equal(dst, syncDst) {
		t.Fatal("deferred read bytes diverge from synchronous reference")
	}
	got := make([]byte, 4096)
	if _, err := fDef.Read(sim.FromMicroseconds(100000), addr, got); err != nil {
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
// deferred path: the bytes a read returns are fixed when it is issued (the
// array read latches them), so an erase + reprogram of the same physical
// page that executes before the completion event dispatches must not leak
// the new contents into the in-flight read — exactly what the synchronous
// Read guarantees by copying immediately.
func TestReadDeferredSnapshotsAtIssue(t *testing.T) {
	f := newTestFlash(t, Options{TrackData: true})
	addr := Address{Page: 0}
	old := bytes.Repeat([]byte{0x11}, 4096)
	if _, err := f.Program(0, addr, old); err != nil {
		t.Fatal(err)
	}

	e := sim.NewEngine()
	dom := e.Domain(ChannelDomain(addr.Channel))
	dst := make([]byte, 4096)
	readDeferred(t, f, e, dom, 0, addr, dst)

	// A GC cycle recycles the block before the completion event runs.
	if _, err := f.Erase(0, addr); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Program(0, addr, bytes.Repeat([]byte{0xee}, 4096)); err != nil {
		t.Fatal(err)
	}

	e.Run()
	if !bytes.Equal(dst, old) {
		t.Fatalf("in-flight read observed post-erase contents: got %x... want %x...", dst[:4], old[:4])
	}
}
