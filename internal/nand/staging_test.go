package nand

import (
	"bytes"
	"testing"

	"amber/internal/sim"
)

func testChannelDomains(e *sim.Engine, f *Flash) []sim.DomainID {
	doms := make([]sim.DomainID, f.geo.Channels)
	for ch := range doms {
		doms[ch] = e.Domain(ChannelDomain(ch))
	}
	return doms
}

func paddedTo(n int, p []byte) []byte {
	out := make([]byte, n)
	copy(out, p)
	return out
}

// TestStagedProgramInstallsFromTheReadBuffer follows one migrated page
// through the staging pool: a recycled (dirty) StagingBuf is filled by a plan
// read of a page programmed earlier in the same plan, handed to ProgramAddr
// as staged and made the destination page at once — that very buffer, not a
// copy — while the buffer the page held before goes to the pool; both pages
// read back and verify, and the next taker is served from the pool instead
// of a fresh allocation.
func TestStagedProgramInstallsFromTheReadBuffer(t *testing.T) {
	f := newTestFlash(t, Options{TrackData: true, Seed: 1})
	ps := f.geo.PageSize
	src, dst := Address{Channel: 1}, Address{Channel: 2}
	short := bytes.Repeat([]byte{0xa7}, 1000) // stored zero-padded to the page
	want := paddedTo(ps, short)

	e := sim.NewEngine()
	b := f.BeginPlan(e, testChannelDomains(e, f))
	// The source program goes the copy path into a dirty recycled buffer: the
	// pad past the payload has to be written, not inherited.
	dirty := f.StagingBuf()
	for i := range dirty {
		dirty[i] = 0xff
	}
	f.ReleaseStagingBuf(dirty)
	if _, err := b.ProgramAddr(0, &src, short, false, 7); err != nil {
		t.Fatal(err)
	}
	buf := f.StagingBuf()
	for i := range buf {
		buf[i] = 0xee // a recycled buffer's leftovers
	}
	if _, err := b.ReadAddr(0, &src, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("plan read of a page programmed in the same plan did not deliver the padded payload into the staging buffer")
	}
	if _, err := b.ProgramAddr(0, &dst, buf, true, 8); err != nil {
		t.Fatal(err)
	}
	b.Commit()
	if &f.data[dst.Channel].get(f.chanLocal(f.geo.PageIndex(dst)))[0] != &buf[0] {
		t.Fatal("a staged program copied its buffer instead of making it the page")
	}
	if n := e.Pending(); n != 0 {
		t.Fatalf("the plan scheduled %d events", n)
	}
	got := make([]byte, ps)
	for _, a := range []Address{src, dst} {
		clear(got)
		if _, err := f.Read(sim.FromMicroseconds(1e5), a, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%v holds %x..., want %x...", a, got[996:1004], want[996:1004])
		}
		if !f.VerifyPage(a) {
			t.Fatalf("%v fails VerifyPage", a)
		}
	}
	// The install was an exchange: the buffer the destination page held
	// before is the pool's one buffer now, and the next taker gets it.
	if n := len(f.pageBufs); n != 1 || &f.pageBufs[0][0] == &buf[0] {
		t.Fatalf("the destination page's previous buffer was not pooled (%d buffers pooled)", n)
	}
	pooled := &f.pageBufs[0][0]
	if &f.StagingBuf()[0] != pooled || len(f.pageBufs) != 0 {
		t.Fatal("a taker was not served from the pool")
	}
}

// TestStagedMigrationSteadyStateAllocs: read a page into a staging buffer and
// program it on staged — once the pool holds one buffer, the cycle allocates
// nothing, whichever channels the page moves between.
func TestStagedMigrationSteadyStateAllocs(t *testing.T) {
	f := newTestFlash(t, Options{TrackData: true, Seed: 1})
	e := sim.NewEngine()
	doms := testChannelDomains(e, f)
	cur := Address{Channel: 0}
	if _, err := f.Program(0, cur, bytes.Repeat([]byte{0x3c}, f.geo.PageSize)); err != nil {
		t.Fatal(err)
	}
	page := 0
	step := func() {
		// Hop channel to channel; each channel's block 0 fills page by page.
		next := Address{Channel: (cur.Channel + 1) % f.geo.Channels, Page: page}
		if next.Channel == 0 {
			page++
			next.Page = page
		}
		b := f.BeginPlan(e, doms)
		buf := f.StagingBuf()
		if _, err := b.ReadAddr(e.Now(), &cur, buf); err != nil {
			t.Fatal(err)
		}
		if _, err := b.ProgramAddr(e.Now(), &next, buf, true, -1); err != nil {
			t.Fatal(err)
		}
		b.Commit()
		cur = next
	}
	for i := 0; i < 8; i++ {
		step() // the pool and the arena's chunks
	}
	if avg := testing.AllocsPerRun(40, step); avg != 0 {
		t.Fatalf("%.2f allocations per staged migration in steady state, want 0", avg)
	}
	got := make([]byte, f.geo.PageSize)
	f.PagePayload(cur, got)
	if !bytes.Equal(got, bytes.Repeat([]byte{0x3c}, f.geo.PageSize)) || !f.VerifyPage(cur) {
		t.Fatal("the payload did not survive 48 staged migrations")
	}
}

// TestPowerCutAndTamperUnderPageSum: the checksum's three verification
// sites with the word-parallel kernel behind them, and the erase undo that
// gives a page its bytes back. A cut with sixteen programs in flight tears
// some and commits the rest: a torn page fails VerifyPage and reads back
// empty, a committed one keeps the bytes it landed at issue and verifies; on
// a verified page a TamperOOB flip of one checksum bit (mode 3) and a single
// flipped payload bit are both caught, and undoing them restores the
// verdict. A cut before an erase's array operation starts undoes the erase,
// bytes included, over a reprogram issued after it.
func TestPowerCutAndTamperUnderPageSum(t *testing.T) {
	f := newTestFlash(t, Options{TrackData: true, Seed: 1})
	g := f.geo
	e := sim.NewEngine()
	b := f.BeginPlan(e, testChannelDomains(e, f))
	var addrs []Address
	payload := func(i int) []byte {
		p := make([]byte, g.PageSize-64*(i%3)) // some shorter than the page: stored padded
		for k := range p {
			p[k] = byte(k*7 + i*31 + 1)
		}
		return p
	}
	for ch := 0; ch < g.Channels; ch++ {
		for pkg := 0; pkg < g.PackagesPerChannel; pkg++ {
			for pl := 0; pl < g.PlanesPerDie; pl++ {
				a := Address{Channel: ch, Package: pkg, Plane: pl}
				if _, err := b.ProgramAddr(0, &a, payload(len(addrs)), false, int64(len(addrs))); err != nil {
					t.Fatal(err)
				}
				addrs = append(addrs, a)
			}
		}
	}
	b.Commit()
	// The power goes 10 us into programs of 820 us and more.
	rep := f.PowerLoss(sim.FromMicroseconds(10), 5)
	if rep.InFlight != len(addrs) || rep.Torn == 0 || rep.Committed == 0 {
		t.Fatalf("cut resolved %+v: want all %d programs in flight, some torn and some committed", rep, len(addrs))
	}
	got := make([]byte, g.PageSize)
	for i, a := range addrs {
		idx := g.PageIndex(a)
		f.PagePayload(a, got)
		if !f.PageOOB(a).Good {
			if f.VerifyPage(a) {
				t.Errorf("page %d torn by the cut passes VerifyPage", i)
			}
			if !bytes.Equal(got, make([]byte, g.PageSize)) {
				t.Errorf("page %d torn by the cut still holds payload bytes", i)
			}
			continue
		}
		if !bytes.Equal(got, paddedTo(g.PageSize, payload(i))) {
			t.Fatalf("page %d committed by the cut lost its bytes", i)
		}
		if !f.VerifyPage(a) {
			t.Fatalf("page %d committed by the cut fails VerifyPage", i)
		}
		f.TamperOOB(idx, 3)
		if f.VerifyPage(a) {
			t.Errorf("page %d: a flipped checksum bit went undetected", i)
		}
		f.TamperOOB(idx, 3)
		stored := f.data[a.Channel].get(f.chanLocal(idx))
		stored[(i*977)%len(stored)] ^= 1 << (i % 8)
		if f.VerifyPage(a) {
			t.Errorf("page %d: a flipped payload bit went undetected", i)
		}
		stored[(i*977)%len(stored)] ^= 1 << (i % 8)
		if !f.VerifyPage(a) {
			t.Errorf("page %d: verdict not restored after undoing the corruption", i)
		}
	}
	// A cut before the erase's array operation started: the erase is undone,
	// and the page gets its bytes back over the reprogram issued after it.
	f2 := newTestFlash(t, Options{TrackData: true, Seed: 1})
	e2 := sim.NewEngine()
	a := Address{Channel: 1}
	if _, err := f2.Program(0, a, payload(0)); err != nil {
		t.Fatal(err)
	}
	b2 := f2.BeginPlan(e2, nil)
	er, err := b2.Erase(sim.FromMicroseconds(1e4), a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b2.ProgramAddr(er.Done, &a, payload(1), false, 1); err != nil {
		t.Fatal(err)
	}
	b2.Commit()
	if rep := f2.PowerLoss(er.Start, 5); rep.ErasesUndone != 1 {
		t.Fatalf("a cut before the erase started resolved %+v, want the erase undone", rep)
	}
	f2.PagePayload(a, got)
	if !bytes.Equal(got, paddedTo(g.PageSize, payload(0))) || !f2.VerifyPage(a) {
		t.Fatal("an undone erase did not give the page its bytes back")
	}
}
