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
// read, handed to ProgramAddr as staged, observed through the pending index
// before the install, installed by exchange — it becomes the arena's page,
// the page's previous buffer goes to the destination channel's free list —
// and verified; a taker on any other channel is then served from that list
// instead of a fresh allocation.
func TestStagedProgramInstallsFromTheReadBuffer(t *testing.T) {
	f := newTestFlash(t, Options{TrackData: true, Seed: 1})
	ps := f.geo.PageSize
	src, dst := Address{Channel: 1}, Address{Channel: 2}
	short := bytes.Repeat([]byte{0xa7}, 1000) // stored zero-padded to the page
	want := paddedTo(ps, short)

	e := sim.NewEngine()
	doms := testChannelDomains(e, f)
	b := f.BeginPlan(e, doms)
	// The source program goes the copy path into a dirty recycled buffer: the
	// pad past the payload has to be written, not inherited.
	dirty := f.StagingBuf(src.Channel)
	for i := range dirty {
		dirty[i] = 0xff
	}
	f.ReleaseStagingBuf(dirty)
	if _, err := b.ProgramAddr(0, &src, short, false, 7); err != nil {
		t.Fatal(err)
	}
	buf := f.StagingBuf(src.Channel)
	for i := range buf {
		buf[i] = 0xee // a recycled buffer's leftovers
	}
	if _, err := b.ReadAddr(0, &src, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("plan read of a pending page did not deliver the padded payload into the staging buffer")
	}
	if _, err := b.ProgramAddr(0, &dst, buf, true, 8); err != nil {
		t.Fatal(err)
	}
	ref := f.pendingProg[dst.Channel][f.geo.PageIndex(dst)]
	if rec := &ref.batch.ops[ref.idx]; &rec.buf[0] != &buf[0] {
		t.Fatal("a staged program copied its buffer instead of taking it over")
	}
	got := make([]byte, ps)
	f.PagePayload(dst, got)
	if !bytes.Equal(got, want) {
		t.Fatal("pending-aware read of the staged program missed its bytes")
	}
	b.Commit()
	e.Run()

	for _, a := range []Address{src, dst} {
		clear(got)
		if _, err := f.Read(sim.FromMicroseconds(1e5), a, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%v holds %x... after the install, want %x...", a, got[996:1004], want[996:1004])
		}
		if !f.VerifyPage(a) {
			t.Fatalf("%v fails VerifyPage after a clean install", a)
		}
	}
	// The install was an exchange: the staged buffer is the page now, and the
	// buffer the page held before is on the destination channel's free list.
	if &f.data[dst.Channel].get(f.chanLocal(f.geo.PageIndex(dst)))[0] != &buf[0] {
		t.Fatal("the install copied the staged buffer into the arena instead of handing it over")
	}
	if n := len(f.pageBufs[dst.Channel]); n != 1 || &f.pageBufs[dst.Channel][0][0] == &buf[0] {
		t.Fatalf("the page's previous buffer was not recycled into channel %d's list (%d buffers there)", dst.Channel, n)
	}
	// Channel 3's list is empty: its taker is served from the others' lists.
	pooled := 0
	for _, l := range f.pageBufs {
		pooled += len(l)
	}
	seen := map[*byte]bool{}
	for i := 0; i < pooled; i++ {
		seen[&f.StagingBuf(3)[0]] = true
	}
	if len(seen) != pooled || pooled < 2 {
		t.Fatalf("%d takes on an empty list found %d of the %d pooled buffers", pooled, len(seen), pooled)
	}
	for _, l := range f.pageBufs {
		if len(l) != 0 {
			t.Fatal("takers allocated while buffers were pooled")
		}
	}
}

// TestStagedMigrationSteadyStateAllocs: read a page into a staging buffer,
// program it on staged, drain — once the pool holds one buffer, the cycle
// allocates nothing, whichever channels the page moves between.
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
		buf := f.StagingBuf(cur.Channel)
		if _, err := b.ReadAddr(e.Now(), &cur, buf); err != nil {
			t.Fatal(err)
		}
		if _, err := b.ProgramAddr(e.Now(), &next, buf, true, -1); err != nil {
			t.Fatal(err)
		}
		b.Commit()
		e.Run()
		cur = next
	}
	for i := 0; i < 8; i++ {
		step() // pools, die batches, pending maps
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
// sites with the word-parallel kernel behind them. A cut with sixteen
// programs in flight tears some and commits the rest: a torn page fails
// VerifyPage and reads back empty, a committed one lands from its abandoned
// staging buffer only through landPending's checksum compare and then
// verifies; on a verified page a TamperOOB flip of one checksum bit (mode 3)
// and a single flipped payload bit are both caught, and undoing them
// restores the verdict.
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
	// Nothing dispatched: every install is still a staged buffer when the
	// power goes, 10 us into programs of 820 us and more.
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
			t.Fatalf("page %d committed by the cut did not land its staged bytes", i)
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
	// The compare in landPending is what keeps a stale staged buffer out: a
	// record whose bytes no longer match the page's stamp must not land.
	f2 := newTestFlash(t, Options{TrackData: true, Seed: 1})
	e2 := sim.NewEngine()
	b2 := f2.BeginPlan(e2, testChannelDomains(e2, f2))
	a := Address{Channel: 1}
	if _, err := b2.ProgramAddr(0, &a, payload(0), false, 0); err != nil {
		t.Fatal(err)
	}
	b2.Commit()
	f2.TamperOOB(g.PageIndex(a), 3) // the stamp now belongs to other bytes
	f2.PowerLoss(sim.FromMicroseconds(1e5), 5)
	f2.PagePayload(a, got)
	if !bytes.Equal(got, make([]byte, g.PageSize)) {
		t.Fatal("a staged buffer whose checksum does not match the page's stamp was installed at the cut")
	}
}
