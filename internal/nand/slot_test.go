package nand

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"amber/internal/sim"
	"amber/internal/snap"
)

// TestSlotOrder: on testGeometry pageOfSlot inverts the metadata slot,
// every address's slot is its page's, and the pages of one super-page (a
// block and page on every plane) fill one row of TotalPlanes consecutive
// slots. TestSlotIsAPermutation checks the slot is a permutation.
func TestSlotOrder(t *testing.T) {
	f := newTestFlash(t, Options{})
	g := f.geo
	for idx := int64(0); idx < g.TotalPages(); idx++ {
		s := f.slotOfPage(idx)
		if back := f.pageOfSlot(s); back != idx {
			t.Fatalf("page %d: slot %d maps back to page %d", idx, s, back)
		}
		a := addressOfPage(g, idx)
		if got := f.slot(&a); got != s {
			t.Fatalf("%v: slot %d, page %d's is %d", a, got, idx, s)
		}
		row := int64(a.Block*g.PagesPerBlock + a.Page)
		if s/int64(g.TotalPlanes()) != row || s%int64(g.TotalPlanes()) != int64(g.PlaneIndex(a)) {
			t.Fatalf("%v: slot %d is not plane %d of row %d", a, s, g.PlaneIndex(a), row)
		}
	}
}

// spread programs, one page at a time and round robin, the first pages of
// blocks scattered over every plane of a tracked flash with distinct tags
// and payloads, and returns what each programmed page's stamp must say, its
// completion time and payload, keyed by global physical page number. The
// round robin gives the sequence numbers an order that is neither page nor
// slot order.
func spread(t *testing.T, f *Flash) (want map[int64]OOBInfo, done map[int64]sim.Time, payload map[int64][]byte) {
	t.Helper()
	g := f.geo
	want, done, payload = map[int64]OOBInfo{}, map[int64]sim.Time{}, map[int64][]byte{}
	blocks := []int{0, 9, 23, 50, 77, 101, 127}
	var now sim.Time
	for pg := 0; pg < 6; pg++ {
		for i, bi := range blocks {
			if pg >= 2+i%5 {
				continue
			}
			a := addressOfBlock(g, bi)
			a.Page = pg
			idx := g.PageIndex(a)
			tag := int64(1000 + 17*idx)
			data := []byte{byte(idx), byte(idx >> 8), byte(pg)}
			now += sim.FromMicroseconds(50)
			res, err := programTagged(f, now, a, data, tag)
			if err != nil {
				t.Fatal(err)
			}
			want[idx] = OOBInfo{FI: tag, Seq: f.progSeq, Good: true}
			done[idx] = res.Done
			payload[idx] = data
		}
	}
	return want, done, payload
}

// checkStamps holds every page's PageOOB and PageWritten to want (an absent
// page is erased).
func checkStamps(t *testing.T, f *Flash, want map[int64]OOBInfo, when string) {
	t.Helper()
	for idx := int64(0); idx < f.geo.TotalPages(); idx++ {
		a := addressOfPage(f.geo, idx)
		w, ok := want[idx]
		if !ok {
			w = OOBInfo{FI: -1}
		}
		if got := f.PageOOB(a); got != w || f.PageWritten(a) != ok {
			t.Fatalf("%s: page %d (%v) stamp %+v written %v, want %+v written %v", when, idx, a, got, f.PageWritten(a), w, ok)
		}
	}
}

// TestStampsFollowPageIndex: whatever slot holds a page's stamp, the
// address-level reads and writes (PageOOB, PageWritten, SetPageStripe,
// VerifyPage) and TamperOOB's page number all name the same page, and only
// that page.
func TestStampsFollowPageIndex(t *testing.T) {
	f := newTestFlash(t, Options{TrackData: true})
	g := f.geo
	want, _, _ := spread(t, f)
	checkStamps(t, f, want, "programmed")
	for idx := range want {
		a := addressOfPage(g, idx)
		if !f.VerifyPage(a) {
			t.Fatalf("page %d fails VerifyPage", idx)
		}
		mask := uint32(idx)*2654435761 | 1
		f.SetPageStripe(a, mask)
		w := want[idx]
		w.Stripe = mask
		want[idx] = w
	}
	checkStamps(t, f, want, "striped")
	for idx := range want {
		f.TamperOOB(idx, 1+5*3) // mode 16: tag bit 16
		w := want[idx]
		w.FI ^= 1 << 16
		want[idx] = w
		checkStamps(t, f, want, "tag tampered")
		f.TamperOOB(idx, 3) // a checksum bit: only this page fails to verify
		for other := range want {
			if got := f.VerifyPage(addressOfPage(g, other)); got != (other != idx) {
				t.Fatalf("checksum of page %d tampered: page %d verifies %v", idx, other, got)
			}
		}
		f.TamperOOB(idx, 3)
		f.TamperOOB(idx, 1+5*3)
		w.FI ^= 1 << 16
		want[idx] = w
	}
	checkStamps(t, f, want, "tampering undone")
}

// TestAgeFollowsPageIndex: the retention age a read's fault draw keys on,
// and BlockRisk's oldest written page, are the ages of the pages the
// addresses name.
func TestAgeFollowsPageIndex(t *testing.T) {
	const lim = 100 * sim.Millisecond
	f := newTestFlash(t, Options{Faults: FaultConfig{ReadFailProb: 0.5, RetentionLimit: lim}})
	g := f.geo
	_, done, _ := spread(t, f)
	now := 40 * sim.Millisecond // past every completion: spread's pages finish within 20 ms
	oldest := map[int]sim.Time{}
	for idx, d := range done {
		if d >= now {
			t.Fatalf("page %d completes at %v, after the reads at %v", idx, d, now)
		}
		a := addressOfPage(g, idx)
		bi := g.BlockIndex(a)
		age := now - d
		p, ext := f.readDrawParams(now, a, bi)
		wantP := 0.5 * (1 + float64(age)/float64(lim))
		wantExt := mix64(faultKindExt ^ uint64(age/(lim/16))<<20)
		if math.Abs(p-wantP) > 1e-12 || ext != wantExt {
			t.Fatalf("page %d: draw (%v, %#x), want (%v, %#x) for age %v", idx, p, ext, wantP, wantExt, age)
		}
		if o, ok := oldest[bi]; !ok || d < o {
			oldest[bi] = d
		}
	}
	for bi := 0; bi < g.TotalBlocks(); bi++ {
		want := 0.0
		if o, ok := oldest[bi]; ok {
			want = float64(now-o) / float64(lim)
		}
		if got := f.BlockRisk(bi, now); math.Abs(got-want) > 1e-12 {
			t.Fatalf("block %d: risk %v, want %v", bi, got, want)
		}
	}
}

// TestPowerLossFollowsPageIndex: a cut resolves each in-flight page by the
// torn draw of its own page number and sequence and drops a torn page's
// bytes and nothing else's; an erase the cut lands before puts back exactly
// its block's stamps, and a committed erase leaves its block erased.
func TestPowerLossFollowsPageIndex(t *testing.T) {
	f := newTestFlash(t, Options{TrackData: true})
	g := f.geo
	want, done, payload := spread(t, f)
	if _, err := eraseBlock(f, 0, addressOfBlock(g, 50)); err != nil {
		t.Fatal(err)
	}
	var times []sim.Time
	for idx, d := range done {
		if int(idx)/g.PagesPerBlock == 50 {
			delete(want, idx)
			continue
		}
		times = append(times, d)
	}
	slices.Sort(times)
	cut := times[len(times)/2]
	e := sim.NewEngine()
	b := f.BeginPlan(e, nil)
	if _, err := b.Erase(times[len(times)-1]+sim.FromMicroseconds(5000), addressOfBlock(g, 23)); err != nil {
		t.Fatal(err)
	}
	b.Commit()
	const seed = 77
	var inFlight, torn int
	for idx, w := range want {
		if done[idx] <= cut {
			continue
		}
		inFlight++
		if tornDraw(seed, idx, w.Seq) {
			torn++
			w.Good = false
			want[idx] = w
		}
	}
	if rep := f.PowerLoss(cut, seed); rep != (PowerLossReport{InFlight: inFlight, Torn: torn, Committed: inFlight - torn, ErasesUndone: 1}) || torn == 0 || torn == inFlight {
		t.Fatalf("cut resolved %+v, want %d in flight, %d torn, one erase undone", rep, inFlight, torn)
	}
	checkStamps(t, f, want, "after the cut")
	got := make([]byte, g.PageSize)
	for idx, w := range want {
		a := addressOfPage(g, idx)
		f.PagePayload(a, got)
		wantBytes := paddedTo(g.PageSize, payload[idx])
		if !w.Good {
			wantBytes = make([]byte, g.PageSize)
		}
		if !bytes.Equal(got, wantBytes) || f.VerifyPage(a) != w.Good {
			t.Fatalf("page %d (good %v): wrong bytes or verdict after the cut", idx, w.Good)
		}
	}
}

// stampSection encodes, in PageIndex order, the stamps a timing-only
// flash's image must carry for the written pages in want — the walk order
// the image had when stamps were stored by page number.
func stampSection(n int64, want map[int64]OOBInfo, done map[int64]sim.Time) []byte {
	c := snap.Encoding()
	for idx := int64(0); idx < n; idx++ {
		w, ok := want[idx]
		if !ok {
			continue
		}
		d, sum := done[idx], uint64(0)
		snap.I(c, &w.FI)
		snap.U(c, &w.Seq)
		snap.I(c, &d)
		snap.U(c, &sum)
		c.Bool(&w.Good)
		snap.U(c, &w.Stripe)
	}
	return c.Bytes()
}

// encodeFlash returns f's image.
func encodeFlash(f *Flash) []byte {
	c := snap.Encoding()
	_ = f.State(c) // encoding cannot fail
	return c.Bytes()
}

// TestSnapshotWalksPageIndex: the image lists the written pages' stamps in
// PageIndex order, and a restored flash reads every page's stamp back.
func TestSnapshotWalksPageIndex(t *testing.T) {
	f := newTestFlash(t, Options{})
	want, done, _ := spread(t, f)
	img := encodeFlash(f)
	if !bytes.Contains(img, stampSection(f.geo.TotalPages(), want, done)) {
		t.Fatal("the image does not list the stamps in PageIndex order")
	}
	r := newTestFlash(t, Options{})
	if err := r.State(snap.Decoding(img)); err != nil {
		t.Fatal(err)
	}
	checkStamps(t, r, want, "restored")
}

// TestErasedStampIsZero: a new flash's stamps and checksums are all zero
// bits, which PageOOB reads as erased (FI -1), and so are an erased
// block's.
func TestErasedStampIsZero(t *testing.T) {
	f := newTestFlash(t, Options{TrackData: true})
	check := func(when string) {
		t.Helper()
		for s := range f.oob {
			if f.oob[s] != (pageOOB{}) || f.sums[s] != 0 {
				t.Fatalf("%s: slot %d holds %+v, checksum %#x", when, s, f.oob[s], f.sums[s])
			}
		}
		checkStamps(t, f, nil, when)
	}
	check("new")
	a := Address{Channel: 2, Plane: 1, Block: 3}
	for a.Page = 0; a.Page < f.geo.PagesPerBlock; a.Page++ {
		if _, err := programTagged(f, 0, a, []byte{1}, int64(a.Page)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eraseBlock(f, 0, a); err != nil {
		t.Fatal(err)
	}
	check("erased")
}

// TestExtremeTagsRoundTrip: the complemented tag holds the whole int32
// range — the extremes and -1, the erased stamp's own tag — through a
// program, a TamperOOB flip of the sign bit and back, and a snapshot and
// restore.
func TestExtremeTagsRoundTrip(t *testing.T) {
	tags := []int64{math.MinInt32, -1, math.MaxInt32}
	f := newTestFlash(t, Options{TrackData: true})
	g := f.geo
	want := map[int64]OOBInfo{}
	for i, tag := range tags {
		a := Address{Channel: i, Plane: 1, Block: 5}
		if _, err := programTagged(f, 0, a, []byte{byte(i)}, tag); err != nil {
			t.Fatal(err)
		}
		want[g.PageIndex(a)] = OOBInfo{FI: tag, Seq: f.progSeq, Good: true}
	}
	checkStamps(t, f, want, "programmed")
	for idx, w := range want {
		f.TamperOOB(idx, 31) // mode 31: tag bit 31, the sign
		flipped := w
		flipped.FI = int64(int32(w.FI) ^ math.MinInt32)
		if got := f.PageOOB(addressOfPage(g, idx)); got != flipped {
			t.Fatalf("tag %d with its sign bit flipped reads %+v, want %+v", w.FI, got, flipped)
		}
		f.TamperOOB(idx, 31)
	}
	checkStamps(t, f, want, "flipped back")
	r := newTestFlash(t, Options{TrackData: true})
	if err := r.State(snap.Decoding(encodeFlash(f))); err != nil {
		t.Fatal(err)
	}
	checkStamps(t, r, want, "restored")
}

// TestDecodeRefusesFlagBitsInSequence: a stamp's sequence word in an image
// must leave both flag bits of the stamp's sequence field clear; decoding
// refuses either bit as corrupt (TestDecodeRefusesUnstorableState holds the
// write sequence counter to the same rule).
func TestDecodeRefusesFlagBitsInSequence(t *testing.T) {
	f := newTestFlash(t, Options{})
	want, done, _ := spread(t, f)
	img := encodeFlash(f)
	section := stampSection(f.geo.TotalPages(), want, done)
	at := bytes.Index(img, section)
	if at < 0 {
		t.Fatal("stamp section not found in the image")
	}
	var some int64
	for idx := range want {
		some = idx
		break
	}
	for _, bit := range []uint64{oobGood, oobWritten} {
		bad := map[int64]OOBInfo{}
		for idx, w := range want {
			bad[idx] = w
		}
		w := bad[some]
		w.Seq |= bit
		bad[some] = w
		patched := append(append(append([]byte(nil), img[:at]...), stampSection(f.geo.TotalPages(), bad, done)...), img[at+len(section):]...)
		if err := newTestFlash(t, Options{}).State(snap.Decoding(patched)); !errors.Is(err, snap.ErrCorrupt) {
			t.Errorf("stamp sequence with bit %#x: decode returned %v, want ErrCorrupt", bit, err)
		}
	}
}
