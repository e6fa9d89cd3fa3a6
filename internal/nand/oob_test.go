package nand

import (
	"errors"
	"testing"

	"amber/internal/sim"
	"amber/internal/snap"
)

// TestDecodeRefusesUnstorableState: beside the per-page stamps (which the
// core's snapshot tests cover), a flash image carries two values the
// compact layout has no room for when they are out of range — the write
// sequence counter with either stamp flag's bit set, and payload checksums for
// a timing-only flash, which keeps none — and two states no live flash
// reaches, which PowerLoss relies on never meeting: a page payload, in the
// arena or in an erase-undo record, on a page whose stamp is unwritten.
// Decoding refuses each as corrupt; the unedited images decode.
func TestDecodeRefusesUnstorableState(t *testing.T) {
	// journalErase erases block 0 on an engine, so its undo record, which
	// holds page 0's buffer, stays journaled.
	journalErase := func(f *Flash) {
		b := f.BeginPlan(sim.NewEngine(), nil)
		defer b.Commit()
		if _, err := b.Erase(0, Address{}); err != nil {
			t.Fatal(err)
		}
	}
	unwritten := Address{Page: 1}
	cases := []struct {
		name            string
		srcTrack, track bool
		mutate          func(*Flash)
		wantErr         error
	}{
		{"intact timing-only", false, false, nil, nil},
		{"intact tracked", true, true, nil, nil},
		{"intact tracked with an erase journaled", true, true, journalErase, nil},
		{"sequence with the good bit", false, false, func(f *Flash) { f.progSeq |= oobGood }, snap.ErrCorrupt},
		{"sequence with the written bit", false, false, func(f *Flash) { f.progSeq |= oobWritten }, snap.ErrCorrupt},
		{"checksum on a timing-only flash", true, false, nil, snap.ErrCorrupt},
		{"payload on an unwritten page", true, true, func(f *Flash) {
			idx := f.geo.PageIndex(unwritten)
			f.data[int(idx/f.pagesPerC)].put(f.chanLocal(idx), []byte{9})
		}, snap.ErrCorrupt},
		{"erase-undo payload on an unwritten page", true, true, func(f *Flash) {
			journalErase(f)
			f.eraseUndo[0].bufs[unwritten.Page] = make([]byte, f.geo.PageSize)
		}, snap.ErrCorrupt},
	}
	for _, tc := range cases {
		src := newTestFlash(t, Options{TrackData: tc.srcTrack})
		if _, err := programPage(src, 0, Address{}, []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		if tc.mutate != nil {
			tc.mutate(src)
		}
		dst := newTestFlash(t, Options{TrackData: tc.track})
		err := dst.State(snap.Decoding(encodeFlash(src)))
		if tc.wantErr == nil && err != nil || tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: decode returned %v, want %v", tc.name, err, tc.wantErr)
		}
		if tc.wantErr == nil && src.PageOOB(Address{}) != dst.PageOOB(Address{}) {
			t.Errorf("%s: stamp %+v decoded as %+v", tc.name, src.PageOOB(Address{}), dst.PageOOB(Address{}))
		}
	}
}

// TestOOBGoodFlagBesideSequence: the good flag shares a word with the write
// sequence, so clearing it (a torn program) or flipping it (TamperOOB) must
// leave the sequence the stamp reports, and an erase must clear both.
func TestOOBGoodFlagBesideSequence(t *testing.T) {
	f := newTestFlash(t, Options{TrackData: true})
	addr := Address{}
	for i := 0; i < 3; i++ {
		addr.Page = i
		if _, err := programTagged(f, 0, addr, []byte{byte(i + 1)}, int64(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	idx := f.geo.PageIndex(addr)
	s := f.slotOfPage(idx)
	want := OOBInfo{FI: 12, Seq: 3, Good: true}
	if got := f.PageOOB(addr); got != want || f.sums[s] == 0 {
		t.Fatalf("stamp %+v (checksum %#x), want %+v and a checksum", got, f.sums[s], want)
	}
	f.TamperOOB(idx, 0)
	want.Good = false
	if got := f.PageOOB(addr); got != want || f.VerifyPage(addr) {
		t.Fatalf("tampered stamp %+v, want %+v and a failed verify", got, want)
	}
	if _, err := eraseBlock(f, 0, addr); err != nil {
		t.Fatal(err)
	}
	if got := f.PageOOB(addr); got != (OOBInfo{FI: -1}) || f.sums[s] != 0 {
		t.Fatalf("erased stamp %+v (checksum %#x), want FI -1 and nothing else", got, f.sums[s])
	}
}
