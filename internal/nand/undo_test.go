package nand

import (
	"math/rand"
	"slices"
	"testing"

	"amber/internal/sim"
	"amber/internal/snap"
)

// TestPruneMatchesLinearFilter drives the erase-undo journal with random
// claims, claim-time commits, prunes and power cuts, and holds every prune
// to the reference: a filter over the whole journal that recycles, in
// journal order, each record whose erase started by the dispatch time. The
// low-water mark may skip the scan, never change its outcome: the same live
// records remain in the same order and the pool holds the same records in
// the same order.
func TestPruneMatchesLinearFilter(t *testing.T) {
	g := testGeometry()
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := newTestFlash(t, Options{})
		var now sim.Time
		skipped := 0
		for op := 0; op < 400; op++ {
			switch r := rng.Intn(10); {
			case r < 5: // claim an erase, sometimes committed at once
				now += sim.Time(rng.Intn(2000)) * sim.Microsecond
				a := addressOfBlock(g, rng.Intn(g.TotalBlocks()))
				_, _, u := f.claimErase(now, &a, f.geo.dieOf(&a))
				if rng.Intn(4) == 0 {
					pool := slices.Clone(f.eraseUndoPool)
					f.commitEraseUndo(u)
					if !slices.Equal(f.eraseUndoPool, append(pool, u)) {
						t.Fatalf("seed %d op %d: commit did not pool its record", seed, op)
					}
				}
			case r < 9: // prune at a dispatch time around the journal's starts
				dispatch := sim.Time(rng.Int63n(int64(now + 20*sim.Millisecond + 1)))
				var kept, recycled []*eraseUndoRec
				for _, u := range f.eraseUndo {
					if u.start <= dispatch {
						recycled = append(recycled, u)
					} else {
						kept = append(kept, u)
					}
				}
				wantPool := append(slices.Clone(f.eraseUndoPool), recycled...)
				if len(f.eraseUndo) > 0 && dispatch < f.undoLow {
					skipped++
				}
				f.pruneEraseUndo(dispatch)
				if !slices.Equal(f.eraseUndo, kept) || !slices.Equal(f.eraseUndoPool, wantPool) {
					t.Fatalf("seed %d op %d: prune at %v kept %d records and pooled %d, want %d and %d",
						seed, op, dispatch, len(f.eraseUndo), len(f.eraseUndoPool), len(kept), len(wantPool))
				}
			default: // a power cut recycles the whole journal, newest first
				wantPool := slices.Clone(f.eraseUndoPool)
				for i := len(f.eraseUndo) - 1; i >= 0; i-- {
					wantPool = append(wantPool, f.eraseUndo[i])
				}
				f.PowerLoss(sim.Time(rng.Int63n(int64(now+1))), uint64(seed))
				if len(f.eraseUndo) != 0 || f.undoLow != sim.MaxTime || !slices.Equal(f.eraseUndoPool, wantPool) {
					t.Fatalf("seed %d op %d: a cut left %d records journaled, the mark at %v, or pooled the wrong ones", seed, op, len(f.eraseUndo), f.undoLow)
				}
			}
			for _, u := range f.eraseUndo {
				if u.start < f.undoLow {
					t.Fatalf("seed %d op %d: record started at %v below the low-water mark %v", seed, op, u.start, f.undoLow)
				}
			}
		}
		if skipped == 0 {
			t.Errorf("seed %d: no prune took the low-water shortcut", seed)
		}
	}
}

// TestEraseUndoKeepsStripesThroughImage: on a block holding RAIN parity
// pages, an erase issued on an engine zeroes the live stripe masks and its
// undo record keeps the block's; an image taken while the record is live,
// restored into a new flash and cut before the erase's array operation
// starts puts every parity page's mask back. The image must carry the
// record's own copy: the live table's slots for the block read zero once
// the erase is claimed.
func TestEraseUndoKeepsStripesThroughImage(t *testing.T) {
	for _, track := range []bool{false, true} {
		f := newTestFlash(t, Options{TrackData: track})
		blk := Address{Channel: 1, Plane: 1, Block: 4}
		other := Address{Channel: 2, Block: 7} // keeps a mask on the live table
		want := map[Address]uint32{}
		for pg := 0; pg < 6; pg++ {
			a := blk
			a.Page = pg
			if _, err := programTagged(f, 0, a, []byte{byte(pg)}, -1); err != nil {
				t.Fatal(err)
			}
			want[a] = 0
			if pg%2 == 1 {
				mask := uint32(0b101)<<pg | 1
				f.SetPageStripe(a, mask)
				want[a] = mask
			}
		}
		if _, err := programTagged(f, 0, other, []byte{9}, -1); err != nil {
			t.Fatal(err)
		}
		f.SetPageStripe(other, 1<<31)

		e := sim.NewEngine()
		dom := e.Domain(ChannelDomain(blk.Channel))
		eraseDeferred(t, f, e, dom, f.FreeAt()+sim.FromMicroseconds(100), blk)
		if len(f.eraseUndo) != 1 {
			t.Fatalf("tracked=%v: %d erase-undo records live, want 1", track, len(f.eraseUndo))
		}
		for a := range want {
			if got := f.PageOOB(a).Stripe; got != 0 {
				t.Fatalf("tracked=%v: page %v of the erased block reads stripe %#x", track, a, got)
			}
		}

		r := newTestFlash(t, Options{TrackData: track})
		if err := r.State(snap.Decoding(encodeFlash(f))); err != nil {
			t.Fatal(err)
		}
		if rep := r.PowerLoss(f.eraseUndo[0].start-1, 1); rep.ErasesUndone != 1 || rep.Torn != 0 {
			t.Fatalf("tracked=%v: the cut resolved as %+v, want one erase undone and nothing torn", track, rep)
		}
		want[other] = 1 << 31
		for a, mask := range want {
			if got := r.PageOOB(a); got.Stripe != mask || !got.Good {
				t.Errorf("tracked=%v: page %v restored and un-erased reads %+v, want stripe %#x", track, a, got, mask)
			}
		}
	}
}
