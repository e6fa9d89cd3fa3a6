package nand

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"amber/internal/sim"
)

// Where a page buffer can sit (bufferPlaces).
const (
	inArena = 1 << iota
	inPool
	inUndo
	inOrphans
)

// bufferPlaces maps every page buffer to the places it sits in, one bit
// each, and counts the buffers that sit in more than one place twice or
// more: the arena's page tables (present or not), the staging pool, an
// erase's undo record, or the orphans a pin keeps aside.
func (f *Flash) bufferPlaces() (places map[*byte]int, doubled int) {
	places = make(map[*byte]int)
	at := func(buf []byte, where int) {
		if places[&buf[0]] != 0 {
			doubled++
		}
		places[&buf[0]] |= where
	}
	for _, a := range f.data {
		for _, chunk := range a.chunks {
			for _, buf := range chunk {
				if buf != nil {
					at(buf, inArena)
				}
			}
		}
	}
	for _, buf := range f.pageBufs {
		at(buf, inPool)
	}
	for _, u := range f.eraseUndo {
		for _, buf := range u.bufs {
			if buf != nil {
				at(buf, inUndo)
			}
		}
	}
	for _, p := range f.pins {
		if p.orphan != nil {
			at(p.orphan, inOrphans)
		}
	}
	return places, doubled
}

// pinHarness drives one small tracked flash through a stream of steps —
// programs (copied and staged), erases with and without an engine, undo
// pruning, power cuts, pins and unpins — and checks the pin ledger after
// every step.
type pinHarness struct {
	t    testing.TB
	f    *Flash
	e    *sim.Engine
	now  sim.Time
	seq  byte
	live []heldPin
	// seen is every buffer any check found; a buffer, once made, is never
	// lost.
	seen map[*byte]bool
	// orphaned and undone count the checks that found an orphan and the
	// erases power cuts undid: what a stream exercised.
	orphaned, undone int
}

// heldPin is a live pin and the bytes its buffer held when it was taken.
type heldPin struct {
	buf, want []byte
}

func newPinHarness(t testing.TB) *pinHarness {
	f, err := New(Geometry{
		Channels: 2, PackagesPerChannel: 1, DiesPerPackage: 1, PlanesPerDie: 1,
		BlocksPerPlane: 3, PagesPerBlock: 4, PageSize: 64,
	}, testTiming(), Power{}, MLC, Options{TrackData: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return &pinHarness{t: t, f: f, e: sim.NewEngine(), seen: make(map[*byte]bool)}
}

// step runs one operation: op selects it, arg parameterises it.
func (h *pinHarness) step(op, arg byte) {
	f, g := h.f, h.f.geo
	h.now += sim.FromMicroseconds(float64(1 + int(arg)%700))
	blk := addressOfBlock(g, int(arg)%g.TotalBlocks())
	total := -1
	if op%8 >= 6 {
		total = len(h.bufferTotal())
	}
	switch op % 8 {
	case 0, 1: // program the block's next page, copied or staged
		if f.NextProgramPage(blk) >= g.PagesPerBlock {
			return
		}
		addr := blk
		addr.Page = f.NextProgramPage(blk)
		h.seq++
		data := bytes.Repeat([]byte{h.seq}, g.PageSize)
		b := f.BeginPlan(h.e, nil)
		var err error
		if op%8 == 0 {
			_, err = b.ProgramAddr(h.now, &addr, data, false, -1)
		} else {
			staged := f.StagingBuf()
			copy(staged, data)
			_, err = b.ProgramAddr(h.now, &addr, staged, true, -1)
		}
		b.Commit()
		if err != nil {
			h.t.Fatal(err)
		}
	case 2: // erase, committed at claim
		if _, err := eraseBlock(f, h.now, blk); err != nil {
			h.t.Fatal(err)
		}
	case 3: // erase on an engine: journaled until pruned
		b := f.BeginPlan(h.e, nil)
		_, err := b.Erase(h.now, blk)
		b.Commit()
		if err != nil {
			h.t.Fatal(err)
		}
	case 4: // prune the undo records whose erase started a while ago
		f.PruneEraseUndo(h.now - sim.FromMicroseconds(float64(arg)*40))
	case 5: // cut power a little in the past, undoing the erases not yet started
		rep := f.PowerLoss(h.now-sim.FromMicroseconds(float64(arg)*20), uint64(arg))
		h.undone += rep.ErasesUndone
		h.live = h.live[:0] // a cut drops every pin
	case 6: // pin a written page
		addr := addressOfPage(g, int64(arg)%g.TotalPages())
		if !f.PageWritten(addr) {
			return
		}
		if buf := f.Pin(addr); buf != nil {
			h.live = append(h.live, heldPin{buf, slices.Clone(buf)})
		}
	case 7: // unpin one
		if len(h.live) == 0 {
			return
		}
		i := int(arg) % len(h.live)
		f.Unpin(h.live[i].buf)
		h.live = slices.Delete(h.live, i, i+1)
	}
	h.check(op, arg, total)
}

// bufferTotal returns every buffer's place, failing unless each sits in
// exactly one.
func (h *pinHarness) bufferTotal() map[*byte]int {
	h.t.Helper()
	places, doubled := h.f.bufferPlaces()
	if doubled > 0 {
		h.t.Fatalf("%d buffers sit in two places or twice in one", doubled)
	}
	return places
}

// check holds the ledger after step op(arg): every live pin's bytes
// unchanged, each buffer in exactly one place, none ever lost, the total
// unchanged by a pin or unpin (total >= 0: the total before it), and no pin
// or orphan once every pin is released.
func (h *pinHarness) check(op, arg byte, total int) {
	h.t.Helper()
	what := fmt.Sprintf("op %d(%d)", op%8, arg)
	for i, p := range h.live {
		if !bytes.Equal(p.buf, p.want) {
			h.t.Fatalf("%s: pin %d's bytes changed", what, i)
		}
	}
	places := h.bufferTotal()
	if total >= 0 && len(places) != total {
		h.t.Fatalf("%s: Pin or Unpin changed the buffer total from %d to %d", what, total, len(places))
	}
	for k := range places {
		h.seen[k] = true
	}
	if len(places) != len(h.seen) {
		h.t.Fatalf("%s: %d buffers in place, %d ever seen: one was lost", what, len(places), len(h.seen))
	}
	distinct := make(map[*byte]bool)
	for _, p := range h.live {
		distinct[&p.buf[0]] = true
	}
	pinned, orphans, _ := h.f.Buffers()
	if pinned != len(distinct) {
		h.t.Fatalf("%s: the flash counts %d pinned buffers, %d are held", what, pinned, len(distinct))
	}
	if len(h.live) == 0 && orphans != 0 {
		h.t.Fatalf("%s: %d orphans with no pin held", what, orphans)
	}
	if orphans > 0 {
		h.orphaned++
	}
}

// finish releases every pin and checks that the orphans went to the pool.
func (h *pinHarness) finish() {
	for len(h.live) > 0 {
		h.step(7, 0)
	}
}

// TestPinLedger runs seeded streams through the pin harness: each pins
// pages and then reprograms, erases (with and without an engine), prunes
// and cuts power under the pins before releasing them.
func TestPinLedger(t *testing.T) {
	orphaned, undone := 0, 0
	for seed := uint64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			h := newPinHarness(t)
			rng := sim.NewRNG(seed)
			for i := 0; i < 300; i++ {
				op := byte(rng.Intn(8))
				if op == 5 && rng.Intn(6) != 0 {
					op = 4 // power cuts are rarer than the rest
				}
				h.step(op, byte(rng.Intn(256)))
			}
			h.finish()
			orphaned += h.orphaned
			undone += h.undone
		})
	}
	if orphaned == 0 || undone == 0 {
		t.Fatalf("the streams exercised too little: %d checks found an orphan, %d erases undone", orphaned, undone)
	}
}

// TestPinSurvivesReprogramAndUndo is the ledger's core case by hand: a page
// is pinned, its block erased on an engine and the page reprogrammed and
// pinned again while the first pin lives; a cut then undoes the erase, which
// puts the first buffer back and orphans the second. Both pins keep their
// bytes throughout. An engine-less erase orphans a pinned buffer at once,
// and the last Unpin pools it.
func TestPinSurvivesReprogramAndUndo(t *testing.T) {
	h := newPinHarness(t)
	f := h.f
	page := Address{}
	program := func(at sim.Time, v byte) {
		t.Helper()
		b := f.BeginPlan(h.e, nil)
		defer b.Commit()
		if _, err := b.ProgramAddr(at, &page, bytes.Repeat([]byte{v}, 64), false, -1); err != nil {
			t.Fatal(err)
		}
	}
	pin := func() heldPin {
		t.Helper()
		buf := f.Pin(page)
		if buf == nil {
			t.Fatal("Pin of a written page returned nil")
		}
		h.live = append(h.live, heldPin{buf, slices.Clone(buf)})
		h.check(6, 0, -1)
		return h.live[len(h.live)-1]
	}
	program(0, 1)
	first := pin()
	eraseAt := sim.FromMicroseconds(10000)
	b := f.BeginPlan(h.e, nil)
	if _, err := b.Erase(eraseAt, page); err != nil {
		t.Fatal(err)
	}
	b.Commit()
	h.check(3, 0, -1)
	program(eraseAt, 2)
	second := pin()
	if &second.buf[0] == &first.buf[0] || second.want[0] != 2 {
		t.Fatal("the reprogrammed page was pinned under its old buffer")
	}
	if rep := f.PowerLoss(eraseAt, 1); rep.ErasesUndone != 1 {
		t.Fatalf("the cut undid %d erases, want 1", rep.ErasesUndone)
	}
	if !bytes.Equal(second.buf, second.want) || !bytes.Equal(first.buf, first.want) {
		t.Fatal("a pinned buffer changed across the cut")
	}
	if &f.data[0].get(0)[0] != &first.buf[0] {
		t.Fatal("the undone erase did not put the first buffer back")
	}
	h.live = h.live[:0] // the cut dropped both pins
	h.check(5, 0, -1)

	pin()
	if _, err := eraseBlock(f, eraseAt*2, page); err != nil {
		t.Fatal(err)
	}
	h.check(2, 0, -1)
	if _, orphans, _ := f.Buffers(); orphans != 1 {
		t.Fatalf("%d orphans after an engine-less erase of a pinned page, want 1", orphans)
	}
	_, _, pooled := f.Buffers()
	h.finish()
	if _, orphans, after := f.Buffers(); orphans != 0 || after != pooled+1 {
		t.Fatalf("after the last Unpin: %d orphans, pool %d -> %d", orphans, pooled, after)
	}
}

// FuzzPinLedger interleaves the harness's steps as the input says, two bytes
// a step (at most 300 steps), and holds the ledger after each.
func FuzzPinLedger(f *testing.F) {
	f.Add([]byte{0, 0, 6, 0, 2, 0, 0, 0, 7, 0}) // an engine-less erase orphans the pin; the refill must not take it
	f.Add([]byte{0, 0, 6, 0, 3, 0, 0, 0, 6, 0, 5, 200, 7, 0})
	f.Add([]byte{1, 3, 1, 3, 6, 12, 2, 3, 0, 3, 6, 12, 4, 9, 7, 1, 7, 0})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 6, 4, 6, 4, 3, 1, 0, 1, 6, 4, 4, 255, 7, 0, 7, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 600 {
			ops = ops[:600]
		}
		h := newPinHarness(t)
		for i := 0; i+1 < len(ops); i += 2 {
			h.step(ops[i], ops[i+1])
		}
		h.finish()
	})
}
