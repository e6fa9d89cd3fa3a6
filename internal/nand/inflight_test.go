package nand

import (
	"bytes"
	"math/rand"
	"testing"

	"amber/internal/sim"
	"amber/internal/snap"
)

// refPowerLoss is PowerLoss as it ran when every written stamp carried its
// program's completion time: undo the erases that had not started, settle
// the unwritten stamps, and resolve every written stamp whose program
// completes after the cut. done is that completion by write sequence, a
// test-only record of every program. The journals are then pruned at the
// cut as PowerLoss prunes them, so the two flashes' images compare whole.
func refPowerLoss(f *Flash, now sim.Time, seed uint64, done map[uint64]sim.Time) PowerLossReport {
	var rep PowerLossReport
	for i := len(f.eraseUndo) - 1; i >= 0; i-- {
		u := f.eraseUndo[i]
		if u.start > now {
			f.undoErase(u)
			rep.ErasesUndone++
		}
		f.recycleEraseUndo(u)
	}
	f.eraseUndo = f.eraseUndo[:0]
	f.undoLow = sim.MaxTime
	for s := range f.oob {
		o := &f.oob[s]
		if !o.written() {
			f.dropPayload(int64(s))
			*o = pageOOB{}
			continue
		}
		if done[o.seqNo()] <= now {
			continue
		}
		rep.InFlight++
		if tornDraw(seed, f.pageOfSlot(int64(s)), o.seqNo()) {
			rep.Torn++
			o.seq &^= oobGood
			f.dropPayload(int64(s))
			continue
		}
		rep.Committed++
	}
	f.pruneInFlight(now)
	f.plan.e, f.plan.open = nil, false
	f.dropPins()
	f.epoch++
	return rep
}

// journalRun is the deterministic issue history TestJournalCutMatchesFullRecord
// replays: plans on an engine (which prune at its dispatch clock) and
// engine-less plans (which prune only through PruneEraseUndo), each a few
// programs with erases interleaved, over a handful of blocks so that erases
// and reprograms of one block overlap in flight.
type journalRun struct {
	f      *Flash
	e      *sim.Engine
	doms   []sim.DomainID
	rng    *rand.Rand
	now    sim.Time
	pruned sim.Time            // the latest prune time
	done   map[uint64]sim.Time // every program's completion, by sequence
	blocks []int               // the global blocks the run uses
}

func newJournalRun(t *testing.T, seed int64) *journalRun {
	g := testGeometry()
	g.PageSize = 64 // tracked payloads, but small ones: the test builds thousands of flashes
	f, err := New(g, testTiming(), Power{}, MLC, Options{TrackData: true, Seed: uint64(seed)})
	if err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	r := &journalRun{f: f, e: e, doms: testChannelDomains(e, f), rng: rand.New(rand.NewSource(seed)),
		done: map[uint64]sim.Time{}}
	for len(r.blocks) < 10 {
		r.blocks = append(r.blocks, r.rng.Intn(f.geo.TotalBlocks()))
	}
	return r
}

// round issues one plan.
func (r *journalRun) round(t *testing.T) {
	f := r.f
	var b *PlanBatch
	if r.rng.Intn(2) == 0 {
		r.e.RunUntil(r.e.Now() + sim.Time(r.rng.Intn(3000))*sim.Microsecond)
		r.now = sim.MaxOf(r.now, r.e.Now())
		b = f.BeginPlan(r.e, r.doms)
		r.pruned = sim.MaxOf(r.pruned, r.e.Now())
	} else {
		b = f.BeginPlan(nil, nil)
		if r.rng.Intn(3) == 0 {
			at := r.pruned + sim.Time(r.rng.Intn(3000))*sim.Microsecond
			f.PruneEraseUndo(at)
			r.pruned = at
			r.now = sim.MaxOf(r.now, at)
		}
	}
	for k := 1 + r.rng.Intn(30); k > 0; k-- {
		bi := r.blocks[r.rng.Intn(len(r.blocks))]
		a := addressOfBlock(f.geo, bi)
		if r.rng.Intn(6) == 0 || f.blocks[bi].nextPage == int32(f.geo.PagesPerBlock) {
			if _, err := b.Erase(r.now, a); err != nil {
				t.Fatal(err)
			}
			continue
		}
		a.Page = int(f.blocks[bi].nextPage)
		res, err := b.ProgramAddr(r.now, &a, []byte{byte(bi), byte(a.Page), byte(f.progSeq)}, false, int64(bi))
		if err != nil {
			t.Fatal(err)
		}
		r.done[f.progSeq] = res.Done
		r.now += sim.Time(r.rng.Intn(200)) * sim.Microsecond
	}
	b.Commit()
}

// TestJournalCutMatchesFullRecord holds PowerLoss, which finds the programs
// in flight through the program journal, to the cut it made when every
// stamp kept its program's completion time (refPowerLoss over a full record
// of completions): equal reports and equal images after the cut, for cuts
// across the in-flight window — at the latest prune time, at journaled
// completions exactly, and between — after every plan of seeded histories.
func TestJournalCutMatchesFullRecord(t *testing.T) {
	const rounds = 60
	var inFlight, undone, cuts, crossed int
	for seed := int64(1); seed <= 4; seed++ {
		for upto := 3; upto <= rounds; upto += 3 {
			build := func() *journalRun {
				r := newJournalRun(t, seed)
				for i := 0; i < upto; i++ {
					r.round(t)
				}
				return r
			}
			probe := build()
			if len(probe.f.inFlight.chunks)+len(probe.f.inFlight.spare) > 1 {
				crossed++ // the history took a second chunk: drops ran at chunk boundaries
			}
			var times []sim.Time
			for i := range probe.f.inFlight.n {
				times = append(times, probe.f.inFlight.at(i).doneAt)
			}
			end := probe.f.FreeAt() + sim.Millisecond
			picks := []sim.Time{probe.pruned, end}
			for i := 0; i < 4; i++ {
				picks = append(picks, probe.pruned+sim.Time(probe.rng.Int63n(int64(end-probe.pruned)+1)))
				if len(times) > 0 {
					picks = append(picks, times[probe.rng.Intn(len(times))])
				}
			}
			for _, cut := range picks {
				if cut < probe.pruned {
					continue
				}
				got, want := build(), build()
				rep := got.f.PowerLoss(cut, uint64(seed))
				ref := refPowerLoss(want.f, cut, uint64(seed), want.done)
				if rep != ref {
					t.Fatalf("seed %d after %d plans, cut %v: report %+v, full record %+v", seed, upto, cut, rep, ref)
				}
				if !bytes.Equal(encodeFlash(got.f), encodeFlash(want.f)) {
					t.Fatalf("seed %d after %d plans, cut %v: the images after the cut differ", seed, upto, cut)
				}
				inFlight += rep.InFlight
				undone += rep.ErasesUndone
				cuts++
			}
		}
	}
	if inFlight == 0 || undone == 0 || crossed == 0 {
		t.Fatalf("%d cuts caught %d programs in flight and undid %d erases, %d histories crossed a chunk: the histories exercise too little", cuts, inFlight, undone, crossed)
	}
	t.Logf("%d cuts: %d programs in flight, %d erases undone; %d histories crossed a chunk", cuts, inFlight, undone, crossed)
}

// journalN appends n entries completing at from, from+1, ..., to f's
// program journal, stamping slots 0, 1, ... and sequences from 1.
func journalN(f *Flash, n int, from sim.Time) {
	for i := 0; i < n; i++ {
		k := f.inFlight.n + f.inFlight.head
		f.journal(progEntry{doneAt: from + sim.Time(i), slot: int32(k % len(f.oob)), seq: uint32(k + 1)})
	}
}

// TestJournalPrunesToFloor: a burst takes chunks; a prune that leaves a
// program in flight keeps the chunks it empties as spares for the next
// burst, and the prune that empties the journal lets all but one go. The
// journal and the prune time survive a snapshot round trip.
func TestJournalPrunesToFloor(t *testing.T) {
	f := newTestFlash(t, Options{})
	j := &f.inFlight
	journalN(f, 3*inFlightChunk, 1)
	if j.n != 3*inFlightChunk || len(j.chunks) != 3 || len(j.spare) != 0 {
		t.Fatalf("the burst left %d entries in %d chunks, %d spare", j.n, len(j.chunks), len(j.spare))
	}
	r := newTestFlash(t, Options{})
	if err := r.State(snap.Decoding(encodeFlash(f))); err != nil {
		t.Fatal(err)
	}
	for i := range j.n {
		if r.inFlight.n != j.n || *r.inFlight.at(i) != *j.at(i) {
			t.Fatalf("restored journal entry %d is %+v, want %+v", i, *r.inFlight.at(i), *j.at(i))
		}
	}
	f.PruneEraseUndo(sim.Time(2*inFlightChunk + 10))
	if j.n != inFlightChunk-10 || len(j.chunks) != 1 || len(j.spare) != 2 {
		t.Fatalf("a prune into the last chunk left %d entries in %d chunks, %d spare; want %d in 1, 2 spare",
			j.n, len(j.chunks), len(j.spare), inFlightChunk-10)
	}
	f.PruneEraseUndo(5) // prune times only advance
	if f.inFlightCut != sim.Time(2*inFlightChunk+10) {
		t.Fatalf("the prune time went back to %v", f.inFlightCut)
	}
	journalN(f, 2*inFlightChunk, sim.Time(3*inFlightChunk+1)) // the next burst takes the spares
	if len(j.chunks) != 3 || len(j.spare) != 0 {
		t.Fatalf("the next burst holds %d chunks with %d spare, want the 3 there were", len(j.chunks), len(j.spare))
	}
	f.PruneEraseUndo(sim.Time(5 * inFlightChunk))
	if j.n != 0 || len(j.chunks)+len(j.spare) != 1 {
		t.Fatalf("an emptied journal kept %d entries, %d chunks and %d spare", j.n, len(j.chunks), len(j.spare))
	}
}

// TestPlanPruneIsLazy: a plan on an engine only moves the prune time; the
// journal drops what completed by it when an append reaches a chunk
// boundary, and PruneEraseUndo drops it at once. Dead entries wait until
// then, and behind a live one, whose die has not caught up; PowerLoss skips
// them, and the image leaves out the ones a drop would take.
func TestPlanPruneIsLazy(t *testing.T) {
	f := newTestFlash(t, Options{})
	e := sim.NewEngine()
	j := &f.inFlight
	journalN(f, inFlightChunk, 1)
	e.RunUntil(sim.Time(2 * inFlightChunk))
	f.BeginPlan(e, testChannelDomains(e, f)).Commit()
	if f.inFlightCut != e.Now() || j.n != inFlightChunk {
		t.Fatalf("after a plan at %v: prune time %v, %d entries, want all %d kept", e.Now(), f.inFlightCut, j.n, inFlightChunk)
	}
	img := encodeFlash(f)
	f.pruneInFlight(f.inFlightCut)
	if j.n != 0 || !bytes.Equal(encodeFlash(f), img) {
		t.Fatalf("dropping %d dead entries changed the image", inFlightChunk)
	}
	journalN(f, inFlightChunk, 1)              // dead on arrival: the prune time is past them
	journalN(f, 1, sim.Time(10*inFlightChunk)) // a chunk boundary: the dead entries go
	if j.n != 1 || len(j.chunks) != 1 {
		t.Fatalf("at a chunk boundary the journal kept %d entries in %d chunks, want 1 in 1", j.n, len(j.chunks))
	}
	// That live entry holds back the dead ones appended after it.
	journalN(f, 2*inFlightChunk, 1)
	if j.n != 2*inFlightChunk+1 || len(j.chunks) != 3 {
		t.Fatalf("behind a live entry the journal kept %d entries in %d chunks, want %d in 3", j.n, len(j.chunks), 2*inFlightChunk+1)
	}
	f.PruneEraseUndo(sim.Time(10 * inFlightChunk))
	if j.n != 0 {
		t.Fatalf("PruneEraseUndo left %d entries", j.n)
	}
}
